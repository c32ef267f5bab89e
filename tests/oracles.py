"""Test oracles: the scalar losses and the sequential gradient scatter.

They restate the objective one pair at a time, or with one ``np.add.at`` per
term, so the tests can check ``crpo.losses.batch_loss_and_grad`` and
``crpo.toylab.train_dpo`` against a second, plainer derivation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from crpo.core import ValidationError
from crpo.losses import LossConfig, _sigmoid, log_softmax


def softplus(x: float) -> float:
    """Numerically stable log(1 + exp(x))."""
    return float(np.logaddexp(0.0, x))


@dataclass(frozen=True)
class PairLogits:
    """Policy and reference log-likelihoods of one preference pair."""

    logp_theta_w: float
    logp_theta_l: float
    logp_ref_w: float
    logp_ref_l: float
    beta: float = 0.1

    def __post_init__(self) -> None:
        for name in ("logp_theta_w", "logp_theta_l", "logp_ref_w", "logp_ref_l"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"non-finite pair logit {name}")
        if not math.isfinite(self.beta) or self.beta <= 0:
            raise ValidationError(f"beta must be finite and > 0, got {self.beta!r}")


def dpo_loss(pair: PairLogits) -> float:
    """-log sigmoid(beta * [(logp_theta_w - logp_ref_w) - (logp_theta_l - logp_ref_l)])."""
    margin = (pair.logp_theta_w - pair.logp_ref_w) - (pair.logp_theta_l - pair.logp_ref_l)
    return softplus(-pair.beta * margin)


def cpo_loss(logp_theta_w: float, logp_theta_l: float, beta: float = 0.1) -> float:
    """Reference-free pairwise loss: -log sigmoid(beta * (logp_theta_w - logp_theta_l))."""
    if not math.isfinite(beta) or beta <= 0:
        raise ValidationError(f"beta must be finite and > 0, got {beta!r}")
    if not (math.isfinite(logp_theta_w) and math.isfinite(logp_theta_l)):
        raise ValidationError("non-finite policy log-likelihood")
    return softplus(-beta * (logp_theta_w - logp_theta_l))


def sft_term(logp_theta_w: float) -> float:
    """Negative log-likelihood of the chosen candidate."""
    if not math.isfinite(logp_theta_w) or logp_theta_w > 0:
        raise ValidationError(
            f"chosen log-likelihood must be finite and <= 0, got {logp_theta_w!r}"
        )
    return -logp_theta_w


def delta_loss(
    before_w: float, before_l: float, after_w: float, after_l: float
) -> float:
    """Change of the pair's log-likelihood margin between two policy snapshots.

    (after_w - after_l) + (before_l - before_w): how much the (winner minus
    loser) margin grew going from the "before" policy to the "after" policy.
    Normalizing constants shared by the two sentences cancel.
    """
    for name, value in (
        ("before_w", before_w),
        ("before_l", before_l),
        ("after_w", after_w),
        ("after_l", after_l),
    ):
        if not math.isfinite(value):
            raise ValidationError(f"non-finite log-likelihood {name}={value!r}")
    return (after_w - after_l) + (before_l - before_w)



def sequential_scatter_loss_and_grad(
    logits: np.ndarray, ref_logp: np.ndarray, pairs, cfg: LossConfig
) -> tuple[float, np.ndarray]:
    """The batch objective with one np.add.at call per gradient term, in the
    order winner, loser, SFT row, SFT winner."""
    s, w, l = np.asarray(pairs, dtype=np.int64).T
    logp = log_softmax(logits)
    if cfg.kind == "dpo":
        margin = (logp[s, w] - ref_logp[s, w]) - (logp[s, l] - ref_logp[s, l])
    else:
        margin = logp[s, w] - logp[s, l]
    z = cfg.beta * margin
    losses = np.logaddexp(0.0, -z)
    dloss_dz = -_sigmoid(-z)
    expected = np.zeros_like(logits)
    np.add.at(expected, (s, w), dloss_dz * cfg.beta)
    np.add.at(expected, (s, l), -dloss_dz * cfg.beta)
    if cfg.sft_weight > 0:
        losses = losses + cfg.sft_weight * (-logp[s, w])
        np.add.at(expected, s, cfg.sft_weight * np.exp(logp)[s])
        np.add.at(expected, (s, w), -cfg.sft_weight)
    return float(losses.sum() / len(pairs)), expected / len(pairs)
