"""Preference objectives (DPO, CPO, SFT) and their tabular-policy gradients.

The pairwise losses operate on scalar log-likelihoods so they can be probed
in isolation; ``batch_loss_and_grad`` evaluates the full objective and its
analytic gradient for a tabular softmax policy (one logit row per source).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import ValidationError

GAMMA_MODES = ("sign", "identity")
LOSS_KINDS = ("dpo", "cpo")


def softplus(x: float) -> float:
    """Numerically stable log(1 + exp(x))."""
    return float(np.logaddexp(0.0, x))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax of a 2-D logit table."""
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


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


def gamma_weight(gap: float, mode: str) -> float:
    """Reward weighting of the generalized pairwise loss."""
    if mode == "sign":
        return 1.0 if gap > 0 else -1.0
    if mode == "identity":
        return gap
    raise ValidationError(f"unknown gamma mode {mode!r}; valid modes: {', '.join(GAMMA_MODES)}")


def gamma_loss(
    r_w: float, r_l: float, logp_w: float, logp_l: float, mode: str = "identity"
) -> float:
    """Generalized reward-weighted pairwise loss gamma(r_w - r_l) * (logp_w - logp_l).

    With the sign weighting and r_w > r_l this is the beta=1 margin of the
    reference-free loss; with the identity weighting its negation is the
    multiplicative confidence-reward score.
    """
    for name, value in (("r_w", r_w), ("r_l", r_l)):
        if not math.isfinite(value) or not 0.0 <= value <= 1.0:
            raise ValidationError(f"reward out of range: {name}={value!r}")
    if not (math.isfinite(logp_w) and math.isfinite(logp_l)):
        raise ValidationError("non-finite log-likelihood")
    return gamma_weight(r_w - r_l, mode) * (logp_w - logp_l)


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


@dataclass(frozen=True)
class LossConfig:
    """Training objective: pairwise kind, beta, and SFT weight on the winner."""

    kind: str = "dpo"
    beta: float = 0.1
    sft_weight: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in LOSS_KINDS:
            raise ValidationError(
                f"unknown loss kind {self.kind!r}; valid kinds: {', '.join(LOSS_KINDS)}"
            )
        if not math.isfinite(self.beta) or self.beta <= 0:
            raise ValidationError(f"beta must be finite and > 0, got {self.beta!r}")
        if not math.isfinite(self.sft_weight) or self.sft_weight < 0:
            raise ValidationError(
                f"sft_weight must be finite and >= 0, got {self.sft_weight!r}"
            )


def batch_loss_and_grad(
    logits: np.ndarray,
    ref_logits: np.ndarray,
    pairs: Sequence[tuple[int, int, int]],
    config: LossConfig,
) -> tuple[float, np.ndarray]:
    """Mean objective and its exact gradient w.r.t. the policy logit table.

    ``pairs`` holds (source row, winner column, loser column) index triples.
    The pairwise term only moves the winner and loser logits of each row;
    the SFT term additionally pulls the whole row toward the winner.  An
    empty batch yields loss 0 and a zero gradient.
    """
    logits = np.asarray(logits, dtype=np.float64)
    ref_logits = np.asarray(ref_logits, dtype=np.float64)
    if logits.shape != ref_logits.shape or logits.ndim != 2:
        raise ValidationError(
            f"policy and reference tables must share a 2-D shape, "
            f"got {logits.shape} and {ref_logits.shape}"
        )
    grad = np.zeros_like(logits)
    if len(pairs) == 0:
        return 0.0, grad
    idx = np.asarray(pairs, dtype=np.int64)
    if idx.ndim != 2 or idx.shape[1] != 3:
        raise ValidationError("pairs must be (source, winner, loser) index triples")
    n_sources, n_outputs = logits.shape
    s, w, l = idx[:, 0], idx[:, 1], idx[:, 2]
    if (
        s.min() < 0 or s.max() >= n_sources
        or min(w.min(), l.min()) < 0 or max(w.max(), l.max()) >= n_outputs
    ):
        raise ValidationError("pair index out of range for the logit table")

    logp = log_softmax(logits)
    theta_w, theta_l = logp[s, w], logp[s, l]
    if config.kind == "dpo":
        ref_logp = log_softmax(ref_logits)
        margin = (theta_w - ref_logp[s, w]) - (theta_l - ref_logp[s, l])
    else:
        margin = theta_w - theta_l
    z = config.beta * margin
    losses = np.logaddexp(0.0, -z)
    dloss_dz = -_sigmoid(-z)
    np.add.at(grad, (s, w), dloss_dz * config.beta)
    np.add.at(grad, (s, l), -dloss_dz * config.beta)
    if config.sft_weight > 0:
        losses = losses + config.sft_weight * (-theta_w)
        probs = np.exp(logp)
        np.add.at(grad, s, config.sft_weight * probs[s])
        np.add.at(grad, (s, w), -config.sft_weight)
    n = len(pairs)
    loss = float(losses.sum() / n)
    if not math.isfinite(loss):
        raise ValidationError("non-finite loss")
    return loss, grad / n


def gradient_check(
    seed: int = 0, n_instances: int = 100, h: float = 1e-5
) -> dict[str, float]:
    """Max relative error of the analytic gradient against central finite
    differences, per objective variant, over random tabular instances."""
    if not isinstance(seed, int) or seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed!r}")
    if not isinstance(n_instances, int) or n_instances < 1:
        raise ValidationError(f"instances must be a positive integer, got {n_instances!r}")
    rng = np.random.default_rng(seed)
    worst = {
        "dpo": 0.0,
        "dpo+sft": 0.0,
        "cpo": 0.0,
        "cpo+sft": 0.0,
    }
    for _ in range(n_instances):
        n_sources = int(rng.integers(1, 4))
        n_outputs = int(rng.integers(3, 9))
        logits = rng.standard_normal((n_sources, n_outputs))
        ref_logits = rng.standard_normal((n_sources, n_outputs))
        n_pairs = int(rng.integers(1, 7))
        pairs = []
        for _ in range(n_pairs):
            s = int(rng.integers(n_sources))
            w, l = rng.choice(n_outputs, size=2, replace=False).tolist()
            pairs.append((s, int(w), int(l)))
        for name, config in (
            ("dpo", LossConfig(kind="dpo", sft_weight=0.0)),
            ("dpo+sft", LossConfig(kind="dpo", sft_weight=1.0)),
            ("cpo", LossConfig(kind="cpo", sft_weight=0.0)),
            ("cpo+sft", LossConfig(kind="cpo", sft_weight=1.0)),
        ):
            _, grad = batch_loss_and_grad(logits, ref_logits, pairs, config)
            fd = np.zeros_like(grad)
            for i in range(n_sources):
                for j in range(n_outputs):
                    bumped = logits.copy()
                    bumped[i, j] += h
                    up, _ = batch_loss_and_grad(bumped, ref_logits, pairs, config)
                    bumped[i, j] -= 2 * h
                    down, _ = batch_loss_and_grad(bumped, ref_logits, pairs, config)
                    fd[i, j] = (up - down) / (2 * h)
            rel = np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-6)
            worst[name] = max(worst[name], float(rel.max()))
    return worst
