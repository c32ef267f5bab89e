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
    ref_logp: np.ndarray,
    pairs: Sequence[tuple[int, int, int]],
    config: LossConfig,
) -> tuple[float, np.ndarray]:
    """Mean objective and its exact gradient w.r.t. the policy logit table.

    ``ref_logp`` is the reference policy's log-probability table
    (``log_softmax`` of its logits), the same shape as ``logits``; only the
    DPO margin reads it.  ``pairs`` holds (source row, winner column, loser
    column) index triples, as a sequence or an integer array of shape (n, 3).
    The pairwise term only moves the winner and loser logits of each row;
    the SFT term additionally pulls the whole row toward the winner.  An
    empty batch yields loss 0 and a zero gradient.
    """
    logits = np.asarray(logits, dtype=np.float64)
    ref_logp = np.asarray(ref_logp, dtype=np.float64)
    if logits.shape != ref_logp.shape or logits.ndim != 2:
        raise ValidationError(
            f"policy and reference tables must share a 2-D shape, "
            f"got {logits.shape} and {ref_logp.shape}"
        )
    if len(pairs) == 0:
        return 0.0, np.zeros_like(logits)
    # An integer dtype is required, not cast to: a cast would train (0.7, 1, 2)
    # as (0, 1, 2).  An int64 array passes through without a copy.
    try:
        idx = np.asarray(pairs)
    except ValueError:  # ragged rows
        idx = np.empty(0)
    if idx.ndim != 2 or idx.shape[1] != 3 or idx.dtype.kind not in "iu":
        raise ValidationError("pairs must be (source, winner, loser) index triples")
    idx = idx.astype(np.int64, copy=False)
    n = len(idx)
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
        margin = (theta_w - ref_logp[s, w]) - (theta_l - ref_logp[s, l])
    else:
        margin = theta_w - theta_l
    z = config.beta * margin
    losses = np.logaddexp(0.0, -z)
    dloss_dz = -_sigmoid(-z)
    # One scatter into the flattened table.  bincount adds the weights in
    # input order, so concatenating winner, loser, SFT row and SFT winner
    # terms in that order sums each cell exactly as sequential np.add.at
    # calls would, bit for bit.
    row = s * n_outputs
    cells = [row + w, row + l]
    weights = [dloss_dz * config.beta, -dloss_dz * config.beta]
    if config.sft_weight > 0:
        losses = losses + config.sft_weight * (-theta_w)
        probs = np.exp(logp)
        cells += [(row[:, None] + np.arange(n_outputs)).ravel(), row + w]
        weights += [
            (config.sft_weight * probs[s]).ravel(),
            np.full(n, -config.sft_weight),
        ]
    grad = np.bincount(
        np.concatenate(cells),
        weights=np.concatenate(weights),
        minlength=n_sources * n_outputs,
    ).reshape(n_sources, n_outputs)
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
        ref_logp = log_softmax(rng.standard_normal((n_sources, n_outputs)))
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
            _, grad = batch_loss_and_grad(logits, ref_logp, pairs, config)
            fd = np.zeros_like(grad)
            for i in range(n_sources):
                for j in range(n_outputs):
                    bumped = logits.copy()
                    bumped[i, j] += h
                    up, _ = batch_loss_and_grad(bumped, ref_logp, pairs, config)
                    bumped[i, j] -= 2 * h
                    down, _ = batch_loss_and_grad(bumped, ref_logp, pairs, config)
                    fd[i, j] = (up - down) / (2 * h)
            rel = np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-6)
            worst[name] = max(worst[name], float(rel.max()))
    return worst
