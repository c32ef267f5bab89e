"""The DPO + SFT training objective and its tabular-policy gradient.

``PairBatch`` checks and indexes a batch of (source, winner, loser) pairs
once; ``batch_loss_and_grad`` then evaluates the objective (the DPO loss of
each pair plus the negative log-likelihood of its winner) and its analytic
gradient for a tabular softmax policy (one logit row per source).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import ValidationError, is_finite_number

# Step of the central finite differences in gradient_check.
_FD_STEP = 1e-5


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
class LossConfig:
    """Training objective: the DPO temperature beta."""

    beta: float = 0.1

    def __post_init__(self) -> None:
        if not is_finite_number(self.beta) or self.beta <= 0:
            raise ValidationError(f"beta must be finite and > 0, got {self.beta!r}")


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@dataclass(frozen=True)
class PairBatch:
    """A batch of preference pairs, checked and indexed once for the kernel.

    ``of`` validates the (source row, winner column, loser column) index
    triples against the reference log-probability table and keeps what every
    evaluation of ``batch_loss_and_grad`` reads: the source rows, the
    reference log-probabilities of winners and losers, the flat cells of the
    gradient scatter, and the number of pairs in each row.
    """

    shape: tuple[int, int]
    s: np.ndarray
    ref_w: np.ndarray
    ref_l: np.ndarray
    # Flat cells of the kernel's bincount, in the order of its weights: the
    # winner cells, the loser cells, then the winner cells again for the SFT
    # term, each in pair order.
    cells: np.ndarray
    # A (rows, 1) float column: the number of pairs in each row.
    per_row: np.ndarray

    @classmethod
    def of(cls, pairs: Sequence[tuple[int, int, int]], ref_logp: np.ndarray) -> PairBatch:
        """``pairs`` as a sequence or an integer array of shape (n, 3);
        ``ref_logp`` is the reference policy's log-probability table
        (``log_softmax`` of its logits)."""
        ref_logp = np.asarray(ref_logp, dtype=np.float64)
        if ref_logp.ndim != 2:
            raise ValidationError(f"reference table must be 2-D, got shape {ref_logp.shape}")
        n_sources, n_outputs = ref_logp.shape
        if len(pairs) == 0:
            idx = np.empty((0, 3), dtype=np.int64)
        else:
            # An integer dtype is required, not cast to: a cast would train
            # (0.7, 1, 2) as (0, 1, 2).
            try:
                idx = np.asarray(pairs)
            except ValueError:  # ragged rows
                idx = np.empty(0)
            if idx.ndim != 2 or idx.shape[1] != 3 or idx.dtype.kind not in "iu":
                raise ValidationError("pairs must be (source, winner, loser) index triples")
            idx = idx.astype(np.int64)
        s, w, l = idx.T
        if len(idx) and (
            s.min() < 0 or s.max() >= n_sources
            or min(w.min(), l.min()) < 0 or max(w.max(), l.max()) >= n_outputs
        ):
            raise ValidationError("pair index out of range for the logit table")
        row = s * n_outputs
        win = row + w
        per_row = np.bincount(s, minlength=n_sources).astype(np.float64)
        return cls(
            shape=(n_sources, n_outputs),
            s=_frozen(s.copy()),
            ref_w=_frozen(ref_logp[s, w]),
            ref_l=_frozen(ref_logp[s, l]),
            cells=_frozen(np.concatenate([win, row + l, win])),
            per_row=_frozen(per_row.reshape(-1, 1)),
        )


def batch_loss_and_grad(
    logits: np.ndarray, batch: PairBatch, config: LossConfig
) -> tuple[float, np.ndarray]:
    """Mean objective over ``batch`` and its exact gradient w.r.t. the policy
    logit table, which has the batch's shape.

    The DPO term only moves the winner and loser logits of each row; the SFT
    term additionally pulls the whole row toward the winner.  An empty batch
    yields loss 0 and a zero gradient.
    """
    if np.shape(logits) != batch.shape:
        raise ValidationError(
            f"policy and reference tables must share a 2-D shape, "
            f"got {np.shape(logits)} and {batch.shape}"
        )
    n = len(batch.s)
    if n == 0:
        return 0.0, np.zeros(batch.shape)
    logp = log_softmax(logits)
    theta_w, theta_l = logp.take(batch.cells[:n]), logp.take(batch.cells[n : 2 * n])
    z = config.beta * ((theta_w - batch.ref_w) - (theta_l - batch.ref_l))
    losses = np.logaddexp(0.0, -z) - theta_w
    dloss_dz = -_sigmoid(-z)
    # bincount adds its weights in input order, so every cell sums its terms
    # as one np.add.at call per term would (winner, loser, SFT winner, each in
    # pair order).  Every pair of a row adds the same SFT row term, the row's
    # probabilities, so the row adds them once, times its number of pairs.
    weights = np.concatenate(
        [dloss_dz * config.beta, -dloss_dz * config.beta, np.full(n, -1.0)]
    )
    grad = np.bincount(
        batch.cells, weights=weights, minlength=batch.shape[0] * batch.shape[1]
    ).reshape(batch.shape)
    probs = np.exp(logp, out=logp)
    grad += np.multiply(probs, batch.per_row, out=probs)
    loss = float(losses.sum() / n)
    if not math.isfinite(loss):
        raise ValidationError("non-finite loss")
    grad /= n
    return loss, grad


def gradient_check(seed: int = 0, n_instances: int = 100) -> float:
    """Max relative error of the analytic gradient against central finite
    differences over random tabular instances."""
    if not isinstance(seed, int) or seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed!r}")
    if not isinstance(n_instances, int) or n_instances < 1:
        raise ValidationError(f"instances must be a positive integer, got {n_instances!r}")
    rng = np.random.default_rng(seed)
    config = LossConfig()
    worst = 0.0
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
        batch = PairBatch.of(pairs, ref_logp)
        _, grad = batch_loss_and_grad(logits, batch, config)
        fd = np.zeros_like(grad)
        for i in range(n_sources):
            for j in range(n_outputs):
                bumped = logits.copy()
                bumped[i, j] += _FD_STEP
                up, _ = batch_loss_and_grad(bumped, batch, config)
                bumped[i, j] -= 2 * _FD_STEP
                down, _ = batch_loss_and_grad(bumped, batch, config)
                fd[i, j] = (up - down) / (2 * _FD_STEP)
        rel = np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-6)
        worst = max(worst, float(rel.max()))
    return worst
