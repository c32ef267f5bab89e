"""Preference objectives (DPO, CPO, SFT) and their tabular-policy gradients.

``PairBatch`` checks and indexes a batch of (source, winner, loser) pairs
once; ``batch_loss_and_grad`` then evaluates the full objective and its
analytic gradient for a tabular softmax policy (one logit row per source).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import ValidationError

LOSS_KINDS = ("dpo", "cpo")


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


@dataclass(frozen=True)
class PairBatch:
    """A batch of preference pairs, checked and indexed once for the kernel.

    ``of`` validates the (source row, winner column, loser column) index
    triples against the reference log-probability table and keeps what every
    evaluation of ``batch_loss_and_grad`` reads: the source rows, the
    reference log-probabilities of winners and losers, and the flat cell index
    of the gradient scatter.
    """

    shape: tuple[int, int]
    s: np.ndarray
    ref_w: np.ndarray
    ref_l: np.ndarray
    # Flat cells of the winner, loser, SFT row and SFT winner terms, in the
    # order the kernel concatenates their weights.
    cells: np.ndarray

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
        cells = np.concatenate(
            [row + w, row + l, (row[:, None] + np.arange(n_outputs)).ravel(), row + w]
        )
        arrays = (s.copy(), ref_logp[s, w], ref_logp[s, l], cells)
        for array in arrays:
            array.setflags(write=False)
        return cls((n_sources, n_outputs), *arrays)


def batch_loss_and_grad(
    logits: np.ndarray, batch: PairBatch, config: LossConfig
) -> tuple[float, np.ndarray]:
    """Mean objective over ``batch`` and its exact gradient w.r.t. the policy
    logit table, which has the batch's shape.

    The pairwise term only moves the winner and loser logits of each row;
    the SFT term additionally pulls the whole row toward the winner; only
    the DPO margin reads the reference.  An empty batch yields loss 0 and a
    zero gradient.
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
    if config.kind == "dpo":
        margin = (theta_w - batch.ref_w) - (theta_l - batch.ref_l)
    else:
        margin = theta_w - theta_l
    z = config.beta * margin
    losses = np.logaddexp(0.0, -z)
    dloss_dz = -_sigmoid(-z)
    # One scatter into the flattened table.  bincount adds the weights in
    # input order, so concatenating winner, loser, SFT row and SFT winner
    # terms in that order sums each cell exactly as sequential np.add.at
    # calls would, bit for bit.
    cells = batch.cells[: 2 * n]
    weights = [dloss_dz * config.beta, -dloss_dz * config.beta]
    if config.sft_weight > 0:
        losses = losses + config.sft_weight * (-theta_w)
        probs = np.exp(logp)
        cells = batch.cells
        weights += [(config.sft_weight * probs[batch.s]).ravel(), np.full(n, -config.sft_weight)]
    grad = np.bincount(
        cells,
        weights=np.concatenate(weights),
        minlength=batch.shape[0] * batch.shape[1],
    ).reshape(batch.shape)
    loss = float(losses.sum() / n)
    if not math.isfinite(loss):
        raise ValidationError("non-finite loss")
    grad /= n
    return loss, grad


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
        batch = PairBatch.of(pairs, ref_logp)
        for name, config in (
            ("dpo", LossConfig(kind="dpo", sft_weight=0.0)),
            ("dpo+sft", LossConfig(kind="dpo", sft_weight=1.0)),
            ("cpo", LossConfig(kind="cpo", sft_weight=0.0)),
            ("cpo+sft", LossConfig(kind="cpo", sft_weight=1.0)),
        ):
            _, grad = batch_loss_and_grad(logits, batch, config)
            fd = np.zeros_like(grad)
            for i in range(n_sources):
                for j in range(n_outputs):
                    bumped = logits.copy()
                    bumped[i, j] += h
                    up, _ = batch_loss_and_grad(bumped, batch, config)
                    bumped[i, j] -= 2 * h
                    down, _ = batch_loss_and_grad(bumped, batch, config)
                    fd[i, j] = (up - down) / (2 * h)
            rel = np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-6)
            worst[name] = max(worst[name], float(rel.max()))
    return worst
