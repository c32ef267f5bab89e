"""Pair scoring: confidence-reward scores and MBR utilities."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import CandidateSet, ValidationError

# Character n-gram settings of the built-in utility: orders 1..6 with recall
# weighted twice as heavily as precision (beta = 2).
_NGRAM_ORDER = 6
_BETA_SQ = 4.0


@dataclass(frozen=True)
class PairScoreInput:
    """Rewards and reference log-likelihoods for one (winner, loser) pair."""

    r_w: float
    r_l: float
    logp_w: float
    logp_l: float

    def __post_init__(self) -> None:
        for name in ("r_w", "r_l", "logp_w", "logp_l"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValidationError(f"non-finite pair score input {name}={value!r}")
        for name in ("r_w", "r_l"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValidationError(f"reward out of range: {name}={value!r}")
        for name in ("logp_w", "logp_l"):
            value = getattr(self, name)
            if value > 0.0:
                raise ValidationError(f"log-likelihood must be <= 0: {name}={value!r}")


def cr_plus(pair: PairScoreInput, k_trust: float) -> float:
    """Additive confidence-reward score.

    k_trust * (r_w - r_l) + (logp_l - logp_w): large when the reward gap is
    wide and the reference policy is more confident in the loser.  k_trust
    weighs how much the rewards are trusted against the likelihood term.
    """
    if not math.isfinite(k_trust) or k_trust < 0:
        raise ValidationError(f"k_trust must be finite and >= 0, got {k_trust!r}")
    return k_trust * (pair.r_w - pair.r_l) + (pair.logp_l - pair.logp_w)


def cr_times(pair: PairScoreInput) -> float:
    """Multiplicative confidence-reward score: (r_w - r_l) * (logp_l - logp_w).

    Positive exactly when the reward ordering and the reference-confidence
    ordering disagree (loser more likely than winner, or winner worse but
    less likely).
    """
    return (pair.r_w - pair.r_l) * (pair.logp_l - pair.logp_w)


@dataclass(frozen=True)
class UtilityMatrix:
    """Dense pairwise utility U[j, k] = utility(candidate j, candidate k)."""

    ids: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "ids", tuple(self.ids))
        if not all(isinstance(c, str) for c in self.ids):
            raise ValidationError("utility matrix ids must be strings")
        if len(set(self.ids)) != len(self.ids) or not self.ids:
            raise ValidationError("utility matrix ids must be non-empty and distinct")
        values = np.asarray(self.values, dtype=np.float64)
        k = len(self.ids)
        if values.shape != (k, k):
            raise ValidationError(
                f"utility matrix must be {k}x{k}, got shape {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValidationError("utility matrix contains non-finite entries")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


def mbr_scores(matrix: UtilityMatrix) -> np.ndarray:
    """Expected utility of every candidate, self-utility excluded."""
    k = len(matrix.ids)
    if k < 2:
        raise ValidationError("expected utility needs at least 2 candidates")
    return (matrix.values.sum(axis=1) - np.diag(matrix.values)) / (k - 1)


def _char_ngrams(text: str, n: int) -> Counter:
    return Counter(text[i : i + n] for i in range(len(text) - n + 1))


@dataclass(frozen=True)
class _NgramProfile:
    """A text's character n-gram counts of orders 1.._NGRAM_ORDER, whitespace
    removed, with the number of n-grams of each order."""

    grams: tuple[Counter, ...]
    totals: tuple[int, ...]

    @classmethod
    def of(cls, text: str) -> _NgramProfile:
        stripped = "".join(text.split())
        grams = tuple(_char_ngrams(stripped, n) for n in range(1, _NGRAM_ORDER + 1))
        return cls(grams, tuple(sum(counts.values()) for counts in grams))


def _common_counts(a: _NgramProfile, b: _NgramProfile) -> list[int]:
    """Clipped n-gram matches per order; symmetric in ``a`` and ``b``."""
    common = []
    for small, large in zip(a.grams, b.grams):
        if len(small) > len(large):
            small, large = large, small
        # A plain loop: about 3x faster than sum() over a generator here.
        matches = 0
        for gram, count in small.items():
            other = large.get(gram)
            if other is not None:
                matches += count if count < other else other
        common.append(matches)
    return common


def _fscore(
    common: Sequence[int], hyp_totals: Sequence[int], ref_totals: Sequence[int]
) -> float:
    """F-beta of the order-averaged n-gram precision and recall.

    Orders that one of the texts is too short for are skipped; two empty
    texts score 1.0.
    """
    if hyp_totals[0] == 0 and ref_totals[0] == 0:
        return 1.0
    precision_sum = 0.0
    recall_sum = 0.0
    orders = 0
    for matches, hyp_total, ref_total in zip(common, hyp_totals, ref_totals):
        if hyp_total == 0 or ref_total == 0:
            continue
        precision_sum += matches / hyp_total
        recall_sum += matches / ref_total
        orders += 1
    if orders == 0:
        return 0.0
    precision = precision_sum / orders
    recall = recall_sum / orders
    if precision + recall == 0.0:
        return 0.0
    return (1 + _BETA_SQ) * precision * recall / (_BETA_SQ * precision + recall)


def builtin_utility(hypothesis: str, reference: str) -> float:
    """Character n-gram F-score of ``hypothesis`` against ``reference``.

    Whitespace is removed before extracting n-grams.  Precision and recall
    are averaged over the n-gram orders that actually occur in both strings
    (shorter strings simply contribute fewer orders), so identical strings
    always score 1.0.  Two empty strings also score 1.0; an empty string
    against a non-empty one scores 0.0.
    """
    hyp = _NgramProfile.of(hypothesis)
    ref = _NgramProfile.of(reference)
    return _fscore(_common_counts(hyp, ref), hyp.totals, ref.totals)


def utility_matrix_for_set(cset: CandidateSet) -> UtilityMatrix:
    """Built-in utility matrix over one candidate set's texts, in its id order.

    Each text's n-gram profile is built once and each unordered pair's
    matches are counted once: U[j, m] and U[m, j] share them and only swap
    precision and recall.  The diagonal is 1.0, which is what the built-in
    utility gives any text against itself.  Other utilities enter selection
    as a precomputed ``UtilityMatrix``.
    """
    profiles = [_NgramProfile.of(cand.text) for cand in cset.candidates]
    k = len(profiles)
    values = np.empty((k, k), dtype=np.float64)
    for j, hyp in enumerate(profiles):
        values[j, j] = 1.0
        for m in range(j + 1, k):
            ref = profiles[m]
            common = _common_counts(hyp, ref)
            values[j, m] = _fscore(common, hyp.totals, ref.totals)
            values[m, j] = _fscore(common, ref.totals, hyp.totals)
    return UtilityMatrix(ids=tuple(c.id for c in cset.candidates), values=values)
