"""MBR utilities: the utility matrix type, expected utilities and the
built-in character n-gram utility.

Ranking by expected utility runs on Python floats: ``UtilityMatrix`` reads
every entry with ``float``, and ``mbr_scores`` sums each row as numpy's
float64 ``sum`` does (``pairwise_sum``), so a matrix read from a file is
built and ranked without loading numpy.  numpy is imported inside the
built-in n-gram utility and on first access to ``UtilityMatrix.values``;
importing this module (as ``selectors`` and ``dataio`` do) does not load
it.  The n-gram utility stays on arrays: pure Python took 71-98 ms against
numpy's 18-25 ms on the benchmark's 16 ``mbr`` pools of K = 16 (2 vCPU)."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from operator import add
from typing import TYPE_CHECKING, Iterable, Sequence

from .core import CandidateSet, ValidationError

if TYPE_CHECKING:
    import numpy as np

# Character n-gram settings of the built-in utility: orders 1..6 with recall
# weighted twice as heavily as precision (beta = 2).
_NGRAM_ORDER = 6
_BETA_SQ = 4.0
# Most cells (K x block width) of the 0/1 threshold table that
# _clipped_matches holds at once, so a pool's peak memory does not grow with
# its number of distinct grams.
_TABLE_CELLS = 1 << 18
# Every code point is below this, so gram * _CODE_POINTS + code point is a
# one-to-one key of (gram, next character).
_CODE_POINTS = 0x110000
# numpy's pairwise sum adds blocks of up to this many values with 8
# interleaved accumulators, and halves longer runs.
_PAIRWISE_BLOCK = 128


def pairwise_sum(values: Sequence[float]) -> float:
    """numpy's float64 ``add.reduce`` of a list or tuple of floats, bit for bit.

    numpy starts from the identity 0.0, so a sum of -0.0 entries is 0.0, and
    adds its pairwise sum: fewer than 8 values in order; up to 128 in 8
    interleaved accumulators combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)),
    then the tail in order; a longer run as its two halves, split at n // 2
    rounded down to a multiple of 8.
    """
    if len(values) < 8:
        total = 0.0
        for value in values:
            total += value
        return total
    return 0.0 + _pairwise_run(values, 0, len(values))


def _pairwise_run(values: Sequence[float], lo: int, hi: int) -> float:
    """numpy's pairwise sum of values[lo:hi], which holds at least 8 values."""
    n = hi - lo
    if n > _PAIRWISE_BLOCK:
        mid = lo + n // 2 - n // 2 % 8
        return _pairwise_run(values, lo, mid) + _pairwise_run(values, mid, hi)
    end = hi - n % 8
    sums = values[lo:lo + 8]
    for i in range(lo + 8, end, 8):
        sums = list(map(add, sums, values[i:i + 8]))
    r0, r1, r2, r3, r4, r5, r6, r7 = sums
    total = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
    for value in values[end:hi]:
        total += value
    return total


def _float_row(row: Iterable[object]) -> tuple[float, ...]:
    """A matrix row read with ``float``.  A string is not a row, and an array
    row has one axis: older numpy reads a one-entry array as a float."""
    if isinstance(row, (str, bytes)) or getattr(row, "ndim", 1) != 1:
        raise TypeError("a row is a string or an array of other than one axis")
    return tuple(map(float, row))


@dataclass(frozen=True, init=False)
class UtilityMatrix:
    """Dense pairwise utility U[j, k] = utility(candidate j, candidate k).

    ``values`` is k rows of k entries that ``float`` reads, such as a k x k
    array's ``tolist()``; ``rows`` holds them as tuples of Python floats,
    read without numpy.  The ``values`` attribute is the matrix as a
    read-only float64 array, built (and numpy imported) on first access.
    """

    ids: tuple[str, ...]
    rows: tuple[tuple[float, ...], ...]

    def __init__(self, ids: Sequence[str], values: Iterable[Iterable[object]]) -> None:
        ids = tuple(ids)
        if not all(isinstance(c, str) for c in ids):
            raise ValidationError("utility matrix ids must be strings")
        if len(set(ids)) != len(ids) or not ids:
            raise ValidationError("utility matrix ids must be non-empty and distinct")
        k = len(ids)
        try:
            rows = tuple(map(_float_row, values))
            if len(rows) != k or any(len(row) != k for row in rows):
                raise ValueError(f"got {len(rows)} rows of lengths {sorted(set(map(len, rows)))}")
        except (TypeError, ValueError, OverflowError) as err:
            raise ValidationError(f"utility matrix must be {k}x{k} numbers: {err}") from None
        if not all(map(math.isfinite, itertools.chain.from_iterable(rows))):
            raise ValidationError("utility matrix contains non-finite entries")
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "rows", rows)

    @cached_property
    def values(self) -> np.ndarray:
        import numpy as np

        array = np.array(self.rows, dtype=np.float64)
        array.setflags(write=False)
        return array


def mbr_scores(matrix: UtilityMatrix) -> list[float]:
    """Expected utility of every candidate, self-utility excluded:
    (row sum - diagonal) / (K - 1), each row summed by ``pairwise_sum``."""
    k = len(matrix.ids)
    if k < 2:
        raise ValidationError("expected utility needs at least 2 candidates")
    return [(pairwise_sum(row) - row[j]) / (k - 1) for j, row in enumerate(matrix.rows)]


def _clipped_matches(
    gram: np.ndarray, text: np.ndarray, count: np.ndarray, k: int
) -> np.ndarray:
    """K x K sums over grams of min(count in text a, count in text b).

    min(C[a, g], C[b, g]) is the number of thresholds t >= 1 that both counts
    reach, so the sum is E @ E.T for the 0/1 table E with one column per
    (gram g, threshold t) and E[a, (g, t)] = (C[a, g] >= t): every pair's
    matches at once, from float64 products whose integer sums stay below
    2**53 and so are exact.  Grams that one text alone holds only reach the
    diagonal and are dropped.  E is built _TABLE_CELLS cells (K x block
    width) at a time; a block may split a gram's columns.
    """
    import numpy as np

    holders = np.bincount(gram)
    shared = holders[gram] >= 2
    gram, text, count = gram[shared], text[shared], count[shared]
    top = np.zeros(len(holders), dtype=count.dtype)
    np.maximum.at(top, gram, count)
    # Gram g's columns start at first[g]; a cell's i-th entry sets column
    # (g, i + 1) in its text's row.
    first = top.cumsum() - top
    rows = text.repeat(count)
    cols = (first[gram] - (count.cumsum() - count)).repeat(count) + np.arange(len(rows))
    matches = np.zeros((k, k))
    n_columns = int(top.sum())
    width = max(1, _TABLE_CELLS // k)
    for lo in range(0, n_columns, width):
        inside = (cols >= lo) & (cols < lo + width)
        block = np.zeros((k, min(width, n_columns - lo)))
        block[rows[inside], cols[inside] - lo] = 1.0
        matches += block @ block.T
    return matches


def utility_matrix_for_set(cset: CandidateSet) -> UtilityMatrix:
    """Built-in utility matrix over one candidate set's texts, in its id order.

    U[j, m] is a chrF-style character n-gram F-score of text j (hypothesis)
    against text m (reference): whitespace is removed, orders
    1.._NGRAM_ORDER that either text is too short for are skipped, precision
    and recall are averaged over the rest and combined with recall weighted
    _BETA_SQ times.  Two empty texts score 1.0, an empty text against a
    non-empty one 0.0, and the diagonal is 1.0, which is what any text scores
    against itself.  Other utilities enter selection as a precomputed
    ``UtilityMatrix``.

    All pairs are scored at once.  Each order's windows (only those inside
    one text) are keyed by the previous order's gram id and the next
    character; ``np.unique`` gives the keys dense gram ids, and a second
    ``np.unique`` over (gram, text) the cells of the order's count table.
    The loop ends at the first order with no window left, since every higher
    order is empty too and adds 0.0.  Every pair's clipped matches come from
    the count tables (``_clipped_matches``), and the F-score takes the same
    float operations in the same order for every entry as the one-pair
    definition.  Memory: arrays as long as the pool's total text length, a
    few K x K tables, and one block of at most _TABLE_CELLS cells of a
    threshold table.
    """
    import numpy as np

    texts = ["".join(cand.text.split()) for cand in cset.candidates]
    k = len(texts)
    lengths = np.array([len(text) for text in texts], dtype=np.int64)
    codes = np.frombuffer("".join(texts).encode("utf-32-le", "surrogatepass"), dtype="<u4")
    owner = np.repeat(np.arange(k), lengths)
    room = np.cumsum(lengths)[owner] - np.arange(len(owner))
    starts = np.arange(len(owner))
    grams = np.zeros(len(owner), dtype=np.int64)  # order 0: the empty gram
    precision_sum = np.zeros((k, k))
    recall_sum = np.zeros((k, k))
    for n in range(1, _NGRAM_ORDER + 1):
        inside = room[starts] >= n
        starts = starts[inside]
        if not len(starts):
            break  # every higher order is empty too and would add 0.0
        # Gram ids stay below the pool's text length, so keys stay below 2**63
        # for any pool of fewer than 8e12 characters.
        key = grams[inside] * _CODE_POINTS + codes[starts + n - 1]
        grams = np.unique(key, return_inverse=True)[1]
        cells, count = np.unique(grams * k + owner[starts], return_counts=True)
        matches = _clipped_matches(cells // k, cells % k, count, k)
        # A pair with a text too short for order n has no matches there, so
        # the order adds 0.0 to its sums, as a skipped order does.
        totals = np.maximum(lengths - n + 1, 1)
        precision_sum += matches / totals[:, None]
        recall_sum += matches / totals
    orders = np.minimum(np.minimum.outer(lengths, lengths), _NGRAM_ORDER)
    with np.errstate(divide="ignore", invalid="ignore"):
        precision = precision_sum / orders
        recall = recall_sum / orders
        values = (1 + _BETA_SQ) * precision * recall / (_BETA_SQ * precision + recall)
    values[(orders == 0) | (precision + recall == 0.0)] = 0.0
    empty = lengths == 0
    values[empty[:, None] & empty[None, :]] = 1.0
    np.fill_diagonal(values, 1.0)
    return UtilityMatrix(ids=tuple(c.id for c in cset.candidates), values=values.tolist())
