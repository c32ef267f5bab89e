"""MBR utilities: the utility matrix type, expected utilities and the
built-in character n-gram utility.

numpy is imported inside the functions that use it, so importing this
module (as ``selectors`` and ``dataio`` do) does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

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


@dataclass(frozen=True)
class UtilityMatrix:
    """Dense pairwise utility U[j, k] = utility(candidate j, candidate k)."""

    ids: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        import numpy as np

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
    import numpy as np

    k = len(matrix.ids)
    if k < 2:
        raise ValidationError("expected utility needs at least 2 candidates")
    return (matrix.values.sum(axis=1) - np.diag(matrix.values)) / (k - 1)


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
    return UtilityMatrix(ids=tuple(c.id for c in cset.candidates), values=values)
