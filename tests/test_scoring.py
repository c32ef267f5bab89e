"""Scoring contracts: CR scores, MBR utilities, text utility."""

from __future__ import annotations

import numpy as np
import pytest

from crpo import scoring
from crpo.scoring import UtilityMatrix, mbr_scores, utility_matrix_for_set
from crpo.core import Candidate, CandidateSet, ValidationError

from conftest import make_set
from oracles import PairScoreInput, builtin_utility, cr_plus, cr_times


def pair(r_w, r_l, logp_w, logp_l) -> PairScoreInput:
    return PairScoreInput(r_w=r_w, r_l=r_l, logp_w=logp_w, logp_l=logp_l)


class TestPairScoreInput:
    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError, match="non-finite"):
            pair(0.5, 0.5, float("nan"), -1.0)

    def test_reward_range_checked(self):
        with pytest.raises(ValidationError, match="reward out of range"):
            pair(1.5, 0.5, -1.0, -1.0)

    def test_positive_logprob_rejected(self):
        with pytest.raises(ValidationError, match="<= 0"):
            pair(0.5, 0.4, 1.0, -1.0)


class TestCrPlus:
    def test_worked_example(self):
        assert cr_plus(pair(0.9, 0.3, -50.0, -20.0), 50.0) == 60.0

    def test_zero_trust_reduces_to_confidence_gap(self):
        assert cr_plus(pair(0.9, 0.3, -10.0, -5.0), 0.0) == 5.0

    def test_negative_trust_rejected(self):
        with pytest.raises(ValidationError, match="k_trust"):
            cr_plus(pair(0.9, 0.3, -10.0, -5.0), -1.0)

    def test_antisymmetric_under_swap(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            r = rng.uniform(size=2)
            lp = -rng.uniform(0.1, 50.0, size=2)
            k = float(rng.uniform(0.0, 80.0))
            forward = cr_plus(pair(r[0], r[1], lp[0], lp[1]), k)
            backward = cr_plus(pair(r[1], r[0], lp[1], lp[0]), k)
            assert forward == pytest.approx(-backward, abs=1e-12)

    def test_monotone_in_each_argument(self):
        base = pair(0.6, 0.4, -20.0, -15.0)
        score = cr_plus(base, 50.0)
        assert cr_plus(pair(0.7, 0.4, -20.0, -15.0), 50.0) > score
        assert cr_plus(pair(0.6, 0.3, -20.0, -15.0), 50.0) > score
        assert cr_plus(pair(0.6, 0.4, -25.0, -15.0), 50.0) > score
        assert cr_plus(pair(0.6, 0.4, -20.0, -10.0), 50.0) > score
        assert cr_plus(pair(0.6, 0.4, -20.0, -15.0), 60.0) > score


class TestCrTimes:
    def test_worked_examples(self):
        assert cr_times(pair(0.9, 0.3, -50.0, -20.0)) == pytest.approx(18.0)
        assert cr_times(pair(0.9, 0.3, -50.0, -60.0)) == pytest.approx(-6.0)

    def test_sign_tracks_disagreement(self):
        # positive iff the loser is more likely than the winner (given r_w > r_l)
        assert cr_times(pair(0.8, 0.2, -30.0, -10.0)) > 0
        assert cr_times(pair(0.8, 0.2, -10.0, -30.0)) < 0
        assert cr_times(pair(0.5, 0.5, -10.0, -30.0)) == 0.0

    def test_symmetric_under_swap(self):
        # both factors negate, so swapping the roles leaves the product alone
        rng = np.random.default_rng(11)
        for _ in range(200):
            r = rng.uniform(size=2)
            lp = -rng.uniform(0.1, 50.0, size=2)
            forward = cr_times(pair(r[0], r[1], lp[0], lp[1]))
            backward = cr_times(pair(r[1], r[0], lp[1], lp[0]))
            assert forward == pytest.approx(backward, abs=1e-12)


class TestMbrUtilities:
    def test_worked_example(self):
        matrix = UtilityMatrix(
            ids=("A", "B", "C"),
            values=np.array(
                [
                    [1.0, 0.8, 0.4],
                    [0.8, 1.0, 0.5],
                    [0.4, 0.5, 1.0],
                ]
            ),
        )
        np.testing.assert_allclose(mbr_scores(matrix), [0.6, 0.65, 0.45])

    def test_self_utility_excluded(self):
        # a huge diagonal must not affect the scores
        values = np.array([[9.0, 0.2], [0.4, 9.0]])
        matrix = UtilityMatrix(ids=("A", "B"), values=values)
        np.testing.assert_allclose(mbr_scores(matrix), [0.2, 0.4])

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            k = int(rng.integers(2, 17))
            values = rng.uniform(size=(k, k))
            matrix = UtilityMatrix(ids=tuple(f"c{j}" for j in range(k)), values=values)
            expected = []
            for j in range(k):
                total = 0.0
                for m in range(k):
                    if m != j:
                        total += values[j][m]
                expected.append(total / (k - 1))
            np.testing.assert_allclose(mbr_scores(matrix), expected, atol=1e-12)

    def test_single_candidate_rejected(self):
        matrix = UtilityMatrix(ids=("A",), values=np.array([[1.0]]))
        with pytest.raises(ValidationError, match="at least 2"):
            mbr_scores(matrix)

    def test_matrix_validation(self):
        with pytest.raises(ValidationError, match="must be 2x2"):
            UtilityMatrix(ids=("A", "B"), values=np.zeros((2, 3)))
        with pytest.raises(ValidationError, match="non-finite"):
            UtilityMatrix(ids=("A", "B"), values=np.array([[0.0, np.inf], [0.0, 0.0]]))
        with pytest.raises(ValidationError, match="distinct"):
            UtilityMatrix(ids=("A", "A"), values=np.zeros((2, 2)))
        with pytest.raises(ValidationError, match="ids must be strings"):
            UtilityMatrix(ids=("A", ["B"]), values=np.zeros((2, 2)))
        with pytest.raises(ValidationError, match="must be 2x2 numbers: "):
            UtilityMatrix(ids=("A", "B"), values=[[1.0, 2.0], [1.0]])
        with pytest.raises(ValidationError, match="must be 2x2 numbers: could not convert"):
            UtilityMatrix(ids=("A", "B"), values=[[1.0, "x"], [0.0, 1.0]])


FLOATS = [[0.1, -0.0], [1e-310, -2.5e300]]
FLOAT32S = np.array([[0.1, -3.3], [2.0**-149, 7e30]], dtype=np.float32)
INTS = [[1, 2**53 + 1], [-(2**63) - 3, 2**70 + 1]]


def numpy_rows(values) -> list[list[float]]:
    return np.asarray(values, dtype=np.float64).tolist()


def float_rows(values) -> list[list[float]]:
    return [list(map(float, row)) for row in values]


# Every numeric form of matrix gives, bit for bit, the rows of numpy's float64
# conversion, and numeric strings the rows of ``float``.
@pytest.mark.parametrize(
    "values, oracle",
    [
        pytest.param(FLOATS, numpy_rows, id="float-lists"),
        pytest.param(tuple(map(tuple, FLOATS)), numpy_rows, id="float-tuples"),
        pytest.param(INTS, numpy_rows, id="int-lists"),
        pytest.param([[True, False], [False, True]], numpy_rows, id="bools"),
        pytest.param([["0.1", " -2e-3 "], ["7", "1e300"]], float_rows, id="numeric-strings"),
        pytest.param(np.array(FLOATS), numpy_rows, id="float64-array"),
        pytest.param(FLOAT32S, numpy_rows, id="float32-array"),
        pytest.param(np.array([[1, -(2**62) - 1], [2**53 + 1, 0]]), numpy_rows, id="int-array"),
    ],
)
def test_every_numeric_form_gives_the_same_rows(values, oracle):
    rows = UtilityMatrix(("A", "B"), values).rows
    assert [list(map(float.hex, row)) for row in rows] == [
        list(map(float.hex, row)) for row in oracle(values)
    ]


class TwoAxisRow(list):
    """A row of a 2 x 2 x 1 array as numpy 1.24 iterates it: its entries are
    one-entry arrays, which ``float`` reads there, so only ``ndim`` tells."""

    ndim = 2


@pytest.mark.parametrize(
    "values",
    [
        pytest.param([[1.0, 2.0], [1.0]], id="ragged"),
        pytest.param(np.zeros((2, 3)), id="2x3"),
        pytest.param(np.zeros((3, 3)), id="3x3"),
        pytest.param(1.0, id="scalar"),
        pytest.param([[1j, 0.0], [0.0, 1.0]], id="complex"),
        pytest.param([["x", 0.0], [0.0, 1.0]], id="x"),
        pytest.param(["10", "01"], id="string-rows"),
        pytest.param([[1.0, float("nan")], [0.0, 1.0]], id="nan"),
        pytest.param([[1.0, 0.0], [float("-inf"), 1.0]], id="inf"),
        pytest.param(np.zeros((2, 2, 1)), id="2x2x1-array"),
        pytest.param([TwoAxisRow([0.0, 1.0]), TwoAxisRow([1.0, 0.0])], id="2x2x1-rows"),
        pytest.param([[10**400, 0.0], [0.0, 1.0]], id="huge-int"),
    ],
)
def test_non_matrices_are_validation_errors(values):
    with pytest.raises(ValidationError, match="^utility matrix "):
        UtilityMatrix(("A", "B"), values)


def oracle_chrf(hyp: str, ref: str, max_order: int = 6, beta: float = 2.0) -> float:
    """Independent re-derivation of the built-in utility for cross-checking."""
    hyp = "".join(hyp.split())
    ref = "".join(ref.split())
    if not hyp and not ref:
        return 1.0
    precisions, recalls = [], []
    for n in range(1, max_order + 1):
        hyp_counts: dict[str, int] = {}
        for i in range(len(hyp) - n + 1):
            g = hyp[i : i + n]
            hyp_counts[g] = hyp_counts.get(g, 0) + 1
        ref_counts: dict[str, int] = {}
        for i in range(len(ref) - n + 1):
            g = ref[i : i + n]
            ref_counts[g] = ref_counts.get(g, 0) + 1
        hyp_total = sum(hyp_counts.values())
        ref_total = sum(ref_counts.values())
        if hyp_total == 0 or ref_total == 0:
            continue
        common = sum(min(c, ref_counts.get(g, 0)) for g, c in hyp_counts.items())
        precisions.append(common / hyp_total)
        recalls.append(common / ref_total)
    if not precisions:
        return 0.0
    p = sum(precisions) / len(precisions)
    r = sum(recalls) / len(recalls)
    if p + r == 0:
        return 0.0
    return (1 + beta**2) * p * r / (beta**2 * p + r)


def text_set(texts) -> CandidateSet:
    return CandidateSet(
        source_id="s1",
        source_text="a source segment",
        direction=("en", "de"),
        candidates=tuple(
            Candidate(id=f"c{j}", text=text, logprob=-1.0, rewards={"qe": 0.5})
            for j, text in enumerate(texts)
        ),
    )


def pair_utilities(hypothesis: str, reference: str) -> np.ndarray:
    """U[0, 1] and U[1, 0] of the built-in matrix over the two texts."""
    values = utility_matrix_for_set(text_set([hypothesis, reference])).values
    return np.array([values[0, 1], values[1, 0]])


class TestBuiltinUtility:
    def test_frozen_example(self):
        value = builtin_utility("the cat sat", "the cat sat down")
        assert value == pytest.approx(0.6601764142221674, abs=1e-12)
        assert value == pytest.approx(oracle_chrf("the cat sat", "the cat sat down"))
        reverse = builtin_utility("the cat sat down", "the cat sat")
        assert reverse == pytest.approx(0.8859854884450613, abs=1e-12)

    def test_identical_strings_score_one(self):
        for text in ("a", "abc", "the quick brown fox", "ab", "žluťoučký kůň"):
            assert (pair_utilities(text, text) == 1.0).all()

    def test_disjoint_strings_score_zero(self):
        assert (pair_utilities("aaa", "bbb") == 0.0).all()

    def test_empty_string_cases(self):
        assert (pair_utilities("", "") == 1.0).all()
        assert (pair_utilities("", "abc") == 0.0).all()
        assert (pair_utilities("abc", "") == 0.0).all()

    def test_whitespace_ignored(self):
        assert pair_utilities("a b c", "abc") == pytest.approx([1.0, 1.0])

    def test_bounded_and_matches_oracle_on_random_pairs(self):
        rng = np.random.default_rng(5)
        alphabet = "abcdef "
        for _ in range(200):
            a = "".join(rng.choice(list(alphabet), size=rng.integers(0, 15)))
            b = "".join(rng.choice(list(alphabet), size=rng.integers(0, 15)))
            value = builtin_utility(a, b)
            assert 0.0 <= value <= 1.0
            assert value == pytest.approx(oracle_chrf(a, b), abs=1e-12)


def test_utility_matrix_for_set_uses_texts():
    cset = make_set([("A", 0.9, -1.0), ("B", 0.5, -2.0)])
    matrix = utility_matrix_for_set(cset)
    assert matrix.ids == ("A", "B")
    assert matrix.values[0, 0] == pytest.approx(1.0)
    assert matrix.values[0, 1] == pytest.approx(
        builtin_utility("text A", "text B")
    )


def test_utility_matrix_equals_builtin_utility_exactly():
    rng = np.random.default_rng(11)
    alphabet = list("abcab  \tžů語") + ["the ", "cat "]
    for _ in range(400):
        k = int(rng.integers(1, 9))
        texts = [
            "".join(rng.choice(alphabet, size=int(rng.integers(0, 25)))) for _ in range(k)
        ]
        if k > 1 and rng.random() < 0.3:
            texts[-1] = texts[0]
        if rng.random() < 0.2:
            texts[int(rng.integers(k))] = ""
        assert_equals_oracle(texts)


def assert_equals_oracle(texts) -> None:
    values = utility_matrix_for_set(text_set(texts)).values
    for j, hypothesis in enumerate(texts):
        for m, reference in enumerate(texts):
            assert values[j, m] == builtin_utility(hypothesis, reference), (hypothesis, reference)


@pytest.mark.parametrize(
    "texts",
    [
        # lone surrogates, as JSON "\ud800" escapes decode; a surrogate pair
        # in a str is two code points, not the astral character it encodes
        ["\ud800", "a\ud800b", "\ud800\udc00", "\U00010000", "\udfff\ud800"],
        ["😀😀a", "a😀", "😀", "🙂😀", "a😀😀"],
        ["just one text"],
        ["", "", ""],
        [" ", "\t\n", "   "],
        ["a" * 300, "a" * 7, "a" * 120 + "b", "ab" * 50, "b" + "a" * 299],
        ["same text", "same text", "same  text", "other", "same text"],
    ],
    ids=["lone-surrogates", "astral", "k1", "all-empty", "all-whitespace", "long-runs", "duplicates"],
)
def test_utility_matrix_equals_the_oracle_on_edge_cases(texts):
    assert_equals_oracle(texts)


@pytest.mark.parametrize("cells", [1, 5, 16])
def test_utility_matrix_is_the_same_when_its_tables_span_many_blocks(monkeypatch, cells):
    # 5 texts: blocks 1, 1 and 3 columns wide, which split the threshold
    # columns of every gram that a text holds more than once
    texts = ["abab aba", "baba bab", "aaaa", "ab\ud800ab", "the cat sat on the mat"]
    expected = utility_matrix_for_set(text_set(texts)).values
    monkeypatch.setattr(scoring, "_TABLE_CELLS", cells)
    assert (utility_matrix_for_set(text_set(texts)).values == expected).all()
    assert_equals_oracle(texts)


def test_utility_matrix_equals_the_oracle_on_random_edge_case_sets(monkeypatch):
    rng = np.random.default_rng(17)
    pieces = list("aab  ") + ["\ud800", "\udc00", "😀", "語", "\t", "ab", "a" * 6]
    default = scoring._TABLE_CELLS
    for trial in range(3000):
        # every third set in blocks of at most 47 cells
        cells = int(rng.integers(1, 48)) if trial % 3 == 0 else default
        monkeypatch.setattr(scoring, "_TABLE_CELLS", cells)
        k = int(rng.integers(1, 7))
        texts = [
            "".join(rng.choice(pieces, size=int(rng.integers(0, 9)))) for _ in range(k)
        ]
        if rng.random() < 0.2:
            texts[int(rng.integers(k))] = texts[0]
        assert_equals_oracle(texts)


def test_utility_matrix_diagonal_is_one_for_whitespace_and_empty_texts():
    values = utility_matrix_for_set(text_set(["", " \t", "a b", "ab", "žů"])).values
    assert (np.diag(values) == 1.0).all()
    assert values[0, 1] == values[1, 0] == 1.0
    assert values[2, 3] == values[3, 2] == 1.0
    assert values[0, 2] == values[2, 0] == 0.0
