"""Property tests of the MBR ranking and the stats report on Python floats.

The MBR selectors and ``_finite_mean`` must equal the exact references of
``tests/oracles.py`` (sum with ``Fraction``, round once, divide), and
``_linspace`` and ``_histogram`` the numpy calls kept there.  Floats are
compared through ``repr`` or ``float.hex``, so the sign of a zero counts.
The inputs mix the cases where the two could part: -0.0 and rows of it, long
runs, magnitudes whose sums overflow, subnormal ranges whose linspace step
underflows, and values that fall on bin edges.
"""

from __future__ import annotations

import json
import math
import random
import sys
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

import oracles  # noqa: E402
from crpo import dataio  # noqa: E402
from crpo.core import (  # noqa: E402
    Candidate,
    CandidateSet,
    PreferenceDataset,
    PreferencePair,
    SelectionConfig,
    ValidationError,
)
from crpo.scoring import UtilityMatrix, mbr_scores  # noqa: E402
from crpo.selectors import run_selector  # noqa: E402

_FLOAT_MAX = sys.float_info.max
SPECIAL = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 0.1, 1e308, -1e308, _FLOAT_MAX, -_FLOAT_MAX]
)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
# Short runs and long ones.
LENGTHS = (
    st.sampled_from([0, 1, 7, 8, 9, 15, 16, 127, 128, 129, 135, 136, 137, 256, 257, 8192, 8193])
    | st.integers(0, 300)
    | st.integers(0, 20_000)
)


@st.composite
def float_lists(draw, lengths=LENGTHS) -> list[float]:
    """Floats drawn from a small palette, so values repeat and cancel,
    optionally scaled by uniform draws in [0, 1)."""
    n = draw(lengths)
    palette = draw(st.lists(SPECIAL | FINITE, min_size=1, max_size=8))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return [rng.choice(palette) * rng.random() for _ in range(n)]
    return [rng.choice(palette) for _ in range(n)]


@st.composite
def mbr_cases(draw):
    """A pool of K candidates in id order and a utility matrix over the same
    ids in a shuffled order, with entries from a palette so rows tie."""
    k = draw(st.integers(2, 20) | st.integers(125, 140))
    grid = st.sampled_from([0.25, 0.5, 0.75])
    palette = draw(st.lists(SPECIAL | FINITE | grid, min_size=1, max_size=6))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    values = [[rng.choice(palette) for _ in range(k)] for _ in range(k)]
    ids = [f"c{j:03d}" for j in range(k)]
    matrix_ids = ids[:]
    rng.shuffle(matrix_ids)
    candidates = tuple(
        Candidate(id=cid, text="t", logprob=-float(j), rewards={"qe": rng.random()})
        for j, cid in enumerate(ids)
    )
    method = draw(st.sampled_from(["mbr_bw", "mbr_bmw"] if k >= 3 else ["mbr_bw"]))
    cset = CandidateSet("s", "source", ("en", "de"), candidates)
    return cset, SelectionConfig(method=method), matrix_ids, values


def _outcome(outcome):
    return [
        (p.chosen_id, p.rejected_id, p.method, p.score.hex(),
         [(key, value.hex()) for key, value in p.extras.items()])
        for p in outcome.pairs
    ]


@settings(max_examples=300, deadline=None)
@given(mbr_cases())
@example((
    CandidateSet("s", "source", ("en", "de"), (
        Candidate(id="a", text="t", logprob=0.0, rewards={"qe": 0.5}),
        Candidate(id="b", text="t", logprob=-1.0, rewards={"qe": 0.5}),
    )),
    SelectionConfig(method="mbr_bw"),
    ["a", "b"],
    [[1.0, _FLOAT_MAX], [-_FLOAT_MAX, 1.0]],
))
def test_mbr_selectors_match_the_exact_ranking(case):
    cset, config, matrix_ids, values = case
    matrix = UtilityMatrix(matrix_ids, values)
    try:
        expected = oracles.mbr_scores(values)
    except OverflowError:
        with pytest.raises(ValidationError, match="expected utility of candidate .* overflows"):
            mbr_scores(matrix)
    else:
        assert [repr(v) for v in mbr_scores(matrix)] == [repr(v) for v in expected]
    try:
        want = _outcome(oracles.array_mbr(cset, config, matrix_ids, values))
    except OverflowError:
        with pytest.raises(ValidationError, match="source 's': expected utility of candidate"):
            run_selector(cset, config, matrix)
        return
    except ValidationError:  # a gap between two finite utilities overflowed
        with pytest.raises(ValidationError, match="source 's': expected-utility gap"):
            run_selector(cset, config, matrix)
        return
    assert _outcome(run_selector(cset, config, matrix)) == want


@settings(max_examples=300, deadline=None)
@given(mbr_cases(), st.randoms(use_true_random=False))
def test_mbr_scores_are_unchanged_by_permuting_rows_and_columns(case, rng):
    _, _, ids, values = case
    order = list(range(len(ids)))
    rng.shuffle(order)
    permuted = UtilityMatrix([ids[i] for i in order], [[values[i][j] for j in order] for i in order])
    try:
        scores = mbr_scores(UtilityMatrix(ids, values))
        permuted_scores = mbr_scores(permuted)
    except ValidationError:
        # A row whose sum leaves the float range in one order may not in
        # another; only the rows that sum in both orders can be compared.
        return
    assert [repr(scores[i]) for i in order] == [repr(v) for v in permuted_scores]


@st.composite
def ranges(draw) -> tuple[float, float]:
    """lo < hi with a finite width: free pairs, neighbours a few ulps apart,
    subnormal ranges whose step underflows to 0, and the widest range."""
    kind = draw(st.sampled_from(["free", "near", "tiny", "widest"]))
    if kind == "free":
        lo, hi = sorted(draw(st.lists(FINITE, min_size=2, max_size=2, unique=True)))
    elif kind == "near":
        lo = hi = draw(FINITE)
        for _ in range(draw(st.integers(1, 4))):
            hi = math.nextafter(hi, math.inf)
    elif kind == "tiny":
        lo, hi = draw(st.sampled_from([(-1e-323, -5e-324), (-5e-324, 0.0), (0.0, 1e-323)]))
    else:
        lo, hi = -_FLOAT_MAX, 0.0
    if not lo < hi or math.isinf(hi - lo):
        return -1.0, 0.0
    return lo, hi


@settings(max_examples=300, deadline=None)
@given(ranges(), st.integers(2, 40) | st.integers(2, 2000))
@example((0.0, 1.0), 7)
@example((-1e-323, -5e-324), 21)
@example((-_FLOAT_MAX, 0.0), dataio.MAX_BINS + 1)
def test_linspace_is_numpys(bounds, num):
    lo, hi = bounds
    got = dataio._linspace(lo, hi, num)
    assert [repr(v) for v in got] == [repr(v) for v in oracles.linspace(lo, hi, num)]


@settings(max_examples=300, deadline=None)
@given(ranges(), st.integers(2, 40), st.data())
def test_histogram_is_numpys_on_edges_and_between(bounds, num, data):
    edges = dataio._linspace(*bounds, num)
    outside = [math.nextafter(edges[0], -math.inf), math.nextafter(edges[-1], math.inf)]
    around = [math.nextafter(e, d) for e in edges for d in (-math.inf, math.inf)]
    points = st.sampled_from(edges + outside + around + [0.0, -0.0]) | FINITE
    values = data.draw(st.lists(points, max_size=60))
    assert dataio._histogram(values, edges) == oracles.histogram(values, edges)


@settings(max_examples=300, deadline=None)
@given(float_lists(st.integers(1, 300) | st.integers(1, 20_000)))
@example([-_FLOAT_MAX] * 3)
@example([-_FLOAT_MAX, _FLOAT_MAX, -1.0])
@example([-0.0])
@example([1.7e308, 1.7e308, -1.7e308])
def test_finite_mean_is_the_exact_mean(values):
    assert repr(dataio._finite_mean(values)) == repr(oracles.finite_mean(values))


@st.composite
def stats_cases(draw):
    """One candidate set with its pairs under two methods: log-likelihoods
    all equal (the lo == hi widening), near -1.8e308 (the rescaled mean) or
    free; rewards on a coarse grid so they fall on the bin edges."""
    k = draw(st.integers(2, 12))
    one = draw(st.sampled_from([-0.0, -1.0, -1e300, -_FLOAT_MAX]) | st.floats(-_FLOAT_MAX, 0.0))
    deep = st.sampled_from([-_FLOAT_MAX, math.nextafter(-_FLOAT_MAX, 0.0), -1e308])
    logprob = st.just(one) if draw(st.booleans()) else deep | st.floats(-_FLOAT_MAX, 0.0)
    reward = st.sampled_from([0.0, 0.2, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0)
    candidates = tuple(
        Candidate(id=f"c{j}", text="t", logprob=draw(logprob), rewards={"qe": draw(reward)})
        for j in range(k)
    )
    cset = CandidateSet("s", "source", ("en", "de"), candidates)
    pairs = []
    for _ in range(draw(st.integers(1, 30))):
        a, b = draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=2, unique=True))
        if candidates[a].reward_agg < candidates[b].reward_agg:
            a, b = b, a
        method = draw(st.sampled_from(["cr_plus", "mbr_bw"]))
        pairs.append(PreferencePair("s", candidates[a].id, candidates[b].id, 1.0, method))
    return PreferenceDataset(pairs=tuple(pairs)), [cset], draw(st.integers(1, 30))


@settings(max_examples=200, deadline=None)
@given(stats_cases())
def test_stats_report_is_the_reference_report(case):
    dataset, sets, bins = case
    report = json.dumps(dataio.emit_stats(dataset, sets, bins))
    with mock.patch.multiple(
        dataio,
        _linspace=oracles.linspace,
        _histogram=oracles.histogram,
        _finite_mean=oracles.finite_mean,
    ):
        assert report == json.dumps(dataio.emit_stats(dataset, sets, bins))
