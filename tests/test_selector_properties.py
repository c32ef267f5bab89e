"""Property tests of the list selectors against the array selectors.

``crpo.selectors`` runs the reward and confidence selectors on Python lists
of floats.  ``tests/oracles.py`` keeps them as they ran on numpy arrays.  On
every pool the two must give the same outcome: the same pairs in the same
order, every score and extra equal bit for bit, and the same skip reason.  The pools mix the cases where the kernels could part:
rewards on a coarse grid (ties) and one ulp apart, tied log-likelihoods and
log-likelihoods near the most negative float, every gate and both
normalizations.
"""

from __future__ import annotations

import dataclasses
import math
import sys

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import oracles  # noqa: E402
from crpo.core import (  # noqa: E402
    GATE_MODES,
    LOGPROB_NORMS,
    Candidate,
    CandidateSet,
    SelectionConfig,
)
from crpo.selectors import run_selector  # noqa: E402

_FLOAT_MAX = sys.float_info.max
UNIT = st.floats(0.0, 1.0)
DIRECTIONS = st.sampled_from([("en", "de"), ("de", "en")])


@st.composite
def rewards(draw, k: int) -> list[float]:
    """K rewards in [0, 1]: grid values that tie, a base value and its
    neighbours one ulp away, and free draws."""
    base = draw(UNIT)
    near = [base, math.nextafter(base, 0.0), min(math.nextafter(base, 2.0), 1.0)]
    grid = st.sampled_from([0.0, -0.0, 0.25, 0.5, 0.75, 1.0])
    return draw(st.lists(grid | st.sampled_from(near) | UNIT, min_size=k, max_size=k))


@st.composite
def logprobs(draw, k: int) -> list[float]:
    """K log-likelihoods: small tied values, values near -1.8e308, and free
    draws over the whole non-positive range."""
    deep = [-_FLOAT_MAX, math.nextafter(-_FLOAT_MAX, 0.0), -1e308]
    tied = st.sampled_from([0.0, -0.0, -1.0, -2.0, -7.5])
    free = st.floats(-60.0, 0.0) | st.floats(-_FLOAT_MAX, 0.0)
    return draw(st.lists(tied | st.sampled_from(deep) | free, min_size=k, max_size=k))


@st.composite
def pools(draw) -> CandidateSet:
    k = draw(st.integers(2, 40))
    tokens = draw(st.lists(st.integers(1, 50), min_size=k, max_size=k))
    candidates = [
        Candidate(id=f"k{j:02d}", text="t", logprob=lp, rewards={"qe": r}, token_count=n)
        for j, (r, lp, n) in enumerate(zip(draw(rewards(k)), draw(logprobs(k)), tokens))
    ]
    return CandidateSet("s", "source", draw(DIRECTIONS), tuple(candidates))


ETA = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
CONFIGS = st.builds(
    SelectionConfig,
    method=st.sampled_from(oracles.ARRAY_METHODS),
    k_trust=st.floats(1e-3, 1e6),
    eta=st.fixed_dictionaries({"out_of_en": ETA, "into_en": ETA}),
    gate_mode=st.sampled_from(GATE_MODES),
    epsilon=st.sampled_from([0.0, 1e-300, 0.5]) | st.floats(0.0, 100.0),
    rso_samples=st.integers(2, 48),
    logprob_norm=st.sampled_from(LOGPROB_NORMS),
)


@st.composite
def cases(draw) -> tuple[CandidateSet, SelectionConfig]:
    """A pool and a config; for ``rs_dpo``, eta is often one of the pool's
    own reward gaps or an ulp off one, where ``r_i - r_j > eta`` is decided
    by rounding."""
    cset, config = draw(pools()), draw(CONFIGS)
    if config.method == "rs_dpo" and draw(st.booleans()):
        rewards = st.sampled_from([c.reward_agg for c in cset.candidates])
        gap = draw(rewards) - draw(rewards)
        eta = draw(st.sampled_from([gap, math.nextafter(gap, 0.0), math.nextafter(gap, 1.0)]))
        if 0.0 < eta < 1.0:
            config = dataclasses.replace(config, eta={"out_of_en": eta, "into_en": eta})
    return cset, config


def _outcome(select, cset, config):
    """The outcome with every float as its hex spelling, or what it raises."""
    try:
        outcome = select(cset, config)
    except Exception as err:  # noqa: BLE001 - every exception must match
        return type(err).__name__, str(err)
    pairs = [
        (p.source_id, p.chosen_id, p.rejected_id, p.method, p.score.hex(),
         [(key, value.hex()) for key, value in p.extras.items()])
        for p in outcome.pairs
    ]
    return pairs, outcome.sft_target, outcome.skipped_reason


@settings(max_examples=600, deadline=None)
@given(cases())
def test_list_selectors_match_the_array_selectors(case):
    cset, config = case
    assert _outcome(run_selector, cset, config) == _outcome(oracles.array_select, cset, config)
