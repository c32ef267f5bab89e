"""Property tests of the ``Candidate`` constructor.

``crpo.core.Candidate`` sets its slots without the dataclass ``__init__``.  It
must accept exactly the values that the plain dataclass of ``tests/oracles.py``
accepts, build the same record from them, and reject the others with the same
exception and message, in the same order of checks.
"""

from __future__ import annotations

import dataclasses
from types import MappingProxyType

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import oracles  # noqa: E402
from crpo.core import Candidate  # noqa: E402

TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=4)
HUGE = st.sampled_from([10**400, -(10**400)])
# Numbers of every kind a caller may pass: floats with NaN, infinities and
# -0.0, ints beyond the float range, bools, and numpy scalars.
NUMBERS = (
    st.floats()
    | st.sampled_from([-0.0, 0.0, 1.0, -1.0, float("nan"), float("inf"), float("-inf")])
    | st.integers(-(2**64), 2**64)
    | HUGE
    | st.booleans()
    | st.floats(allow_nan=True).map(np.float64)
    | st.integers(-(2**62), 2**62).map(np.int64)
)
OTHERS = st.none() | TEXT | st.just([]) | st.just({})
IDS = st.sampled_from(["", "c", "k000"]) | TEXT | st.sampled_from([0, 5, None, [], ["x"]])
LOGPROBS = NUMBERS | st.floats(-1e6, 0.0) | OTHERS
REWARD_VALUES = st.floats(0.0, 1.0) | st.floats(-0.5, 1.5) | NUMBERS | OTHERS
REWARD_MAPS = st.dictionaries(TEXT, REWARD_VALUES, max_size=3)
REWARDS = REWARD_MAPS | REWARD_MAPS.map(MappingProxyType) | st.sampled_from([{}, None, [], 0.5])
TOKEN_COUNTS = (
    st.none()
    | st.integers(-3, 40)
    | st.sampled_from([0, True, False, 10**400, 2**1023, 2**1024, 16.0, "16"])
    | st.integers(-3, 40).map(np.int64)
)


def _outcome(make, *args):
    """The record ``make`` builds, as the repr of its fields, or the type and
    message of what it raises."""
    try:
        candidate = make(*args)
    except Exception as err:  # noqa: BLE001 - every exception must match
        return type(err).__name__, str(err)
    return tuple(repr(getattr(candidate, f.name)) for f in dataclasses.fields(candidate))


@settings(max_examples=2000, deadline=None)
@given(IDS, TEXT, LOGPROBS, REWARDS, TOKEN_COUNTS)
def test_constructor_accepts_and_rejects_as_the_oracle_does(id, text, logprob, rewards, count):
    args = (id, text, logprob, rewards, count)
    assert _outcome(Candidate, *args) == _outcome(oracles.Candidate, *args)


@settings(max_examples=300, deadline=None)
@given(st.floats(-1e6, 0.0), st.dictionaries(TEXT, st.floats(0.0, 1.0), min_size=1, max_size=4),
       st.none() | st.integers(1, 10**6))
def test_valid_values_build_the_oracle_record(logprob, rewards, count):
    built = Candidate("c", "t", logprob, rewards, count)
    oracle = oracles.Candidate("c", "t", logprob, rewards, count)
    assert built.reward_agg.hex() == oracle.reward_agg.hex()
    assert repr(built) == repr(oracle)
    assert built == Candidate(id="c", text="t", logprob=logprob, rewards=rewards, token_count=count)


@settings(max_examples=300, deadline=None)
@given(LOGPROBS, REWARDS, TOKEN_COUNTS)
def test_replace_runs_the_checks_again(logprob, rewards, count):
    base = Candidate("c", "t", -1.0, {"q": 0.5}, 3)
    changes = {"logprob": logprob, "rewards": rewards, "token_count": count}
    expected = _outcome(oracles.Candidate, "c", "t", logprob, rewards, count)
    assert _outcome(lambda: dataclasses.replace(base, **changes)) == expected


def test_fields_cannot_be_assigned_or_added():
    candidate = Candidate("c", "t", -1.0, {"q": 0.5}, 3)
    for f in dataclasses.fields(candidate):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(candidate, f.name, getattr(candidate, f.name))
    # A slotted frozen dataclass has no room for a new attribute.  Python 3.11
    # raises TypeError here (its frozen __setattr__ names the class from before
    # the slots were added), so compare with the oracle, not with one type.
    oracle = oracles.Candidate("c", "t", -1.0, {"q": 0.5}, 3)
    assert _outcome(setattr, candidate, "extra", 1)[0] == _outcome(setattr, oracle, "extra", 1)[0]
    assert not hasattr(candidate, "__dict__")
    assert Candidate.__slots__ == oracles.Candidate.__slots__
    with pytest.raises(ValueError, match="reward_agg"):
        dataclasses.replace(candidate, reward_agg=0.1)
