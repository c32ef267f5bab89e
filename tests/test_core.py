"""Data-model contracts: validation, aggregation, configuration."""

from __future__ import annotations

import numpy as np
import pytest

from crpo.core import (
    MAX_RSO_SAMPLES,
    Candidate,
    CandidateSet,
    PreferenceDataset,
    PreferencePair,
    SelectionConfig,
    ValidationError,
    aggregate_reward,
    direction_class,
    effective_logprob,
)
from crpo.losses import LossConfig

from conftest import make_set


class TestAggregateReward:
    def test_mean_of_two_models(self):
        assert aggregate_reward({"a": 0.8, "b": 0.6}) == pytest.approx(0.7)

    def test_single_model_identity(self):
        assert aggregate_reward({"a": 0.25}) == 0.25

    def test_empty_map_rejected(self):
        with pytest.raises(ValidationError, match="no reward sources"):
            aggregate_reward({})

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError, match="reward out of range"):
            aggregate_reward({"a": 1.2})
        with pytest.raises(ValidationError, match="reward out of range"):
            aggregate_reward({"a": -0.1})
        with pytest.raises(ValidationError, match="reward out of range"):
            aggregate_reward({"a": float("nan")})

    def test_non_numeric_rejected(self):
        with pytest.raises(ValidationError, match="reward out of range"):
            aggregate_reward({"a": "0.5"})
        with pytest.raises(ValidationError, match="reward out of range"):
            aggregate_reward({"a": True})

    def test_permutation_invariant_and_bounded(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = int(rng.integers(1, 6))
            values = rng.uniform(size=n)
            names = [f"m{j}" for j in range(n)]
            forward = aggregate_reward(dict(zip(names, values)))
            backward = aggregate_reward(dict(zip(reversed(names), reversed(values))))
            assert forward == backward
            assert 0.0 <= forward <= 1.0


class TestCandidate:
    def test_aggregate_cached_automatically(self):
        cand = Candidate(id="x", text="t", logprob=-1.0, rewards={"a": 0.2, "b": 0.4})
        assert cand.reward_agg == pytest.approx(0.3)

    def test_positive_logprob_rejected(self):
        with pytest.raises(ValidationError, match="logprob"):
            Candidate(id="x", text="t", logprob=0.5, rewards={"a": 0.2})

    def test_non_finite_logprob_rejected(self):
        for bad in (float("inf"), float("-inf"), float("nan")):
            with pytest.raises(ValidationError, match="logprob"):
                Candidate(id="x", text="t", logprob=bad, rewards={"a": 0.2})

    def test_zero_logprob_allowed(self):
        assert Candidate(id="x", text="t", logprob=0.0, rewards={"a": 0.2}).logprob == 0.0

    def test_bad_token_count_rejected(self):
        with pytest.raises(ValidationError, match="token_count"):
            Candidate(id="x", text="t", logprob=-1.0, rewards={"a": 0.2}, token_count=0)

    def test_boolean_token_count_rejected(self):
        with pytest.raises(ValidationError, match="token_count"):
            Candidate(id="x", text="t", logprob=-1.0, rewards={"a": 0.2}, token_count=True)


class TestCandidateSet:
    def test_duplicate_ids_rejected(self):
        cand = Candidate(id="A", text="t", logprob=-1.0, rewards={"a": 0.5})
        with pytest.raises(ValidationError, match="duplicate candidate id"):
            CandidateSet(
                source_id="s",
                source_text="x",
                direction=("en", "de"),
                candidates=(cand, cand),
            )

    @pytest.mark.parametrize(
        "ids, texts",
        [
            # One NaN object twice: equal as a dict key, unequal to itself.
            ([float("nan")] * 2, ["t", "t"]),
            # Partially ordered ids, which sorting need not put side by side.
            ([frozenset({1}), frozenset({2}), frozenset({1})], ["t", "t", "t"]),
            # Ids that do not sort together, and ids that sort but are not text.
            ([1.0, "a"], ["t", "t"]),
            ([2, 1], ["t", "t"]),
            (["a", "b"], ["t", 5]),
        ],
        ids=["nan_twice", "partially_ordered", "mixed", "ints", "int_text"],
    )
    def test_non_string_ids_or_texts_rejected_before_sorting(self, ids, texts):
        cands = tuple(
            Candidate(id=i, text=t, logprob=-1.0, rewards={"a": 0.5}) for i, t in zip(ids, texts)
        )
        with pytest.raises(ValidationError, match="needs a string id and a string text$"):
            CandidateSet(source_id="s", source_text="x", direction=("en", "de"), candidates=cands)

    def test_empty_set_rejected(self):
        with pytest.raises(ValidationError, match="empty"):
            CandidateSet(
                source_id="s", source_text="x", direction=("en", "de"), candidates=()
            )

    def test_lookup(self):
        cset = make_set([("A", 0.9, -1.0), ("B", 0.5, -2.0)])
        assert cset.candidate("B").reward_agg == 0.5
        with pytest.raises(ValidationError, match="unknown candidate id"):
            cset.candidate("Z")


class TestPreferencePair:
    def test_self_pair_rejected(self):
        with pytest.raises(ValidationError, match="distinct"):
            PreferencePair(
                source_id="s", chosen_id="A", rejected_id="A", score=1.0, method="cr_plus"
            )

    def test_non_finite_score_rejected(self):
        with pytest.raises(ValidationError, match="score"):
            PreferencePair(
                source_id="s",
                chosen_id="A",
                rejected_id="B",
                score=float("nan"),
                method="cr_plus",
            )


class TestPreferenceDataset:
    def test_reward_ordering_checked_for_reward_labeled_methods(self):
        cset = make_set([("A", 0.9, -1.0), ("B", 0.5, -2.0)])
        bad = PreferencePair(
            source_id="s1", chosen_id="B", rejected_id="A", score=1.0, method="minmax_r"
        )
        with pytest.raises(ValidationError, match="lower aggregate reward"):
            PreferenceDataset(pairs=(bad,)).validate_against([cset])

    def test_returns_the_resolved_candidates_in_pair_order(self):
        first = make_set([("A", 0.9, -1.0), ("B", 0.5, -2.0)])
        second = make_set([("A", 0.2, -3.0), ("C", 0.7, -4.0)], source_id="s2")
        pairs = (
            PreferencePair(source_id="s2", chosen_id="C", rejected_id="A", score=0.5,
                           method="minmax_r"),
            PreferencePair(source_id="s1", chosen_id="A", rejected_id="B", score=0.4,
                           method="minmax_r"),
        )
        resolved = PreferenceDataset(pairs=pairs).validate_against([first, second])
        assert resolved == [
            (second.candidate("C"), second.candidate("A")),
            (first.candidate("A"), first.candidate("B")),
        ]
        assert PreferenceDataset(pairs=()).validate_against([first]) == []

    def test_utility_ranked_methods_exempt(self):
        cset = make_set([("A", 0.9, -1.0), ("B", 0.5, -2.0)])
        pair = PreferencePair(
            source_id="s1", chosen_id="B", rejected_id="A", score=0.1, method="mbr_bw"
        )
        PreferenceDataset(pairs=(pair,)).validate_against([cset])

    def test_unknown_ids_rejected(self):
        cset = make_set([("A", 0.9, -1.0), ("B", 0.5, -2.0)])
        pair = PreferencePair(
            source_id="s1", chosen_id="A", rejected_id="Z", score=1.0, method="minmax_r"
        )
        with pytest.raises(ValidationError, match="unknown candidate id"):
            PreferenceDataset(pairs=(pair,)).validate_against([cset])
        orphan = PreferencePair(
            source_id="nope", chosen_id="A", rejected_id="B", score=1.0, method="minmax_r"
        )
        with pytest.raises(ValidationError, match="unknown source"):
            PreferenceDataset(pairs=(orphan,)).validate_against([cset])


class TestSelectionConfig:
    def test_defaults(self):
        config = SelectionConfig()
        assert config.method == "cr_plus"
        assert config.k_trust == 50.0
        assert config.beta == 0.1
        assert config.eta == {"out_of_en": 0.6, "into_en": 0.5}
        assert config.gate_mode == "off"
        assert config.epsilon == 0.0
        assert config.rso_samples == 8
        assert config.logprob_norm == "sum"

    def test_unknown_method_rejected(self):
        with pytest.raises(ValidationError, match="unknown method"):
            SelectionConfig(method="best_of_n")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"k_trust": 0.0},
            {"k_trust": -1.0},
            {"beta": 0.0},
            {"eta": {"out_of_en": 1.5}},
            {"gate_mode": "maybe"},
            {"epsilon": -0.1},
            {"rso_samples": 1},
            {"seed": -3},
            {"logprob_norm": "mean"},
            {"rso_samples": MAX_RSO_SAMPLES + 1},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            SelectionConfig(**kwargs)

    @pytest.mark.parametrize("flag", [True, False])
    @pytest.mark.parametrize("knob", ["seed", "rso_samples", "k_trust", "beta", "epsilon", "eta"])
    def test_bool_is_not_a_number(self, knob, flag):
        # True would pass as 1 and be recorded as true in the provenance.
        kwargs = {"eta": {"out_of_en": flag}} if knob == "eta" else {knob: flag}
        with pytest.raises(ValidationError, match=knob):
            SelectionConfig(**kwargs)

    def test_ints_still_accepted_where_bools_are_not(self):
        config = SelectionConfig(seed=1, k_trust=1, beta=1, epsilon=0, rso_samples=2)
        assert (config.seed, config.k_trust, config.beta, config.epsilon) == (1, 1, 1, 0)


@pytest.mark.parametrize(
    "config, kwargs",
    [
        (SelectionConfig, {"k_trust": "1"}),
        (SelectionConfig, {"k_trust": 10**400}),
        (SelectionConfig, {"beta": None}),
        (SelectionConfig, {"epsilon": None}),
        (SelectionConfig, {"eta": {"out_of_en": "0.5"}}),
        (SelectionConfig, {"eta": [("out_of_en", 0.5)]}),
        (SelectionConfig, {"eta": 0.5}),
        (LossConfig, {"beta": True}),
        (LossConfig, {"beta": "0.1"}),
        (LossConfig, {"beta": -(10**400)}),
    ],
)
def test_a_knob_that_is_no_finite_number_is_a_validation_error(config, kwargs):
    (knob,) = kwargs
    with pytest.raises(ValidationError, match=knob):
        config(**kwargs)


class TestEffectiveLogprob:
    def test_sum_mode_passthrough(self):
        cand = Candidate(id="x", text="t", logprob=-0.0, rewards={"a": 0.5})
        assert effective_logprob(cand, SelectionConfig()) == 0.0

    def test_per_token_division(self):
        cand = Candidate(id="x", text="t", logprob=-30.0, rewards={"a": 0.5}, token_count=10)
        config = SelectionConfig(logprob_norm="per_token")
        assert effective_logprob(cand, config) == -3.0

    def test_per_token_requires_token_count(self):
        cand = Candidate(id="x", text="t", logprob=-30.0, rewards={"a": 0.5})
        config = SelectionConfig(logprob_norm="per_token")
        with pytest.raises(ValidationError, match="token_count"):
            effective_logprob(cand, config)


def test_direction_class():
    assert direction_class(("en", "de")) == "out_of_en"
    assert direction_class(("de", "en")) == "into_en"
    assert direction_class(("zh", "ru")) == "out_of_en"
