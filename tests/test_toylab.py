"""Toy world: exact solutions, sampling, training, and the comparison harness."""

from __future__ import annotations

import json
import math
import sys
from dataclasses import replace

import numpy as np
import pytest
import scipy.stats

from crpo.core import SelectionConfig, ValidationError
from crpo.losses import LossConfig, PairBatch, batch_loss_and_grad, log_softmax
from crpo.selectors import run_selector
from crpo.toylab import (
    COMPARE_METHODS,
    TRAIN_LR,
    TRAIN_STEPS,
    ToyPolicy,
    ToyWorld,
    exact_optimal_policy,
    expected_reward,
    make_world,
    nucleus_probs,
    output_index,
    output_text,
    random_pair_outcome,
    resolve_pairs,
    run_comparison,
    sample_candidates,
    source_index,
    source_label,
    train_dpo,
)

from conftest import make_set
from oracles import sequential_scatter_loss_and_grad


class TestLabels:
    def test_round_trips(self):
        assert source_label(7) == "s0007"
        assert source_index("s0007") == 7
        assert output_text(31) == "y31"
        assert output_index("y31") == 31

    @pytest.mark.parametrize("bad", ["x0007", "s", "sabc"])
    def test_bad_source_ids(self, bad):
        with pytest.raises(ValidationError, match="toy source id"):
            source_index(bad)

    @pytest.mark.parametrize("bad", ["text A", "y", "yxy"])
    def test_bad_output_labels(self, bad):
        with pytest.raises(ValidationError, match="toy output label"):
            output_index(bad)


class TestWorldConstruction:
    def test_make_world_shapes_and_ranges(self):
        world = make_world(n_sources=5, n_outputs=9, seed=3)
        assert world.reward_table.shape == (5, 9)
        assert world.ref_logits.shape == (5, 9)
        assert world.reward_table.min() >= 0.0
        assert world.reward_table.max() <= 1.0
        assert (world.n_sources, world.n_outputs) == (5, 9)

    def test_make_world_deterministic(self):
        a = make_world(n_sources=4, n_outputs=6, seed=11)
        b = make_world(n_sources=4, n_outputs=6, seed=11)
        np.testing.assert_array_equal(a.reward_table, b.reward_table)
        np.testing.assert_array_equal(a.ref_logits, b.ref_logits)

    def test_full_correlation_sorts_logits_like_rewards(self):
        world = make_world(n_sources=8, n_outputs=12, seed=0, reward_logit_corr=1.0)
        for s in range(world.n_sources):
            np.testing.assert_array_equal(
                np.argsort(world.ref_logits[s]), np.argsort(world.reward_table[s])
            )

    def test_make_world_validation(self):
        with pytest.raises(ValidationError, match="n_outputs"):
            make_world(n_sources=3, n_outputs=1)
        with pytest.raises(ValidationError, match="reward_logit_corr"):
            make_world(reward_logit_corr=1.5)
        with pytest.raises(ValidationError, match="logit_scale"):
            make_world(logit_scale=0.0)
        with pytest.raises(ValidationError, match="seed"):
            make_world(seed=-1)

    def test_world_validation(self):
        with pytest.raises(ValidationError, match="2-D shape"):
            ToyWorld(reward_table=np.zeros((2, 3)), ref_logits=np.zeros((2, 4)))
        with pytest.raises(ValidationError, match="lie in"):
            ToyWorld(reward_table=np.full((1, 2), 1.5), ref_logits=np.zeros((1, 2)))
        with pytest.raises(ValidationError, match="finite"):
            ToyWorld(
                reward_table=np.zeros((1, 2)),
                ref_logits=np.array([[np.inf, 0.0]]),
            )

    def test_world_arrays_are_read_only(self):
        world = make_world(n_sources=2, n_outputs=3)
        with pytest.raises(ValueError):
            world.reward_table[0, 0] = 0.5

    def test_policy_validation_and_probs(self):
        with pytest.raises(ValidationError, match="2-D"):
            ToyPolicy(np.zeros(3))
        with pytest.raises(ValidationError, match="finite"):
            ToyPolicy(np.array([[np.nan, 0.0]]))
        policy = ToyPolicy(np.array([[0.0, math.log(3.0)]]))
        np.testing.assert_allclose(policy.probs(), [[0.25, 0.75]], atol=1e-12)


class TestExactOptimalPolicy:
    def test_frozen_two_output_case(self):
        world = ToyWorld(
            reward_table=np.array([[1.0, 0.0]]), ref_logits=np.zeros((1, 2))
        )
        policy = exact_optimal_policy(world, beta=1.0)
        np.testing.assert_allclose(
            policy.probs(), [[0.7310585786300049, 0.2689414213697951]], atol=1e-15
        )

    def test_maximizes_reward_minus_kl(self):
        def objective(policy, world, beta):
            logp = policy.log_probs()
            ref_logp = log_softmax(world.ref_logits)
            probs = np.exp(logp)
            kl = (probs * (logp - ref_logp)).sum(axis=1).mean()
            return expected_reward(policy, world) - beta * kl

        rng = np.random.default_rng(17)
        for _ in range(20):
            world = make_world(
                n_sources=3, n_outputs=6, seed=int(rng.integers(1000))
            )
            beta = float(rng.uniform(0.05, 2.0))
            opt = exact_optimal_policy(world, beta)
            best = objective(opt, world, beta)
            for _ in range(10):
                other = ToyPolicy(opt.logits + rng.standard_normal(opt.logits.shape))
                assert best >= objective(other, world, beta) - 1e-12

    def test_small_beta_concentrates_on_reward_argmax(self):
        world = make_world(n_sources=6, n_outputs=10, seed=2)
        policy = exact_optimal_policy(world, beta=1e-3)
        np.testing.assert_array_equal(
            policy.probs().argmax(axis=1), world.reward_table.argmax(axis=1)
        )

    def test_improves_expected_reward(self):
        world = make_world(n_sources=10, n_outputs=8, seed=4)
        base = expected_reward(ToyPolicy(world.ref_logits), world)
        for beta in (0.05, 0.1, 1.0):
            assert expected_reward(exact_optimal_policy(world, beta), world) > base

    def test_bad_beta_rejected(self):
        world = make_world(n_sources=1, n_outputs=2)
        with pytest.raises(ValidationError, match="beta"):
            exact_optimal_policy(world, beta=0.0)


class TestExpectedReward:
    def test_hand_value(self):
        world = ToyWorld(
            reward_table=np.array([[1.0, 0.0]]), ref_logits=np.zeros((1, 2))
        )
        assert expected_reward(ToyPolicy(np.zeros((1, 2))), world) == pytest.approx(0.5)

    def test_shape_mismatch_rejected(self):
        world = make_world(n_sources=2, n_outputs=3)
        with pytest.raises(ValidationError, match="does not match"):
            expected_reward(ToyPolicy(np.zeros((2, 4))), world)


class TestNucleusProbs:
    def test_keeps_smallest_sufficient_prefix(self):
        np.testing.assert_allclose(
            nucleus_probs(np.array([0.6, 0.3, 0.1]), 0.5), [1.0, 0.0, 0.0]
        )
        np.testing.assert_allclose(
            nucleus_probs(np.array([0.6, 0.3, 0.1]), 0.85),
            [2.0 / 3.0, 1.0 / 3.0, 0.0],
        )

    def test_full_mass_keeps_everything(self):
        probs = np.array([0.2, 0.5, 0.3])
        np.testing.assert_allclose(nucleus_probs(probs, 1.0), probs, atol=1e-15)

    def test_exact_boundary_stops_at_the_threshold(self):
        np.testing.assert_allclose(
            nucleus_probs(np.array([0.5, 0.5]), 0.5), [1.0, 0.0]
        )

    def test_output_is_renormalized(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            raw = rng.uniform(size=8)
            probs = raw / raw.sum()
            top_p = float(rng.uniform(0.05, 1.0))
            out = nucleus_probs(probs, top_p)
            assert out.sum() == pytest.approx(1.0, abs=1e-12)
            kept = out > 0
            # kept entries form a prefix of the probability-sorted order
            order = np.argsort(-probs, kind="stable")
            ranks = {int(j): i for i, j in enumerate(order)}
            kept_ranks = sorted(ranks[int(j)] for j in np.flatnonzero(kept))
            assert kept_ranks == list(range(len(kept_ranks)))
            prefix_mass = probs[order[: len(kept_ranks)]].sum()
            assert prefix_mass >= top_p - 1e-12

    def test_validation(self):
        with pytest.raises(ValidationError, match="top_p"):
            nucleus_probs(np.array([1.0]), 0.0)
        with pytest.raises(ValidationError, match="top_p"):
            nucleus_probs(np.array([1.0]), 1.5)
        with pytest.raises(ValidationError, match="degenerate"):
            nucleus_probs(np.zeros(3), 0.9)


class TestSampleCandidates:
    def test_structure_and_determinism(self):
        world = make_world(n_sources=4, n_outputs=6, seed=9)
        a = sample_candidates(world, 3, k=5, rng=np.random.default_rng(1))
        b = sample_candidates(world, 3, k=5, rng=np.random.default_rng(1))
        assert a == b
        assert a.source_id == "s0003"
        assert [c.id for c in a.candidates] == [f"k{j:03d}" for j in range(5)]
        assert a.direction == ("en", "xx")

    def test_logprob_is_untruncated_reference_likelihood(self):
        world = make_world(n_sources=3, n_outputs=7, seed=5)
        cset = sample_candidates(
            world, 1, k=12, temperature=0.3, top_p=0.6, rng=np.random.default_rng(2)
        )
        ref_logp = log_softmax(world.ref_logits[1][None, :])[0]
        for cand in cset.candidates:
            m = output_index(cand.text)
            assert cand.logprob == pytest.approx(float(ref_logp[m]), abs=1e-15)
            assert cand.reward_agg == pytest.approx(world.reward_table[1, m])

    def test_zero_temperature_limit_is_argmax(self):
        world = make_world(n_sources=2, n_outputs=8, seed=7)
        cset = sample_candidates(
            world, 0, k=6, temperature=1e-9, top_p=1.0, rng=np.random.default_rng(3)
        )
        top = output_text(int(world.ref_logits[0].argmax()))
        assert all(c.text == top for c in cset.candidates)

    def test_unit_temperature_full_mass_matches_reference_distribution(self):
        world = make_world(n_sources=1, n_outputs=4, seed=8)
        cset = sample_candidates(
            world, 0, k=20000, temperature=1.0, top_p=1.0,
            rng=np.random.default_rng(4),
        )
        counts = np.zeros(4)
        for cand in cset.candidates:
            counts[output_index(cand.text)] += 1
        expected = np.exp(log_softmax(world.ref_logits[0][None, :])[0]) * 20000
        result = scipy.stats.chisquare(counts, expected)
        assert result.pvalue > 1e-4

    def test_nucleus_truncation_restricts_support(self):
        world = make_world(n_sources=1, n_outputs=16, seed=10)
        cset = sample_candidates(
            world, 0, k=4000, temperature=1.0, top_p=0.4,
            rng=np.random.default_rng(5),
        )
        row = world.ref_logits[0]
        sampler = np.exp(row - row.max())
        allowed = np.flatnonzero(nucleus_probs(sampler / sampler.sum(), 0.4))
        seen = {output_index(c.text) for c in cset.candidates}
        assert seen <= set(allowed.tolist())
        assert len(seen) == len(allowed)  # 4000 draws cover the small nucleus

    def test_validation(self):
        world = make_world(n_sources=2, n_outputs=3)
        with pytest.raises(ValidationError, match="out of range"):
            sample_candidates(world, 5, rng=np.random.default_rng(0))
        with pytest.raises(ValidationError, match="k must be"):
            sample_candidates(world, 0, k=0, rng=np.random.default_rng(0))
        with pytest.raises(ValidationError, match="temperature"):
            sample_candidates(world, 0, temperature=0.0, rng=np.random.default_rng(0))


class TestResolvePairs:
    def test_maps_back_to_table_indices(self):
        world = make_world(n_sources=3, n_outputs=6, seed=12)
        sets = [
            sample_candidates(world, s, k=8, rng=np.random.default_rng([99, s]))
            for s in range(3)
        ]
        minmax_r = SelectionConfig(method="minmax_r")
        pairs = [p for cset in sets for p in run_selector(cset, minmax_r).pairs]
        resolved = resolve_pairs(world, pairs, sets)
        assert len(resolved) == len(pairs)
        for (s, w, l), pair in zip(resolved, pairs):
            assert source_label(s) == pair.source_id
            cset = sets[s]
            assert output_index(cset.candidate(pair.chosen_id).text) == w
            assert output_index(cset.candidate(pair.rejected_id).text) == l
            assert world.reward_table[s, w] > world.reward_table[s, l]

    def test_unknown_source_rejected(self):
        from crpo.core import PreferencePair

        world = make_world(n_sources=2, n_outputs=3)
        sets = [sample_candidates(world, 0, k=4, rng=np.random.default_rng(0))]
        stray = PreferencePair(
            source_id="s0001",
            chosen_id="k000",
            rejected_id="k001",
            score=0.1,
            method="minmax_r",
        )
        with pytest.raises(ValidationError, match="unknown source"):
            resolve_pairs(world, [stray], sets)

    def test_source_row_out_of_range(self):
        world = make_world(n_sources=2, n_outputs=3)
        cset = make_set(
            [("A", 0.9, -1.0), ("B", 0.1, -2.0)], source_id="s0099"
        )
        pairs = run_selector(cset, SelectionConfig(method="minmax_r")).pairs
        with pytest.raises(ValidationError, match="out of range"):
            resolve_pairs(world, pairs, [cset])

    def test_reward_inverted_pair_rejected(self):
        world = make_world(n_sources=1, n_outputs=6, seed=12)
        cset = sample_candidates(world, 0, k=8, rng=np.random.default_rng(99))
        (pair,) = run_selector(cset, SelectionConfig(method="minmax_r")).pairs
        inverted = replace(pair, chosen_id=pair.rejected_id, rejected_id=pair.chosen_id)
        with pytest.raises(ValidationError, match="lower aggregate reward"):
            resolve_pairs(world, [inverted], [cset])

    def test_non_toy_texts_rejected(self):
        world = make_world(n_sources=2, n_outputs=3)
        cset = make_set([("A", 0.9, -1.0), ("B", 0.1, -2.0)], source_id="s0001")
        pairs = run_selector(cset, SelectionConfig(method="minmax_r")).pairs
        with pytest.raises(ValidationError, match="toy output label"):
            resolve_pairs(world, pairs, [cset])


class TestTrainDpo:
    def world_and_pairs(self):
        world = make_world(n_sources=4, n_outputs=6, seed=14)
        pairs = [(s, int(world.reward_table[s].argmax()), int(world.reward_table[s].argmin())) for s in range(4)]
        return world, pairs

    def test_loss_decreases(self):
        world, pairs = self.world_and_pairs()
        result = train_dpo(world, pairs)
        assert len(result.losses) == TRAIN_STEPS
        assert result.losses[-1] < result.losses[0]

    def test_training_grows_the_pair_margin(self):
        world, pairs = self.world_and_pairs()
        result = train_dpo(world, pairs)
        assert len(result.losses) == TRAIN_STEPS
        before = log_softmax(world.ref_logits)
        after = result.policy.log_probs()
        for s, w, l in pairs:
            assert (after[s, w] - after[s, l]) > (before[s, w] - before[s, l])

    def test_deterministic(self):
        world, pairs = self.world_and_pairs()
        a = train_dpo(world, pairs)
        b = train_dpo(world, pairs)
        np.testing.assert_array_equal(a.policy.logits, b.policy.logits)
        assert a.losses == b.losses
        assert len(a.losses) == TRAIN_STEPS

    def test_improves_expected_reward_with_good_pairs(self):
        world, pairs = self.world_and_pairs()
        result = train_dpo(world, pairs)
        assert len(result.losses) == TRAIN_STEPS
        base = expected_reward(ToyPolicy(world.ref_logits), world)
        assert expected_reward(result.policy, world) > base

    def test_matches_a_loop_over_the_sequential_scatter_bit_for_bit(self):
        """Every loss and the final logits equal a plain loop of
        ``logits = logits - TRAIN_LR * g`` over the one-np.add.at-per-term
        oracle, on worlds whose rows hold several (and repeated) pairs."""
        rng = np.random.default_rng(31)
        cfg = LossConfig()
        for _ in range(200):
            n_sources, n_outputs = int(rng.integers(1, 6)), int(rng.integers(2, 9))
            world = ToyWorld(
                reward_table=rng.uniform(size=(n_sources, n_outputs)),
                ref_logits=rng.standard_normal((n_sources, n_outputs)) * 3,
            )
            pairs = [
                (s, *map(int, rng.choice(n_outputs, size=2, replace=False)))
                for s in range(n_sources)
                for _ in range(int(rng.integers(0, 5)))
            ]
            pairs += pairs[: int(rng.integers(0, 3))]
            if not pairs:
                pairs = [(0, 0, 1)]
            rng.shuffle(pairs)
            result = train_dpo(world, pairs)

            ref_logp = log_softmax(world.ref_logits)
            logits = world.ref_logits.copy()
            losses = []
            for _ in range(TRAIN_STEPS):
                loss, g = sequential_scatter_loss_and_grad(logits, ref_logp, pairs, cfg)
                losses.append(loss)
                logits = logits - TRAIN_LR * g
            assert result.losses == tuple(losses)
            np.testing.assert_array_equal(result.policy.logits, logits)

    def test_bad_pair_index_is_an_input_error(self):
        world = ToyWorld(
            reward_table=np.array([[1.0, 0.0]]), ref_logits=np.array([[-5.0, 5.0]])
        )
        with pytest.raises(ValidationError, match="^pair index out of range"):
            train_dpo(world, [(0, 0, 2)])

    def test_finite_worlds_train_finitely_or_fail_on_the_reference(self):
        # Each step moves a logit by at most TRAIN_LR * 2.1, so a finite table
        # stays finite: a world either fails on its reference logits, before
        # any update, or trains every step to finite losses and logits.
        big = sys.float_info.max
        rng = np.random.default_rng(2024)
        failed = trained = 0
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(300):
                n_sources, n_outputs = int(rng.integers(1, 4)), int(rng.integers(2, 7))
                scale = big / 10.0 ** rng.integers(0, 309)
                logits = np.clip(
                    rng.standard_normal((n_sources, n_outputs)) * scale, -big, big
                )
                extreme = rng.random(logits.shape) < 0.2
                logits[extreme] = rng.choice([-big, big], size=int(extreme.sum()))
                world = ToyWorld(
                    reward_table=rng.uniform(size=logits.shape), ref_logits=logits
                )
                pairs = [
                    (s, *map(int, rng.choice(n_outputs, size=2, replace=False)))
                    for s in range(n_sources)
                    for _ in range(int(rng.integers(1, 3)))
                ]
                try:
                    batch_loss_and_grad(
                        logits, PairBatch.of(np.asarray(pairs), log_softmax(logits)), LossConfig()
                    )
                except ValidationError as err:
                    assert str(err) == "non-finite loss"
                    with pytest.raises(ValidationError, match="^non-finite loss$"):
                        train_dpo(world, pairs)
                    failed += 1
                    continue
                result = train_dpo(world, pairs)
                assert len(result.losses) == TRAIN_STEPS
                assert all(math.isfinite(loss) for loss in result.losses)
                assert np.all(np.isfinite(result.policy.logits))
                trained += 1
        assert failed > 0 and trained > 0


class TestRandomPairOutcome:
    def test_deterministic_and_labeled_by_reward(self):
        world = make_world(n_sources=1, n_outputs=8, seed=15)
        cset = sample_candidates(world, 0, k=10, rng=np.random.default_rng(6))
        a = random_pair_outcome(cset, np.random.default_rng(8))
        b = random_pair_outcome(cset, np.random.default_rng(8))
        assert a == b
        if a.pairs:
            pair = a.pairs[0]
            chosen = cset.candidate(pair.chosen_id)
            rejected = cset.candidate(pair.rejected_id)
            assert chosen.reward_agg > rejected.reward_agg
            assert pair.method == "random_pair"

    def test_zero_gap_skips(self):
        cset = make_set([("A", 0.5, -1.0), ("B", 0.5, -2.0)])
        outcome = random_pair_outcome(cset, np.random.default_rng(0))
        assert outcome.skipped_reason == "zero reward gap"

    def test_needs_two(self):
        cset = make_set([("A", 0.5, -1.0)])
        with pytest.raises(ValidationError, match="at least 2"):
            random_pair_outcome(cset, np.random.default_rng(0))


class TestRunComparison:
    def small_world(self):
        return make_world(n_sources=6, n_outputs=8, seed=1)

    def test_report_structure_and_determinism(self):
        world = self.small_world()
        methods = ("cr_plus", "minmax_r", "random_pair")
        report = run_comparison(world, methods, seeds=(0, 1, 2))
        again = run_comparison(world, methods, seeds=(0, 1, 2))
        assert report == again
        assert list(report) == [
            "methods", "seeds", "gains", "means", "stderrs", "win_rates", "flags"
        ]
        assert report["methods"] == list(methods)
        assert report["seeds"] == [0, 1, 2]
        assert all(len(g) == 3 for g in report["gains"])
        for gains, mean in zip(report["gains"], report["means"], strict=True):
            assert mean == pytest.approx(sum(gains) / 3, abs=1e-15)
        json.dumps(report)  # serializable as-is

    def test_win_rates_are_complementary(self):
        world = self.small_world()
        methods = ("cr_plus", "cr_times", "random_pair")
        win_rates = run_comparison(world, methods, seeds=(0, 1, 2, 3))["win_rates"]
        for a in methods:
            assert win_rates[a][a] == pytest.approx(0.5)
            for b in methods:
                assert win_rates[a][b] + win_rates[b][a] == pytest.approx(1.0)

    def test_repeated_method_rejected(self):
        world = self.small_world()
        with pytest.raises(ValidationError, match="'rso' is listed twice"):
            run_comparison(world, ("rso", "cr_plus", "rso"), seeds=(0, 1))

    def test_methods_do_not_interact(self):
        world = self.small_world()
        seeds = (0, 1, 2)
        alone = {
            m: run_comparison(world, (m,), seeds)["gains"][0]
            for m in ("cr_plus", "rso", "random_pair")
        }
        for methods in (("cr_plus", "rso", "random_pair"), ("random_pair", "rso", "cr_plus")):
            report = run_comparison(world, methods, seeds)
            for m, gains in zip(methods, report["gains"], strict=True):
                assert gains == alone[m]

    def test_qe_best_trains_nothing(self):
        world = self.small_world()
        report = run_comparison(world, ("qe_best",), seeds=(0, 1))
        assert report["gains"] == [[0.0, 0.0]]
        assert report["flags"] == [["no_pairs", "no_pairs"]]

    def test_validation(self):
        world = self.small_world()
        with pytest.raises(ValidationError, match="unknown method"):
            run_comparison(world, ("nonsense",), seeds=(0,))
        with pytest.raises(ValidationError, match="no methods"):
            run_comparison(world, (), seeds=(0,))
        with pytest.raises(ValidationError, match="no seeds"):
            run_comparison(world, ("cr_plus",), seeds=())
        with pytest.raises(ValidationError, match="k >= 2"):
            run_comparison(world, ("cr_plus",), seeds=(0,), k=1)


def test_compare_methods_cover_every_selector_plus_control():
    from crpo.core import METHODS

    assert COMPARE_METHODS == METHODS + ("random_pair",)
    assert len(COMPARE_METHODS) == 12
