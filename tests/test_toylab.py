"""Toy world: exact solutions, sampling, training, and the comparison harness."""

from __future__ import annotations

import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

from crpo import toylab
from crpo.cli import main
from crpo.core import SelectionConfig, ValidationError
from crpo.losses import (
    LossConfig,
    PairBatch,
    batch_loss_and_grad,
    gradient_check,
    log_softmax,
)
from crpo.selectors import random_pair_outcome, rso_acceptance_probs, run_selector
from crpo.toylab import (
    COMPARE_METHODS,
    MAX_COMPARE_CANDIDATES,
    MAX_COMPARE_K,
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
    resolve_pairs,
    run_comparison,
    sample_candidates,
    source_label,
    train_dpo,
)

from conftest import make_set, random_set
from oracles import random_pair_outcome as oracle_random_pair_outcome
from oracles import sequential_scatter_loss_and_grad


class TestLabels:
    def test_round_trips(self):
        assert source_label(7) == "s0007"
        assert output_text(31) == "y31"
        assert output_index("y31") == 31

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
        with pytest.raises(ValidationError, match="negative"):
            nucleus_probs(np.array([-0.2, 0.5, 0.6]), 1.0)


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

    def test_same_set_whether_or_not_the_world_sampled_the_source_before(self):
        """A world keeps each source's sampling distribution after the first
        draw; later draws, and draws at other settings, get the same sets as
        a fresh world."""
        settings = [{}, {"temperature": 0.4}, {"top_p": 0.5}, {"temperature": 2.0, "top_p": 1.0}]
        used = make_world(n_sources=3, n_outputs=9, seed=14)
        for source in range(3):
            for kwargs in settings:
                sample_candidates(used, source, k=4, rng=np.random.default_rng(0), **kwargs)
        for source in range(3):
            for i, kwargs in enumerate(settings):
                fresh = make_world(n_sources=3, n_outputs=9, seed=14)
                rng_seed = [source, i]
                want = sample_candidates(
                    fresh, source, k=12, rng=np.random.default_rng(rng_seed), **kwargs
                )
                got = sample_candidates(
                    used, source, k=12, rng=np.random.default_rng(rng_seed), **kwargs
                )
                assert got == want

    def test_validation(self):
        world = make_world(n_sources=2, n_outputs=3)
        with pytest.raises(ValidationError, match="out of range"):
            sample_candidates(world, 5, rng=np.random.default_rng(0))
        with pytest.raises(ValidationError, match="k must be"):
            sample_candidates(world, 0, k=0, rng=np.random.default_rng(0))
        with pytest.raises(ValidationError, match="temperature"):
            sample_candidates(world, 0, temperature=0.0, rng=np.random.default_rng(0))


class TestResolvePairs:
    @pytest.mark.parametrize("method", COMPARE_METHODS)
    def test_maps_back_to_table_indices(self, method):
        world = make_world(n_sources=6, n_outputs=6, seed=12)
        sets = [
            sample_candidates(world, s, k=8, rng=np.random.default_rng([99, s]))
            for s in range(6)
        ]
        if method == "random_pair":
            outcomes = [
                random_pair_outcome(cset, np.random.default_rng([99, s, 1]))
                for s, cset in enumerate(sets)
            ]
        else:
            config = SelectionConfig(method=method)
            outcomes = [run_selector(cset, config) for cset in sets]
        resolved = resolve_pairs(sets, outcomes)
        located = [(s, pair) for s, outcome in enumerate(outcomes) for pair in outcome.pairs]
        assert len(resolved) == len(located)
        if method == "qe_best":
            assert resolved == []
            return
        assert resolved
        for (s, w, l), (row, pair) in zip(resolved, located):
            assert s == row
            assert output_index(sets[s].candidate(pair.chosen_id).text) == w
            assert output_index(sets[s].candidate(pair.rejected_id).text) == l
            if not method.startswith("mbr_"):
                assert world.reward_table[s, w] > world.reward_table[s, l]

    def test_non_toy_texts_rejected(self):
        cset = make_set([("A", 0.9, -1.0), ("B", 0.1, -2.0)], source_id="s0001")
        outcome = run_selector(cset, SelectionConfig(method="minmax_r"))
        with pytest.raises(ValidationError, match="toy output label"):
            resolve_pairs([cset], [outcome])


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

    def test_deep_row_batch_matches_the_oracle(self):
        """The batch of ``toy compare --methods rs_dpo --seeds 1 --sources 1
        --outputs 4 --k 400 --world-seed 10`` holds 20,400 pairs in one row.
        A step on it equals the oracle bit for bit."""
        world = make_world(n_sources=1, n_outputs=4, seed=10)
        cset = sample_candidates(world, 0, k=400, rng=np.random.default_rng([10, 0, 0]))
        outcome = run_selector(cset, SelectionConfig(method="rs_dpo", seed=0))
        pairs = resolve_pairs([cset], [outcome])
        assert len(pairs) == 20_400
        ref_logp = log_softmax(world.ref_logits)
        batch = PairBatch.of(pairs, ref_logp)
        logits = world.ref_logits + np.random.default_rng(12).standard_normal((1, 4))
        loss, grad = batch_loss_and_grad(logits, batch, LossConfig())
        expected_loss, expected = sequential_scatter_loss_and_grad(
            logits, ref_logp, pairs, LossConfig()
        )
        np.testing.assert_array_equal(grad, expected)
        assert loss == expected_loss

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

    def test_matches_the_hand_built_oracle(self):
        # Same draws, skips, ids, score bits and reward_gap as the hand-built
        # pair; labeling through _Pool.by_reward only adds confidence_gap.
        skips = 0
        for seed in range(4):
            rng = np.random.default_rng(seed)
            for n in range(600):
                cset = random_set(rng, tie_probability=0.5)
                draws, oracle_draws = (np.random.default_rng([seed, n]) for _ in range(2))
                got = random_pair_outcome(cset, draws)
                want = oracle_random_pair_outcome(cset, oracle_draws)
                assert draws.bit_generator.state == oracle_draws.bit_generator.state
                assert got.skipped_reason == want.skipped_reason
                assert got.sft_target is None and want.sft_target is None
                assert len(got.pairs) == len(want.pairs)
                skips += got.skipped_reason is not None
                for pair, expected in zip(got.pairs, want.pairs):
                    assert (pair.source_id, pair.chosen_id, pair.rejected_id, pair.method) == (
                        expected.source_id, expected.chosen_id, expected.rejected_id,
                        expected.method,
                    )
                    assert pair.score.hex() == expected.score.hex()
                    assert set(pair.extras) == {"reward_gap", "confidence_gap"}
                    assert set(expected.extras) == {"reward_gap"}
                    assert pair.extras["reward_gap"].hex() == expected.extras["reward_gap"].hex()
        assert skips > 0


class TestRunComparison:
    def small_world(self):
        return make_world(n_sources=6, n_outputs=8, seed=1)

    def test_report_structure_and_determinism(self):
        world = self.small_world()
        methods = ("cr_plus", "minmax_r", "random_pair")
        report = run_comparison(world, methods, n_seeds=3)
        again = run_comparison(world, methods, n_seeds=3)
        assert report == again
        assert list(report) == [
            "methods", "seeds", "gains", "means", "stderrs", "win_rates", "flags"
        ]
        assert report["methods"] == list(methods)
        assert report["seeds"] == [0, 1, 2]
        assert all(len(g) == 3 for g in report["gains"])
        for gains, mean in zip(report["gains"], report["means"], strict=True):
            assert mean == pytest.approx(sum(gains) / 3, abs=1e-15)
            assert all(g == round(g, 12) for g in gains)
            assert mean == math.fsum(gains) / len(gains)
        json.dumps(report)  # serializable as-is

    def test_win_rates_are_complementary(self):
        world = self.small_world()
        methods = ("cr_plus", "cr_times", "random_pair")
        win_rates = run_comparison(world, methods, n_seeds=4)["win_rates"]
        for a in methods:
            assert win_rates[a][a] == pytest.approx(0.5)
            for b in methods:
                assert win_rates[a][b] + win_rates[b][a] == pytest.approx(1.0)

    def test_repeated_method_rejected(self):
        world = self.small_world()
        with pytest.raises(ValidationError, match="'rso' is listed twice"):
            run_comparison(world, ("rso", "cr_plus", "rso"), n_seeds=2)

    def test_methods_do_not_interact(self):
        world = self.small_world()
        alone = {
            m: run_comparison(world, (m,), 3)["gains"][0]
            for m in ("cr_plus", "rso", "random_pair")
        }
        for methods in (("cr_plus", "rso", "random_pair"), ("random_pair", "rso", "cr_plus")):
            report = run_comparison(world, methods, 3)
            for m, gains in zip(methods, report["gains"], strict=True):
                assert gains == alone[m]

    def test_qe_best_trains_nothing(self):
        world = self.small_world()
        report = run_comparison(world, ("qe_best",), n_seeds=2)
        assert report["gains"] == [[0.0, 0.0]]
        assert report["flags"] == [["no_pairs", "no_pairs"]]

    def test_validation(self):
        world = self.small_world()
        with pytest.raises(ValidationError, match="unknown method"):
            run_comparison(world, ("nonsense",), n_seeds=1)
        with pytest.raises(ValidationError, match="no methods"):
            run_comparison(world, (), n_seeds=1)
        with pytest.raises(ValidationError, match="k >= 2"):
            run_comparison(world, ("cr_plus",), n_seeds=1, k=1)
        with pytest.raises(ValidationError, match="^method 'mbr_bmw' needs k >= 3, got 2$"):
            run_comparison(world, ("cr_plus", "mbr_bmw"), n_seeds=1, k=2)
        for n_seeds, message in (
            (0, "got 0"),
            (-1, "got -1"),
            (1.5, "got 1.5"),
            ("2", "got '2'"),
            (True, "got True"),
        ):
            with pytest.raises(ValidationError, match=f"n_seeds >= 1, {message}$"):
                run_comparison(world, ("random_pair",), n_seeds=n_seeds)


class _SeedsReached(Exception):
    pass


def _seeds_reached(task, seeds):
    raise _SeedsReached(seeds)


# Each bound of a comparison, held just past it: run_comparison raises before
# any seed runs, and toy compare exits 2 with the same message.  A count that
# is not an int has no command line.
@pytest.mark.parametrize(
    "methods, n_seeds, sources, outputs, k",
    [
        pytest.param("cr_plus", 0, 2, 3, 2, id="zero-seeds"),
        pytest.param("cr_plus", -1, 2, 3, 2, id="negative-seeds"),
        pytest.param("cr_plus", 1.5, 2, 3, 2, id="float-seeds"),
        pytest.param("cr_plus", "2", 2, 3, 2, id="str-seeds"),
        pytest.param("cr_plus", True, 2, 3, 2, id="bool-seeds"),
        pytest.param("cr_plus", 1, 2, 3, 1, id="k-below"),
        pytest.param("cr_plus", 1, 2, 3, MAX_COMPARE_K + 1, id="k-above"),
        pytest.param("cr_plus,mbr_bmw", 2, 4, 8, 2, id="k-below-method"),
        pytest.param("cr_plus", MAX_COMPARE_CANDIDATES // 2 + 1, 1, 3, 2, id="candidates"),
        pytest.param("cr_plus", 10**6, 160, 64, 16, id="candidates-benchmark-world"),
        pytest.param("rs_dpo", 1, 6, 8, MAX_COMPARE_K, id="pair-cells"),
    ],
)
def test_every_bound_is_checked_before_the_seeds_run(
    monkeypatch, tmp_path, capsys, methods, n_seeds, sources, outputs, k
):
    monkeypatch.setattr(toylab, "_map_seeds", _seeds_reached)
    world = make_world(n_sources=sources, n_outputs=outputs)
    with pytest.raises(ValidationError) as caught:
        run_comparison(world, methods.split(","), n_seeds, k=k)
    if type(n_seeds) is not int:
        return
    out = tmp_path / "report.json"
    argv = ["toy", "compare", "--methods", methods, "--seeds", str(n_seeds),
            "--sources", str(sources), "--outputs", str(outputs), "--k", str(k)]
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {caught.value}\n"
    assert not out.exists()


def test_a_comparison_at_the_candidate_cap_reaches_the_seeds(monkeypatch):
    monkeypatch.setattr(toylab, "_map_seeds", _seeds_reached)
    world = make_world(n_sources=1, n_outputs=3)
    with pytest.raises(_SeedsReached) as caught:
        run_comparison(world, ["cr_plus"], MAX_COMPARE_CANDIDATES // 2, k=2)
    assert caught.value.args[0] == range(MAX_COMPARE_CANDIDATES // 2)


@pytest.mark.skipif(sys.platform != "linux", reason="seeds run in forked workers on Linux only")
class TestComparisonWorkers:
    """``run_comparison`` maps its seeds over forked workers, one per usable
    CPU: the report must not depend on how many there are."""

    ARGS = ["toy", "compare", "--methods", "cr_plus,qe_best,random_pair", "--seeds", "4",
            "--sources", "6", "--outputs", "8", "--k", "6", "--world-seed", "3"]

    @pytest.fixture
    def pids(self, monkeypatch, tmp_path):
        """The ids of the processes that sampled candidates, read back after a run."""
        log = tmp_path / "pids.txt"
        sample = toylab.sample_candidates

        def logged(*args, **kwargs):
            with open(log, "a", encoding="utf-8") as handle:
                handle.write(f"{os.getpid()}\n")
            return sample(*args, **kwargs)

        monkeypatch.setattr(toylab, "sample_candidates", logged)

        def read() -> set[int]:
            found = {int(line) for line in log.read_text(encoding="utf-8").split()}
            log.unlink()
            return found

        return read

    def report_bytes(self, tmp_path, name: str) -> bytes:
        out = tmp_path / name
        assert main(self.ARGS + ["--out", str(out)]) == 0
        _assert_no_child_left()
        return out.read_bytes()

    def test_report_bytes_do_not_depend_on_the_worker_count(self, monkeypatch, tmp_path, pids):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        one = self.report_bytes(tmp_path, "one.json")
        assert pids() == {os.getpid()}
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        three = self.report_bytes(tmp_path, "three.json")
        workers = pids()
        assert os.getpid() not in workers and len(workers) <= 3
        assert one == three
        assert json.loads(three)["flags"][1] == ["no_pairs"] * 4

    def test_without_fork_the_seeds_run_in_process(self, monkeypatch, tmp_path, pids):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        pooled = self.report_bytes(tmp_path, "pooled.json")
        assert os.getpid() not in pids()
        monkeypatch.setattr(sys, "platform", "darwin")
        assert self.report_bytes(tmp_path, "plain.json") == pooled
        assert pids() == {os.getpid()}

    def test_a_failing_seed_fails_the_run_and_leaves_no_worker(
        self, monkeypatch, tmp_path, capsys
    ):
        # The first training call, in whichever process, fails: one seed.
        marker = tmp_path / "failed"
        train = toylab.train_dpo

        def fail_once(world, pairs):
            try:
                os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
            except FileExistsError:
                return train(world, pairs)
            raise ValidationError("training failed on one seed")

        monkeypatch.setattr(toylab, "train_dpo", fail_once)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        world = make_world(n_sources=6, n_outputs=8, seed=3)
        with pytest.raises(ValidationError, match="^training failed on one seed$"):
            run_comparison(world, ("cr_plus",), n_seeds=4, k=6)
        _assert_no_child_left()

        marker.unlink()
        out = tmp_path / "report.json"
        assert main(self.ARGS + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: training failed on one seed\n"
        _assert_no_child_left()
        assert not out.exists()

    def test_a_killed_worker_fails_the_run_and_leaves_no_child(
        self, monkeypatch, tmp_path, capsys
    ):
        # Worker 0 kills itself at its first seed, seed 0, while worker 1 may
        # still be running seeds 1 and 3: it must be ended and reaped too.
        def config(**kwargs):
            if kwargs["seed"] == 0:
                os.kill(os.getpid(), signal.SIGKILL)
            return SelectionConfig(**kwargs)

        monkeypatch.setattr(toylab, "SelectionConfig", config)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        world = make_world(n_sources=6, n_outputs=8, seed=3)
        with pytest.raises(RuntimeError, match=r"^seed worker 0 died \(killed by signal 9\)"):
            run_comparison(world, ("cr_plus",), n_seeds=4, k=6)
        _assert_no_child_left()

        out = tmp_path / "report.json"
        assert main(self.ARGS + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "internal error: RuntimeError: seed worker 0 died (killed by signal 9) "
            "before sending its results\n"
        )
        _assert_no_child_left()
        assert not out.exists()

    @pytest.mark.parametrize("failing, reported", [({1, 2}, 1), ({0, 3}, 0)])
    def test_the_first_failing_seed_is_reported_whichever_worker_ran_it(
        self, monkeypatch, failing, reported
    ):
        # Two workers: worker 0 runs seeds 0 and 2, worker 1 runs 1 and 3, so
        # the two failures happen in different workers.
        def task(seed):
            if seed in failing:
                raise ValidationError(f"seed {seed} failed")
            return [seed]

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        with pytest.raises(ValidationError, match=f"^seed {reported} failed$"):
            toylab._map_seeds(task, (0, 1, 2, 3))
        _assert_no_child_left()

    def test_each_worker_runs_a_stripe_and_results_come_back_in_seed_order(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        results = toylab._map_seeds(lambda seed: [seed * seed, os.getpid()], (7, 3, 9, 1, 4))
        _assert_no_child_left()
        assert [square for square, _ in results] == [49, 9, 81, 1, 16]
        pids = [pid for _, pid in results]
        assert pids[0] == pids[2] == pids[4] != pids[1] == pids[3]
        assert os.getpid() not in pids

    @pytest.mark.parametrize("kind", ["local", "two_args"])
    def test_an_error_that_does_not_pickle_arrives_as_its_repr(self, monkeypatch, kind):
        class LocalError(Exception):  # a local class, which pickle cannot name
            pass

        error = LocalError("no pickle") if kind == "local" else _TwoArgError("no", "unpickle")

        def task(seed):
            if seed == 1:
                raise error
            return [seed]

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        with pytest.raises(RuntimeError) as raised:
            toylab._map_seeds(task, (0, 1, 2))
        assert str(raised.value) == repr(error)
        _assert_no_child_left()

    def test_workers_die_with_a_killed_parent(self, tmp_path):
        # A parent whose two workers block in training is killed: the kernel
        # must end the workers too, or they would run on for nobody.
        log = tmp_path / "pids.txt"
        script = (
            "import os, time\n"
            "from crpo import toylab\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "def blocked(world, pairs):\n"
            f"    with open({str(log)!r}, 'a') as handle:\n"
            "        handle.write(f'{os.getpid()}\\n')\n"
            "    time.sleep(600)\n"
            "toylab.train_dpo = blocked\n"
            "world = toylab.make_world(n_sources=4, n_outputs=4, seed=0)\n"
            "toylab.run_comparison(world, ('cr_plus',), n_seeds=2, k=4)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(toylab.__file__).parents[1]))
        parent = subprocess.Popen([sys.executable, "-c", script], env=env)
        workers: list[int] = []
        try:
            deadline = time.monotonic() + 60
            while len(workers) < 2 and time.monotonic() < deadline:
                time.sleep(0.05)
                if log.exists():
                    workers = [int(line) for line in log.read_text().split()]
            assert len(workers) == 2
            parent.kill()
            parent.wait()
            deadline = time.monotonic() + 10
            while any(map(_running, workers)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not any(map(_running, workers))
        finally:
            parent.kill()
            parent.wait()
            for pid in workers:
                if _running(pid):
                    os.kill(pid, signal.SIGKILL)


class _TwoArgError(Exception):
    """Pickles, but does not unpickle: its args hold one message, and its
    constructor takes two."""

    def __init__(self, a, b):
        super().__init__(f"{a} {b}")


def _assert_no_child_left() -> None:
    """This process has no child process, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _running(pid: int) -> bool:
    """Whether process ``pid`` exists and has not exited."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rpartition(")")[2].split()[0] != "Z"


def test_compare_methods_cover_every_selector_plus_control():
    from crpo.core import METHODS

    assert COMPARE_METHODS == METHODS + ("random_pair",)
    assert len(COMPARE_METHODS) == 12


def _rng():
    return np.random.default_rng(0)


# Numeric arguments of the toy lab, the loss lab and RSO take the checks of
# SelectionConfig and LossConfig: no bool where an integer or a number is
# asked for, no int beyond the float range, no string.  Each call gets a
# 2-source, 3-output world.
@pytest.mark.parametrize(
    "call, argument",
    [
        pytest.param(lambda w: make_world(seed=True), "seed", id="make_world-seed-bool"),
        pytest.param(lambda w: ToyWorld(w.reward_table, w.ref_logits, seed=True), "seed",
                     id="ToyWorld-seed-bool"),
        pytest.param(lambda w: gradient_check(seed=True), "seed", id="gradient_check-seed-bool"),
        pytest.param(lambda w: rso_acceptance_probs([0.5, 0.2], True), "beta",
                     id="rso_acceptance_probs-beta-bool"),
        pytest.param(lambda w: run_comparison(w, ["random_pair"], True), "n_seeds",
                     id="run_comparison-seed-bool"),
        pytest.param(lambda w: make_world(logit_scale=10**400), "logit_scale",
                     id="make_world-logit_scale-huge"),
        pytest.param(lambda w: exact_optimal_policy(w, 10**400), "beta",
                     id="exact_optimal_policy-beta-huge"),
        pytest.param(lambda w: make_world(logit_scale="2"), "logit_scale",
                     id="make_world-logit_scale-str"),
        pytest.param(lambda w: make_world(reward_logit_corr="0.5"), "reward_logit_corr",
                     id="make_world-reward_logit_corr-str"),
        pytest.param(lambda w: make_world(n_sources=2.5), "n_sources",
                     id="make_world-n_sources-float"),
        pytest.param(lambda w: sample_candidates(w, 0, temperature="1", rng=_rng()),
                     "temperature", id="sample_candidates-temperature-str"),
        pytest.param(lambda w: sample_candidates(w, 0, k=True, rng=_rng()), "k must be",
                     id="sample_candidates-k-bool"),
        pytest.param(lambda w: run_comparison(w, ["random_pair"], 1, k=2.5), "k >= 2",
                     id="run_comparison-k-float"),
    ],
)
def test_bad_numeric_argument_is_a_validation_error(call, argument):
    world = make_world(n_sources=2, n_outputs=3)
    with pytest.raises(ValidationError, match=argument):
        call(world)
