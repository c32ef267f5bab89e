"""Loss laboratory: the DPO + SFT objective, margin deltas, analytic gradients."""

from __future__ import annotations

import math

import numpy as np
import pytest

from crpo.core import ValidationError
from crpo.losses import (
    MAX_SFT_ROUNDS,
    LossConfig,
    PairBatch,
    batch_loss_and_grad,
    gradient_check,
    log_softmax,
)

from oracles import (
    PairLogits,
    PairScoreInput,
    cr_plus,
    delta_loss,
    dpo_loss,
    sequential_scatter_loss_and_grad,
    sft_term,
    softplus,
)

LOG_TWO = 0.6931471805599453


class TestSoftplus:
    def test_matches_reference(self):
        for x in (-3.0, -0.5, 0.0, 0.5, 3.0):
            assert softplus(x) == pytest.approx(math.log1p(math.exp(x)), abs=1e-15)

    def test_extreme_inputs_stay_finite(self):
        assert softplus(-1000.0) == 0.0
        assert softplus(1000.0) == pytest.approx(1000.0)


class TestLogSoftmax:
    def test_rows_normalize(self):
        rng = np.random.default_rng(0)
        logits = rng.standard_normal((4, 7)) * 10
        logp = log_softmax(logits)
        np.testing.assert_allclose(np.exp(logp).sum(axis=1), np.ones(4), atol=1e-12)

    def test_shift_invariant(self):
        logits = np.array([[1.0, 2.0, 3.0]])
        np.testing.assert_allclose(
            log_softmax(logits), log_softmax(logits + 500.0), atol=1e-12
        )


class TestDpoLoss:
    def test_frozen_value(self):
        # implicit-reward margin 3 at beta 0.1 -> -log sigmoid(0.3)
        pair = PairLogits(
            logp_theta_w=-1.0,
            logp_theta_l=-4.0,
            logp_ref_w=-3.0,
            logp_ref_l=-3.0,
            beta=0.1,
        )
        assert dpo_loss(pair) == pytest.approx(0.5543552444685271, abs=1e-15)

    def test_zero_margin_gives_log_two(self):
        pair = PairLogits(-2.0, -2.0, -5.0, -5.0)
        assert dpo_loss(pair) == pytest.approx(LOG_TWO, abs=1e-15)

    def test_shared_shift_cancels(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            tw, tl, rw, rl = (-rng.uniform(0.1, 30.0, size=4)).tolist()
            shift_t, shift_r = rng.normal(size=2).tolist()
            base = dpo_loss(PairLogits(tw, tl, rw, rl))
            shifted = dpo_loss(
                PairLogits(tw + shift_t, tl + shift_t, rw + shift_r, rl + shift_r)
            )
            assert shifted == pytest.approx(base, abs=1e-9)

    def test_decreasing_in_winner_likelihood(self):
        low = dpo_loss(PairLogits(-3.0, -2.0, -2.0, -2.0))
        high = dpo_loss(PairLogits(-1.0, -2.0, -2.0, -2.0))
        assert high < low

    def test_validation(self):
        with pytest.raises(ValidationError, match="non-finite"):
            PairLogits(float("inf"), -1.0, -1.0, -1.0)
        with pytest.raises(ValidationError, match="beta"):
            PairLogits(-1.0, -1.0, -1.0, -1.0, beta=-0.1)


class TestSftTerm:
    def test_negates_the_log_likelihood(self):
        assert sft_term(-3.5) == 3.5
        assert sft_term(0.0) == 0.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            sft_term(0.5)
        with pytest.raises(ValidationError):
            sft_term(float("-inf"))


class TestDeltaLoss:
    def test_hand_example(self):
        # margin goes from (-5 - -2) = -3 to (-3 - -4) = 1: growth of 4
        assert delta_loss(-5.0, -2.0, -3.0, -4.0) == pytest.approx(4.0)

    def test_no_change_is_zero(self):
        assert delta_loss(-1.0, -2.0, -1.0, -2.0) == 0.0

    def test_validation(self):
        with pytest.raises(ValidationError, match="non-finite"):
            delta_loss(float("nan"), -1.0, -1.0, -1.0)

    def test_reward_tilted_policy_recovers_additive_score(self):
        """Moving from the reference to softmax(k_trust * rewards) changes the
        pair margin by exactly the additive confidence-reward score."""
        rng = np.random.default_rng(4)
        for _ in range(300):
            k = int(rng.integers(2, 9))
            k_trust = float(rng.uniform(0.5, 80.0))
            rewards = rng.uniform(size=k)
            ref_logits = rng.standard_normal(k) * 3
            before = log_softmax(ref_logits[None, :])[0]
            after = log_softmax(k_trust * rewards[None, :])[0]
            w, l = rng.choice(k, size=2, replace=False).tolist()
            delta = delta_loss(before[w], before[l], after[w], after[l])
            score = cr_plus(
                PairScoreInput(
                    r_w=rewards[w],
                    r_l=rewards[l],
                    logp_w=float(before[w]),
                    logp_l=float(before[l]),
                ),
                k_trust,
            )
            assert delta == pytest.approx(score, abs=1e-12)

    def test_exponentially_tilted_reference_recovers_scaled_gap(self):
        """Moving to pi* proportional to pi_ref * exp(r / beta) changes the
        margin by (r_w - r_l) / beta."""
        rng = np.random.default_rng(5)
        for _ in range(300):
            k = int(rng.integers(2, 9))
            beta = float(rng.uniform(0.05, 2.0))
            rewards = rng.uniform(size=k)
            ref_logits = rng.standard_normal(k) * 3
            before = log_softmax(ref_logits[None, :])[0]
            after = log_softmax((ref_logits + rewards / beta)[None, :])[0]
            w, l = rng.choice(k, size=2, replace=False).tolist()
            delta = delta_loss(before[w], before[l], after[w], after[l])
            assert delta == pytest.approx((rewards[w] - rewards[l]) / beta, abs=1e-12)


class TestLossConfig:
    def test_defaults(self):
        cfg = LossConfig()
        assert cfg.beta == 0.1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"beta": 0.0},
            {"beta": float("nan")},
            {"beta": -0.1},
            {"beta": float("inf")},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValidationError, match="beta"):
            LossConfig(**kwargs)


class TestBatchLossAndGrad:
    def test_empty_batch(self):
        logits = np.zeros((2, 3))
        loss, grad = batch_loss_and_grad(logits, PairBatch.of([], log_softmax(logits)), LossConfig())
        assert loss == 0.0
        np.testing.assert_array_equal(grad, np.zeros((2, 3)))

    def test_hand_computed_with_sft(self):
        logits = np.zeros((1, 2))
        cfg = LossConfig(beta=0.1)
        loss, grad = batch_loss_and_grad(logits, PairBatch.of([(0, 0, 1)], log_softmax(logits)), cfg)
        assert loss == pytest.approx(2 * LOG_TWO, abs=1e-14)
        np.testing.assert_allclose(grad, [[-0.55, 0.55]], atol=1e-15)

    def test_loss_is_the_mean_of_the_scalar_losses(self):
        """Over random tables and pair lists, the batch loss equals the mean
        over pairs of the scalar DPO loss plus the SFT term."""
        rng = np.random.default_rng(9)
        for _ in range(300):
            n_sources, n_outputs = int(rng.integers(1, 5)), int(rng.integers(2, 9))
            logits = rng.standard_normal((n_sources, n_outputs)) * 3
            ref = rng.standard_normal((n_sources, n_outputs)) * 3
            beta = float(rng.uniform(0.05, 2.0))
            pairs = [
                (int(rng.integers(n_sources)), *rng.choice(n_outputs, 2, replace=False).tolist())
                for _ in range(int(rng.integers(1, 9)))
            ]
            cfg = LossConfig(beta=beta)
            logp, ref_logp = log_softmax(logits), log_softmax(ref)
            loss, _ = batch_loss_and_grad(logits, PairBatch.of(pairs, ref_logp), cfg)
            total = 0.0
            for s, w, l in pairs:
                total += dpo_loss(
                    PairLogits(logp[s, w], logp[s, l], ref_logp[s, w], ref_logp[s, l], beta)
                )
                total += sft_term(logp[s, w])
            assert loss == pytest.approx(total / len(pairs), rel=1e-12)

    def test_mean_over_pairs(self):
        rng = np.random.default_rng(6)
        logits = rng.standard_normal((2, 4))
        ref = log_softmax(rng.standard_normal((2, 4)))
        cfg = LossConfig()
        loss_a, grad_a = batch_loss_and_grad(logits, PairBatch.of([(0, 1, 2)], ref), cfg)
        loss_b, grad_b = batch_loss_and_grad(logits, PairBatch.of([(1, 0, 3)], ref), cfg)
        loss_ab, grad_ab = batch_loss_and_grad(
            logits, PairBatch.of([(0, 1, 2), (1, 0, 3)], ref), cfg
        )
        assert loss_ab == pytest.approx((loss_a + loss_b) / 2, abs=1e-12)
        np.testing.assert_allclose(grad_ab, (grad_a + grad_b) / 2, atol=1e-12)

    def test_duplicate_pairs_accumulate(self):
        rng = np.random.default_rng(7)
        logits = rng.standard_normal((1, 3))
        ref = log_softmax(rng.standard_normal((1, 3)))
        cfg = LossConfig()
        loss_one, grad_one = batch_loss_and_grad(logits, PairBatch.of([(0, 0, 1)], ref), cfg)
        loss_two, grad_two = batch_loss_and_grad(
            logits, PairBatch.of([(0, 0, 1), (0, 0, 1)], ref), cfg
        )
        assert loss_two == pytest.approx(loss_one, abs=1e-12)
        np.testing.assert_allclose(grad_two, grad_one, atol=1e-12)

    def test_index_and_shape_validation(self):
        logits = np.zeros((2, 3))
        ref = log_softmax(logits)
        cfg = LossConfig()
        with pytest.raises(ValidationError, match="2-D shape"):
            batch_loss_and_grad(logits, PairBatch.of([(0, 0, 1)], log_softmax(np.zeros((2, 4)))), cfg)
        with pytest.raises(ValidationError, match="index triples"):
            batch_loss_and_grad(logits, PairBatch.of([(0, 1)], ref), cfg)
        for bad in ([(0.7, 1, 2)], [(0, float("nan"), 2)], [(0, 1), (0, 1, 2)]):
            with pytest.raises(ValidationError, match="index triples"):
                batch_loss_and_grad(logits, PairBatch.of(bad, ref), cfg)
        with pytest.raises(ValidationError, match="out of range"):
            batch_loss_and_grad(logits, PairBatch.of([(0, 0, 3)], ref), cfg)
        with pytest.raises(ValidationError, match="out of range"):
            batch_loss_and_grad(logits, PairBatch.of([(2, 0, 1)], ref), cfg)

    def test_gradient_matches_sequential_scatter_bit_for_bit(self):
        """The pairwise bincount and the SFT rounds sum every cell in the
        same order as one np.add.at call per term (winner, loser, SFT row,
        SFT winner)."""
        rng = np.random.default_rng(10)
        for _ in range(300):
            n_sources, n_outputs = int(rng.integers(1, 5)), int(rng.integers(2, 9))
            logits = rng.standard_normal((n_sources, n_outputs)) * 3
            ref_logp = log_softmax(rng.standard_normal((n_sources, n_outputs)) * 3)
            beta = float(rng.uniform(0.05, 2.0))
            pairs = [
                (int(rng.integers(n_sources)), *rng.choice(n_outputs, 2, replace=False).tolist())
                for _ in range(int(rng.integers(1, 9)))
            ]
            pairs += pairs[: int(rng.integers(0, 3))]  # duplicate pairs
            cfg = LossConfig(beta=beta)
            loss, grad = batch_loss_and_grad(logits, PairBatch.of(pairs, ref_logp), cfg)
            expected_loss, expected = sequential_scatter_loss_and_grad(
                logits, ref_logp, pairs, cfg
            )
            np.testing.assert_array_equal(grad, expected)
            assert loss == expected_loss

    def test_rows_deeper_than_the_rounds_match_sequential_scatter_bit_for_bit(self):
        """Rows with more pairs than MAX_SFT_ROUNDS next to shallower rows,
        repeated pairs and repeated winner cells: the bincount and the
        rounds still sum every cell in the sequential scatter's order."""
        rng = np.random.default_rng(11)
        for _ in range(200):
            n_sources, n_outputs = int(rng.integers(1, 5)), int(rng.integers(2, 7))
            logits = rng.standard_normal((n_sources, n_outputs)) * 3
            ref_logp = log_softmax(rng.standard_normal((n_sources, n_outputs)) * 3)
            beta = float(rng.uniform(0.05, 2.0))
            deep = int(rng.integers(n_sources))
            pairs = []
            for s in range(n_sources):
                if s == deep:
                    depth = int(rng.integers(MAX_SFT_ROUNDS + 1, 4 * MAX_SFT_ROUNDS))
                else:
                    depth = int(rng.integers(0, 2 * MAX_SFT_ROUNDS))
                # Few winners per row, so winner cells repeat.
                winners = rng.choice(n_outputs, size=min(2, n_outputs - 1), replace=False)
                for _ in range(depth):
                    w = int(rng.choice(winners))
                    l = int(rng.choice(np.delete(np.arange(n_outputs), w)))
                    pairs.append((s, w, l))
            pairs += pairs[: int(rng.integers(0, 4))]  # duplicate pairs
            rng.shuffle(pairs)
            batch = PairBatch.of(pairs, ref_logp)
            assert len(batch.deep_s) >= MAX_SFT_ROUNDS + 1
            assert len(batch.row_rounds) <= MAX_SFT_ROUNDS
            assert len(batch.winner_rounds) <= MAX_SFT_ROUNDS
            cfg = LossConfig(beta=beta)
            loss, grad = batch_loss_and_grad(logits, batch, cfg)
            expected_loss, expected = sequential_scatter_loss_and_grad(
                logits, ref_logp, pairs, cfg
            )
            np.testing.assert_array_equal(grad, expected)
            assert loss == expected_loss

    def test_matches_finite_differences(self):
        worst = gradient_check(seed=0, n_instances=10)
        assert isinstance(worst, float)
        assert worst < 1e-4, f"gradient off by {worst}"
