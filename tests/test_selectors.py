"""Selector behavior: worked examples, gates, tie-breaks, brute-force checks."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from crpo.core import (
    GATE_MODES,
    METHODS,
    Candidate,
    CandidateSet,
    PreferenceDataset,
    PreferencePair,
    SelectionConfig,
    ValidationError,
    effective_logprob,
)
from crpo.scoring import UtilityMatrix, cr_plus, cr_times, PairScoreInput
from crpo.selectors import (
    SelectionOutcome,
    per_source_rng,
    rso_acceptance_probs,
    rso_subsample,
    run_selector,
    select_dataset,
)

from conftest import make_set, random_set


def config(**kwargs) -> SelectionConfig:
    return SelectionConfig(**kwargs)


def only_pair(outcome: SelectionOutcome) -> PreferencePair:
    assert outcome.skipped_reason is None
    assert len(outcome.pairs) == 1
    return outcome.pairs[0]


WORKED_MATRIX = UtilityMatrix(
    ids=("A", "B", "C"),
    values=np.array(
        [
            [1.0, 0.8, 0.4],
            [0.8, 1.0, 0.5],
            [0.4, 0.5, 1.0],
        ]
    ),
)


class TestWorkedExamples:
    """One three-candidate set, every selector, hand-computed answers.

    The set: A (reward 0.9, logprob -40), B (0.5, -10), C (0.2, -60).
    """

    def test_cr_plus(self, worked_example):
        pair = only_pair(run_selector(worked_example, config(method="cr_plus")))
        assert (pair.chosen_id, pair.rejected_id) == ("A", "B")
        assert pair.score == pytest.approx(50.0)  # 50*0.4 + 30, beats C's 15
        assert pair.method == "cr_plus"
        assert pair.extras["reward_gap"] == pytest.approx(0.4)
        assert pair.extras["confidence_gap"] == pytest.approx(30.0)

    def test_cr_times(self, worked_example):
        pair = only_pair(run_selector(worked_example, config(method="cr_times")))
        assert (pair.chosen_id, pair.rejected_id) == ("A", "B")
        assert pair.score == pytest.approx(12.0)  # 0.4*30; C scores 0.7*-20

    def test_rs_dpo_out_of_english(self, worked_example):
        # en->de resolves eta=0.6: only the A/C gap (0.7) clears it
        outcome = run_selector(worked_example, config(method="rs_dpo"))
        pair = only_pair(outcome)
        assert (pair.chosen_id, pair.rejected_id) == ("A", "C")
        assert pair.score == pytest.approx(0.7)

    def test_mbr_bw_with_matrix(self, worked_example):
        # expected utilities: A 0.6, B 0.65, C 0.45 -> best B, worst C
        outcome = run_selector(worked_example, config(method="mbr_bw"), WORKED_MATRIX)
        pair = only_pair(outcome)
        assert (pair.chosen_id, pair.rejected_id) == ("B", "C")
        assert pair.score == pytest.approx(0.2)
        assert pair.extras["mbr_chosen"] == pytest.approx(0.65)
        assert pair.extras["mbr_rejected"] == pytest.approx(0.45)

    def test_mbr_bw_default_utility_ties_break_by_id(self, worked_example):
        # the placeholder texts differ only in the final character, so all
        # pairwise utilities coincide and the ranking falls back to ids
        pair = only_pair(run_selector(worked_example, config(method="mbr_bw")))
        assert (pair.chosen_id, pair.rejected_id) == ("A", "C")
        assert pair.score == pytest.approx(0.0)

    def test_mbr_bmw_with_matrix(self, worked_example):
        # ranking B > A > C; middle is rank ceil(3/2) = 2 -> A
        outcome = run_selector(worked_example, config(method="mbr_bmw"), WORKED_MATRIX)
        labels = [(p.chosen_id, p.rejected_id) for p in outcome.pairs]
        assert labels == [("B", "A"), ("B", "C"), ("A", "C")]
        assert all(p.method == "mbr_bmw" for p in outcome.pairs)

    def test_qe_best(self, worked_example):
        outcome = run_selector(worked_example, config(method="qe_best"))
        assert outcome.sft_target == "A"
        assert outcome.pairs == ()

    def test_top_scores(self, worked_example):
        pair = only_pair(run_selector(worked_example, config(method="top_scores", rso_samples=2)))
        assert (pair.chosen_id, pair.rejected_id) == ("A", "B")
        assert pair.score == pytest.approx(0.4)
        wide = only_pair(run_selector(worked_example, config(method="top_scores", rso_samples=3)))
        assert (wide.chosen_id, wide.rejected_id) == ("A", "C")

    def test_minmax_r(self, worked_example):
        pair = only_pair(run_selector(worked_example, config(method="minmax_r")))
        assert (pair.chosen_id, pair.rejected_id) == ("A", "C")
        assert pair.score == pytest.approx(0.7)

    def test_minmax_p(self, worked_example):
        # only B is strictly more likely than the reward argmax A
        pair = only_pair(run_selector(worked_example, config(method="minmax_p")))
        assert (pair.chosen_id, pair.rejected_id) == ("A", "B")
        assert pair.score == pytest.approx(30.0)

    def test_minmax_po(self, worked_example):
        # extremes of likelihood are B (-10) and C (-60); B has more reward
        pair = only_pair(run_selector(worked_example, config(method="minmax_po")))
        assert (pair.chosen_id, pair.rejected_id) == ("B", "C")
        assert pair.score == pytest.approx(0.3)


class TestLikelihoodGate:
    def make(self):
        return make_set([("A", 0.9, -10.0), ("B", 0.1, -12.0), ("C", 0.5, -5.0)])

    def test_gate_off_keeps_best_score(self):
        pair = only_pair(run_selector(self.make(), config(gate_mode="off")))
        assert pair.rejected_id == "B"  # 50*0.8 - 2 = 38 beats C's 25
        assert pair.score == pytest.approx(38.0)

    def test_log_space_gate_drops_less_likely_competitors(self):
        pair = only_pair(run_selector(self.make(), config(gate_mode="log_space")))
        assert pair.rejected_id == "C"  # B sits below A's likelihood
        assert pair.score == pytest.approx(25.0)

    def test_log_space_epsilon_relaxes_the_gate(self):
        pair = only_pair(
            run_selector(self.make(), config(gate_mode="log_space", epsilon=2.5))
        )
        assert pair.rejected_id == "B"  # -12 + 10 + 2.5 > 0 passes again

    def test_probability_gate_operates_on_probabilities(self):
        cset = make_set([("A", 0.9, -1.0), ("B", 0.8, -2.0)])
        # prob gap exp(-2) - exp(-1) = -0.2325; epsilon 0.25 clears it,
        # while the same epsilon in log space (-1 + 0.25) would not
        passed = run_selector(cset, config(gate_mode="probability", epsilon=0.25))
        assert only_pair(passed).rejected_id == "B"
        blocked = run_selector(cset, config(gate_mode="log_space", epsilon=0.25))
        assert blocked.skipped_reason == "no positive CR score"

    def test_all_gated_out_reports_skip(self):
        cset = make_set([("A", 0.9, -5.0), ("B", 0.5, -20.0)])
        outcome = run_selector(cset, config(gate_mode="log_space"))
        assert outcome.pairs == ()
        assert outcome.skipped_reason == "no positive CR score"


class TestCrpoSelection:
    def test_no_positive_score_skips(self):
        # 50*0.8 - 45 = -5: the only competitor scores negative
        cset = make_set([("A", 0.9, -5.0), ("B", 0.1, -50.0)])
        outcome = run_selector(cset, config())
        assert outcome.skipped_reason == "no positive CR score"

    def test_zero_score_is_not_positive(self):
        # equal rewards and equal logprobs give exactly 0, which must skip
        cset = make_set([("A", 0.5, -10.0), ("B", 0.5, -10.0)])
        assert run_selector(cset, config()).skipped_reason == "no positive CR score"

    def test_chosen_reward_tie_breaks_to_lowest_id(self):
        cset = make_set([("B", 0.9, -10.0), ("A", 0.9, -20.0), ("C", 0.1, -5.0)])
        pair = only_pair(run_selector(cset, config()))
        assert pair.chosen_id == "A"

    def test_score_tie_breaks_to_lowest_id(self):
        cset = make_set([("A", 0.9, -30.0), ("B", 0.5, -10.0), ("C", 0.5, -10.0)])
        pair = only_pair(run_selector(cset, config()))
        assert pair.rejected_id == "B"

    def test_needs_two_candidates(self):
        cset = make_set([("A", 0.9, -5.0)])
        with pytest.raises(ValidationError, match="at least 2"):
            run_selector(cset, config())

    @pytest.mark.parametrize("method", ["cr_plus", "cr_times"])
    @pytest.mark.parametrize("gate_mode", ["off", "log_space", "probability"])
    def test_matches_brute_force(self, method, gate_mode):
        cfg = config(method=method, gate_mode=gate_mode, epsilon=0.05)
        rng = np.random.default_rng(42)
        skips = 0
        for _ in range(300):
            cset = random_set(rng)
            outcome = run_selector(cset, cfg)
            expected = self.brute_force(cset, cfg)
            if expected is None:
                assert outcome.skipped_reason == "no positive CR score"
                skips += 1
            else:
                pair = only_pair(outcome)
                assert (pair.chosen_id, pair.rejected_id) == expected[:2]
                assert pair.score == pytest.approx(expected[2], abs=1e-12)
        assert skips < 300  # the sweep exercised real selections too

    @staticmethod
    def brute_force(cset, cfg):
        import math

        logp = {c.id: effective_logprob(c, cfg) for c in cset.candidates}
        chosen = sorted(cset.candidates, key=lambda c: (-c.reward_agg, c.id))[0]
        scored = []
        for other in cset.candidates:
            if other.id == chosen.id:
                continue
            if cfg.gate_mode == "log_space":
                if not logp[other.id] - logp[chosen.id] + cfg.epsilon > 0:
                    continue
            elif cfg.gate_mode == "probability":
                gap = math.exp(logp[other.id]) - math.exp(logp[chosen.id])
                if not gap + cfg.epsilon > 0:
                    continue
            inputs = PairScoreInput(
                r_w=chosen.reward_agg,
                r_l=other.reward_agg,
                logp_w=logp[chosen.id],
                logp_l=logp[other.id],
            )
            if cfg.method == "cr_plus":
                score = cr_plus(inputs, cfg.k_trust)
            else:
                score = cr_times(inputs)
            if score > 0.0:
                scored.append((score, other.id))
        if not scored:
            return None
        best_score = max(s for s, _ in scored)
        best_id = min(cid for s, cid in scored if s == best_score)
        return chosen.id, best_id, best_score


class TestRso:
    def test_acceptance_probs(self):
        probs = rso_acceptance_probs([0.9, 0.3], beta=0.1)
        np.testing.assert_allclose(probs, [1.0, np.exp(-6.0)])
        assert probs.max() == 1.0

    def test_acceptance_probs_reject_bad_beta(self):
        with pytest.raises(ValidationError, match="beta"):
            rso_acceptance_probs([0.5], beta=0.0)

    def test_subsample_deterministic(self):
        probs = np.array([1.0, 0.4, 0.1])
        a = rso_subsample(probs, 8, np.random.default_rng(3))
        b = rso_subsample(probs, 8, np.random.default_rng(3))
        assert a.picks == b.picks
        assert a.n_filled == b.n_filled

    def test_subsample_counts_are_consistent(self):
        probs = np.array([1.0, 0.5, 0.2, 0.05])
        sample = rso_subsample(probs, 8, np.random.default_rng(9))
        assert len(sample.picks) == 8
        assert sample.acceptances.sum() + sample.n_filled == 8
        assert (sample.acceptances <= sample.proposals).all()

    def test_backfill_cycles_by_descending_probability(self):
        # nothing is ever accepted, so all eight slots are back-filled
        sample = rso_subsample(np.zeros(3), 8, np.random.default_rng(0))
        assert sample.picks == (0, 1, 2, 0, 1, 2, 0, 1)
        assert sample.n_filled == 8
        assert sample.acceptances.sum() == 0

    def test_backfill_skips_already_accepted(self):
        # candidate 0 always accepted; 1 and 2 never; with a tiny budget the
        # remaining slots fill with the unaccepted, highest-probability first
        probs = np.array([1.0, 0.0, 0.0])
        sample = rso_subsample(probs, 4, np.random.default_rng(0), max_draw_factor=1)
        assert sample.picks == (0, 0, 1, 2)
        assert sample.n_filled == 2
        assert sample.acceptances.tolist() == [2, 0, 0]

    def test_backfill_cycles_after_exhausting_unaccepted(self):
        probs = np.array([1.0, 0.0, 0.0])
        sample = rso_subsample(probs, 4, np.random.default_rng(3), max_draw_factor=1)
        # one acceptance of 0, then 1 and 2, then the cycle restarts at 0
        assert sample.picks == (0, 1, 2, 0)
        assert sample.n_filled == 3

    def test_select_rso_pairs_have_positive_gap(self, worked_example):
        cfg = config(method="rso", beta=5.0)  # flat acceptance, real mixing
        outcome = run_selector(worked_example, cfg)
        assert outcome.pairs, "flat acceptance should yield at least one pair"
        for pair in outcome.pairs:
            assert pair.method == "rso"
            assert pair.score > 0.0

    def test_select_rso_deterministic_given_rng(self, worked_example):
        # the generator is seeded from (config.seed, source_id)
        cfg = config(method="rso", beta=1.0)
        a = run_selector(worked_example, cfg)
        b = run_selector(worked_example, cfg)
        assert a == b

    def test_select_rso_all_ties_skips(self):
        cset = make_set([("A", 0.5, -1.0), ("B", 0.5, -2.0), ("C", 0.5, -3.0)])
        outcome = run_selector(cset, config(method="rso"))
        assert outcome.skipped_reason == "no pair with a positive reward gap"

    def test_sharp_acceptance_concentrates_on_reward_argmax(self, worked_example):
        # beta 0.1 collapses acceptance onto A, so adjacent pairs nearly
        # always tie on A-vs-A and the source is skipped
        cfg = config(method="rso", beta=0.1)
        outcome = run_selector(worked_example, cfg)
        assert outcome.skipped_reason == "no pair with a positive reward gap"


class TestRsDpo:
    def test_eta_is_strict(self):
        cset = make_set([("A", 1.0, -1.0), ("B", 0.5, -2.0)])
        cfg = config(method="rs_dpo", eta={"out_of_en": 0.5, "into_en": 0.5})
        assert run_selector(cset, cfg).skipped_reason == "no reward gap above eta"
        looser = config(method="rs_dpo", eta={"out_of_en": 0.49, "into_en": 0.49})
        assert len(run_selector(cset, looser).pairs) == 1

    def test_direction_resolves_eta(self):
        # a 0.55 gap passes the into-English threshold (0.5) only
        triples = [("A", 0.95, -1.0), ("B", 0.4, -2.0)]
        out_of_en = make_set(triples, direction=("en", "de"))
        into_en = make_set(triples, direction=("de", "en"))
        cfg = config(method="rs_dpo")
        assert run_selector(out_of_en, cfg).skipped_reason is not None
        pair = only_pair(run_selector(into_en, cfg))
        assert (pair.chosen_id, pair.rejected_id) == ("A", "B")

    def test_missing_direction_class_rejected(self, worked_example):
        cfg = config(method="rs_dpo", eta={"into_en": 0.5})
        with pytest.raises(ValidationError, match="no eta threshold"):
            run_selector(worked_example, cfg)

    def test_keeps_every_qualifying_pair_in_sorted_order(self):
        cset = make_set(
            [("A", 0.9, -1.0), ("B", 0.1, -2.0), ("C", 0.55, -3.0), ("D", 0.3, -4.0)]
        )
        cfg = config(method="rs_dpo", eta={"out_of_en": 0.2, "into_en": 0.2})
        outcome = run_selector(cset, cfg)
        labels = [(p.chosen_id, p.rejected_id) for p in outcome.pairs]
        # qualifying gaps: A-B 0.8, A-C 0.35, A-D 0.6, C-B 0.45, C-D 0.25
        assert labels == [("A", "B"), ("A", "C"), ("A", "D"), ("C", "B"), ("C", "D")]
        for pair in outcome.pairs:
            assert pair.score > 0.2

    def test_pair_sets_shrink_as_eta_grows(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            cset = random_set(rng, k=8)
            previous = None
            for eta in (0.05, 0.2, 0.4, 0.6, 0.8):
                cfg = config(method="rs_dpo", eta={"out_of_en": eta, "into_en": eta})
                outcome = run_selector(cset, cfg)
                current = {(p.chosen_id, p.rejected_id) for p in outcome.pairs}
                if previous is not None:
                    assert current <= previous
                previous = current


class TestMbr:
    def test_matrix_id_mismatch_rejected(self, worked_example):
        wrong = UtilityMatrix(ids=("A", "B", "X"), values=np.eye(3))
        with pytest.raises(ValidationError, match="do not match"):
            run_selector(worked_example, config(method="mbr_bw"), wrong)

    def test_bmw_needs_three_candidates(self):
        cset = make_set([("A", 0.9, -1.0), ("B", 0.1, -2.0)])
        with pytest.raises(ValidationError, match="at least 3"):
            run_selector(cset, config(method="mbr_bmw"))

    def test_labels_follow_utility_not_reward(self):
        # the matrix makes the lowest-reward candidate the consensus best
        cset = make_set([("A", 0.9, -1.0), ("B", 0.5, -2.0), ("C", 0.1, -3.0)])
        values = np.array(
            [
                [1.0, 0.1, 0.1],
                [0.1, 1.0, 0.9],
                [0.1, 0.9, 1.0],
            ]
        )
        matrix = UtilityMatrix(ids=("A", "B", "C"), values=values)
        outcome = run_selector(cset, config(method="mbr_bw"), matrix)
        pair = only_pair(outcome)
        assert (pair.chosen_id, pair.rejected_id) == ("B", "A")
        # and the shared validator accepts the reward inversion for MBR
        PreferenceDataset(pairs=outcome.pairs).validate_against([cset])

    @pytest.mark.parametrize("k", [3, 4, 5, 9, 16])
    def test_matches_brute_force_ranking(self, k):
        rng = np.random.default_rng(k)
        for _ in range(40):
            cset = random_set(rng, k=k, tie_probability=0.0)
            values = rng.uniform(size=(k, k))
            ids = tuple(sorted(c.id for c in cset.candidates))
            matrix = UtilityMatrix(ids=ids, values=values)
            expected = {}
            for i, cid in enumerate(ids):
                expected[cid] = (values[i].sum() - values[i, i]) / (k - 1)
            ranked = sorted(ids, key=lambda cid: (-expected[cid], cid))
            import math

            middle = ranked[math.ceil(k / 2) - 1]
            bw = only_pair(run_selector(cset, config(method="mbr_bw"), matrix))
            assert (bw.chosen_id, bw.rejected_id) == (ranked[0], ranked[-1])
            bmw = run_selector(cset, config(method="mbr_bmw"), matrix)
            labels = [(p.chosen_id, p.rejected_id) for p in bmw.pairs]
            assert labels == [
                (ranked[0], middle),
                (ranked[0], ranked[-1]),
                (middle, ranked[-1]),
            ]


class TestRemainingSelectors:
    def test_top_scores_equals_minmax_r_at_full_width(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            cset = random_set(rng)
            k = len(cset.candidates)
            wide = run_selector(cset, config(method="top_scores", rso_samples=k))
            extreme = run_selector(cset, config(method="minmax_r"))
            assert wide.skipped_reason == extreme.skipped_reason
            if wide.pairs:
                assert (wide.pairs[0].chosen_id, wide.pairs[0].rejected_id) == (
                    extreme.pairs[0].chosen_id,
                    extreme.pairs[0].rejected_id,
                )

    def test_top_scores_zero_gap_skips(self):
        cset = make_set([("A", 0.5, -1.0), ("B", 0.5, -2.0), ("C", 0.1, -3.0)])
        outcome = run_selector(cset, config(method="top_scores", rso_samples=2))
        assert outcome.skipped_reason == "zero reward gap"

    def test_minmax_r_tie_breaks(self):
        cset = make_set(
            [("B", 0.9, -1.0), ("A", 0.9, -2.0), ("D", 0.1, -3.0), ("C", 0.1, -4.0)]
        )
        pair = only_pair(run_selector(cset, config(method="minmax_r")))
        assert (pair.chosen_id, pair.rejected_id) == ("A", "C")

    def test_minmax_r_rejects_the_reward_argmin_when_gaps_round_equal(self):
        low = 0.1
        near = math.nextafter(low, 1.0)
        assert 0.9 - low == 0.9 - near
        cset = make_set([("A", 0.9, -1.0), ("B", near, -2.0), ("C", low, -3.0)])
        for cfg in (config(method="minmax_r"), config(method="top_scores", rso_samples=3)):
            assert only_pair(run_selector(cset, cfg)).rejected_id == "C"

    def test_minmax_r_all_tied_skips(self):
        cset = make_set([("A", 0.4, -1.0), ("B", 0.4, -2.0)])
        assert run_selector(cset, config(method="minmax_r")).skipped_reason == "zero reward gap"

    def test_minmax_p_skips_when_argmax_is_most_likely(self):
        cset = make_set([("A", 0.9, -1.0), ("B", 0.5, -2.0)])
        outcome = run_selector(cset, config(method="minmax_p"))
        assert outcome.skipped_reason == "no positive confidence gap"

    def test_minmax_po_degenerate_likelihoods_skip(self):
        cset = make_set([("A", 0.9, -2.0), ("B", 0.5, -2.0)])
        outcome = run_selector(cset, config(method="minmax_po"))
        assert outcome.skipped_reason == "degenerate likelihood range"

    def test_minmax_po_zero_reward_gap_skips(self):
        cset = make_set([("A", 0.5, -1.0), ("B", 0.5, -9.0)])
        outcome = run_selector(cset, config(method="minmax_po"))
        assert outcome.skipped_reason == "zero reward gap"

    def test_minmax_po_chooses_by_reward(self):
        cset = make_set([("A", 0.2, -1.0), ("B", 0.8, -9.0), ("C", 0.5, -4.0)])
        pair = only_pair(run_selector(cset, config(method="minmax_po")))
        # extremes are A (most likely) and B (least); B wins on reward
        assert (pair.chosen_id, pair.rejected_id) == ("B", "A")
        assert pair.score == pytest.approx(0.6)


def brute_force_baseline(cset, method, n=None):
    """Independent enumeration of the reward-argmax baselines.

    Returns the SFT target id (qe_best), a (chosen_id, rejected_id, score)
    triple, or the skip reason.
    """
    by_reward = sorted(cset.candidates, key=lambda c: (-c.reward_agg, c.id))
    chosen = by_reward[0]
    if method == "qe_best":
        return chosen.id
    if method == "minmax_p":
        gaps = [
            (other.logprob - chosen.logprob, other.id)
            for other in cset.candidates
            if other.id != chosen.id and other.logprob - chosen.logprob > 0.0
        ]
        if not gaps:
            return "no positive confidence gap"
        best = max(gap for gap, _ in gaps)
        return chosen.id, min(cid for gap, cid in gaps if gap == best), best
    kept = by_reward if method == "minmax_r" else by_reward[:n]
    worst = min(kept, key=lambda c: (c.reward_agg, c.id))
    if worst.reward_agg == chosen.reward_agg:
        return "zero reward gap"
    return chosen.id, worst.id, chosen.reward_agg - worst.reward_agg


def test_baselines_match_brute_force():
    rng = np.random.default_rng(77)
    checked = {"pair": 0, "zero reward gap": 0, "no positive confidence gap": 0}
    for _ in range(600):
        cset = random_set(rng, tie_probability=0.5)
        k = len(cset.candidates)
        runs = [
            ("qe_best", None, run_selector(cset, config(method="qe_best"))),
            ("minmax_p", None, run_selector(cset, config(method="minmax_p"))),
            ("minmax_r", None, run_selector(cset, config(method="minmax_r"))),
        ]
        runs += [
            ("top_scores", n, run_selector(cset, config(method="top_scores", rso_samples=n)))
            for n in sorted({2, 3, (k + 1) // 2, k})
            if 2 <= n <= k
        ]
        for method, n, outcome in runs:
            expected = brute_force_baseline(cset, method, n)
            if method == "qe_best":
                assert (outcome.sft_target, outcome.pairs) == (expected, ())
            elif isinstance(expected, str):
                assert (outcome.skipped_reason, outcome.pairs) == (expected, ())
                checked[expected] += 1
            else:
                pair = only_pair(outcome)
                assert (pair.chosen_id, pair.rejected_id, pair.score) == expected
                assert pair.method == method
                checked["pair"] += 1
    assert checked["pair"] > 1000 and min(checked.values()) > 20


class TestRunSelector:
    @pytest.mark.parametrize(
        "method",
        [
            "cr_plus",
            "cr_times",
            "rso",
            "rs_dpo",
            "mbr_bw",
            "mbr_bmw",
            "qe_best",
            "top_scores",
            "minmax_r",
            "minmax_p",
            "minmax_po",
        ],
    )
    def test_dispatch_tags_pairs_with_method(self, worked_example, method):
        outcome = run_selector(worked_example, config(method=method))
        for pair in outcome.pairs:
            assert pair.method == method
        if method == "qe_best":
            assert outcome.sft_target == "A"

    def test_one_candidate_pool(self):
        cset = make_set([("A", 0.9, -5.0)])
        assert run_selector(cset, config(method="qe_best")).sft_target == "A"
        for method in METHODS:
            if method != "qe_best":
                need = 3 if method == "mbr_bmw" else 2
                message = f"needs at least {need} candidates, got 1"
                with pytest.raises(ValidationError, match=message):
                    run_selector(cset, config(method=method))

    def test_top_scores_width_tracks_rso_samples(self):
        cset = make_set(
            [("A", 0.9, -1.0), ("B", 0.6, -2.0), ("C", 0.4, -3.0), ("D", 0.1, -4.0)]
        )
        narrow = run_selector(cset, config(method="top_scores", rso_samples=2))
        assert (narrow.pairs[0].chosen_id, narrow.pairs[0].rejected_id) == ("A", "B")
        # rso_samples beyond the set size clips to the full set
        wide = run_selector(cset, config(method="top_scores", rso_samples=64))
        assert (wide.pairs[0].chosen_id, wide.pairs[0].rejected_id) == ("A", "D")

    def test_every_outcome_validates_against_its_own_set(self):
        """What a selector returns needs no second check: over random pools
        whose records are not in id order, every method's pairs resolve to
        the pool's own distinct candidates, are labeled by reward (utility
        rank for MBR) and carry the configured tag."""
        configs = [config(method=method) for method in METHODS] + [
            config(method="cr_plus", gate_mode=gate, epsilon=1.0) for gate in GATE_MODES
        ]
        rng = np.random.default_rng(2024)
        for _ in range(300):
            k = int(rng.integers(3, 17))
            cset = random_set(rng, k=k)
            order = rng.permutation(k)
            if (order == np.arange(k)).all():
                order = order[::-1]
            cset = replace(cset, candidates=tuple(cset.candidates[i] for i in order))
            for cfg in configs:
                outcome = run_selector(cset, cfg)
                kinds = (bool(outcome.pairs), outcome.sft_target is not None,
                         outcome.skipped_reason is not None)
                assert sum(kinds) == 1, (cfg, outcome)
                sft = () if outcome.sft_target is None else ((cset.source_id, outcome.sft_target),)
                PreferenceDataset(outcome.pairs, sft).validate_against([cset])
                for pair in outcome.pairs:
                    assert pair.source_id == cset.source_id
                    assert pair.chosen_id != pair.rejected_id
                    assert pair.method == cfg.method


class TestPerSourceRng:
    def test_stable_per_seed_and_source(self):
        a = per_source_rng(7, "s42").random(4)
        b = per_source_rng(7, "s42").random(4)
        np.testing.assert_array_equal(a, b)

    def test_distinct_sources_get_distinct_streams(self):
        a = per_source_rng(7, "s42").random(4)
        b = per_source_rng(7, "s43").random(4)
        assert not np.array_equal(a, b)


class TestSelectDataset:
    def make_sets(self, n=30, seed=5):
        rng = np.random.default_rng(seed)
        return [random_set(rng, source_id=f"src{j:03d}") for j in range(n)]

    def test_rso_results_do_not_depend_on_set_order(self):
        sets = self.make_sets()
        cfg = config(method="rso", beta=1.0)
        forward = select_dataset(sets, cfg)
        backward = select_dataset(list(reversed(sets)), cfg)

        def by_source(dataset):
            grouped = {}
            for pair in dataset.pairs:
                grouped.setdefault(pair.source_id, []).append(pair)
            return grouped

        assert by_source(forward) == by_source(backward)

    def test_provenance_and_skip_accounting(self):
        sets = [
            make_set([("A", 0.9, -5.0), ("B", 0.1, -50.0)], source_id="skips"),
            make_set([("A", 0.9, -40.0), ("B", 0.5, -10.0)], source_id="selects"),
        ]
        dataset = select_dataset(sets, config(), input_digest="abc123")
        assert dataset.provenance["n_sources"] == 2
        assert dataset.provenance["n_skipped"] == 1
        assert dataset.provenance["input_digest"] == "abc123"
        assert dataset.provenance["config"]["method"] == "cr_plus"
        assert len(dataset.pairs) == 1
        assert dataset.pairs[0].source_id == "selects"

    def test_qe_best_collects_sft_targets(self):
        sets = self.make_sets(n=5)
        dataset = select_dataset(sets, config(method="qe_best"))
        assert dataset.pairs == ()
        assert [sid for sid, _ in dataset.sft_targets] == [
            s.source_id for s in sets
        ]
        for cset, (_, target) in zip(sets, dataset.sft_targets):
            best = max(cset.candidates, key=lambda c: (c.reward_agg, [-ord(x) for x in c.id]))
            assert target == best.id

    def test_missing_utility_matrix_is_an_error(self, worked_example):
        with pytest.raises(ValidationError, match="no utility matrix"):
            select_dataset([worked_example], config(method="mbr_bw"), utilities={})

    def test_supplied_utility_matrices_are_used(self, worked_example):
        dataset = select_dataset(
            [worked_example],
            config(method="mbr_bw"),
            utilities={"s1": WORKED_MATRIX},
        )
        assert (dataset.pairs[0].chosen_id, dataset.pairs[0].rejected_id) == ("B", "C")


def test_cr_selection_rejects_more_likely_candidates_than_reward_extremes():
    """With independent rewards and likelihoods, the confidence-aware score
    should systematically reject candidates the reference policy likes more
    than the pure reward-extreme baseline does."""
    rng = np.random.default_rng(1000)
    cfg = config(method="cr_plus")
    wins = losses = 0
    for _ in range(150):
        cset = random_set(rng, k=12, tie_probability=0.0)
        cr = run_selector(cset, cfg)
        extreme = run_selector(cset, config(method="minmax_r"))
        if not cr.pairs or not extreme.pairs:
            continue
        lp = {c.id: c.logprob for c in cset.candidates}
        gap = lp[cr.pairs[0].rejected_id] - lp[extreme.pairs[0].rejected_id]
        if gap > 0:
            wins += 1
        elif gap < 0:
            losses += 1
    decided = wins + losses
    assert decided >= 80
    assert wins / decided > 0.75
