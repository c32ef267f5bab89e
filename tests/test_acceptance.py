"""Acceptance gate: one test per shipped guarantee, one printed line each.

Every test prints ``criterion N: PASS/FAIL`` (bypassing capture) so the
verdicts are visible in any pytest run, then asserts.
"""

from __future__ import annotations

import math
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

from crpo.cli import main
from crpo.core import SelectionConfig, effective_logprob
from crpo.dataio import (
    emit_pairs,
    ingest_candidates,
    load_pairs,
)
from crpo.losses import gradient_check, log_softmax
from crpo.scoring import UtilityMatrix, mbr_scores
from crpo.selectors import rso_acceptance_probs, rso_subsample, run_selector
from crpo.toylab import make_world, run_comparison, sample_candidates

from conftest import random_set
from oracles import PairScoreInput, cr_plus, cr_times, emit_candidates

HERE = Path(__file__).parent
FIXTURE = HERE / "fixtures" / "candidates_small.jsonl"
GOLDEN = HERE / "golden"


def report(capsys, number: int, name: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        verdict = "PASS" if ok else "FAIL"
        print(f"criterion {number} ({name}): {verdict} - {detail}")


def brute_force_crpo(cset, cfg):
    """Independent enumeration of the confidence-reward selection."""
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
        score = cr_plus(inputs, cfg.k_trust) if cfg.method == "cr_plus" else cr_times(inputs)
        if score > 0.0:
            scored.append((score, other.id))
    if not scored:
        return None
    best = max(s for s, _ in scored)
    return chosen.id, min(cid for s, cid in scored if s == best), best


def test_criterion_1_selector_brute_force_equivalence(capsys):
    rng = np.random.default_rng(2024)
    sets = [random_set(rng) for _ in range(1000)]
    configs = [
        SelectionConfig(method=method, gate_mode=gate, epsilon=eps)
        for method in ("cr_plus", "cr_times")
        for gate in ("off", "log_space", "probability")
        for eps in (0.0, 0.05)
    ]
    start = time.perf_counter()
    mismatches = 0
    selected = 0
    for cset in sets:
        for cfg in configs:
            outcome = run_selector(cset, cfg)
            expected = brute_force_crpo(cset, cfg)
            if expected is None:
                if outcome.skipped_reason != "no positive CR score":
                    mismatches += 1
                continue
            selected += 1
            pair = outcome.pairs[0] if outcome.pairs else None
            if (
                pair is None
                or (pair.chosen_id, pair.rejected_id) != expected[:2]
                or pair.score != expected[2]
            ):
                mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 10.0 and selected > 0
    report(
        capsys, 1, "selector brute-force equivalence", ok,
        f"{len(sets)} sets x {len(configs)} configs, {mismatches} mismatches, "
        f"{elapsed:.1f}s",
    )
    assert mismatches == 0
    assert elapsed < 10.0


def test_criterion_2_margin_delta_identities(capsys):
    from oracles import delta_loss

    rng = np.random.default_rng(7)
    worst_tilt = 0.0
    worst_star = 0.0
    n = 10_000
    for _ in range(n):
        k = int(rng.integers(2, 9))
        rewards = rng.uniform(size=k)
        ref_logits = rng.standard_normal(k) * 3
        before = log_softmax(ref_logits[None, :])[0]
        w, l = rng.choice(k, size=2, replace=False).tolist()

        k_trust = float(rng.uniform(0.5, 80.0))
        after = log_softmax(k_trust * rewards[None, :])[0]
        delta = delta_loss(before[w], before[l], after[w], after[l])
        score = cr_plus(
            PairScoreInput(
                r_w=rewards[w], r_l=rewards[l],
                logp_w=float(before[w]), logp_l=float(before[l]),
            ),
            k_trust,
        )
        worst_tilt = max(worst_tilt, abs(delta - score))

        beta = float(rng.uniform(0.05, 2.0))
        star = log_softmax((ref_logits + rewards / beta)[None, :])[0]
        delta_star = delta_loss(before[w], before[l], star[w], star[l])
        worst_star = max(
            worst_star, abs(delta_star - (rewards[w] - rewards[l]) / beta)
        )
    ok = worst_tilt < 1e-12 and worst_star < 1e-12
    report(
        capsys, 2, "margin-delta identities", ok,
        f"{n} instances, reward-tilt err {worst_tilt:.2e}, "
        f"scaled-gap err {worst_star:.2e}",
    )
    assert worst_tilt < 1e-12
    assert worst_star < 1e-12


def test_criterion_3_rso_acceptance_statistics(capsys):
    rewards = [0.95, 0.9, 0.8, 0.7, 0.5]
    probs = rso_acceptance_probs(rewards, beta=0.1)
    n_draws = 100_000
    # budget of exactly n_draws proposals; acceptances stay far below the
    # sample target, so the trace records every single proposal
    sample = rso_subsample(
        probs, n_samples=n_draws, rng=np.random.default_rng(123), max_draw_factor=1
    )
    assert int(sample.proposals.sum()) == n_draws
    freq = sample.acceptances / sample.proposals
    sd = np.sqrt(probs * (1.0 - probs) / sample.proposals)
    deviations = np.abs(freq - probs)
    within = bool((deviations <= 3.0 * sd + 1e-15).all())
    max_frequency_exact = freq[int(np.argmax(rewards))] == 1.0
    ok = within and max_frequency_exact
    report(
        capsys, 3, "rejection-sampling acceptance statistics", ok,
        f"{n_draws} draws, max deviation {float((deviations / np.maximum(sd, 1e-12)).max()):.2f} sd, "
        f"argmax frequency {freq[0]:.6f}",
    )
    assert within
    assert max_frequency_exact


def test_criterion_4_gradient_correctness(capsys):
    start = time.perf_counter()
    worst = gradient_check(seed=0, n_instances=100)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-4 and elapsed < 5.0
    report(
        capsys, 4, "analytic gradients vs finite differences", ok,
        f"100 instances, worst relative error {worst:.2e}, {elapsed:.1f}s",
    )
    assert worst < 1e-4, worst
    assert elapsed < 5.0


def test_criterion_5_mbr_brute_force(capsys):
    rng = np.random.default_rng(55)
    worst = 0.0
    structural_failures = 0
    for k in range(2, 17):
        for _ in range(5):
            cset = random_set(rng, k=k, tie_probability=0.0)
            ids = tuple(sorted(c.id for c in cset.candidates))
            values = rng.uniform(size=(k, k))
            matrix = UtilityMatrix(ids=ids, values=values)
            expected = {}
            for i, cid in enumerate(ids):
                total = math.fsum(values[i, m] for m in range(k) if m != i)
                expected[cid] = total / (k - 1)
            scores = dict(zip(matrix.ids, mbr_scores(matrix)))
            worst = max(
                worst, max(abs(scores[cid] - expected[cid]) for cid in ids)
            )
            ranked = sorted(ids, key=lambda cid: (-expected[cid], cid))
            bw = run_selector(cset, SelectionConfig(method="mbr_bw"), matrix).pairs
            if [(p.chosen_id, p.rejected_id) for p in bw] != [(ranked[0], ranked[-1])]:
                structural_failures += 1
            if k >= 3:
                middle = ranked[math.ceil(k / 2) - 1]
                bmw = run_selector(cset, SelectionConfig(method="mbr_bmw"), matrix).pairs
                want = [
                    (ranked[0], middle),
                    (ranked[0], ranked[-1]),
                    (middle, ranked[-1]),
                ]
                if len(bmw) != 3 or [
                    (p.chosen_id, p.rejected_id) for p in bmw
                ] != want:
                    structural_failures += 1
    ok = worst == 0.0 and structural_failures == 0
    report(
        capsys, 5, "expected-utility brute force", ok,
        f"K=2..16, score error {worst:.2e} (exact: 0), {structural_failures} pairing mismatches",
    )
    assert worst == 0.0
    assert structural_failures == 0


def test_criterion_6_toy_ranking_experiment(capsys):
    start = time.perf_counter()
    world = make_world()  # 50 sources, 32 outputs, seed 0, corr 0.5
    methods = ("cr_plus", "cr_times", "minmax_r", "random_pair")
    rep = run_comparison(world, methods, n_seeds=20)
    gains = {m: np.array(rep["gains"][rep["methods"].index(m)]) for m in methods}
    p_plus = scipy.stats.ttest_rel(
        gains["cr_plus"], gains["random_pair"], alternative="greater"
    ).pvalue
    p_times = scipy.stats.ttest_rel(
        gains["cr_times"], gains["random_pair"], alternative="greater"
    ).pvalue
    margin = float(gains["cr_plus"].mean() - gains["minmax_r"].mean())
    elapsed = time.perf_counter() - start
    ok = p_plus < 0.05 and p_times < 0.05 and margin >= 0.0 and elapsed < 120.0
    report(
        capsys, 6, "toy ranking experiment", ok,
        f"20 seeds, p(cr_plus>control)={p_plus:.1e}, p(cr_times>control)={p_times:.1e}, "
        f"reward-extreme margin {margin:+.2e}, {elapsed:.1f}s",
    )
    assert p_plus < 0.05
    assert p_times < 0.05
    assert margin >= 0.0  # the reward-only extreme does not beat cr_plus
    assert elapsed < 120.0


def test_criterion_7_rejected_likelihood_signature(capsys):
    """With correlated rewards/logits (corr 0.5), the confidence-aware score
    rejects candidates the reference policy likes better than the gap-
    threshold baseline does, per-set, by a sign test."""
    crpo_cfg = SelectionConfig(method="cr_plus")
    rsdpo_cfg = SelectionConfig(method="rs_dpo")
    wins = n = 0
    for wseed in range(4):
        world = make_world(
            n_sources=50, n_outputs=32, seed=wseed,
            reward_logit_corr=0.5, logit_scale=6.0,
        )
        for s in range(world.n_sources):
            cset = sample_candidates(
                world, s, k=16, temperature=8.0, top_p=1.0,
                rng=np.random.default_rng([wseed, 99, s]),
            )
            a = run_selector(cset, crpo_cfg)
            b = run_selector(cset, rsdpo_cfg)
            if not a.pairs or not b.pairs:
                continue
            lp_a = np.mean([cset.candidate(p.rejected_id).logprob for p in a.pairs])
            lp_b = np.mean([cset.candidate(p.rejected_id).logprob for p in b.pairs])
            if lp_a == lp_b:
                continue
            wins += lp_a > lp_b
            n += 1
    pvalue = scipy.stats.binomtest(wins, n, alternative="greater").pvalue
    ok = n >= 50 and pvalue < 0.05
    report(
        capsys, 7, "rejected-candidate likelihood signature", ok,
        f"{wins}/{n} sets favor the confidence-aware rejection, sign test p={pvalue:.1e}",
    )
    assert n >= 50
    assert pvalue < 0.05


def test_criterion_8_reward_gap_threshold_behavior(capsys):
    # sweep: accepted pair sets shrink monotonically as eta grows
    rng = np.random.default_rng(88)
    monotone_failures = 0
    for _ in range(200):
        cset = random_set(rng, k=8)
        previous = None
        for eta in (0.05, 0.15, 0.3, 0.45, 0.6, 0.75, 0.9):
            cfg = SelectionConfig(
                method="rs_dpo", eta={"out_of_en": eta, "into_en": eta}
            )
            pairs = {
                (p.chosen_id, p.rejected_id)
                for p in run_selector(cset, cfg).pairs
            }
            if previous is not None and not pairs <= previous:
                monotone_failures += 1
            previous = pairs

    # fixture with engineered gaps: exact hand enumeration under the 0.6/0.5 split
    sets = {cset.source_id: cset for cset in ingest_candidates(FIXTURE)}
    cfg = SelectionConfig(method="rs_dpo")  # eta defaults: out 0.6 / into 0.5
    accepted = {
        (source_id, p.chosen_id, p.rejected_id)
        for source_id, cset in sets.items()
        for p in run_selector(cset, cfg).pairs
    }
    expected = {
        ("s_alpha", "A", "C"),          # out of English, gap 0.7 > 0.6
        ("s_beta", "B1", "B2"),         # into English, gap 0.65 > 0.5
        ("s_beta", "B1", "B3"),         # into English, gap 0.53 > 0.5
        ("s_beta", "B1", "B4"),         # into English, gap 0.90 > 0.5
        ("s_gamma", "G1", "G5"),        # out of English, gap 0.75 > 0.6
        ("s_gamma", "G2", "G5"),        # out of English, gap 0.75 > 0.6
    }
    ok = monotone_failures == 0 and accepted == expected
    report(
        capsys, 8, "reward-gap threshold behavior", ok,
        f"monotone over 200 sweeps ({monotone_failures} violations), "
        f"fixture enumeration {'matches' if accepted == expected else 'differs'}",
    )
    assert monotone_failures == 0
    assert accepted == expected


def test_criterion_9_cli_goldens_and_lossless_round_trip(capsys, tmp_path):
    variants = [
        ("cr_plus", []),
        ("cr_times", []),
        ("rs_dpo", []),
        ("mbr_bw", []),
        ("mbr_bmw", []),
        ("qe_best", []),
        ("top_scores", []),
        ("minmax_r", []),
        ("minmax_p", []),
        ("minmax_po", []),
        ("rso", ["--beta", "1.0"]),
    ]
    byte_mismatches = []
    round_trip_failures = []
    for method, extra in variants:
        out = tmp_path / f"{method}.jsonl"
        rc = main(
            ["select", "--in", str(FIXTURE), "--out", str(out), "--method", method]
            + extra
        )
        golden = GOLDEN / f"pairs_{method}.jsonl"
        if rc != 0 or out.read_bytes() != golden.read_bytes():
            byte_mismatches.append(method)
        rewritten = tmp_path / f"{method}.rt.jsonl"
        emit_pairs(load_pairs(golden), rewritten)
        if rewritten.read_bytes() != golden.read_bytes():
            round_trip_failures.append(method)

    # candidate files round-trip losslessly as well
    sets = ingest_candidates(FIXTURE)
    first = tmp_path / "cands.a.jsonl"
    second = tmp_path / "cands.b.jsonl"
    emit_candidates(sets, first)
    emit_candidates(ingest_candidates(first), second)
    candidates_lossless = (
        first.read_bytes() == second.read_bytes()
        and ingest_candidates(first) == sets
    )

    ok = not byte_mismatches and not round_trip_failures and candidates_lossless
    report(
        capsys, 9, "CLI goldens and lossless round trips", ok,
        f"{len(variants)} selector outputs byte-checked"
        + (f", mismatches {byte_mismatches}" if byte_mismatches else "")
        + (f", round-trip failures {round_trip_failures}" if round_trip_failures else ""),
    )
    assert byte_mismatches == []
    assert round_trip_failures == []
    assert candidates_lossless
