"""Comparator selectors: turn one candidate set into preference pairs.

Every selector is deterministic given the candidate set, the configuration,
and (where sampling is involved) the seeded generator.  Argmax/argmin ties
always break toward the lexicographically smallest candidate id.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .core import (
    Candidate,
    CandidateSet,
    PreferenceDataset,
    PreferencePair,
    SelectionConfig,
    ValidationError,
    direction_class,
    effective_logprob,
)
from .scoring import UtilityMatrix, mbr_scores, utility_matrix_for_set

# Draw budget of the stochastic subsampler, as a multiple of the target
# number of acceptances.
RSO_MAX_DRAW_FACTOR = 64


@dataclass(frozen=True)
class SelectionOutcome:
    """What one selector produced for one source: pairs, an SFT target, or
    an explanation of why it produced nothing."""

    pairs: tuple[PreferencePair, ...] = ()
    sft_target: str | None = None
    skipped_reason: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "pairs", tuple(self.pairs))


def _require_k(cset: CandidateSet, minimum: int) -> None:
    if len(cset.candidates) < minimum:
        raise ValidationError(
            f"source {cset.source_id!r}: selector needs at least {minimum} "
            f"candidates, got {len(cset.candidates)}"
        )


@dataclass(frozen=True)
class _Pool:
    """One candidate set sorted by id, with its aggregate rewards, its
    effective log-likelihoods, and ``best``: the index of the reward argmax
    (the smallest id on ties), which is the chosen side of every
    reward-labeled selector."""

    cset: CandidateSet
    ordered: tuple[Candidate, ...]
    reward: np.ndarray
    logp: np.ndarray
    best: int

    @classmethod
    def of(cls, cset: CandidateSet, config: SelectionConfig) -> _Pool:
        ordered = tuple(sorted(cset.candidates, key=lambda c: c.id))
        reward = np.array([c.reward_agg for c in ordered], dtype=np.float64)
        logp = np.array([effective_logprob(c, config) for c in ordered])
        return cls(cset, ordered, reward, logp, int(np.argmax(reward)))

    def pair(
        self,
        chosen: int,
        rejected: int,
        score: float,
        method: str,
        extra: Mapping[str, float] | None = None,
    ) -> PreferencePair:
        winner, loser = self.ordered[chosen], self.ordered[rejected]
        extras = {
            "reward_gap": winner.reward_agg - loser.reward_agg,
            "confidence_gap": float(self.logp[rejected] - self.logp[chosen]),
        }
        if extra:
            extras.update(extra)
        return PreferencePair(
            source_id=self.cset.source_id,
            chosen_id=winner.id,
            rejected_id=loser.id,
            score=score,
            method=method,
            extras=extras,
        )

    def select(
        self,
        method: str,
        scores: np.ndarray,
        skip_reason: str,
        mask: np.ndarray | None = None,
    ) -> SelectionOutcome:
        """Pair the reward argmax with the first argmax of ``scores`` among
        the other candidates that ``mask`` keeps and whose score is strictly
        positive; skip with ``skip_reason`` when there is none."""
        keep = scores > 0.0
        keep[self.best] = False
        if mask is not None:
            keep &= mask
        if not keep.any():
            return SelectionOutcome(skipped_reason=skip_reason)
        rejected = int(np.argmax(np.where(keep, scores, -np.inf)))
        pair = self.pair(self.best, rejected, float(scores[rejected]), method)
        return SelectionOutcome(pairs=(pair,))


def _likelihood_gate(pool: _Pool, config: SelectionConfig) -> np.ndarray | None:
    """Competitors that pass the likelihood gate, or None when it is off."""
    if config.gate_mode == "off":
        return None
    if config.gate_mode == "log_space":
        likelihood = pool.logp
    else:
        likelihood = np.array([math.exp(lp) for lp in pool.logp])
    return likelihood - likelihood[pool.best] + config.epsilon > 0.0


def select_crpo(cset: CandidateSet, config: SelectionConfig) -> SelectionOutcome:
    """Confidence-reward selection: highest-reward candidate versus the
    gated competitor with the largest positive CR score.

    The chosen side is always the reward argmax.  Every other candidate that
    passes the likelihood gate is scored, and the best strictly positive
    score wins; if no score is positive the source yields no pair.  Scores
    are evaluated with the same float operations as ``scoring.cr_plus`` and
    ``scoring.cr_times``, so they match those references exactly.
    """
    if config.method not in ("cr_plus", "cr_times"):
        raise ValidationError(f"select_crpo cannot run method {config.method!r}")
    _require_k(cset, 2)
    pool = _Pool.of(cset, config)
    reward_gap = pool.reward[pool.best] - pool.reward
    logp_gap = pool.logp - pool.logp[pool.best]
    if config.method == "cr_plus":
        scores = config.k_trust * reward_gap + logp_gap
    else:
        scores = reward_gap * logp_gap
    return pool.select(
        config.method, scores, "no positive CR score", _likelihood_gate(pool, config)
    )


@dataclass(frozen=True)
class RsoSample:
    """Trace of one statistical-rejection subsampling run.

    ``picks`` lists the accepted candidate indices in acceptance order
    (duplicates allowed; back-filled entries included).  ``proposals`` and
    ``acceptances`` count, per candidate, how often it was drawn and how
    often a draw of it was accepted.
    """

    picks: tuple[int, ...]
    proposals: np.ndarray
    acceptances: np.ndarray
    n_filled: int


def rso_acceptance_probs(agg_rewards: Sequence[float], beta: float) -> np.ndarray:
    """Per-candidate acceptance probability exp((r - r_max) / beta)."""
    if beta <= 0 or not math.isfinite(beta):
        raise ValidationError(f"beta must be finite and > 0, got {beta!r}")
    rewards = np.asarray(agg_rewards, dtype=np.float64)
    return np.exp((rewards - rewards.max()) / beta)


def rso_subsample(
    acceptance_probs: np.ndarray,
    n_samples: int,
    rng: np.random.Generator,
    max_draw_factor: int = RSO_MAX_DRAW_FACTOR,
) -> RsoSample:
    """Draw candidates uniformly with replacement, accepting each with its
    acceptance probability, until ``n_samples`` acceptances.

    If the draw budget (``max_draw_factor * n_samples`` proposals) runs out
    first, the remaining slots are filled with the not-yet-accepted
    candidates in decreasing acceptance-probability order (i.e. decreasing
    reward), cycling through all candidates if even that runs dry.
    """
    probs = np.asarray(acceptance_probs, dtype=np.float64)
    k = len(probs)
    proposals = np.zeros(k, dtype=np.int64)
    acceptances = np.zeros(k, dtype=np.int64)
    picks: list[int] = []
    budget = max_draw_factor * n_samples
    for _ in range(budget):
        if len(picks) >= n_samples:
            break
        j = int(rng.integers(k))
        proposals[j] += 1
        if rng.random() < probs[j]:
            acceptances[j] += 1
            picks.append(j)
    n_filled = 0
    if len(picks) < n_samples:
        order = sorted(range(k), key=lambda j: (-probs[j], j))
        accepted = set(picks)
        backfill = [j for j in order if j not in accepted]
        while len(picks) < n_samples:
            if not backfill:
                backfill = list(order)
            picks.append(backfill.pop(0))
            n_filled += 1
    return RsoSample(
        picks=tuple(picks),
        proposals=proposals,
        acceptances=acceptances,
        n_filled=n_filled,
    )


def select_rso(
    cset: CandidateSet, config: SelectionConfig, rng: np.random.Generator
) -> SelectionOutcome:
    """Statistical rejection sampling followed by random adjacent pairing.

    Subsamples ``rso_samples`` candidates with acceptance probability
    exp((r - r_max) / beta), shuffles them, and pairs consecutive entries,
    labeling the higher-reward member of each pair as chosen.  Pairs with a
    zero reward gap are dropped.
    """
    _require_k(cset, 2)
    pool = _Pool.of(cset, config)
    probs = rso_acceptance_probs(pool.reward, config.beta)
    sample = rso_subsample(probs, config.rso_samples, rng)
    perm = rng.permutation(len(sample.picks))
    shuffled = [sample.picks[i] for i in perm]
    pairs = []
    for first, second in zip(shuffled[::2], shuffled[1::2]):
        gap = pool.ordered[first].reward_agg - pool.ordered[second].reward_agg
        if gap == 0.0:
            continue
        chosen, rejected = (first, second) if gap > 0.0 else (second, first)
        pairs.append(pool.pair(chosen, rejected, abs(gap), "rso"))
    if not pairs:
        return SelectionOutcome(skipped_reason="no pair with a positive reward gap")
    return SelectionOutcome(pairs=tuple(pairs))


def select_rsdpo(cset: CandidateSet, config: SelectionConfig) -> SelectionOutcome:
    """Keep every candidate pair whose aggregate-reward gap exceeds eta.

    eta is resolved from the set's translation direction (into English or
    out of it).  The higher-reward member of each kept pair is chosen, and
    pairs are emitted ordered by (chosen id, rejected id).
    """
    _require_k(cset, 2)
    klass = direction_class(cset.direction)
    if klass not in config.eta:
        raise ValidationError(
            f"source {cset.source_id!r}: no eta threshold for direction class {klass!r}"
        )
    eta = config.eta[klass]
    pool = _Pool.of(cset, config)
    pairs = []
    for i in range(len(pool.ordered)):
        for j in range(i + 1, len(pool.ordered)):
            gap = pool.ordered[i].reward_agg - pool.ordered[j].reward_agg
            if abs(gap) <= eta:
                continue
            chosen, rejected = (i, j) if gap > 0.0 else (j, i)
            pairs.append(pool.pair(chosen, rejected, abs(gap), "rs_dpo"))
    pairs.sort(key=lambda p: (p.chosen_id, p.rejected_id))
    if not pairs:
        return SelectionOutcome(skipped_reason="no reward gap above eta")
    return SelectionOutcome(pairs=tuple(pairs))


def _mbr_scores(pool: _Pool, matrix: UtilityMatrix | None) -> np.ndarray:
    """Expected utility of every candidate, aligned with ``pool.ordered``;
    the built-in utility when no matrix is given."""
    if matrix is None:
        matrix = utility_matrix_for_set(pool.cset)
    elif set(matrix.ids) != {c.id for c in pool.ordered}:
        raise ValidationError(
            f"source {pool.cset.source_id!r}: utility matrix ids do not match the set"
        )
    score_by_id = dict(zip(matrix.ids, mbr_scores(matrix)))
    return np.array([score_by_id[c.id] for c in pool.ordered])


def select_mbr(
    cset: CandidateSet,
    utility: UtilityMatrix | None = None,
    variant: str = "bw",
    config: SelectionConfig | None = None,
) -> SelectionOutcome:
    """Minimum-Bayes-risk pairing: best-vs-worst or best/middle/worst.

    Candidates are ranked by expected utility against the other candidates
    as pseudo-references.  ``bw`` pairs the top and bottom of the ranking;
    ``bmw`` additionally uses the middle candidate (rank ceil(K/2)) and
    emits (best, middle), (best, worst), (middle, worst).  Labels follow
    the utility ranking, not the rewards.  ``utility`` is a precomputed
    matrix over the set's ids; without one the built-in utility is used.
    """
    if variant not in ("bw", "bmw"):
        raise ValidationError(f"unknown MBR variant {variant!r}")
    method = f"mbr_{variant}"
    _require_k(cset, 2 if variant == "bw" else 3)
    pool = _Pool.of(cset, config if config is not None else SelectionConfig(method=method))
    score = _mbr_scores(pool, utility)
    ranked = [int(j) for j in np.argsort(-score, kind="stable")]

    def mbr_pair(chosen: int, rejected: int) -> PreferencePair:
        return pool.pair(
            chosen,
            rejected,
            float(score[chosen] - score[rejected]),
            method,
            extra={
                "mbr_chosen": float(score[chosen]),
                "mbr_rejected": float(score[rejected]),
            },
        )

    best, worst = ranked[0], ranked[-1]
    if variant == "bw":
        return SelectionOutcome(pairs=(mbr_pair(best, worst),))
    middle = ranked[math.ceil(len(ranked) / 2) - 1]
    return SelectionOutcome(
        pairs=(
            mbr_pair(best, middle),
            mbr_pair(best, worst),
            mbr_pair(middle, worst),
        )
    )


def select_qe_best(cset: CandidateSet) -> SelectionOutcome:
    """Quality-estimation fine-tuning mode: no pairs, just the best candidate."""
    pool = _Pool.of(cset, SelectionConfig(method="qe_best"))
    return SelectionOutcome(sft_target=pool.ordered[pool.best].id)


def _reward_extremes(pool: _Pool, method: str, n: int) -> SelectionOutcome:
    """Reward argmax versus the reward argmin among the n highest-reward
    candidates, smallest id on ties.

    The argmin is taken on the rewards, not on the gaps: two distinct low
    rewards can round to the same gap below the best one.
    """
    kept = np.argsort(-pool.reward, kind="stable")[:n]
    worst = np.zeros(len(pool.ordered), dtype=bool)
    worst[kept[np.argmin(pool.reward[kept])]] = True
    return pool.select(method, pool.reward[pool.best] - pool.reward, "zero reward gap", worst)


def select_top_scores(
    cset: CandidateSet, n: int, config: SelectionConfig | None = None
) -> SelectionOutcome:
    """Keep the n highest-reward candidates and pair the extremes among them."""
    if not 2 <= n <= len(cset.candidates):
        raise ValidationError(
            f"source {cset.source_id!r}: top-scores subset size {n} must lie "
            f"in [2, {len(cset.candidates)}]"
        )
    pool = _Pool.of(cset, config if config is not None else SelectionConfig(method="top_scores"))
    return _reward_extremes(pool, "top_scores", n)


def select_minmax_r(
    cset: CandidateSet, config: SelectionConfig | None = None
) -> SelectionOutcome:
    """Pair the maximum-reward candidate with the minimum-reward one."""
    _require_k(cset, 2)
    pool = _Pool.of(cset, config if config is not None else SelectionConfig(method="minmax_r"))
    return _reward_extremes(pool, "minmax_r", len(pool.ordered))


def select_minmax_p(cset: CandidateSet, config: SelectionConfig) -> SelectionOutcome:
    """Reward-free variant: best-reward candidate versus the competitor the
    reference policy is most (strictly more) confident in."""
    _require_k(cset, 2)
    pool = _Pool.of(cset, config)
    return pool.select(
        "minmax_p", pool.logp - pool.logp[pool.best], "no positive confidence gap"
    )


def select_minmax_po(cset: CandidateSet, config: SelectionConfig) -> SelectionOutcome:
    """Pair the most and least likely candidates, chosen by higher reward."""
    _require_k(cset, 2)
    pool = _Pool.of(cset, config)
    most, least = int(np.argmax(pool.logp)), int(np.argmin(pool.logp))
    if most == least:
        return SelectionOutcome(skipped_reason="degenerate likelihood range")
    gap = pool.ordered[most].reward_agg - pool.ordered[least].reward_agg
    if gap == 0.0:
        return SelectionOutcome(skipped_reason="zero reward gap")
    chosen, rejected = (most, least) if gap > 0.0 else (least, most)
    return SelectionOutcome(pairs=(pool.pair(chosen, rejected, abs(gap), "minmax_po"),))


def per_source_rng(seed: int, source_id: str) -> np.random.Generator:
    """Generator that is stable per (seed, source) regardless of set order."""
    return np.random.default_rng([seed, zlib.crc32(source_id.encode("utf-8"))])


def run_selector(
    cset: CandidateSet,
    config: SelectionConfig,
    utility: UtilityMatrix | None = None,
) -> SelectionOutcome:
    """Dispatch one candidate set to the selector named by ``config.method``;
    ``rso`` draws from ``per_source_rng(config.seed, cset.source_id)``."""
    method = config.method
    if method in ("cr_plus", "cr_times"):
        return select_crpo(cset, config)
    if method == "rso":
        return select_rso(cset, config, per_source_rng(config.seed, cset.source_id))
    if method == "rs_dpo":
        return select_rsdpo(cset, config)
    if method in ("mbr_bw", "mbr_bmw"):
        return select_mbr(cset, utility, variant=method.removeprefix("mbr_"), config=config)
    if method == "qe_best":
        return select_qe_best(cset)
    if method == "top_scores":
        return select_top_scores(cset, min(config.rso_samples, len(cset.candidates)), config)
    if method == "minmax_r":
        return select_minmax_r(cset, config)
    if method == "minmax_p":
        return select_minmax_p(cset, config)
    if method == "minmax_po":
        return select_minmax_po(cset, config)
    # SelectionConfig already rejects unknown tags.
    raise ValidationError(f"unknown method {method!r}")  # pragma: no cover


def select_dataset(
    sets: Sequence[CandidateSet],
    config: SelectionConfig,
    utilities: Mapping[str, UtilityMatrix] | None = None,
    input_digest: str | None = None,
) -> PreferenceDataset:
    """Run the configured selector over many candidate sets, in order.

    Sampling selectors draw from a generator seeded by (config.seed,
    source_id), so a set's outcome does not depend on the others.
    """
    pairs: list[PreferencePair] = []
    sft_targets: list[tuple[str, str]] = []
    skipped = 0
    for cset in sets:
        utility = None
        if utilities is not None:
            if cset.source_id not in utilities:
                raise ValidationError(
                    f"no utility matrix for source {cset.source_id!r}"
                )
            utility = utilities[cset.source_id]
        outcome = run_selector(cset, config, utility=utility)
        pairs.extend(outcome.pairs)
        if outcome.sft_target is not None:
            sft_targets.append((cset.source_id, outcome.sft_target))
        if outcome.skipped_reason is not None:
            skipped += 1
    provenance: dict[str, object] = {
        "config": {
            "method": config.method,
            "k_trust": config.k_trust,
            "beta": config.beta,
            "eta": dict(config.eta),
            "gate_mode": config.gate_mode,
            "epsilon": config.epsilon,
            "rso_samples": config.rso_samples,
            "seed": config.seed,
            "logprob_norm": config.logprob_norm,
        },
        "n_sources": len(sets),
        "n_skipped": skipped,
    }
    if input_digest is not None:
        provenance["input_digest"] = input_digest
    return PreferenceDataset(
        pairs=tuple(pairs), sft_targets=tuple(sft_targets), provenance=provenance
    )
