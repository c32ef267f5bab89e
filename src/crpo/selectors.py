"""Comparator selectors: turn one candidate set into preference pairs.

``run_selector`` is the one entry point: ``SelectionConfig.method`` names the
selector, and the config carries every knob it reads.  Every selector is
deterministic given the candidate set and the configuration; ``rso`` seeds
its generator from (config.seed, source_id).  Argmax/argmin ties always
break toward the lexicographically smallest candidate id.
"""

from __future__ import annotations

import dataclasses
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

    def by_reward(self, a: int, b: int, method: str) -> PreferencePair | None:
        """Candidates ``a`` and ``b`` paired with the higher reward chosen and
        scored by the reward gap, or None when their rewards are equal."""
        gap = self.ordered[a].reward_agg - self.ordered[b].reward_agg
        if gap == 0.0:
            return None
        chosen, rejected = (a, b) if gap > 0.0 else (b, a)
        return self.pair(chosen, rejected, abs(gap), method)

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


def _crpo(pool: _Pool, config: SelectionConfig, _utility: object) -> SelectionOutcome:
    """Confidence-reward selection: highest-reward candidate versus the
    gated competitor with the largest positive CR score.

    The chosen side is always the reward argmax.  Every other candidate that
    passes the likelihood gate is scored, and the best strictly positive
    score wins; if no score is positive the source yields no pair.  Scores
    are evaluated with the same float operations as ``scoring.cr_plus`` and
    ``scoring.cr_times``, so they match those references exactly.
    """
    gap = pool.reward[pool.best] - pool.reward
    logp_gap = pool.logp - pool.logp[pool.best]
    if config.method == "cr_plus":
        scores = config.k_trust * gap + logp_gap
    else:
        scores = gap * logp_gap
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


def _rso(pool: _Pool, config: SelectionConfig, _utility: object) -> SelectionOutcome:
    """Statistical rejection sampling followed by random adjacent pairing.

    Subsamples ``rso_samples`` candidates with acceptance probability
    exp((r - r_max) / beta), shuffles them, and pairs consecutive entries,
    labeling the higher-reward member of each pair as chosen.  Pairs with a
    zero reward gap are dropped.  Draws come from
    ``per_source_rng(config.seed, source_id)``.
    """
    rng = per_source_rng(config.seed, pool.cset.source_id)
    probs = rso_acceptance_probs(pool.reward, config.beta)
    sample = rso_subsample(probs, config.rso_samples, rng)
    perm = rng.permutation(len(sample.picks))
    shuffled = [sample.picks[i] for i in perm]
    pairs = [pool.by_reward(a, b, "rso") for a, b in zip(shuffled[::2], shuffled[1::2])]
    pairs = [pair for pair in pairs if pair is not None]
    if not pairs:
        return SelectionOutcome(skipped_reason="no pair with a positive reward gap")
    return SelectionOutcome(pairs=tuple(pairs))


def _rsdpo(pool: _Pool, config: SelectionConfig, _utility: object) -> SelectionOutcome:
    """Keep every candidate pair whose aggregate-reward gap exceeds eta.

    eta is resolved from the set's translation direction (into English or
    out of it).  The higher-reward member of each kept pair is chosen, and
    pairs are emitted ordered by (chosen id, rejected id).
    """
    klass = direction_class(pool.cset.direction)
    if klass not in config.eta:
        raise ValidationError(
            f"source {pool.cset.source_id!r}: no eta threshold for direction class {klass!r}"
        )
    eta = config.eta[klass]
    # eta > 0, so every kept pair has a non-zero gap and ``by_reward`` a pair.
    wide = np.abs(pool.reward[:, None] - pool.reward[None, :]) > eta
    pairs = [pool.by_reward(i, j, "rs_dpo") for i, j in zip(*np.nonzero(np.triu(wide, 1)))]
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


def _mbr(pool: _Pool, config: SelectionConfig, utility: UtilityMatrix | None) -> SelectionOutcome:
    """Minimum-Bayes-risk pairing: best-vs-worst or best/middle/worst.

    Candidates are ranked by expected utility against the other candidates
    as pseudo-references.  ``mbr_bw`` pairs the top and bottom of the
    ranking; ``mbr_bmw`` additionally uses the middle candidate (rank
    ceil(K/2)) and emits (best, middle), (best, worst), (middle, worst).
    Labels follow the utility ranking, not the rewards.  ``utility`` is a
    precomputed matrix over the set's ids; without one the built-in utility
    is used.
    """
    method = config.method
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
    if method == "mbr_bw":
        return SelectionOutcome(pairs=(mbr_pair(best, worst),))
    middle = ranked[math.ceil(len(ranked) / 2) - 1]
    return SelectionOutcome(
        pairs=(
            mbr_pair(best, middle),
            mbr_pair(best, worst),
            mbr_pair(middle, worst),
        )
    )


def _reward_extremes(pool: _Pool, config: SelectionConfig, _utility: object) -> SelectionOutcome:
    """Reward argmax versus the reward argmin among the n highest-reward
    candidates, smallest id on ties: n is K for ``minmax_r`` and
    min(rso_samples, K) for ``top_scores``.

    The argmin is taken on the rewards, not on the gaps: two distinct low
    rewards can round to the same gap below the best one.
    """
    n = len(pool.ordered)
    if config.method == "top_scores":
        n = min(config.rso_samples, n)
    kept = np.argsort(-pool.reward, kind="stable")[:n]
    worst = np.zeros(len(pool.ordered), dtype=bool)
    worst[kept[np.argmin(pool.reward[kept])]] = True
    return pool.select(
        config.method, pool.reward[pool.best] - pool.reward, "zero reward gap", worst
    )


def _minmax_p(pool: _Pool, config: SelectionConfig, _utility: object) -> SelectionOutcome:
    """Reward-free variant: best-reward candidate versus the competitor the
    reference policy is most (strictly more) confident in."""
    return pool.select(
        "minmax_p", pool.logp - pool.logp[pool.best], "no positive confidence gap"
    )


def _minmax_po(pool: _Pool, config: SelectionConfig, _utility: object) -> SelectionOutcome:
    """Pair the most and least likely candidates, chosen by higher reward."""
    most, least = int(np.argmax(pool.logp)), int(np.argmin(pool.logp))
    if most == least:
        return SelectionOutcome(skipped_reason="degenerate likelihood range")
    pair = pool.by_reward(most, least, "minmax_po")
    if pair is None:
        return SelectionOutcome(skipped_reason="zero reward gap")
    return SelectionOutcome(pairs=(pair,))


def per_source_rng(seed: int, source_id: str) -> np.random.Generator:
    """Generator that is stable per (seed, source) regardless of set order."""
    return np.random.default_rng([seed, zlib.crc32(source_id.encode("utf-8"))])


# Every pair method: the fewest candidates it needs, and the selector that
# turns one pool into its outcome.  ``qe_best`` is not here: it reads no
# log-likelihood, so ``run_selector`` answers it without building a pool.
_SELECTORS = {
    "cr_plus": (2, _crpo),
    "cr_times": (2, _crpo),
    "rso": (2, _rso),
    "rs_dpo": (2, _rsdpo),
    "mbr_bw": (2, _mbr),
    "mbr_bmw": (3, _mbr),
    "top_scores": (2, _reward_extremes),
    "minmax_r": (2, _reward_extremes),
    "minmax_p": (2, _minmax_p),
    "minmax_po": (2, _minmax_po),
}


def run_selector(
    cset: CandidateSet,
    config: SelectionConfig,
    utility: UtilityMatrix | None = None,
) -> SelectionOutcome:
    """Run the selector named by ``config.method`` on one candidate set.

    This is the one entry point to every selector.  ``utility`` is a
    precomputed utility matrix for the MBR methods; the others ignore it.
    ``qe_best`` returns the reward argmax (smallest id on ties) as an SFT
    target and needs no log-likelihood, so it runs on any set, whatever
    ``config.logprob_norm`` is.
    """
    if config.method == "qe_best":
        best = min(cset.candidates, key=lambda c: (-c.reward_agg, c.id))
        return SelectionOutcome(sft_target=best.id)
    min_k, select = _SELECTORS[config.method]
    if len(cset.candidates) < min_k:
        raise ValidationError(
            f"source {cset.source_id!r}: selector needs at least {min_k} "
            f"candidates, got {len(cset.candidates)}"
        )
    return select(_Pool.of(cset, config), config, utility)


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
        "config": dataclasses.asdict(config),
        "n_sources": len(sets),
        "n_skipped": skipped,
    }
    if input_digest is not None:
        provenance["input_digest"] = input_digest
    return PreferenceDataset(
        pairs=tuple(pairs), sft_targets=tuple(sft_targets), provenance=provenance
    )
