"""Comparator selectors: turn one candidate set into preference pairs.

``run_selector`` is the one entry point: ``SelectionConfig.method`` names the
selector, and the config carries every knob it reads.  Every selector is
deterministic given the candidate set and the configuration; ``rso`` seeds
its generator from (config.seed, source_id).  Argmax/argmin ties always
break toward the lexicographically smallest candidate id.

``random_pair_outcome`` is the random-pair control of ``toy compare``; like
the reward-labeled selectors, it labels its pair with ``_Pool.by_reward``.

The reward and confidence selectors compute on Python floats: a pool holds
K floats and each score is one correctly rounded float64 operation per
candidate, the same as numpy's.  The MBR selectors rank Python floats too
(``scoring.mbr_scores``).  numpy is imported only inside the RSO functions
and the built-in utility, so a command that runs neither never loads it.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

from .core import (
    CandidateSet,
    PreferenceDataset,
    PreferencePair,
    SelectionConfig,
    ValidationError,
    direction_class,
    effective_logprob,
    is_finite_number,
)
from .scoring import UtilityMatrix, mbr_scores, utility_matrix_for_set

if TYPE_CHECKING:
    import numpy as np

# Draw budget of the stochastic subsampler, as a multiple of the target
# number of acceptances.
RSO_MAX_DRAW_FACTOR = 64

# The configuration ``random_pair_outcome`` labels its pairs under.
_RANDOM_PAIR_CONFIG = SelectionConfig()


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
    """One candidate set with its aggregate rewards and effective
    log-likelihoods, both lists of floats indexed like ``cset.candidates``
    (id order), and ``best``: the index of the reward argmax (the smallest id
    on ties), which is the chosen side of every reward-labeled selector."""

    cset: CandidateSet
    reward: list[float]
    logp: list[float]
    best: int

    @classmethod
    def of(cls, cset: CandidateSet, config: SelectionConfig) -> _Pool:
        reward = [c.reward_agg for c in cset.candidates]
        logp = [effective_logprob(c, config) for c in cset.candidates]
        return cls(cset, reward, logp, reward.index(max(reward)))

    def pair(
        self,
        chosen: int,
        rejected: int,
        score: float,
        method: str,
        extra: Mapping[str, float] | None = None,
    ) -> PreferencePair:
        winner, loser = self.cset.candidates[chosen], self.cset.candidates[rejected]
        extras = {
            "reward_gap": winner.reward_agg - loser.reward_agg,
            "confidence_gap": self.logp[rejected] - self.logp[chosen],
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
        gap = self.cset.candidates[a].reward_agg - self.cset.candidates[b].reward_agg
        if gap == 0.0:
            return None
        chosen, rejected = (a, b) if gap > 0.0 else (b, a)
        return self.pair(chosen, rejected, abs(gap), method)

    def select(
        self,
        method: str,
        scores: Sequence[float],
        skip_reason: str,
        among: Sequence[int] | None = None,
    ) -> SelectionOutcome:
        """Pair the reward argmax with the first argmax of ``scores`` among
        the other candidates whose score is strictly positive, taken from the
        ascending indices ``among`` (all of them when None); skip with
        ``skip_reason`` when there is none."""
        best = self.best
        keep = [
            j for j in (range(len(scores)) if among is None else among)
            if scores[j] > 0.0 and j != best
        ]
        if not keep:
            return SelectionOutcome(skipped_reason=skip_reason)
        # max returns the first of equal maxima: the smallest index, as argmax.
        rejected = max(keep, key=scores.__getitem__)
        pair = self.pair(best, rejected, scores[rejected], method)
        return SelectionOutcome(pairs=(pair,))


def random_pair_outcome(cset: CandidateSet, rng: np.random.Generator) -> SelectionOutcome:
    """Control baseline of ``toy compare``: a uniformly random candidate pair,
    labeled by reward under the default ``SelectionConfig``."""
    k = len(cset.candidates)
    if k < 2:
        raise ValidationError(
            f"source {cset.source_id!r}: control needs at least 2 candidates"
        )
    i, j = rng.choice(k, size=2, replace=False).tolist()
    pair = _Pool.of(cset, _RANDOM_PAIR_CONFIG).by_reward(i, j, "random_pair")
    if pair is None:
        return SelectionOutcome(skipped_reason="zero reward gap")
    return SelectionOutcome(pairs=(pair,))


def _likelihood_gate(pool: _Pool, config: SelectionConfig) -> list[int] | None:
    """Indices of the candidates that pass the likelihood gate, ascending, or
    None when it is off."""
    if config.gate_mode == "off":
        return None
    if config.gate_mode == "log_space":
        likelihood = pool.logp
    else:
        likelihood = [math.exp(lp) for lp in pool.logp]
    floor, epsilon = likelihood[pool.best], config.epsilon
    return [j for j, value in enumerate(likelihood) if value - floor + epsilon > 0.0]


def _crpo(pool: _Pool, config: SelectionConfig, _utility: object) -> SelectionOutcome:
    """Confidence-reward selection: highest-reward candidate versus the
    gated competitor with the largest positive CR score.

    The chosen side is always the reward argmax.  Every other candidate that
    passes the likelihood gate is scored, and the best strictly positive
    score wins; if no score is positive the source yields no pair.  Scores
    are evaluated with the same float operations as the one-pair
    ``cr_plus`` and ``cr_times`` oracles in ``tests/oracles.py``, so they
    match those references exactly.
    """
    top_reward, top_logp = pool.reward[pool.best], pool.logp[pool.best]
    pool_pairs = zip(pool.reward, pool.logp)
    if config.method == "cr_plus":
        k_trust = config.k_trust
        scores = [k_trust * (top_reward - r) + (lp - top_logp) for r, lp in pool_pairs]
    else:
        scores = [(top_reward - r) * (lp - top_logp) for r, lp in pool_pairs]
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
    import numpy as np

    if not is_finite_number(beta) or beta <= 0:
        raise ValidationError(f"beta must be finite and > 0, got {beta!r}")
    rewards = np.asarray(agg_rewards, dtype=np.float64)
    return np.exp((rewards - rewards.max()) / beta)


def _rso_proposals(
    probs: np.ndarray, n_samples: int, budget: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Proposed index and acceptance of every proposal, drawn in blocks.

    Block b draws t_b indices with one ``rng.integers(k, size=t_b)``, then
    t_b uniforms with one ``rng.random(t_b)``; proposal i is accepted when
    its uniform is below ``probs`` of its index.  t_0 is twice the expected
    number of proposals, 2 * n_samples * k / sum(probs), rounded up, at
    least 1 and at most ``budget`` (``budget`` when the sum is 0); each later
    block doubles, capped by the budget left.  Proposals count in order up
    to the ``n_samples``-th acceptance or the end of the budget.
    """
    import numpy as np

    if min(budget, n_samples) <= 0:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=bool)
    k = len(probs)
    total = float(np.add.reduce(probs))
    block = max(1, math.ceil(min(budget, 2 * n_samples * k / total))) if total > 0.0 else budget
    proposed: list[np.ndarray] = []
    accepted: list[np.ndarray] = []
    done = n_accepted = 0
    while done < budget and n_accepted < n_samples:
        t = min(block, budget - done)
        block *= 2
        j = rng.integers(k, size=t)
        ok = rng.random(t) < probs[j]
        hits = ok.nonzero()[0]
        need = n_samples - n_accepted
        if len(hits) >= need:
            t = int(hits[need - 1]) + 1
        proposed.append(j[:t])
        accepted.append(ok[:t])
        done += t
        n_accepted += len(hits)  # past n_samples only when the loop stops here
    return np.concatenate(proposed), np.concatenate(accepted)


def rso_subsample(
    acceptance_probs: np.ndarray,
    n_samples: int,
    rng: np.random.Generator,
    max_draw_factor: int = RSO_MAX_DRAW_FACTOR,
) -> RsoSample:
    """Draw candidates uniformly with replacement from K >= 2, accepting each
    with its acceptance probability, until ``n_samples`` acceptances.

    If the draw budget (``max_draw_factor * n_samples`` proposals) runs out
    first, the remaining slots are filled with the not-yet-accepted
    candidates in decreasing acceptance-probability order (i.e. decreasing
    reward), cycling through all candidates if even that runs dry.  Draws
    come from ``rng``, any numpy ``Generator``, in blocks: one
    ``rng.integers(K, size=t)`` then one ``rng.random(t)`` per block of t
    proposals (``_rso_proposals`` gives the block sizes).
    """
    import numpy as np

    probs = np.asarray(acceptance_probs, dtype=np.float64)
    k = len(probs)
    if k < 2:
        raise ValidationError(f"RSO needs at least 2 candidates, got {k}")
    proposed, accepted = _rso_proposals(probs, n_samples, max_draw_factor * n_samples, rng)
    proposals = np.bincount(proposed, minlength=k)
    picks = proposed[accepted]
    acceptances = np.bincount(picks, minlength=k)
    picks = picks.tolist()
    n_filled = max(n_samples - len(picks), 0)
    if n_filled:
        order = sorted(range(k), key=lambda j: (-probs[j], j))
        accepted = set(picks)
        backfill = [j for j in order if j not in accepted]
        picks.extend(itertools.islice(itertools.chain(backfill, itertools.cycle(order)), n_filled))
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
    # Keeps (chosen i, rejected j) with r_i - r_j > eta > 0, in id order.
    reward = pool.reward
    pairs = [
        pool.by_reward(i, j, "rs_dpo")
        for i, high in enumerate(reward)
        for j, low in enumerate(reward)
        if high - low > eta
    ]
    if not pairs:
        return SelectionOutcome(skipped_reason="no reward gap above eta")
    return SelectionOutcome(pairs=tuple(pairs))


def _mbr_scores(pool: _Pool, matrix: UtilityMatrix | None) -> list[float]:
    """Expected utility of every candidate in id order: of ``matrix``
    permuted into id order, or of the built-in utility without one."""
    if matrix is None:
        return mbr_scores(utility_matrix_for_set(pool.cset))
    ids = tuple(c.id for c in pool.cset.candidates)
    order = sorted(range(len(matrix.ids)), key=matrix.ids.__getitem__)
    if tuple(matrix.ids[i] for i in order) != ids:
        raise ValidationError(
            f"source {pool.cset.source_id!r}: utility matrix ids do not match the set"
        )
    rows = matrix.rows
    try:
        return mbr_scores(UtilityMatrix(ids, [[rows[i][j] for j in order] for i in order]))
    except ValidationError as err:  # a row's sum overflows
        raise ValidationError(f"source {pool.cset.source_id!r}: {err}") from None


def _mbr(pool: _Pool, config: SelectionConfig, utility: UtilityMatrix | None) -> SelectionOutcome:
    """Minimum-Bayes-risk pairing: best-vs-worst or best/middle/worst.

    Candidates are ranked by expected utility against the other candidates
    as pseudo-references.  ``mbr_bw`` pairs the top and bottom of the
    ranking; ``mbr_bmw`` additionally uses the middle candidate (rank
    ceil(K/2)) and emits (best, middle), (best, worst), (middle, worst).
    Labels follow the utility ranking, not the rewards; equal expected
    utilities keep id order.  ``utility`` is a precomputed matrix over the
    set's ids; without one the built-in utility is used.  A matrix row whose
    sum overflows has no expected utility, so it is rejected, and so is a
    gap between two expected utilities that overflows (only K = 2 can:
    above it each expected utility is at most half the largest float).
    """
    method = config.method
    score = _mbr_scores(pool, utility)
    ranked = sorted(range(len(score)), key=lambda j: -score[j])

    def mbr_pair(chosen: int, rejected: int) -> PreferencePair:
        gap = score[chosen] - score[rejected]
        if not math.isfinite(gap):
            candidates = pool.cset.candidates
            raise ValidationError(
                f"source {pool.cset.source_id!r}: expected-utility gap of candidate "
                f"{candidates[chosen].id!r} over {candidates[rejected].id!r} overflows "
                f"({score[chosen]!r} - {score[rejected]!r})"
            )
        return pool.pair(
            chosen,
            rejected,
            gap,
            method,
            extra={"mbr_chosen": score[chosen], "mbr_rejected": score[rejected]},
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
    rewards can round to the same gap below the best one.  The n kept are
    the first n of a stable descending sort, so a tie at the cut keeps its
    smallest ids; ``min`` returns the first of equal minima.
    """
    reward = pool.reward
    if config.method == "top_scores" and config.rso_samples < len(reward):
        kept = sorted(range(len(reward)), key=reward.__getitem__, reverse=True)
        worst = min(kept[: config.rso_samples], key=reward.__getitem__)
    else:
        worst = reward.index(min(reward))
    top = reward[pool.best]
    return pool.select(config.method, [top - r for r in reward], "zero reward gap", (worst,))


def _minmax_p(pool: _Pool, config: SelectionConfig, _utility: object) -> SelectionOutcome:
    """Reward-free variant: best-reward candidate versus the competitor the
    reference policy is most (strictly more) confident in."""
    top = pool.logp[pool.best]
    return pool.select("minmax_p", [lp - top for lp in pool.logp], "no positive confidence gap")


def _minmax_po(pool: _Pool, config: SelectionConfig, _utility: object) -> SelectionOutcome:
    """Pair the most and least likely candidates, chosen by higher reward."""
    logp = pool.logp
    most, least = logp.index(max(logp)), logp.index(min(logp))
    if most == least:
        return SelectionOutcome(skipped_reason="degenerate likelihood range")
    pair = pool.by_reward(most, least, "minmax_po")
    if pair is None:
        return SelectionOutcome(skipped_reason="zero reward gap")
    return SelectionOutcome(pairs=(pair,))


def per_source_rng(seed: int, source_id: str) -> np.random.Generator:
    """Generator that is stable per (seed, source) regardless of set order."""
    import numpy as np

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
        best = max(cset.candidates, key=lambda c: c.reward_agg)
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
