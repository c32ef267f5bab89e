"""Core data model: candidates, preference pairs, and selection configuration."""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass, field, fields
from typing import Mapping, Sequence

# Method tags accepted by the selectors and the CLI.
METHODS = (
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
)

GATE_MODES = ("off", "log_space", "probability")
LOGPROB_NORMS = ("sum", "per_token")

# Direction classes used to resolve the pair-gap threshold eta.
OUT_OF_EN = "out_of_en"
INTO_EN = "into_en"
DEFAULT_ETA = {OUT_OF_EN: 0.6, INTO_EN: 0.5}

# Largest ``rso_samples``.  RSO keeps that many picks per source and may make
# 64 times as many draws, so the bound keeps a size taken from the command line
# from exhausting memory or time; it is 64 times the benchmark's pool size K=16
# (picks beyond K only repeat candidates).
MAX_RSO_SAMPLES = 1024

# Selectors that rank candidates by expected utility rather than by reward.
# Their pairs are labeled by utility rank, so the chosen-reward >=
# rejected-reward check does not apply to them.
UTILITY_RANKED_METHODS = ("mbr_bw", "mbr_bmw")


class ValidationError(ValueError):
    """Raised when a record, score, or configuration violates its contract."""


# Range checks compare with this bound instead of calling math.isfinite: a
# comparison is false for NaN and infinities, and also for an int too large
# for a float, where math.isfinite raises OverflowError.
_FLOAT_MAX = sys.float_info.max


def _is_number(value: object) -> bool:
    """True for an int or a float, subclasses included, but not for a bool.
    The exact-type tests settle the common case without an isinstance call."""
    kind = type(value)
    return kind is float or kind is int or (isinstance(value, (int, float)) and kind is not bool)


def is_finite_number(value: object) -> bool:
    """True for an int or a float, but not a bool, within the float range: the
    check every numeric knob makes before its own range test."""
    return _is_number(value) and -_FLOAT_MAX <= value <= _FLOAT_MAX


def is_integer(value: object) -> bool:
    """True for an int, but not a bool: the check every integer knob makes
    before its own range test."""
    return isinstance(value, int) and type(value) is not bool


def aggregate_reward(rewards: Mapping[str, float]) -> float:
    """Unweighted mean of the per-model reward scores for one candidate."""
    if not rewards:
        raise ValidationError("no reward sources")
    for name, value in rewards.items():
        if not (_is_number(value) and 0.0 <= value <= 1.0):
            raise ValidationError(f"reward out of range: {name}={value!r}")
    return math.fsum(rewards.values()) / len(rewards)


def exact_mean(values: Sequence[float]) -> float:
    """Mean of finite values, finite and the same for any order of them: the
    exact sum rounded once (``math.fsum``) / the count.  ``fsum`` overflows
    where a partial sum leaves the float range, even if the whole sum fits;
    then the sum is taken exactly and rounded once, before the division where
    it fits and after it where it does not."""
    try:
        return math.fsum(values) / len(values)
    except OverflowError:
        from fractions import Fraction  # imports decimal: kept off start-up

        total = sum(map(Fraction, values))
        try:
            return float(total) / len(values)
        except OverflowError:
            return float(total / len(values))


def direction_class(direction: tuple[str, str]) -> str:
    """Threshold class of a translation direction: into English or out of it."""
    return INTO_EN if direction[1] == "en" else OUT_OF_EN


@dataclass(frozen=True, slots=True, init=False)
class Candidate:
    """One sampled output with its reference-policy log-likelihood and rewards.

    ``logprob`` is the summed token log-probability of ``text`` under the
    reference policy.  ``rewards`` maps reward-model names to scores in
    [0, 1]; ``reward_agg`` caches their mean.  ``token_count`` is only needed
    for per-token likelihood normalization.
    """

    id: str
    text: str
    logprob: float
    rewards: Mapping[str, float]
    token_count: int | None = None
    reward_agg: float = field(init=False)

    def __init__(
        self,
        id: str,
        text: str,
        logprob: float,
        rewards: Mapping[str, float],
        token_count: int | None = None,
    ) -> None:
        if not id:
            raise ValidationError("candidate id must be a non-empty string")
        if not _is_number(logprob):
            raise ValidationError(f"candidate {id!r}: logprob must be a number")
        if not -_FLOAT_MAX <= logprob <= 0.0:
            raise ValidationError(
                f"candidate {id!r}: logprob must be finite and <= 0, got {logprob!r}"
            )
        reward_agg = aggregate_reward(rewards)
        if token_count is not None and not (
            isinstance(token_count, int)
            and type(token_count) is not bool
            and 1 <= token_count <= _FLOAT_MAX
        ):
            raise ValidationError(f"candidate {id!r}: token_count must be a positive integer")
        _set_id(self, id)
        _set_text(self, text)
        _set_logprob(self, logprob)
        _set_rewards(self, rewards)
        _set_token_count(self, token_count)
        _set_reward_agg(self, reward_agg)


# The slots' own setters, which ``Candidate.__init__`` calls past the frozen
# ``__setattr__`` without the attribute lookup of ``object.__setattr__``.
(
    _set_id,
    _set_text,
    _set_logprob,
    _set_rewards,
    _set_token_count,
    _set_reward_agg,
) = (Candidate.__dict__[f.name].__set__ for f in fields(Candidate))


_candidate_id = operator.attrgetter("id")


@dataclass(frozen=True)
class CandidateSet:
    """All candidates sampled for one source segment, held in candidate id order."""

    source_id: str
    source_text: str
    direction: tuple[str, str]
    candidates: tuple[Candidate, ...]

    def __post_init__(self) -> None:
        if not self.source_id:
            raise ValidationError("source_id must be a non-empty string")
        if (
            len(self.direction) != 2
            or not all(isinstance(t, str) and t for t in self.direction)
        ):
            raise ValidationError(
                f"source {self.source_id!r}: direction must be a (src, tgt) tag pair"
            )
        object.__setattr__(self, "direction", tuple(self.direction))
        candidates = tuple(self.candidates)
        if not candidates:
            raise ValidationError(f"source {self.source_id!r}: empty candidate list")
        # The types are checked before the sort, which mixed ids would fail
        # with a TypeError: ``Candidate.__init__`` leaves them to the readers,
        # which type-check every record, and to this check for library callers.
        index = {}
        for cand in candidates:
            cid = cand.id
            if not (type(cid) is str and type(cand.text) is str) and not (
                isinstance(cid, str) and isinstance(cand.text, str)
            ):
                raise ValidationError(
                    f"source {self.source_id!r}: candidate {cid!r} needs a string id "
                    "and a string text"
                )
            if cid in index:
                raise ValidationError(f"source {self.source_id!r}: duplicate candidate id {cid!r}")
            index[cid] = cand
        object.__setattr__(self, "candidates", tuple(sorted(candidates, key=_candidate_id)))
        object.__setattr__(self, "_index", index)

    def candidate(self, candidate_id: str) -> Candidate:
        try:
            return self._index[candidate_id]
        except KeyError:
            raise ValidationError(
                f"source {self.source_id!r}: unknown candidate id {candidate_id!r}"
            ) from None


@dataclass(frozen=True)
class PreferencePair:
    """A (chosen, rejected) training pair emitted by a selector."""

    source_id: str
    chosen_id: str
    rejected_id: str
    score: float
    method: str
    extras: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.chosen_id == self.rejected_id:
            raise ValidationError(
                f"source {self.source_id!r}: pair must use two distinct candidates"
            )
        if not self.method:
            raise ValidationError("pair method tag must be non-empty")
        if not -_FLOAT_MAX <= self.score <= _FLOAT_MAX:
            raise ValidationError(
                f"source {self.source_id!r}: non-finite pair score {self.score!r}"
            )


@dataclass(frozen=True)
class PreferenceDataset:
    """Selector output over many sources: pairs, SFT targets, provenance."""

    pairs: tuple[PreferencePair, ...]
    sft_targets: tuple[tuple[str, str], ...] = ()
    provenance: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "pairs", tuple(self.pairs))
        object.__setattr__(self, "sft_targets", tuple(tuple(t) for t in self.sft_targets))

    def validate_against(
        self, sets: Sequence[CandidateSet]
    ) -> list[tuple[Candidate, Candidate]]:
        """Check that every id resolves and pair labels respect rewards, and
        return the (chosen, rejected) candidates of each pair, in order.

        Utility-ranked methods (MBR) are exempt from the reward-ordering
        check because their labels follow utility rank, not reward.
        """
        by_source = {cset.source_id: cset for cset in sets}
        resolved = []
        for pair in self.pairs:
            if pair.source_id not in by_source:
                raise ValidationError(f"pair references unknown source {pair.source_id!r}")
            cset = by_source[pair.source_id]
            chosen = cset.candidate(pair.chosen_id)
            rejected = cset.candidate(pair.rejected_id)
            if pair.method not in UTILITY_RANKED_METHODS:
                if chosen.reward_agg < rejected.reward_agg:
                    raise ValidationError(
                        f"source {pair.source_id!r}: chosen candidate "
                        f"{pair.chosen_id!r} has lower aggregate reward than "
                        f"rejected {pair.rejected_id!r}"
                    )
            resolved.append((chosen, rejected))
        for source_id, candidate_id in self.sft_targets:
            if source_id not in by_source:
                raise ValidationError(f"sft target references unknown source {source_id!r}")
            by_source[source_id].candidate(candidate_id)
        return resolved


@dataclass(frozen=True)
class SelectionConfig:
    """Knobs shared by all selectors.

    ``eta`` maps a direction class (out of / into English) to the minimum
    reward gap used by the pair-gap selector.  ``gate_mode`` controls the
    optional likelihood gate of the confidence-reward selector: ``off``
    keeps only the positivity filter, ``log_space`` requires
    logp_j - logp_best + epsilon > 0, and ``probability`` applies the same
    test after exponentiation.
    """

    method: str = "cr_plus"
    k_trust: float = 50.0
    beta: float = 0.1
    eta: Mapping[str, float] = field(default_factory=lambda: dict(DEFAULT_ETA))
    gate_mode: str = "off"
    epsilon: float = 0.0
    rso_samples: int = 8
    seed: int = 0
    logprob_norm: str = "sum"

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValidationError(
                f"unknown method {self.method!r}; valid tags: {', '.join(METHODS)}"
            )
        if not is_finite_number(self.k_trust) or self.k_trust <= 0:
            raise ValidationError(f"k_trust must be finite and > 0, got {self.k_trust!r}")
        if not is_finite_number(self.beta) or self.beta <= 0:
            raise ValidationError(f"beta must be finite and > 0, got {self.beta!r}")
        if not isinstance(self.eta, Mapping):
            raise ValidationError(f"eta must map direction classes to gaps, got {self.eta!r}")
        for key, value in self.eta.items():
            if not is_finite_number(value) or not 0.0 < value < 1.0:
                raise ValidationError(f"eta[{key!r}] must lie in (0, 1), got {value!r}")
        if self.gate_mode not in GATE_MODES:
            raise ValidationError(
                f"unknown gate mode {self.gate_mode!r}; valid modes: {', '.join(GATE_MODES)}"
            )
        if not is_finite_number(self.epsilon) or self.epsilon < 0:
            raise ValidationError(f"epsilon must be finite and >= 0, got {self.epsilon!r}")
        if not is_integer(self.rso_samples) or not 2 <= self.rso_samples <= MAX_RSO_SAMPLES:
            raise ValidationError(
                f"rso_samples must be an integer in [2, {MAX_RSO_SAMPLES}], "
                f"got {self.rso_samples!r}"
            )
        if not is_integer(self.seed) or self.seed < 0:
            raise ValidationError(f"seed must be a non-negative integer, got {self.seed!r}")
        if self.logprob_norm not in LOGPROB_NORMS:
            raise ValidationError(
                f"unknown logprob_norm {self.logprob_norm!r}; "
                f"valid modes: {', '.join(LOGPROB_NORMS)}"
            )


def effective_logprob(candidate: Candidate, config: SelectionConfig) -> float:
    """Candidate log-likelihood under the configured normalization."""
    if config.logprob_norm == "sum":
        return float(candidate.logprob)
    if candidate.token_count is None:
        raise ValidationError(
            f"candidate {candidate.id!r}: per-token normalization requires token_count"
        )
    return float(candidate.logprob) / candidate.token_count
