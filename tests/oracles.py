"""Test oracles: plainer, one-item-at-a-time restatements of crpo's kernels.

- The scalar losses and the sequential gradient scatter restate the objective
  one pair at a time, or with one ``np.add.at`` per term, so the tests can
  check ``crpo.losses.batch_loss_and_grad`` and ``crpo.toylab.train_dpo``.
- ``cr_plus`` and ``cr_times`` score one (winner, loser) pair, the reference
  for the CR selectors.
- ``builtin_utility`` scores one (hypothesis, reference) pair from
  ``Counter`` n-gram profiles; ``crpo.scoring.utility_matrix_for_set`` must
  equal it on every entry, bit for bit.
- ``emit_candidates`` writes candidate sets back to JSONL, the inverse of
  ``crpo.dataio.ingest_candidates``.
- ``rso_subsample`` walks RSO's proposals one at a time over the same draws
  in blocks (one ``rng.integers(K, size=t)``, then one ``rng.random(t)``,
  per block of t); ``crpo.selectors.rso_subsample``, which takes each block
  with array operations, must match its picks, counts and the generator
  state it leaves.
- ``random_pair_outcome`` builds the random-pair control's pair by hand; the
  ``crpo.selectors`` version, labeled through ``_Pool.by_reward``, must match
  it except for the ``confidence_gap`` extra it adds.
- ``Candidate`` is the candidate record as a plain frozen, slotted dataclass
  whose ``__post_init__`` runs the checks one by one, with its own
  ``aggregate_reward``; ``crpo.core.Candidate`` must accept the same values
  and reject the others with the same message.
- ``ingest_candidates`` and ``load_pairs`` are the plain JSONL readers: one
  ``json.loads`` per line through two generator layers, isinstance field
  checks, the oracle ``Candidate``, the cyclic collector left running.  They
  share crpo's field tables, and the ``crpo.dataio`` readers must return
  equal results or raise the same ``ValidationError`` message on every file.
  The ids and method tags, which crpo writes back out, may not hold a lone
  surrogate; texts may.
- ``ArrayPool`` and ``array_select`` are the reward and confidence selectors
  on numpy arrays (``np.argmax``, boolean masks, a stable ``np.argsort``), as
  ``crpo.selectors`` ran them before it moved to Python lists; the list
  selectors must give the same outcome, with every score and extra equal bit
  for bit.
- ``exact_mean`` sums exactly with ``Fraction``, rounds the sum once with
  ``float`` and divides, or rounds the quotient where that sum does not
  fit; ``mbr_scores`` takes it of every row, and ``array_mbr`` ranks a pool
  by those expected utilities on arrays (the ``np.ix_`` permutation into id
  order, a stable ``np.argsort``).  ``linspace`` and ``histogram`` are the
  numpy calls of the stats report, as ``crpo.dataio`` ran them before it
  moved to Python floats.  The crpo versions must equal them bit for bit.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

from crpo.core import (
    CandidateSet,
    PreferenceDataset,
    PreferencePair,
    SelectionConfig,
    ValidationError,
    direction_class,
    effective_logprob,
)
from crpo.dataio import (
    _CANDIDATE_FIELDS,
    _HEADER_FIELDS,
    _PAIR_FIELDS,
    _SFT_FIELDS,
    parse_direction,
)
from crpo.losses import LossConfig, _sigmoid, log_softmax
from crpo.scoring import _BETA_SQ, _NGRAM_ORDER
from crpo.selectors import RSO_MAX_DRAW_FACTOR, RsoSample, SelectionOutcome


_FLOAT_MAX = sys.float_info.max


def _is_number(value: object) -> bool:
    """True for an int or a float, subclasses included, but not for a bool.
    The exact-type tests settle the common case without an isinstance call."""
    kind = type(value)
    return kind is float or kind is int or (isinstance(value, (int, float)) and kind is not bool)


def aggregate_reward(rewards: Mapping[str, float]) -> float:
    """Unweighted mean of the per-model reward scores for one candidate."""
    if not rewards:
        raise ValidationError("no reward sources")
    for name, value in rewards.items():
        if not (_is_number(value) and 0.0 <= value <= 1.0):
            raise ValidationError(f"reward out of range: {name}={value!r}")
    return math.fsum(rewards.values()) / len(rewards)


@dataclass(frozen=True, slots=True)
class Candidate:
    """One sampled output with its reference-policy log-likelihood and rewards."""

    id: str
    text: str
    logprob: float
    rewards: Mapping[str, float]
    token_count: int | None = None
    reward_agg: float = field(init=False)

    def __post_init__(self) -> None:
        if not self.id:
            raise ValidationError("candidate id must be a non-empty string")
        logprob = self.logprob
        if not _is_number(logprob):
            raise ValidationError(f"candidate {self.id!r}: logprob must be a number")
        if not -_FLOAT_MAX <= logprob <= 0.0:
            raise ValidationError(
                f"candidate {self.id!r}: logprob must be finite and <= 0, got {logprob!r}"
            )
        object.__setattr__(self, "reward_agg", aggregate_reward(self.rewards))
        token_count = self.token_count
        if token_count is not None and not (
            isinstance(token_count, int)
            and type(token_count) is not bool
            and 1 <= token_count <= _FLOAT_MAX
        ):
            raise ValidationError(f"candidate {self.id!r}: token_count must be a positive integer")


def softplus(x: float) -> float:
    """Numerically stable log(1 + exp(x))."""
    return float(np.logaddexp(0.0, x))


@dataclass(frozen=True)
class PairLogits:
    """Policy and reference log-likelihoods of one preference pair."""

    logp_theta_w: float
    logp_theta_l: float
    logp_ref_w: float
    logp_ref_l: float
    beta: float = 0.1

    def __post_init__(self) -> None:
        for name in ("logp_theta_w", "logp_theta_l", "logp_ref_w", "logp_ref_l"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"non-finite pair logit {name}")
        if not math.isfinite(self.beta) or self.beta <= 0:
            raise ValidationError(f"beta must be finite and > 0, got {self.beta!r}")


def dpo_loss(pair: PairLogits) -> float:
    """-log sigmoid(beta * [(logp_theta_w - logp_ref_w) - (logp_theta_l - logp_ref_l)])."""
    margin = (pair.logp_theta_w - pair.logp_ref_w) - (pair.logp_theta_l - pair.logp_ref_l)
    return softplus(-pair.beta * margin)


def sft_term(logp_theta_w: float) -> float:
    """Negative log-likelihood of the chosen candidate."""
    if not math.isfinite(logp_theta_w) or logp_theta_w > 0:
        raise ValidationError(
            f"chosen log-likelihood must be finite and <= 0, got {logp_theta_w!r}"
        )
    return -logp_theta_w


def delta_loss(
    before_w: float, before_l: float, after_w: float, after_l: float
) -> float:
    """Change of the pair's log-likelihood margin between two policy snapshots.

    (after_w - after_l) + (before_l - before_w): how much the (winner minus
    loser) margin grew going from the "before" policy to the "after" policy.
    Normalizing constants shared by the two sentences cancel.
    """
    for name, value in (
        ("before_w", before_w),
        ("before_l", before_l),
        ("after_w", after_w),
        ("after_l", after_l),
    ):
        if not math.isfinite(value):
            raise ValidationError(f"non-finite log-likelihood {name}={value!r}")
    return (after_w - after_l) + (before_l - before_w)



def sequential_scatter_loss_and_grad(
    logits: np.ndarray, ref_logp: np.ndarray, pairs, cfg: LossConfig
) -> tuple[float, np.ndarray]:
    """The batch objective with one np.add.at call per pairwise gradient term,
    in the order winner, loser, SFT winner, then each row's SFT row term as
    (pairs in the row) x (the row's probabilities)."""
    s, w, l = np.asarray(pairs, dtype=np.int64).T
    logp = log_softmax(logits)
    z = cfg.beta * ((logp[s, w] - ref_logp[s, w]) - (logp[s, l] - ref_logp[s, l]))
    losses = np.logaddexp(0.0, -z) - logp[s, w]
    dloss_dz = -_sigmoid(-z)
    expected = np.zeros_like(logits)
    np.add.at(expected, (s, w), dloss_dz * cfg.beta)
    np.add.at(expected, (s, l), -dloss_dz * cfg.beta)
    np.add.at(expected, (s, w), -1.0)
    expected += np.bincount(s, minlength=len(logits))[:, None] * np.exp(logp)
    return float(losses.sum() / len(pairs)), expected / len(pairs)


@dataclass(frozen=True)
class PairScoreInput:
    """Rewards and reference log-likelihoods for one (winner, loser) pair."""

    r_w: float
    r_l: float
    logp_w: float
    logp_l: float

    def __post_init__(self) -> None:
        for name in ("r_w", "r_l", "logp_w", "logp_l"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValidationError(f"non-finite pair score input {name}={value!r}")
        for name in ("r_w", "r_l"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValidationError(f"reward out of range: {name}={value!r}")
        for name in ("logp_w", "logp_l"):
            value = getattr(self, name)
            if value > 0.0:
                raise ValidationError(f"log-likelihood must be <= 0: {name}={value!r}")


def cr_plus(pair: PairScoreInput, k_trust: float) -> float:
    """Additive confidence-reward score.

    k_trust * (r_w - r_l) + (logp_l - logp_w): large when the reward gap is
    wide and the reference policy is more confident in the loser.  k_trust
    weighs how much the rewards are trusted against the likelihood term.
    """
    if not math.isfinite(k_trust) or k_trust < 0:
        raise ValidationError(f"k_trust must be finite and >= 0, got {k_trust!r}")
    return k_trust * (pair.r_w - pair.r_l) + (pair.logp_l - pair.logp_w)


def cr_times(pair: PairScoreInput) -> float:
    """Multiplicative confidence-reward score: (r_w - r_l) * (logp_l - logp_w).

    Positive exactly when the reward ordering and the reference-confidence
    ordering disagree (loser more likely than winner, or winner worse but
    less likely).
    """
    return (pair.r_w - pair.r_l) * (pair.logp_l - pair.logp_w)


def _char_ngrams(text: str, n: int) -> Counter:
    return Counter(text[i : i + n] for i in range(len(text) - n + 1))


@dataclass(frozen=True)
class _NgramProfile:
    """A text's character n-gram counts of orders 1.._NGRAM_ORDER, whitespace
    removed, with the number of n-grams of each order."""

    grams: tuple[Counter, ...]
    totals: tuple[int, ...]

    @classmethod
    def of(cls, text: str) -> _NgramProfile:
        stripped = "".join(text.split())
        grams = tuple(_char_ngrams(stripped, n) for n in range(1, _NGRAM_ORDER + 1))
        return cls(grams, tuple(sum(counts.values()) for counts in grams))


def _common_counts(a: _NgramProfile, b: _NgramProfile) -> list[int]:
    """Clipped n-gram matches per order; symmetric in ``a`` and ``b``."""
    common = []
    for small, large in zip(a.grams, b.grams):
        if len(small) > len(large):
            small, large = large, small
        # A plain loop: about 3x faster than sum() over a generator here.
        matches = 0
        for gram, count in small.items():
            other = large.get(gram)
            if other is not None:
                matches += count if count < other else other
        common.append(matches)
    return common


def _fscore(
    common: Sequence[int], hyp_totals: Sequence[int], ref_totals: Sequence[int]
) -> float:
    """F-beta of the order-averaged n-gram precision and recall.

    Orders that one of the texts is too short for are skipped; two empty
    texts score 1.0.
    """
    if hyp_totals[0] == 0 and ref_totals[0] == 0:
        return 1.0
    precision_sum = 0.0
    recall_sum = 0.0
    orders = 0
    for matches, hyp_total, ref_total in zip(common, hyp_totals, ref_totals):
        if hyp_total == 0 or ref_total == 0:
            continue
        precision_sum += matches / hyp_total
        recall_sum += matches / ref_total
        orders += 1
    if orders == 0:
        return 0.0
    precision = precision_sum / orders
    recall = recall_sum / orders
    if precision + recall == 0.0:
        return 0.0
    return (1 + _BETA_SQ) * precision * recall / (_BETA_SQ * precision + recall)


def builtin_utility(hypothesis: str, reference: str) -> float:
    """Character n-gram F-score of ``hypothesis`` against ``reference``.

    Whitespace is removed before extracting n-grams.  Precision and recall
    are averaged over the n-gram orders that actually occur in both strings
    (shorter strings simply contribute fewer orders), so identical strings
    always score 1.0.  Two empty strings also score 1.0; an empty string
    against a non-empty one scores 0.0.
    """
    hyp = _NgramProfile.of(hypothesis)
    ref = _NgramProfile.of(reference)
    return _fscore(_common_counts(hyp, ref), hyp.totals, ref.totals)


def format_direction(direction: tuple[str, str]) -> str:
    return f"{direction[0]}-{direction[1]}"


def emit_candidates(sets: Sequence[CandidateSet], path: str | Path) -> None:
    """Write candidate sets back to JSONL (inverse of ``ingest_candidates``)."""
    with open(path, "w", encoding="utf-8") as handle:
        for cset in sets:
            for cand in cset.candidates:
                record = {
                    "source_id": cset.source_id,
                    "source_text": cset.source_text,
                    "direction": format_direction(cset.direction),
                    "candidate_id": cand.id,
                    "text": cand.text,
                    "logprob": cand.logprob,
                    "rewards": dict(cand.rewards),
                }
                if cand.token_count is not None:
                    record["token_count"] = cand.token_count
                handle.write(json.dumps(record, ensure_ascii=False) + "\n")


def random_pair_outcome(
    cset: CandidateSet, rng: np.random.Generator
) -> SelectionOutcome:
    """Control baseline: a uniformly random candidate pair, labeled by reward."""
    k = len(cset.candidates)
    if k < 2:
        raise ValidationError(
            f"source {cset.source_id!r}: control needs at least 2 candidates"
        )
    i, j = rng.choice(k, size=2, replace=False).tolist()
    a, b = cset.candidates[i], cset.candidates[j]
    if a.reward_agg == b.reward_agg:
        return SelectionOutcome(skipped_reason="zero reward gap")
    chosen, rejected = (a, b) if a.reward_agg > b.reward_agg else (b, a)
    pair = PreferencePair(
        source_id=cset.source_id,
        chosen_id=chosen.id,
        rejected_id=rejected.id,
        score=chosen.reward_agg - rejected.reward_agg,
        method="random_pair",
        extras={"reward_gap": chosen.reward_agg - rejected.reward_agg},
    )
    return SelectionOutcome(pairs=(pair,))


def rso_subsample(
    acceptance_probs: np.ndarray,
    n_samples: int,
    rng: np.random.Generator,
    max_draw_factor: int = RSO_MAX_DRAW_FACTOR,
) -> RsoSample:
    """RSO one proposal at a time over the blocks of ``crpo.selectors``:
    each block of t proposals draws ``rng.integers(K, size=t)`` and then
    ``rng.random(t)``, t starting at 2 * n_samples * K / sum(probs) rounded
    up (at least 1, at most the budget, the budget when the sum is 0) and
    doubling, capped by the budget left.  A proposal is accepted if its
    uniform is below its acceptance probability; the walk stops at
    ``n_samples`` acceptances or ``max_draw_factor * n_samples`` proposals,
    then back-fills with the unaccepted candidates by decreasing
    probability, cycling through all of them if that runs dry."""
    probs = np.asarray(acceptance_probs, dtype=np.float64)
    k = len(probs)
    proposals = np.zeros(k, dtype=np.int64)
    acceptances = np.zeros(k, dtype=np.int64)
    picks: list[int] = []
    budget = max_draw_factor * n_samples
    total = float(probs.sum())
    if total == 0.0:
        block = budget
    else:
        block = max(1, math.ceil(min(budget, 2 * n_samples * k / total)))
    done = 0
    while done < budget and len(picks) < n_samples:
        t = min(block, budget - done)
        block *= 2
        for j, u in zip(rng.integers(k, size=t).tolist(), rng.random(t).tolist()):
            if len(picks) == n_samples:
                break
            proposals[j] += 1
            if u < probs[j]:
                acceptances[j] += 1
                picks.append(j)
        done += t
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


def _lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """Numbered lines of a UTF-8 text file, split on ``\\n`` only (not on a
    lone CR, which is JSON whitespace, nor on U+2028 or U+0085, which
    ``json.dumps`` writes unescaped in ids).  Bad bytes decode to lone
    surrogates, so the line that holds one is named."""
    with open(path, encoding="utf-8", errors="surrogateescape", newline="\n") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    raise ValidationError(f"{path}:{lineno}: not valid UTF-8") from None
            yield lineno, line


def _json_object(line: str, path: str | Path, lineno: int) -> dict:
    # ValueError is JSONDecodeError or an int of over 4300 digits.
    try:
        record = json.loads(line)
    except (ValueError, RecursionError) as err:
        raise ValidationError(f"{path}:{lineno}: invalid JSON: {err}") from None
    if not isinstance(record, dict):
        raise ValidationError(f"{path}:{lineno}: record must be a JSON object")
    return record


def _read_json_lines(path: str | Path) -> Iterator[tuple[int, dict]]:
    """``(line, header)``, then ``(line, record)`` for every other non-blank
    line.  The header is the object of a ``{"_meta": {...}}`` first record,
    or ``(0, {})`` without one; ``_meta`` anywhere else is an error."""
    header_due = True
    for lineno, line in _lines(path):
        if line.isspace():
            continue
        record = _json_object(line, path, lineno)
        if header_due:
            header_due = False
            if record.keys() == {"_meta"}:
                yield lineno, _fields(record, _HEADER_FIELDS, path, lineno)[0]
                continue
            yield 0, {}
        if "_meta" in record:
            raise ValidationError(
                f"{path}:{lineno}: a _meta header must be the first record "
                "and hold no other field"
            )
        yield lineno, record
    if header_due:
        yield 0, {}


def _fields(record: dict, fields: tuple, path: str | Path, lineno: int) -> list:
    """The values of ``fields`` in ``record``, checked against the table;
    an absent optional field reads as None."""
    values = []
    for key, kind, missing, wrong in fields:
        value = record.get(key)
        if isinstance(value, kind) and value is not True and value is not False:
            values.append(value)
        elif value is None and missing is None:
            values.append(None)
        else:
            raise ValidationError(f"{path}:{lineno}: {wrong if value is not None else missing}")
    return values


def _check_written(record: dict, keys: Sequence[str], path: str | Path, lineno: int) -> None:
    """A field that crpo writes back out may not hold a lone surrogate (a code
    point in U+D800..U+DFFF), which a JSON escape can spell but UTF-8 cannot
    encode."""
    for key in keys:
        if any(0xD800 <= ord(ch) <= 0xDFFF for ch in record[key]):
            raise ValidationError(
                f"{path}:{lineno}: {key} holds a lone surrogate, which UTF-8 cannot encode"
            )


def ingest_candidates(path: str | Path) -> list[CandidateSet]:
    """Read and validate a candidate file, grouping records by source.

    Records for one source need not be contiguous or in any order: the
    sets come in source id order and each holds its candidates in id order.
    Every malformed record is reported with its line number, and a
    malformed source with the line of its first record.
    """
    # source_id -> (source_text, direction, candidates by id, first line)
    groups: dict[str, tuple[str, tuple[str, str], dict[str, Candidate], int]] = {}
    records = _read_json_lines(path)
    next(records)  # the _meta header, which ingest does not use
    for lineno, record in records:
        source_id, source_text, direction_tag, *fields = _fields(
            record, _CANDIDATE_FIELDS, path, lineno
        )
        _check_written(record, ("source_id", "candidate_id"), path, lineno)
        try:
            direction = parse_direction(direction_tag)
            candidate = Candidate(*fields)
        except ValidationError as err:
            raise ValidationError(f"{path}:{lineno}: {err}") from None
        group = groups.get(source_id)
        if group is None:
            group = groups[source_id] = (source_text, direction, {}, lineno)
        elif group[0] != source_text or group[1] != direction:
            raise ValidationError(
                f"{path}:{lineno}: source {source_id!r} has inconsistent "
                "source_text or direction across records"
            )
        if candidate.id in group[2]:
            raise ValidationError(
                f"{path}:{lineno}: duplicate candidate id {candidate.id!r} "
                f"for source {source_id!r}"
            )
        group[2][candidate.id] = candidate
    sets = []
    for source_id, (text, direction, candidates, lineno) in groups.items():
        try:
            sets.append(CandidateSet(source_id, text, direction, tuple(candidates.values())))
        except ValidationError as err:
            raise ValidationError(f"{path}:{lineno}: {err}") from None
    return sorted(sets, key=lambda cset: cset.source_id)


def load_pairs(path: str | Path) -> PreferenceDataset:
    """Read a pair file back into a PreferenceDataset."""
    pairs: list[PreferencePair] = []
    sft_targets: list[tuple[str, str]] = []
    records = _read_json_lines(path)
    _, provenance = next(records)
    for lineno, record in records:
        if "sft_target" in record:
            sft_targets.append(tuple(_fields(record, _SFT_FIELDS, path, lineno)))
            _check_written(record, ("source_id", "sft_target"), path, lineno)
            continue
        *fields, extras = _fields(record, _PAIR_FIELDS, path, lineno)
        _check_written(
            record, ("source_id", "chosen_id", "rejected_id", "method"), path, lineno
        )
        try:
            pairs.append(PreferencePair(*fields, extras=extras or {}))
        except ValidationError as err:
            raise ValidationError(f"{path}:{lineno}: {err}") from None
    return PreferenceDataset(
        pairs=tuple(pairs), sft_targets=tuple(sft_targets), provenance=provenance
    )


@dataclass(frozen=True)
class ArrayPool:
    """One candidate set with its aggregate rewards and effective
    log-likelihoods, both indexed like ``cset.candidates`` (id order), and
    ``best``: the index of the reward argmax (the smallest id on ties), which
    is the chosen side of every reward-labeled selector."""

    cset: CandidateSet
    reward: np.ndarray
    logp: np.ndarray
    best: int

    @classmethod
    def of(cls, cset: CandidateSet, config: SelectionConfig) -> ArrayPool:
        reward = np.array([c.reward_agg for c in cset.candidates], dtype=np.float64)
        logp = np.array([effective_logprob(c, config) for c in cset.candidates])
        return cls(cset, reward, logp, int(np.argmax(reward)))

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
        gap = self.cset.candidates[a].reward_agg - self.cset.candidates[b].reward_agg
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


def _likelihood_gate(pool: ArrayPool, config: SelectionConfig) -> np.ndarray | None:
    """Competitors that pass the likelihood gate, or None when it is off."""
    if config.gate_mode == "off":
        return None
    if config.gate_mode == "log_space":
        likelihood = pool.logp
    else:
        likelihood = np.array([math.exp(lp) for lp in pool.logp])
    return likelihood - likelihood[pool.best] + config.epsilon > 0.0


def _crpo(pool: ArrayPool, config: SelectionConfig) -> SelectionOutcome:
    gap = pool.reward[pool.best] - pool.reward
    logp_gap = pool.logp - pool.logp[pool.best]
    if config.method == "cr_plus":
        scores = config.k_trust * gap + logp_gap
    else:
        scores = gap * logp_gap
    return pool.select(
        config.method, scores, "no positive CR score", _likelihood_gate(pool, config)
    )


def _rsdpo(pool: ArrayPool, config: SelectionConfig) -> SelectionOutcome:
    klass = direction_class(pool.cset.direction)
    if klass not in config.eta:
        raise ValidationError(
            f"source {pool.cset.source_id!r}: no eta threshold for direction class {klass!r}"
        )
    eta = config.eta[klass]
    # Keeps (chosen i, rejected j) with r_i - r_j > eta > 0, in id order.
    wide = pool.reward[:, None] - pool.reward[None, :] > eta
    pairs = [pool.by_reward(i, j, "rs_dpo") for i, j in zip(*np.nonzero(wide))]
    if not pairs:
        return SelectionOutcome(skipped_reason="no reward gap above eta")
    return SelectionOutcome(pairs=tuple(pairs))


def _reward_extremes(pool: ArrayPool, config: SelectionConfig) -> SelectionOutcome:
    n = len(pool.reward)
    if config.method == "top_scores":
        n = min(config.rso_samples, n)
    kept = np.argsort(-pool.reward, kind="stable")[:n]
    worst = np.zeros(len(pool.reward), dtype=bool)
    worst[kept[np.argmin(pool.reward[kept])]] = True
    return pool.select(
        config.method, pool.reward[pool.best] - pool.reward, "zero reward gap", worst
    )


def _minmax_p(pool: ArrayPool, config: SelectionConfig) -> SelectionOutcome:
    return pool.select(
        "minmax_p", pool.logp - pool.logp[pool.best], "no positive confidence gap"
    )


def _minmax_po(pool: ArrayPool, config: SelectionConfig) -> SelectionOutcome:
    most, least = int(np.argmax(pool.logp)), int(np.argmin(pool.logp))
    if most == least:
        return SelectionOutcome(skipped_reason="degenerate likelihood range")
    pair = pool.by_reward(most, least, "minmax_po")
    if pair is None:
        return SelectionOutcome(skipped_reason="zero reward gap")
    return SelectionOutcome(pairs=(pair,))


_ARRAY_SELECTORS = {
    "cr_plus": _crpo,
    "cr_times": _crpo,
    "rs_dpo": _rsdpo,
    "top_scores": _reward_extremes,
    "minmax_r": _reward_extremes,
    "minmax_p": _minmax_p,
    "minmax_po": _minmax_po,
}

# The methods ``array_select`` runs: every selector that reads only rewards
# and log-likelihoods, and needs no random draws or utilities.
ARRAY_METHODS = tuple(_ARRAY_SELECTORS)


def array_select(cset: CandidateSet, config: SelectionConfig) -> SelectionOutcome:
    """``config.method``'s outcome on one set of two or more candidates, from
    the array selectors."""
    return _ARRAY_SELECTORS[config.method](ArrayPool.of(cset, config), config)


def exact_mean(values: Sequence[float]) -> float:
    """The exact mean of finite values, rounded as crpo rounds it: the exact
    sum rounded once / the count where that rounded sum fits, else the exact
    mean rounded once."""
    total = sum(map(Fraction, values))
    try:
        return float(total) / len(values)
    except OverflowError:
        return float(total / len(values))


def mbr_scores(values: Sequence[Sequence[float]]) -> list[float]:
    """Expected utility of every candidate, self-utility excluded: the
    exact mean of its row's off-diagonal entries."""
    return [exact_mean([v for m, v in enumerate(row) if m != j]) for j, row in enumerate(values)]


def array_mbr(
    cset: CandidateSet, config: SelectionConfig, matrix_ids: Sequence[str], values: np.ndarray
) -> SelectionOutcome:
    """``config.method``'s MBR outcome on ``cset`` for a utility matrix over
    ``matrix_ids`` (the set's ids in any order)."""
    order = sorted(range(len(matrix_ids)), key=matrix_ids.__getitem__)
    permuted = np.asarray(values, dtype=np.float64)[np.ix_(order, order)]
    score = mbr_scores(permuted.tolist())
    ranked = [int(j) for j in np.argsort(-np.array(score), kind="stable")]
    pool = ArrayPool.of(cset, config)

    def mbr_pair(chosen: int, rejected: int) -> PreferencePair:
        return pool.pair(
            chosen,
            rejected,
            score[chosen] - score[rejected],
            config.method,
            extra={"mbr_chosen": score[chosen], "mbr_rejected": score[rejected]},
        )

    best, worst = ranked[0], ranked[-1]
    if config.method == "mbr_bw":
        return SelectionOutcome(pairs=(mbr_pair(best, worst),))
    middle = ranked[math.ceil(len(ranked) / 2) - 1]
    return SelectionOutcome(
        pairs=(mbr_pair(best, middle), mbr_pair(best, worst), mbr_pair(middle, worst))
    )


def linspace(lo: float, hi: float, num: int) -> list[float]:
    with np.errstate(over="ignore"):  # the last edge, which is set to hi
        return np.linspace(lo, hi, num).tolist()


def histogram(values: Sequence[float], edges: Sequence[float]) -> list[int]:
    return np.histogram(values, bins=edges)[0].tolist()
