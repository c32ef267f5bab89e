"""An exactly solvable toy preference-optimization world.

Each source has a small discrete output space with a known reward table and
reference logits, so the optimal tilted policy, expected rewards, and full
training dynamics can be computed in closed form and checked numerically.
Candidate sampling, selection, and DPO training mirror the real pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .core import (
    METHODS,
    Candidate,
    CandidateSet,
    PreferenceDataset,
    PreferencePair,
    SelectionConfig,
    ValidationError,
)
from .losses import LossConfig, batch_loss_and_grad, log_softmax
from .selectors import SelectionOutcome, run_selector

# Method tags the comparison harness accepts: every selector plus a
# random-pair control baseline.
COMPARE_METHODS = METHODS + ("random_pair",)

# Largest world table (sources x outputs) ``make_world`` builds.  Training
# copies the table every step, so the bound keeps sizes taken from the command
# line from exhausting memory; it is about a hundred times the benchmark world.
MAX_WORLD_CELLS = 1_000_000

# Largest number of candidates a comparison samples (seeds x sources x K).
# Each one is a ``Candidate`` object of about 0.6 KB.  Only one seed's
# candidates are kept at a time, but the bound also caps the sampling and
# selection work that sizes taken from the command line can ask for; it is
# about forty times the benchmark's.
MAX_COMPARE_CANDIDATES = 1_000_000


def source_label(index: int) -> str:
    return f"s{index:04d}"


def source_index(source_id: str) -> int:
    if not source_id.startswith("s"):
        raise ValidationError(f"not a toy source id: {source_id!r}")
    try:
        return int(source_id[1:])
    except ValueError:
        raise ValidationError(f"not a toy source id: {source_id!r}") from None


def output_text(index: int) -> str:
    return f"y{index}"


def output_index(text: str) -> int:
    if not text.startswith("y"):
        raise ValidationError(f"not a toy output label: {text!r}")
    try:
        return int(text[1:])
    except ValueError:
        raise ValidationError(f"not a toy output label: {text!r}") from None


@dataclass(frozen=True)
class ToyWorld:
    """Ground truth of the lab: reward table, reference logits, seed."""

    reward_table: np.ndarray
    ref_logits: np.ndarray
    seed: int = 0

    def __post_init__(self) -> None:
        rewards = np.asarray(self.reward_table, dtype=np.float64).copy()
        logits = np.asarray(self.ref_logits, dtype=np.float64).copy()
        if rewards.ndim != 2 or rewards.shape != logits.shape:
            raise ValidationError(
                f"reward table and reference logits must share a 2-D shape, "
                f"got {rewards.shape} and {logits.shape}"
            )
        if not np.all(np.isfinite(rewards)) or rewards.min() < 0 or rewards.max() > 1:
            raise ValidationError("reward table must be finite and lie in [0, 1]")
        if not np.all(np.isfinite(logits)):
            raise ValidationError("reference logits must be finite")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ValidationError(f"seed must be a non-negative integer, got {self.seed!r}")
        rewards.setflags(write=False)
        logits.setflags(write=False)
        object.__setattr__(self, "reward_table", rewards)
        object.__setattr__(self, "ref_logits", logits)

    @property
    def n_sources(self) -> int:
        return self.reward_table.shape[0]

    @property
    def n_outputs(self) -> int:
        return self.reward_table.shape[1]


@dataclass(frozen=True)
class ToyPolicy:
    """Tabular softmax policy: one logit row per source."""

    logits: np.ndarray

    def __post_init__(self) -> None:
        logits = np.asarray(self.logits, dtype=np.float64).copy()
        if logits.ndim != 2:
            raise ValidationError(f"policy logits must be 2-D, got shape {logits.shape}")
        if not np.all(np.isfinite(logits)):
            raise ValidationError("policy logits must be finite")
        logits.setflags(write=False)
        object.__setattr__(self, "logits", logits)

    def log_probs(self) -> np.ndarray:
        return log_softmax(self.logits)

    def probs(self) -> np.ndarray:
        return np.exp(self.log_probs())


def make_world(
    n_sources: int = 50,
    n_outputs: int = 32,
    seed: int = 0,
    reward_logit_corr: float = 0.5,
    logit_scale: float = 1.0,
) -> ToyWorld:
    """Random world with rewards i.i.d. uniform on [0, 1].

    ``reward_logit_corr`` mixes standardized rewards into the reference
    logits, modeling a reference policy that already prefers high-reward
    outputs (0 = independent, 1 = fully reward-driven).
    """
    if n_sources < 1 or n_outputs < 2:
        raise ValidationError("world needs n_sources >= 1 and n_outputs >= 2")
    if n_sources * n_outputs > MAX_WORLD_CELLS:
        raise ValidationError(
            f"world of {n_sources} sources x {n_outputs} outputs exceeds "
            f"{MAX_WORLD_CELLS} cells"
        )
    if not 0.0 <= reward_logit_corr <= 1.0:
        raise ValidationError(
            f"reward_logit_corr must lie in [0, 1], got {reward_logit_corr!r}"
        )
    if not math.isfinite(logit_scale) or logit_scale <= 0:
        raise ValidationError(f"logit_scale must be finite and > 0, got {logit_scale!r}")
    if not isinstance(seed, int) or seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed!r}")
    rng = np.random.default_rng(seed)
    rewards = rng.uniform(size=(n_sources, n_outputs))
    noise = rng.standard_normal((n_sources, n_outputs))
    standardized = (rewards - 0.5) * math.sqrt(12.0)
    rho = reward_logit_corr
    logits = logit_scale * (
        math.sqrt(1.0 - rho * rho) * noise + rho * standardized
    )
    return ToyWorld(reward_table=rewards, ref_logits=logits, seed=seed)


def nucleus_probs(probs: np.ndarray, top_p: float) -> np.ndarray:
    """Zero out everything outside the smallest prefix of the probability-
    sorted outputs whose cumulative mass reaches ``top_p``, renormalized."""
    if not 0.0 < top_p <= 1.0:
        raise ValidationError(f"top_p must lie in (0, 1], got {top_p!r}")
    probs = np.asarray(probs, dtype=np.float64)
    if not np.all(np.isfinite(probs)) or probs.sum() <= 0:
        raise ValidationError("degenerate distribution after truncation")
    order = np.argsort(-probs, kind="stable")
    cumulative = np.cumsum(probs[order])
    cutoff = int(np.searchsorted(cumulative, top_p)) + 1
    kept = order[:cutoff]
    out = np.zeros_like(probs)
    out[kept] = probs[kept]
    total = out.sum()
    if total <= 0 or not np.isfinite(total):
        raise ValidationError("degenerate distribution after truncation")
    return out / total


def sample_candidates(
    world: ToyWorld,
    source: int,
    k: int = 64,
    temperature: float = 0.9,
    top_p: float = 0.9,
    rng: np.random.Generator | None = None,
) -> CandidateSet:
    """Draw K candidates from the temperature-scaled, nucleus-truncated
    reference distribution of one source.

    Candidate ``logprob`` fields hold the untruncated reference
    log-probability (the policy's true confidence), not the sampler's.
    """
    if not 0 <= source < world.n_sources:
        raise ValidationError(f"source index {source} out of range")
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    if not math.isfinite(temperature) or temperature <= 0:
        raise ValidationError(f"temperature must be finite and > 0, got {temperature!r}")
    if rng is None:
        rng = np.random.default_rng([world.seed, source])
    row = world.ref_logits[source]
    scaled = row / temperature
    shifted = scaled - scaled.max()
    sampler = np.exp(shifted)
    sampler = nucleus_probs(sampler / sampler.sum(), top_p)
    ref_logp = log_softmax(row[None, :])[0]
    draws = rng.choice(world.n_outputs, size=k, p=sampler)
    candidates = []
    for j, m in enumerate(draws.tolist()):
        candidates.append(
            Candidate(
                id=f"k{j:03d}",
                text=output_text(m),
                logprob=float(ref_logp[m]),
                rewards={"toy": float(world.reward_table[source, m])},
            )
        )
    return CandidateSet(
        source_id=source_label(source),
        source_text=f"source {source}",
        direction=("en", "xx"),
        candidates=tuple(candidates),
    )


def exact_optimal_policy(world: ToyWorld, beta: float) -> ToyPolicy:
    """Closed-form maximizer of expected reward minus beta * KL(pi || pi_ref):
    logits = ref_logits + reward / beta."""
    if not math.isfinite(beta) or beta <= 0:
        raise ValidationError(f"beta must be finite and > 0, got {beta!r}")
    return ToyPolicy(world.ref_logits + world.reward_table / beta)


def expected_reward(policy: ToyPolicy, world: ToyWorld) -> float:
    """Expected reward under the policy, averaged over sources."""
    if policy.logits.shape != world.reward_table.shape:
        raise ValidationError(
            f"policy shape {policy.logits.shape} does not match world "
            f"shape {world.reward_table.shape}"
        )
    return float((policy.probs() * world.reward_table).sum(axis=1).mean())


def resolve_pairs(
    world: ToyWorld, pairs: Sequence[PreferencePair], sets: Sequence[CandidateSet]
) -> list[tuple[int, int, int]]:
    """Map preference pairs back to (source row, winner column, loser column)."""
    candidates = PreferenceDataset(pairs).validate_against(sets)
    resolved = []
    for pair, (chosen, rejected) in zip(pairs, candidates):
        s = source_index(pair.source_id)
        if not 0 <= s < world.n_sources:
            raise ValidationError(f"source row {s} out of range for the world")
        w = output_index(chosen.text)
        l = output_index(rejected.text)
        if not (0 <= w < world.n_outputs and 0 <= l < world.n_outputs):
            raise ValidationError("output index out of range for the world")
        resolved.append((s, w, l))
    return resolved


@dataclass(frozen=True)
class TrainResult:
    """Final policy plus the recorded loss trajectory."""

    policy: ToyPolicy
    losses: tuple[float, ...]


def train_dpo(
    world: ToyWorld,
    pairs: Sequence[tuple[int, int, int]],
    lr: float = 0.3,
    steps: int = 80,
) -> TrainResult:
    """Full-batch gradient descent on the default ``LossConfig`` objective.

    Training starts from the reference policy.  The loss is recorded before
    each update; divergence (non-finite loss or logits) raises with the
    offending step index.
    """
    if not math.isfinite(lr) or lr <= 0:
        raise ValidationError(f"lr must be finite and > 0, got {lr!r}")
    if not isinstance(steps, int) or steps < 0:
        raise ValidationError(f"steps must be a non-negative integer, got {steps!r}")
    cfg = LossConfig()
    ref_logp = log_softmax(world.ref_logits)
    idx = np.asarray(pairs)
    logits = world.ref_logits.copy()
    losses = []
    for step in range(steps):
        try:
            loss, grad = batch_loss_and_grad(logits, ref_logp, idx, cfg)
        except ValidationError as err:
            raise ValidationError(f"training diverged at step {step}: {err}") from None
        losses.append(loss)
        logits = logits - lr * grad
        if not np.all(np.isfinite(logits)):
            raise ValidationError(f"training diverged at step {step}")
    return TrainResult(policy=ToyPolicy(logits), losses=tuple(losses))


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


@dataclass(frozen=True)
class ComparisonReport:
    """Per-method expected-reward gains over shared seeds.

    ``gains`` is parallel to ``methods``; ``flags`` marks runs that trained
    on nothing ("no_pairs") and therefore report a gain of exactly 0.
    ``win_rates[a][b]`` is the fraction of seeds on which method a beat
    method b (ties count one half).
    """

    methods: tuple[str, ...]
    seeds: tuple[int, ...]
    gains: tuple[tuple[float, ...], ...]
    means: tuple[float, ...]
    stderrs: tuple[float, ...]
    win_rates: Mapping[str, Mapping[str, float]]
    flags: tuple[tuple[str | None, ...], ...]

    def gains_for(self, method: str) -> tuple[float, ...]:
        return self.gains[self.methods.index(method)]

    def to_dict(self) -> dict:
        return {
            "methods": list(self.methods),
            "seeds": list(self.seeds),
            "gains": [list(g) for g in self.gains],
            "means": list(self.means),
            "stderrs": list(self.stderrs),
            "win_rates": {a: dict(row) for a, row in self.win_rates.items()},
            "flags": [list(f) for f in self.flags],
        }


def _outcomes_for_method(
    method: str, sets: Sequence[CandidateSet], world: ToyWorld, seed: int
) -> list[SelectionOutcome]:
    if method == "random_pair":
        return [
            random_pair_outcome(
                cset, np.random.default_rng([world.seed, seed, idx, 1])
            )
            for idx, cset in enumerate(sets)
        ]
    config = SelectionConfig(method=method, seed=seed)
    return [run_selector(cset, config) for cset in sets]


def _seed_gains(
    world: ToyWorld, methods: Sequence[str], seed: int, k: int, base_reward: float
) -> list[tuple[float, str | None]]:
    """(gain, flag) of each method trained on one seed's shared candidates."""
    sets = [
        sample_candidates(
            world, s, k=k, rng=np.random.default_rng([world.seed, seed, s])
        )
        for s in range(world.n_sources)
    ]
    results: list[tuple[float, str | None]] = []
    for method in methods:
        outcomes = _outcomes_for_method(method, sets, world, seed)
        pairs = [pair for outcome in outcomes for pair in outcome.pairs]
        if not pairs:
            results.append((0.0, "no_pairs"))
            continue
        resolved = resolve_pairs(world, pairs, sets)
        result = train_dpo(world, resolved)
        results.append((expected_reward(result.policy, world) - base_reward, None))
    return results


def run_comparison(
    world: ToyWorld,
    methods: Sequence[str],
    seeds: Sequence[int],
    k: int = 16,
) -> ComparisonReport:
    """Compare selection methods by the expected-reward gain they train.

    For every (method, seed): sample ``k`` shared candidates per source,
    select pairs with the default ``SelectionConfig``, train from the
    reference policy with the defaults of ``train_dpo``, and record the gain
    of the trained policy over the reference.  Methods that produce zero
    pairs on every source are recorded with gain 0 and a "no_pairs" flag,
    not an error.
    """
    if not methods:
        raise ValidationError("no methods to compare")
    for method in methods:
        if method not in COMPARE_METHODS:
            raise ValidationError(
                f"unknown method {method!r}; valid tags: {', '.join(COMPARE_METHODS)}"
            )
    if not seeds:
        raise ValidationError("no seeds to compare on")
    if k < 2:
        raise ValidationError(f"comparison needs k >= 2, got {k}")
    base = ToyPolicy(world.ref_logits)
    base_reward = expected_reward(base, world)

    # Seed-major runs, so one seed's candidate sets are alive at a time;
    # transposed back to method-major gains and flags.
    runs = [_seed_gains(world, methods, seed, k, base_reward) for seed in seeds]
    gains = [tuple(gain for gain, _ in column) for column in zip(*runs)]
    flags = [tuple(flag for _, flag in column) for column in zip(*runs)]

    means = tuple(float(np.mean(g)) for g in gains)
    stderrs = tuple(
        float(np.std(g, ddof=1) / math.sqrt(len(g))) if len(g) > 1 else 0.0
        for g in gains
    )
    win_rates: dict[str, dict[str, float]] = {}
    for a, gains_a in zip(methods, gains):
        row = {}
        for b, gains_b in zip(methods, gains):
            wins = sum(
                1.0 if ga > gb else 0.5 if ga == gb else 0.0
                for ga, gb in zip(gains_a, gains_b)
            )
            row[b] = wins / len(seeds)
        win_rates[a] = row
    return ComparisonReport(
        methods=tuple(methods),
        seeds=tuple(int(s) for s in seeds),
        gains=tuple(gains),
        means=means,
        stderrs=stderrs,
        win_rates=win_rates,
        flags=tuple(flags),
    )
