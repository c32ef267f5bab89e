"""An exactly solvable toy preference-optimization world.

Each source has a small discrete output space with a known reward table and
reference logits, so the optimal tilted policy, expected rewards, and full
training dynamics can be computed in closed form and checked numerically.
Candidate sampling, selection, and DPO training mirror the real pipeline.
Pairs come from crpo's own selectors (``run_selector``, and
``selectors.random_pair_outcome`` for the random-pair control), and
``resolve_pairs`` maps them to table cells: the row is the set's position.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import pickle
import signal
import sys
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .core import (
    METHODS,
    Candidate,
    CandidateSet,
    SelectionConfig,
    ValidationError,
    is_finite_number,
    is_integer,
)
from .losses import LossConfig, PairBatch, batch_loss_and_grad, log_softmax
from .selectors import _SELECTORS, SelectionOutcome, random_pair_outcome, run_selector

# Method tags the comparison harness accepts: every selector plus a
# random-pair control baseline.
COMPARE_METHODS = METHODS + ("random_pair",)

# Largest world table (sources x outputs) ``make_world`` builds.  Every
# training step makes a few temporary tables of this size, so the bound keeps
# sizes taken from the command line from exhausting memory; it is about a
# hundred times the benchmark world.
MAX_WORLD_CELLS = 1_000_000

# Largest number of candidates a comparison samples (seeds x sources x K).
# Each one is a ``Candidate`` object of about 0.6 KB.  A worker process keeps
# only the candidates of the seed it is running, and the parent, which only
# waits for the workers, keeps none.  So the bound caps the sampling and
# selection work that sizes taken from the command line can ask for; it is
# about forty times the benchmark's.
MAX_COMPARE_CANDIDATES = 1_000_000

# Largest K a comparison samples per source.  ``rs_dpo`` compares all K x K
# reward pairs of a pool and the MBR methods build a K x K float64 table per
# pool, which stays under 8 MB at this bound; it also keeps the candidate ids
# k000..k999 at three digits, so their id order is their sampling order.
MAX_COMPARE_K = 1000

# Largest worst-case training batch of one (method, seed) run, counted as
# pairs x (outputs + 3): a table row plus 3 scatter cells per pair, which
# over-counts a batch whose pairs share rows.  With at least 2 outputs this
# allows at most 400,000 pairs, and fewer on wider tables.  ``rs_dpo`` keeps
# up to K(K-1)/2 pairs per source, each a ``PreferencePair`` of about 0.5 KB
# until training, and a training step holds 3 cells per pair (its
# ``PairBatch`` cell index and the bincount's weights), so the bound keeps
# sizes taken from the command line within a few hundred MB per worker
# process: each worker trains one run at a time.  ``rs_dpo`` at the
# benchmark's size (160 sources x 64 outputs, K=16) counts 1.3 million cells.
MAX_COMPARE_PAIR_CELLS = 2_000_000

# The one training schedule of ``train_dpo``: full-batch steps and step size.
TRAIN_STEPS = 80
TRAIN_LR = 0.3


def source_label(index: int) -> str:
    return f"s{index:04d}"


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
    # ``_sampler`` results by (source, temperature, top_p).
    _sampler_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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
        if not is_integer(self.seed) or self.seed < 0:
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

    def _sampler(
        self, source: int, temperature: float, top_p: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """One source's temperature-scaled, nucleus-truncated reference
        distribution and its untruncated reference log-probabilities, computed
        the first time they are asked for and kept for the world's life."""
        key = (source, temperature, top_p)
        if key not in self._sampler_cache:
            row = self.ref_logits[source]
            scaled = row / temperature
            shifted = scaled - scaled.max()
            sampler = np.exp(shifted)
            sampler = nucleus_probs(sampler / sampler.sum(), top_p)
            self._sampler_cache[key] = (sampler, log_softmax(row[None, :])[0])
        return self._sampler_cache[key]


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
    if not is_integer(n_sources) or n_sources < 1:
        raise ValidationError(f"n_sources must be an integer >= 1, got {n_sources!r}")
    if not is_integer(n_outputs) or n_outputs < 2:
        raise ValidationError(f"n_outputs must be an integer >= 2, got {n_outputs!r}")
    if n_sources * n_outputs > MAX_WORLD_CELLS:
        raise ValidationError(
            f"world of {n_sources} sources x {n_outputs} outputs exceeds "
            f"{MAX_WORLD_CELLS} cells"
        )
    if not (is_finite_number(reward_logit_corr) and 0.0 <= reward_logit_corr <= 1.0):
        raise ValidationError(
            f"reward_logit_corr must lie in [0, 1], got {reward_logit_corr!r}"
        )
    if not is_finite_number(logit_scale) or logit_scale <= 0:
        raise ValidationError(f"logit_scale must be finite and > 0, got {logit_scale!r}")
    if not is_integer(seed) or seed < 0:
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
    if not (is_finite_number(top_p) and 0.0 < top_p <= 1.0):
        raise ValidationError(f"top_p must lie in (0, 1], got {top_p!r}")
    probs = np.asarray(probs, dtype=np.float64)
    if not np.all(np.isfinite(probs)) or probs.sum() <= 0:
        raise ValidationError("degenerate distribution after truncation")
    if probs.min() < 0:
        raise ValidationError("probabilities must not be negative")
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
    *,
    rng: np.random.Generator,
) -> CandidateSet:
    """Draw K candidates from the temperature-scaled, nucleus-truncated
    reference distribution of one source.

    Candidate ``logprob`` fields hold the untruncated reference
    log-probability (the policy's true confidence), not the sampler's.
    """
    if not (is_integer(source) and 0 <= source < world.n_sources):
        raise ValidationError(f"source index {source!r} out of range")
    if not is_integer(k) or k < 1:
        raise ValidationError(f"k must be an integer >= 1, got {k!r}")
    if not is_finite_number(temperature) or temperature <= 0:
        raise ValidationError(f"temperature must be finite and > 0, got {temperature!r}")
    sampler, ref_logp = world._sampler(source, temperature, top_p)
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
    if not is_finite_number(beta) or beta <= 0:
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
    sets: Sequence[CandidateSet], outcomes: Sequence[SelectionOutcome]
) -> list[tuple[int, int, int]]:
    """(source row, winner column, loser column) of every pair in ``outcomes``,
    which are parallel to ``sets``: the row is the set's position, the columns
    are the outputs of the chosen and rejected texts.  ``train_dpo`` rejects
    out-of-range cells before its first step."""
    return [
        (
            s,
            output_index(cset.candidate(pair.chosen_id).text),
            output_index(cset.candidate(pair.rejected_id).text),
        )
        for s, (cset, outcome) in enumerate(zip(sets, outcomes, strict=True))
        for pair in outcome.pairs
    ]


@dataclass(frozen=True)
class TrainResult:
    """Final policy plus the recorded loss trajectory."""

    policy: ToyPolicy
    losses: tuple[float, ...]


def train_dpo(world: ToyWorld, pairs: Sequence[tuple[int, int, int]]) -> TrainResult:
    """Full-batch gradient descent on the default ``LossConfig`` objective:
    ``TRAIN_STEPS`` steps of size ``TRAIN_LR`` from the reference policy.

    The loss is recorded before each update.  Every gradient cell is a mean
    of per-pair terms of at most 2.1 in absolute value, so a step moves a
    logit by at most 0.63 and a finite table stays finite.  Bad pairs (an
    index out of range, say) fail in ``PairBatch.of``, before the first step;
    only the loss on the reference logits can be non-finite.
    """
    cfg = LossConfig()
    batch = PairBatch.of(pairs, log_softmax(world.ref_logits))
    logits = world.ref_logits.copy()
    losses = []
    for _ in range(TRAIN_STEPS):
        loss, grad = batch_loss_and_grad(logits, batch, cfg)
        losses.append(loss)
        logits -= TRAIN_LR * grad
    return TrainResult(policy=ToyPolicy(logits), losses=tuple(losses))


def _max_pairs_per_source(method: str, k: int) -> int:
    """Most pairs ``method`` makes from one pool of ``k`` candidates under the
    default ``SelectionConfig``."""
    if method == "rs_dpo":
        return k * (k - 1) // 2
    if method == "rso":
        return SelectionConfig().rso_samples // 2
    return 3 if method == "mbr_bmw" else 1


def _seed_gains(
    world: ToyWorld, methods: Sequence[str], k: int, base_reward: float, seed: int
) -> list[tuple[float, str | None]]:
    """One seed of ``run_comparison``: sample ``k`` candidates per source,
    then select with each method in order and train on its pairs.  Returns
    each method's (gain over ``base_reward``, flag).  This seed's sets and
    pairs are freed when it returns."""
    sets = [
        sample_candidates(world, s, k=k, rng=np.random.default_rng([world.seed, seed, s]))
        for s in range(world.n_sources)
    ]
    runs: list[tuple[float, str | None]] = []
    for method in methods:
        if method == "random_pair":
            outcomes = [
                random_pair_outcome(cset, np.random.default_rng([world.seed, seed, s, 1]))
                for s, cset in enumerate(sets)
            ]
        else:
            config = SelectionConfig(method=method, seed=seed)
            outcomes = [run_selector(cset, config) for cset in sets]
        pairs = resolve_pairs(sets, outcomes)
        if pairs:
            result = train_dpo(world, pairs)
            runs.append((expected_reward(result.policy, world) - base_reward, None))
        else:
            runs.append((0.0, "no_pairs"))
    return runs


# The prctl(2) option that has the kernel signal a process when the thread
# that forked it exits.
_PR_SET_PDEATHSIG = 1


def _start_worker(parent: int) -> None:
    """Have the kernel kill this forked worker when its parent dies.  A
    worker whose parent was killed would otherwise run the rest of its seeds
    for nobody."""
    prctl = ctypes.CDLL(None).prctl
    prctl.argtypes, prctl.restype = (ctypes.c_int, ctypes.c_ulong), ctypes.c_int
    # Best effort, so the result is not checked: the call fails only for an
    # invalid signal or where a sandbox forbids prctl, and a worker it failed
    # for merely outlives a killed parent.
    prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
    if os.getppid() != parent:  # the parent died before the prctl call
        os._exit(1)


def _run_stripe(task: Callable[[int], list], seeds: Sequence[int], first: int, step: int) -> bytes:
    """The pickled outcome of ``task`` over ``seeds[first::step]``, run in
    order: ``(results, None)``, or ``(None, (index, error))`` for the first
    seed that raises, ``index`` being its position in ``seeds``.  An error
    that does not survive pickling travels as ``RuntimeError(repr(error))``."""
    results = []
    for index in range(first, len(seeds), step):
        try:
            results.append(task(seeds[index]))
        except BaseException as err:
            try:
                failure = pickle.dumps((None, (index, err)))
                pickle.loads(failure)
            except Exception:
                failure = pickle.dumps((None, (index, RuntimeError(repr(err)))))
            return failure
    return pickle.dumps((results, None))


def _map_seeds(task: Callable[[int], list], seeds: Sequence[int]) -> list[list]:
    """``task`` of every seed, in seed order.  On Linux the seeds run in
    forked workers, one per CPU this process may use and at most one per
    seed; elsewhere, or when one worker would do, they run here.  Worker w
    runs ``seeds[w::workers]`` and sends its outcome back through a pipe; the
    error of the first seed that fails is raised, as the loop here would.
    No worker is left running or unreaped when this returns or raises."""
    # Fork only on Linux, where it is the default start method and numpy's
    # OpenBLAS registers fork handlers for its threads.  A worker would still
    # inherit a lock that a caller's other thread held at the fork.
    workers = 1
    if sys.platform == "linux":
        workers = min(len(seeds), len(os.sched_getaffinity(0)))
    if workers <= 1:
        return [task(seed) for seed in seeds]
    parent = os.getpid()
    reads: list[int] = []  # each worker's pipe, in worker order
    running: dict[int, int] = {}  # worker by pid, until it is reaped
    outcomes = []
    try:
        for first in range(workers):
            read, write = os.pipe()
            reads.append(read)
            try:
                pid = os.fork()
            except BaseException:
                os.close(write)
                raise
            if pid == 0:
                # The worker inherits ``task``, world included, so the world's
                # sampler cache lasts across its seeds.  It closes the read
                # ends it inherited, its own included, and never returns into
                # the caller's frames.
                status = 1
                try:
                    for fd in reads:
                        os.close(fd)
                    _start_worker(parent)
                    with open(write, "wb") as pipe:
                        pipe.write(_run_stripe(task, seeds, first, workers))
                    status = 0
                finally:
                    os._exit(status)
            os.close(write)
            running[pid] = first
        # The parent only waits: a seed run here would add its working set to
        # this process's peak memory.
        for pid, first in list(running.items()):
            with open(reads[first], "rb", closefd=False) as pipe:
                outcome = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del running[pid]
            if not outcome:
                code = os.waitstatus_to_exitcode(status)
                how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
                raise RuntimeError(f"seed worker {first} died ({how}) before sending its results")
            outcomes.append(pickle.loads(outcome))
    finally:
        for read in reads:
            os.close(read)
        for pid in running:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    results: list = [None] * len(seeds)
    failures = []
    for first, (done, failure) in enumerate(outcomes):
        if failure is None:
            results[first::workers] = done
        else:
            failures.append(failure)
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return results


def run_comparison(
    world: ToyWorld,
    methods: Sequence[str],
    n_seeds: int,
    k: int = 16,
) -> dict:
    """Compare selection methods by the expected-reward gain they train.

    For every method and seed ``0..n_seeds-1``: sample ``k`` shared
    candidates per source, select pairs with the default ``SelectionConfig``,
    train with ``train_dpo`` and record the gain of the trained policy over
    the reference.  Methods that produce zero pairs on every source are
    recorded with gain 0 and a "no_pairs" flag, not an error.  Every size
    bound is checked before the first seed runs.  On Linux the seeds run in
    forked worker processes (``_map_seeds``); the report is the same for any
    number of them.

    Returns the report ``toy compare`` writes: ``gains`` and ``flags`` rows,
    ``means`` and ``stderrs`` are parallel to ``methods``;
    ``win_rates[a][b]`` is the fraction of seeds on which method a beat
    method b (ties count one half).
    """
    if not methods:
        raise ValidationError("no methods to compare")
    for i, method in enumerate(methods):
        if method not in COMPARE_METHODS:
            raise ValidationError(
                f"unknown method {method!r}; valid tags: {', '.join(COMPARE_METHODS)}"
            )
        if method in methods[:i]:
            raise ValidationError(f"method {method!r} is listed twice")
    if not is_integer(n_seeds) or n_seeds < 1:
        raise ValidationError(f"comparison needs an integer n_seeds >= 1, got {n_seeds!r}")
    if not is_integer(k) or k < 2:
        raise ValidationError(f"comparison needs an integer k >= 2, got {k!r}")
    if k > MAX_COMPARE_K:
        raise ValidationError(f"comparison needs k <= {MAX_COMPARE_K}, got {k}")
    for method in methods:
        if method in _SELECTORS and k < _SELECTORS[method][0]:
            raise ValidationError(f"method {method!r} needs k >= {_SELECTORS[method][0]}, got {k}")
    n_candidates = n_seeds * world.n_sources * k
    if n_candidates > MAX_COMPARE_CANDIDATES:
        raise ValidationError(
            f"{n_seeds} seeds x {world.n_sources} sources x k={k} asks for "
            f"{n_candidates} candidates, more than {MAX_COMPARE_CANDIDATES}"
        )
    pairs_per_seed = world.n_sources * max(_max_pairs_per_source(m, k) for m in methods)
    if pairs_per_seed * (world.n_outputs + 3) > MAX_COMPARE_PAIR_CELLS:
        raise ValidationError(
            f"up to {pairs_per_seed} pairs per seed x {world.n_outputs} outputs "
            f"exceeds {MAX_COMPARE_PAIR_CELLS} training cells"
        )
    base_reward = expected_reward(ToyPolicy(world.ref_logits), world)
    per_seed = _map_seeds(
        functools.partial(_seed_gains, world, methods, k, base_reward), range(n_seeds)
    )
    by_method = list(zip(*per_seed))
    gains = [[gain for gain, _ in runs] for runs in by_method]
    flags = [[flag for _, flag in runs] for runs in by_method]

    return {
        "methods": list(methods),
        "seeds": list(range(n_seeds)),
        "gains": gains,
        "means": [float(np.mean(g)) for g in gains],
        "stderrs": [
            float(np.std(g, ddof=1) / math.sqrt(len(g))) if len(g) > 1 else 0.0
            for g in gains
        ],
        "win_rates": {
            a: {
                b: sum(
                    1.0 if ga > gb else 0.5 if ga == gb else 0.0
                    for ga, gb in zip(gains_a, gains_b)
                ) / n_seeds
                for b, gains_b in zip(methods, gains)
            }
            for a, gains_a in zip(methods, gains)
        },
        "flags": flags,
    }
