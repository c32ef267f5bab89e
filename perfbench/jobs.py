"""The benchmark workloads: seeded inputs, the crpo commands of one job, and
the checks the job's outputs must pass.

The checks never compare bytes against a stored copy.  They check what any
correct crpo must produce, so a later fix that changes an output's bytes
(say, a stats report that bins per-token log-probabilities) still passes.
They also check crpo against what the generator wrote, without crpo's
ingest: the pool count, and each pool's source id and candidate ids.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from crpo.core import CandidateSet, PreferenceDataset
from crpo.dataio import digest_file, ingest_candidates, load_pairs, load_utility_matrices
from crpo.losses import LossConfig
from crpo.toylab import ToyPolicy, exact_optimal_policy, expected_reward, make_world

import gen

CANDIDATES = "candidates.jsonl"
STATS = "stats.json"
UTILITY = "utility.txt"
TOY_REPORT = "toy_report.json"

# The selector runs of the select job, as SelectionConfig fields: the nine
# non-MBR methods, plus cr_plus behind the log-space likelihood gate with
# per-token normalization (the only run that reads token_count).
SELECT_RUNS = {
    **{
        method: {"method": method}
        for method in (
            "cr_plus", "cr_times", "rso", "rs_dpo", "qe_best",
            "top_scores", "minmax_r", "minmax_p", "minmax_po",
        )
    },
    "cr_plus_gated": {"method": "cr_plus", "gate_mode": "log_space", "logprob_norm": "per_token"},
}
_FLAGS = {"method": "--method", "gate_mode": "--gate", "logprob_norm": "--logprob-norm"}

TOY_METHODS = ("cr_plus", "rso", "minmax_r", "random_pair")
TOY_SEEDS = 10
TOY_OUTPUTS = 64
TOY_K = 16


class CheckFailed(Exception):
    """An output that a correct crpo would not produce."""


def pairs_name(label: str) -> str:
    return f"pairs_{label}.jsonl"


@dataclass(frozen=True)
class Command:
    """One ``python -m crpo.cli`` invocation and the files it writes."""

    label: str
    argv: tuple[str, ...]
    outputs: tuple[str, ...]


def attempt(check: Callable[[], object]) -> str | None:
    """Run one output check; the failure message, or None when it passes."""
    try:
        check()
    except Exception as err:  # any failure of a check marks its command failed
        return f"{type(err).__name__}: {err}"
    return None


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Generated:
    """What the generator wrote, known without crpo: the source ids, each
    with the candidate ids of ``gen.K`` candidates."""

    source_ids: tuple[str, ...]

    @classmethod
    def pools(cls, source_format: str, n_pools: int) -> "Generated":
        return cls(tuple(source_format.format(i) for i in range(n_pools)))

    @property
    def candidate_ids(self) -> frozenset[str]:
        return frozenset(gen.candidate_id(j) for j in range(gen.K))

    def check_ingest(self, sets: list[CandidateSet]) -> None:
        """crpo's ingest kept every generated pool and candidate."""
        _require(
            sorted(cset.source_id for cset in sets) == sorted(self.source_ids),
            f"ingest gave {len(sets)} pools, the generator wrote {len(self.source_ids)}",
        )
        for cset in sets:
            _require(
                {c.id for c in cset.candidates} == self.candidate_ids,
                f"pool {cset.source_id} does not hold the generated candidates",
            )


def check_pair_file(
    path: Path, sets: list[CandidateSet], digest: str, method: str, generated: Generated
) -> PreferenceDataset:
    """A pair file reloads, resolves against its candidates and records the
    provenance of the input it was made from."""
    dataset = load_pairs(path)
    dataset.validate_against(sets)
    provenance = dataset.provenance
    _require(provenance.get("input_digest") == digest, "input_digest does not match the input")
    _require(
        provenance.get("n_sources") == len(generated.source_ids),
        "n_sources does not match the generated input",
    )
    sources = set(generated.source_ids)
    for pair in dataset.pairs:
        _require(pair.method == method, f"pair method is not {method}")
        _require(pair.source_id in sources, f"pair names unknown source {pair.source_id}")
        _require(
            {pair.chosen_id, pair.rejected_id} <= generated.candidate_ids
            and pair.chosen_id != pair.rejected_id,
            f"pair of {pair.source_id} names unknown or equal candidates",
        )
    return dataset


class Workload:
    """One workload at one seed.  ``scale`` shrinks the inputs for the
    smoke test; the benchmark itself always runs at scale 1."""

    name = ""
    # Set-ups per run, each inputs plus a warm-up job; setup_s is their
    # median.  Three where a job is short; see SelectWorkload.
    setup_reps = 3

    def __init__(self, seed: int, scale: float) -> None:
        self.seed = seed
        self.scale = scale

    def _size(self, full: int, least: int) -> int:
        return max(least, round(full * self.scale))

    @property
    def pools_per_job(self) -> int:
        raise NotImplementedError

    def prepare(self, inputs: Path) -> None:
        """Write the seeded inputs into ``inputs``."""
        inputs.mkdir(parents=True, exist_ok=True)

    def commands(self, inputs: Path, out: Path) -> list[Command]:
        raise NotImplementedError

    def check(self, inputs: Path, out: Path) -> dict[str, str | None]:
        """Check one job's outputs: command label -> failure message."""
        raise NotImplementedError


class SelectWorkload(Workload):
    name = "select"
    # A job takes about 10 s, so a third set-up would push all the runs of
    # a full benchmark pass close to their time limit.
    setup_reps = 2

    def __init__(self, seed: int, scale: float) -> None:
        super().__init__(seed, scale)
        self.pools = self._size(1500, 8)

    @property
    def pools_per_job(self) -> int:
        return self.pools * (len(SELECT_RUNS) + 1)

    def prepare(self, inputs: Path) -> None:
        super().prepare(inputs)
        gen.write_select_input(inputs / CANDIDATES, self.seed, self.pools)

    def commands(self, inputs: Path, out: Path) -> list[Command]:
        src = str(inputs / CANDIDATES)
        commands = []
        for label, fields in SELECT_RUNS.items():
            flags = [arg for key, value in fields.items() for arg in (_FLAGS[key], value)]
            argv = ("select", "--in", src, "--out", str(out / pairs_name(label)), *flags)
            commands.append(Command(f"select:{label}", argv, (pairs_name(label),)))
        stats = (
            "stats", "--pairs", str(out / pairs_name("rs_dpo")),
            "--candidates", src, "--out", str(out / STATS),
        )
        commands.append(Command("stats", stats, (STATS,)))
        return commands

    def check(self, inputs: Path, out: Path) -> dict[str, str | None]:
        src = inputs / CANDIDATES
        sets = ingest_candidates(src)
        digest = digest_file(src)
        generated = Generated.pools(gen.SELECT_SOURCE, self.pools)
        ingest_failure = attempt(lambda: generated.check_ingest(sets))
        failures = {}
        for label, fields in SELECT_RUNS.items():
            failures[f"select:{label}"] = ingest_failure or attempt(
                lambda: check_pair_file(
                    out / pairs_name(label), sets, digest, fields["method"], generated
                )
            )

        def stats_counts_pairs() -> None:
            report = json.loads((out / STATS).read_text(encoding="utf-8"))
            n_pairs = len(load_pairs(out / pairs_name("rs_dpo")).pairs)
            _require(report["n_pairs"] == n_pairs, "stats n_pairs differs from the pair file")

        failures["stats"] = ingest_failure or attempt(stats_counts_pairs)
        return failures


class MbrWorkload(Workload):
    name = "mbr"

    def __init__(self, seed: int, scale: float) -> None:
        super().__init__(seed, scale)
        self.pools = self._size(16, 4)

    @property
    def pools_per_job(self) -> int:
        return self.pools * 3

    def prepare(self, inputs: Path) -> None:
        super().prepare(inputs)
        gen.write_mbr_input(inputs / CANDIDATES, self.seed, self.pools)

    def commands(self, inputs: Path, out: Path) -> list[Command]:
        src = str(inputs / CANDIDATES)
        utility = str(out / UTILITY)
        return [
            Command(
                "select:mbr_bw",
                ("select", "--in", src, "--out", str(out / pairs_name("mbr_bw")), "--method", "mbr_bw"),
                (pairs_name("mbr_bw"),),
            ),
            Command("utility", ("utility", "matrix", "--in", src, "--out", utility), (UTILITY,)),
            Command(
                "select:mbr_bmw",
                (
                    "select", "--in", src, "--out", str(out / pairs_name("mbr_bmw")),
                    "--method", "mbr_bmw", "--utility-matrix", utility,
                ),
                (pairs_name("mbr_bmw"),),
            ),
        ]

    def check(self, inputs: Path, out: Path) -> dict[str, str | None]:
        src = inputs / CANDIDATES
        sets = ingest_candidates(src)
        digest = digest_file(src)
        generated = Generated.pools(gen.MBR_SOURCE, self.pools)
        ingest_failure = attempt(lambda: generated.check_ingest(sets))

        def one_pair_per_pool() -> None:
            dataset = check_pair_file(
                out / pairs_name("mbr_bw"), sets, digest, "mbr_bw", generated
            )
            _require(len(dataset.pairs) == self.pools, "mbr_bw must yield one pair per pool")

        def matrices_are_utilities() -> None:
            matrices = load_utility_matrices(out / UTILITY)
            _require(set(matrices) == set(generated.source_ids), "one utility matrix per pool expected")
            for matrix in matrices.values():
                _require(set(matrix.ids) == generated.candidate_ids, "matrix ids differ")
                values = matrix.values
                _require(bool((values.diagonal() == 1.0).all()), "utility diagonal is not 1.0")
                _require(bool(((values >= 0.0) & (values <= 1.0)).all()), "utility outside [0, 1]")

        def bmw_agrees_with_bw() -> None:
            bmw = check_pair_file(
                out / pairs_name("mbr_bmw"), sets, digest, "mbr_bmw", generated
            )
            _require(len(bmw.pairs) == 3 * self.pools, "mbr_bmw must yield three pairs per pool")
            bw = load_pairs(out / pairs_name("mbr_bw")).pairs
            # The (best, worst) pair ranks the same utilities whether they were
            # computed inline or written to the matrix file and read back.
            for inline, via_file in zip(bw, bmw.pairs[1::3]):
                _require(
                    (inline.source_id, inline.chosen_id, inline.rejected_id)
                    == (via_file.source_id, via_file.chosen_id, via_file.rejected_id),
                    f"best/worst of {inline.source_id} differ between inline and file utilities",
                )

        return {
            "select:mbr_bw": ingest_failure or attempt(one_pair_per_pool),
            "utility": ingest_failure or attempt(matrices_are_utilities),
            "select:mbr_bmw": ingest_failure or attempt(bmw_agrees_with_bw),
        }


class ToyWorkload(Workload):
    name = "toy"

    def __init__(self, seed: int, scale: float) -> None:
        super().__init__(seed, scale)
        self.sources = self._size(160, 10)

    @property
    def pools_per_job(self) -> int:
        return self.sources * TOY_SEEDS * len(TOY_METHODS)

    def world(self):
        return make_world(n_sources=self.sources, n_outputs=TOY_OUTPUTS, seed=self.seed)

    def commands(self, inputs: Path, out: Path) -> list[Command]:
        argv = (
            "toy", "compare", "--methods", ",".join(TOY_METHODS),
            "--seeds", str(TOY_SEEDS), "--sources", str(self.sources),
            "--outputs", str(TOY_OUTPUTS), "--k", str(TOY_K),
            "--world-seed", str(self.seed), "--out", str(out / TOY_REPORT),
        )
        return [Command("toy", argv, (TOY_REPORT,))]

    def check_gains(self, gains: list[list[float]]) -> None:
        """Every gain is finite and no larger than the gain of the exact
        KL-regularized optimum at the training beta."""
        world = self.world()
        base = expected_reward(ToyPolicy(world.ref_logits), world)
        ceiling = expected_reward(exact_optimal_policy(world, LossConfig().beta), world) - base
        _require(len(gains) == len(TOY_METHODS), "one gain row per method expected")
        for row in gains:
            _require(len(row) == TOY_SEEDS, "one gain per seed expected")
            for gain in row:
                _require(math.isfinite(gain), f"non-finite gain {gain!r}")
                _require(gain <= ceiling, f"gain {gain!r} above the optimum's {ceiling!r}")

    def check(self, inputs: Path, out: Path) -> dict[str, str | None]:
        def report_is_sound() -> None:
            report = json.loads((out / TOY_REPORT).read_text(encoding="utf-8"))
            _require(report["methods"] == list(TOY_METHODS), "report methods differ")
            _require(report["seeds"] == list(range(TOY_SEEDS)), "report seeds differ")
            self.check_gains(report["gains"])

        return {"toy": attempt(report_is_sound)}


WORKLOADS = {cls.name: cls for cls in (SelectWorkload, MbrWorkload, ToyWorkload)}
