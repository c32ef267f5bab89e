"""Command-line interface: select, stats, losses, toy, and utility commands.

Exit codes: 0 on success, 2 for input/validation problems (including usage
errors), 1 for internal failures.

``main`` is the in-process entry: it returns the exit code and leaves the
calling process running.  ``run`` is the process entry of ``python -m
crpo.cli`` and the ``crpo`` console script: it ends the process as soon as
``main`` has written its outputs, without the interpreter's teardown.

Importing this module loads no numpy: ``losses`` and ``toylab`` load when a
``losses`` or ``toy`` command runs, and ``scoring``, ``selectors`` and
``dataio`` import numpy inside the functions that compute with arrays.  The
fork helper ``workers`` (with ``pickle`` and ``ctypes``) loads only when
``select`` runs an input in shards.
"""

from __future__ import annotations

import argparse
import functools
import gc
import operator
import os
import stat
import sys
from typing import Callable, NoReturn, Sequence

from .core import (
    DEFAULT_ETA,
    GATE_MODES,
    INTO_EN,
    LOGPROB_NORMS,
    METHODS,
    OUT_OF_EN,
    UTILITY_RANKED_METHODS,
    PreferenceDataset,
    SelectionConfig,
    ValidationError,
)
from .dataio import (
    digest_file,
    emit_pairs,
    emit_stats,
    ingest_candidates,
    load_pairs,
    load_utility_matrices,
    save_stats,
    save_stats_csv,
    save_utility_matrices,
    source_spans,
)
from .scoring import utility_matrix_for_set
from .selectors import select_dataset

GRADIENT_TOLERANCE = 1e-4


# The handlers call these two through their names here, so a caller can
# replace them in this module; each loads ``toylab`` on first call.
def make_world(*args, **kwargs):
    from .toylab import make_world

    return make_world(*args, **kwargs)


def run_comparison(*args, **kwargs):
    from .toylab import run_comparison

    return run_comparison(*args, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crpo",
        description="Preference-data selection toolkit: confidence-reward "
        "scoring, comparator selectors, loss diagnostics, and a toy lab.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    defaults = SelectionConfig()
    select = sub.add_parser("select", help="run one selector over a candidate file")
    select.add_argument("--in", dest="input", required=True, help="candidate JSONL file")
    select.add_argument("--out", required=True, help="pair JSONL file to write")
    select.add_argument("--method", required=True, choices=METHODS)
    select.add_argument("--k-trust", type=float, default=defaults.k_trust)
    select.add_argument("--beta", type=float, default=defaults.beta)
    select.add_argument("--eta-out", type=float, default=DEFAULT_ETA[OUT_OF_EN],
                        help="reward-gap threshold for out-of-English directions")
    select.add_argument("--eta-in", type=float, default=DEFAULT_ETA[INTO_EN],
                        help="reward-gap threshold for into-English directions")
    select.add_argument("--gate", choices=GATE_MODES, default=defaults.gate_mode)
    select.add_argument("--epsilon", type=float, default=defaults.epsilon)
    select.add_argument("--rso-samples", type=int, default=defaults.rso_samples)
    select.add_argument("--seed", type=int, default=defaults.seed)
    select.add_argument("--logprob-norm", choices=LOGPROB_NORMS, default=defaults.logprob_norm)
    select.add_argument("--utility-matrix", default=None,
                        help="precomputed utility matrices for the MBR methods")
    select.set_defaults(run=_cmd_select)

    stats = sub.add_parser("stats", help="summarize a pair file against its candidates")
    stats.add_argument("--pairs", required=True)
    stats.add_argument("--candidates", required=True)
    stats.add_argument("--out", required=True)
    stats.add_argument("--bins", type=int, default=20)
    stats.add_argument("--csv", default=None, help="also write flat histogram rows")
    stats.set_defaults(run=_cmd_stats)

    losses = sub.add_parser("losses", help="loss diagnostics")
    losses_sub = losses.add_subparsers(dest="losses_command", required=True)
    check = losses_sub.add_parser("check-grad", help="finite-difference gradient check")
    check.add_argument("--seed", type=int, default=0)
    check.add_argument("--instances", type=int, default=100)
    check.set_defaults(run=_cmd_check_grad)

    toy = sub.add_parser("toy", help="toy-world experiments")
    toy_sub = toy.add_subparsers(dest="toy_command", required=True)
    compare = toy_sub.add_parser("compare", help="compare selection methods by trained reward")
    compare.add_argument("--methods", required=True,
                         help="comma-separated method tags (random_pair allowed)")
    compare.add_argument("--seeds", type=int, default=20,
                         help="number of seeds (0..N-1)")
    compare.add_argument("--out", required=True, help="JSON report to write")
    compare.add_argument("--sources", type=int, default=50)
    compare.add_argument("--outputs", type=int, default=32)
    compare.add_argument("--k", type=int, default=16)
    compare.add_argument("--world-seed", type=int, default=0)
    compare.add_argument("--corr", type=float, default=0.5,
                         help="reward/logit mixing coefficient of the world")
    compare.set_defaults(run=_cmd_toy_compare)

    utility = sub.add_parser("utility", help="utility-matrix tools")
    utility_sub = utility.add_subparsers(dest="utility_command", required=True)
    matrix = utility_sub.add_parser("matrix", help="compute built-in utility matrices")
    matrix.add_argument("--in", dest="input", required=True)
    matrix.add_argument("--out", required=True)
    matrix.set_defaults(run=_cmd_utility_matrix)

    return parser


def _same_file(a: str, b: str) -> bool:
    """Whether paths ``a`` and ``b`` name one regular file: an existing one
    through any link, or one that writing either path would create."""
    try:
        a_stat, b_stat = os.stat(a), os.stat(b)
    except FileNotFoundError:
        return not (os.path.exists(a) or os.path.exists(b)) and (
            os.path.realpath(a) == os.path.realpath(b)
        )
    return stat.S_ISREG(a_stat.st_mode) and os.path.samestat(a_stat, b_stat)


def _check_outputs(outputs: dict[str, str | None], inputs: dict[str, str | None]) -> None:
    """Reject, before anything is read, an output flag whose directory does
    not exist, or that names the same regular file as an input flag or an
    earlier output flag: writing it would destroy that input or output.
    Devices such as ``/dev/null`` may repeat."""
    earlier = {flag: path for flag, path in inputs.items() if path is not None}
    for flag, path in outputs.items():
        if path is None:
            continue
        if not os.path.isdir(os.path.dirname(path) or os.curdir):
            raise ValidationError(f"{flag} names a file in a missing directory: {path}")
        for other, other_path in earlier.items():
            if _same_file(path, other_path):
                raise ValidationError(f"{flag} names the same file as {other}: {path}")
        earlier[flag] = path


def _check_digestible(flag: str, path: str) -> os.stat_result:
    """Reject, before it is read, an input that is opened a second time for
    its digest but is not a regular file: a pipe holds no bytes by then, and
    a FIFO blocks the second open.  ``os.stat`` follows links, so
    ``/dev/stdin`` redirected from a regular file passes.  Returns the stat
    that ``_digest_unchanged`` compares with."""
    before = os.stat(path)
    if not stat.S_ISREG(before.st_mode):
        raise ValidationError(
            f"{flag} must name a regular file, since its digest reads it again: {path}"
        )
    return before


# What identifies a file's bytes without reading them.
_FILE_IDENTITY = operator.attrgetter("st_dev", "st_ino", "st_size", "st_mtime_ns")


def _digest_unchanged(flag: str, path: str, before: os.stat_result) -> str:
    """``digest_file(path)``, when the file is still the one ``before`` was
    taken of: one that was replaced, grown or rewritten between the reads
    would get the digest of bytes that were not the ones read."""
    digest = digest_file(path)
    if _FILE_IDENTITY(os.stat(path)) != _FILE_IDENTITY(before):
        raise ValidationError(f"{flag} changed while it was read: {path}")
    return digest


# Smallest byte range that ``select`` hands to a forked worker.  Importing
# the fork helper takes about 5-7 ms, and forking two workers and pickling
# their pairs back about 4 ms more, while ingest and selection take about
# 15-25 ms per MiB (2 vCPU, ``cr_plus`` on the benchmark's input).  So two
# ranges of this size about break even, and a smaller file runs in one
# process.
_MIN_SHARD_BYTES = 1 << 19


def _select_shard(
    path: str, config: SelectionConfig, utilities: dict | None, span: tuple[int, int] | None
) -> tuple[tuple[str, ...], PreferenceDataset]:
    """The selection of the records of ``span`` of the ``--in`` file, or of
    the whole file when it is None, with the source ids it holds."""
    sets = ingest_candidates(path, span)
    dataset = select_dataset(sets, config, utilities=utilities)
    return tuple(cset.source_id for cset in sets), dataset


def _select_in_shards(path: str, size: int, task: Callable) -> list | None:
    """``task`` run on one byte range of the ``size``-byte ``--in`` file per
    usable CPU (``source_spans``), each in a forked worker: the results, in
    file order.  None, for the caller to run the whole file in one process,
    where that would do the same or better: a file under two
    ``_MIN_SHARD_BYTES`` ranges or one usable CPU, a range that fails (its
    records are malformed or not grouped by source, a utility matrix is
    missing), or a source in two ranges.  So the one process raises every
    error, and the ranges select what it would."""
    if size < 2 * _MIN_SHARD_BYTES:
        return None
    from .workers import _map_seeds, _usable_cpus

    shards = min(_usable_cpus(), size // _MIN_SHARD_BYTES)
    if shards < 2:
        return None
    try:
        spans = source_spans(path, shards)
        if len(spans) < 2:
            return None
        results = _map_seeds(task, spans)
    except Exception:  # the one process raises it again, as the whole file gives it
        return None
    source_ids = [source_id for ids, _ in results for source_id in ids]
    if len(set(source_ids)) != len(source_ids):
        return None
    return results


def _cmd_select(args: argparse.Namespace) -> int:
    if args.utility_matrix is not None and args.method not in UTILITY_RANKED_METHODS:
        raise ValidationError(
            f"--utility-matrix applies only to {' and '.join(UTILITY_RANKED_METHODS)}, "
            f"not to {args.method}"
        )
    config = SelectionConfig(
        method=args.method,
        k_trust=args.k_trust,
        beta=args.beta,
        eta={OUT_OF_EN: args.eta_out, INTO_EN: args.eta_in},
        gate_mode=args.gate,
        epsilon=args.epsilon,
        rso_samples=args.rso_samples,
        seed=args.seed,
        logprob_norm=args.logprob_norm,
    )
    _check_outputs(
        {"--out": args.out}, {"--in": args.input, "--utility-matrix": args.utility_matrix}
    )
    before = _check_digestible("--in", args.input)
    # Read once, before the ingest: a pipe holds no bytes for a second read.
    utilities = None
    if args.utility_matrix is not None:
        utilities = load_utility_matrices(args.utility_matrix)
    task = functools.partial(_select_shard, args.input, config, utilities)
    results = _select_in_shards(args.input, before.st_size, task) or [task(None)]
    datasets = [dataset for _, dataset in results]
    provenance = dict(datasets[0].provenance)
    provenance["n_sources"] = sum(d.provenance["n_sources"] for d in datasets)
    provenance["n_skipped"] = sum(d.provenance["n_skipped"] for d in datasets)
    provenance["input_digest"] = _digest_unchanged("--in", args.input, before)
    # Each range's output is in source id order, and no source is in two
    # ranges, so a stable sort merges them.
    dataset = PreferenceDataset(
        pairs=sorted(
            (pair for d in datasets for pair in d.pairs), key=operator.attrgetter("source_id")
        ),
        sft_targets=sorted(
            (target for d in datasets for target in d.sft_targets), key=operator.itemgetter(0)
        ),
        provenance=provenance,
    )
    emit_pairs(dataset, args.out)
    print(
        f"wrote {len(dataset.pairs)} pairs, {len(dataset.sft_targets)} sft targets "
        f"({provenance['n_skipped']} of {provenance['n_sources']} sources skipped) "
        f"-> {args.out}"
    )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    _check_outputs(
        {"--out": args.out, "--csv": args.csv},
        {"--pairs": args.pairs, "--candidates": args.candidates},
    )
    dataset = load_pairs(args.pairs)
    expected = dataset.provenance.get("input_digest")
    if expected is not None:
        before = _check_digestible("--candidates", args.candidates)
    sets = ingest_candidates(args.candidates)
    if expected is not None and expected != _digest_unchanged(
        "--candidates", args.candidates, before
    ):
        raise ValidationError(
            "pair file was produced from a different candidate file (digest mismatch)"
        )
    report = emit_stats(dataset, sets, bins=args.bins)
    save_stats(report, args.out)
    if args.csv is not None:
        save_stats_csv(report, args.csv)
    print(
        f"summarized {report['n_pairs']} pairs and {report['n_sft_targets']} sft targets "
        f"over {len(report['methods'])} methods -> {args.out}"
    )
    return 0


def _cmd_check_grad(args: argparse.Namespace) -> int:
    from .losses import gradient_check

    err = gradient_check(seed=args.seed, n_instances=args.instances)
    ok = err < GRADIENT_TOLERANCE
    print(f"max relative error {err:.3e} [{'ok' if ok else 'FAIL'}]")
    if not ok:
        print(f"gradient check failed (tolerance {GRADIENT_TOLERANCE:g})", file=sys.stderr)
        return 1
    print(f"gradient check passed over {args.instances} instances")
    return 0


def _cmd_toy_compare(args: argparse.Namespace) -> int:
    _check_outputs({"--out": args.out}, {})
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    world = make_world(
        n_sources=args.sources,
        n_outputs=args.outputs,
        seed=args.world_seed,
        reward_logit_corr=args.corr,
    )
    report = run_comparison(world, methods, args.seeds, k=args.k)
    save_stats(report, args.out)
    for method, mean, stderr in zip(report["methods"], report["means"], report["stderrs"]):
        print(f"{method}: mean gain {mean:+.5f} (stderr {stderr:.5f})")
    return 0


def _cmd_utility_matrix(args: argparse.Namespace) -> int:
    _check_outputs({"--out": args.out}, {"--in": args.input})
    sets = ingest_candidates(args.input)
    entries = [(cset.source_id, utility_matrix_for_set(cset)) for cset in sets]
    save_utility_matrices(entries, args.out)
    print(f"wrote {len(entries)} utility matrices -> {args.out}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # The cyclic collector stays off for the command: crpo builds no cycles
    # worth a pass, and the collector would walk every record it keeps.  The
    # caller's setting comes back afterwards.
    collecting = gc.isenabled()
    gc.disable()
    try:
        code = args.run(args)
        if sys.stdout is not None:  # None when the process started without fd 1
            sys.stdout.flush()  # a full disk or a closed pipe is reported here
        return code
    except (ValidationError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # internal failure
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return 1
    finally:
        if collecting:
            gc.enable()


def _observed() -> bool:
    """Whether a tracer, profiler or monitoring tool (``trace``, ``cProfile``,
    coverage, a debugger) is installed: each writes its results while the
    interpreter shuts down."""
    if sys.gettrace() is not None or sys.getprofile() is not None:
        return True
    monitoring = getattr(sys, "monitoring", None)  # Python 3.12+
    return monitoring is not None and any(
        monitoring.get_tool(tool) is not None for tool in range(6)
    )


def run(argv: Sequence[str] | None = None) -> NoReturn:
    """Run one command as a process and end it with ``main``'s exit code.

    Every output file is closed, every toy worker reaped and stdout flushed
    (or its failure reported) when ``main`` returns, so after flushing stdout
    and stderr the process ends with ``os._exit``, even if that flush fails:
    module teardown, the final collection and freeing numpy's objects do no
    crpo work.  Under a tracer or profiler it exits the normal way instead,
    so the tool writes its results.  Usage errors and ``--help`` raise
    ``SystemExit`` inside ``main`` and exit the normal way too.
    """
    code = main(argv)
    if _observed():
        sys.exit(code)
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (AttributeError, OSError, ValueError):
            pass  # a closed pipe, a full disk, a closed or missing stream
    os._exit(code)


if __name__ == "__main__":
    run()
