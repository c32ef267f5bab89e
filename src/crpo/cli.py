"""Command-line interface: select, stats, losses, toy, and utility commands.

Exit codes: 0 on success, 2 for input/validation problems (including usage
errors), 1 for internal failures.

``main`` is the in-process entry: it returns the exit code and leaves the
calling process running.  ``run`` is the process entry of ``python -m
crpo.cli`` and the ``crpo`` console script: it ends the process as soon as
``main`` has written its outputs, without the interpreter's teardown.

Importing this module loads no numpy: ``losses`` and ``toylab`` load when a
``losses`` or ``toy`` command calls ``gradient_check``, ``make_world`` or
``run_comparison`` below, and ``scoring``, ``selectors`` and ``dataio``
import numpy inside the functions that compute with arrays.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from typing import NoReturn, Sequence

from .core import (
    DEFAULT_ETA,
    GATE_MODES,
    INTO_EN,
    LOGPROB_NORMS,
    METHODS,
    OUT_OF_EN,
    UTILITY_RANKED_METHODS,
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
)
from .scoring import utility_matrix_for_set
from .selectors import select_dataset

GRADIENT_TOLERANCE = 1e-4


# The handlers call these three through their names here, so a caller can
# replace them in this module; each loads its module on first call.
def gradient_check(*args, **kwargs):
    from .losses import gradient_check

    return gradient_check(*args, **kwargs)


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
    sets = ingest_candidates(args.input)
    utilities = None
    if args.utility_matrix is not None:
        utilities = load_utility_matrices(args.utility_matrix)
    dataset = select_dataset(
        sets, config, utilities=utilities, input_digest=digest_file(args.input)
    )
    emit_pairs(dataset, args.out)
    skipped = dataset.provenance.get("n_skipped", 0)
    print(
        f"wrote {len(dataset.pairs)} pairs, {len(dataset.sft_targets)} sft targets "
        f"({skipped} of {len(sets)} sources skipped) -> {args.out}"
    )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    dataset = load_pairs(args.pairs)
    sets = ingest_candidates(args.candidates)
    expected = dataset.provenance.get("input_digest")
    if expected is not None and expected != digest_file(args.candidates):
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
    err = gradient_check(seed=args.seed, n_instances=args.instances)
    ok = err < GRADIENT_TOLERANCE
    print(f"max relative error {err:.3e} [{'ok' if ok else 'FAIL'}]")
    if not ok:
        print(f"gradient check failed (tolerance {GRADIENT_TOLERANCE:g})", file=sys.stderr)
        return 1
    print(f"gradient check passed over {args.instances} instances")
    return 0


def _cmd_toy_compare(args: argparse.Namespace) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    world = make_world(
        n_sources=args.sources,
        n_outputs=args.outputs,
        seed=args.world_seed,
        reward_logit_corr=args.corr,
    )
    report = run_comparison(world, methods, args.seeds, k=args.k)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, ensure_ascii=False, indent=2)
        handle.write("\n")
    for method, mean, stderr in zip(report["methods"], report["means"], report["stderrs"]):
        print(f"{method}: mean gain {mean:+.5f} (stderr {stderr:.5f})")
    return 0


def _cmd_utility_matrix(args: argparse.Namespace) -> int:
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
