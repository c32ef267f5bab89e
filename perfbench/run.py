"""crpo benchmark: seeded inputs, closed-loop crpo jobs, output checks.

    python3 perfbench/run.py --workload select --seed 1 --seconds 16 --trace 0

Each workload is a closed loop with one client: the job's ``crpo`` commands
run one after another, each as a fresh ``python -m crpo.cli`` process, the
way users run crpo.  With ``--trace 0`` the run sets up a few times (inputs
plus a warm-up job), then repeats the job until ``--seconds`` have passed and
reports the end-to-end metrics.  With ``--trace 1`` it runs the same
commands in-process through ``crpo.cli.main`` instead, alternating untraced
passes and traced ones (see traced.py), and reports the per-layer metrics.
The last line of standard output is the result as one JSON object; the
lines before it are a readable summary.  Details and spans go to
``perfbench/.work/<workload>-seed<seed>-trace<t>/``.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference.py"
# Time metrics are wall seconds scaled to a machine on which reference.py
# takes this long; see scaled().
REFERENCE_NOMINAL_S = 0.4
STARTUP_PROBES = 5
COMMAND_TIMEOUT_S = 150.0
# Percentiles reported next to a median, each once it has ten samples beyond it.
TAIL_PERCENTILES = (99.9, 99.0, 90.0)

NOTES = [
    "Each crpo command runs as a fresh process, one after another, as users run it, "
    "so no command inherits another's heap or caches. Doing the same work inside one "
    "process drifted by more than 10% between passes while CPU time tracked wall time "
    "(see job_cpu_s, and untraced_pass_s of a traced run).",
    "File stages run with a warm page cache: the cache cannot be dropped here, and "
    "the warm-up job has read every input once before timing starts.",
    "job_s, pools_per_s and setup_s are scaled by reference.py, a fixed crpo-free "
    "program timed before and after every job; job_wall_s and setup_wall_s are raw.",
]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def git_sha() -> str | None:
    """The checkout's commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "loadavg_at_start": list(os.getloadavg()),
        "notes": NOTES,
    }


def reference_s() -> float:
    """Wall seconds of one fresh process running reference.py."""
    start = perf_counter()
    subprocess.run([sys.executable, str(REFERENCE)], env=child_env(), cwd=ROOT, check=True)
    return perf_counter() - start


def scaled(walls: list[float], refs: list[float]) -> list[float]:
    """Each wall time, scaled by the mean of the reference times measured
    just before and just after it (``refs`` has one more entry than
    ``walls``), to seconds on a machine where the reference takes
    REFERENCE_NOMINAL_S.  The machine's speed drifts by 15-50% over
    minutes; the drift slows the reference as much as the job, so it
    cancels out of the scaled time."""
    return [
        wall * REFERENCE_NOMINAL_S / ((before + after) / 2)
        for wall, before, after in zip(walls, refs, refs[1:])
    ]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_command(argv: list[str], log: Path):
    """Run one command to completion; its exit code (-9 when killed after
    COMMAND_TIMEOUT_S) and its resource usage.  Waits without polling, so
    no sleep adds to the measured time."""
    with open(log, "wb") as handle:
        proc = subprocess.Popen(
            argv, stdout=handle, stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT
        )
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    return proc.returncode, usage


def run_job(commands, out: Path) -> dict:
    """Run one job's commands in order: wall seconds, child CPU seconds,
    the largest child max-RSS and the exit code of each command."""
    out.mkdir(parents=True)
    start = perf_counter()
    codes, usages = {}, []
    for command in commands:
        argv = [sys.executable, "-m", "crpo.cli", *command.argv]
        log = out / f"{command.label.replace(':', '_')}.log"
        codes[command.label], usage = run_command(argv, log)
        usages.append(usage)
    wall = perf_counter() - start
    return {
        "wall_s": wall,
        "cpu_s": sum(u.ru_utime + u.ru_stime for u in usages),
        "max_rss_kb": max(u.ru_maxrss for u in usages),
        "codes": codes,
    }


def output_digests(commands, out: Path) -> dict[str, str | None]:
    return {
        name: sha256(out / name) if (out / name).is_file() else None
        for command in commands
        for name in command.outputs
    }


def percentiles(samples: list[float]) -> dict[str, float]:
    """The median, plus the highest tail percentile with at least ten
    samples beyond it, if any."""
    stats = {"p50": statistics.median(samples)}
    ordered = sorted(samples)
    for q in TAIL_PERCENTILES:
        if len(samples) * (100.0 - q) / 100.0 >= 10:
            stats[f"p{q:g}"] = ordered[min(len(ordered) - 1, int(len(ordered) * q / 100.0))]
            break
    return stats


def run_untraced(wl, work: Path, seconds: float) -> dict:
    setup_s, setup_inputs, warmups, refs = [], [], [], []
    for rep in range(wl.setup_reps):
        inputs, out = work / f"setup{rep}" / "in", work / f"setup{rep}" / "out"
        refs.append(reference_s())
        start = perf_counter()
        wl.prepare(inputs)
        commands = wl.commands(inputs, out)
        job = run_job(commands, out)
        setup_s.append(perf_counter() - start)
        setup_inputs.append({p.name: sha256(p) for p in sorted(inputs.iterdir())})
        warmups.append((job, output_digests(commands, out)))

    jobs_run = []
    start = perf_counter()
    while not jobs_run or perf_counter() - start < seconds:
        refs.append(reference_s())
        out = work / f"job{len(jobs_run)}"
        commands = wl.commands(inputs, out)
        job = run_job(commands, out)
        jobs_run.append((job, output_digests(commands, out)))
    refs.append(reference_s())

    # Full checks on the first measured job; every other job, warm-ups
    # included, must reproduce its output bytes.
    checks = wl.check(inputs, work / "job0")
    reference = jobs_run[0][1]
    failed = 0
    for job, digests in jobs_run:
        for command in commands:
            same = all(digests[name] == reference[name] for name in command.outputs)
            if job["codes"][command.label] != 0 or checks[command.label] or not same:
                failed += 1
    warmups_ok = all(
        all(code == 0 for code in job["codes"].values()) and digests == reference
        for job, digests in warmups
    )
    inputs_ok = all(d == setup_inputs[0] for d in setup_inputs)
    attempted = len(jobs_run) * len(commands)

    walls = [job["wall_s"] for job, _ in jobs_run]
    job_scaled = scaled(walls, refs[wl.setup_reps:])
    job_s = statistics.median(job_scaled)
    peak_kb = max(job["max_rss_kb"] for job, _ in jobs_run)
    return {
        "correct": failed == 0 and warmups_ok and inputs_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "job_s": {"value": job_s, "unit": "s"},
            "pools_per_s": {"value": wl.pools_per_job / job_s, "unit": "1/s"},
            "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
            "setup_s": {"value": statistics.median(scaled(setup_s, refs)), "unit": "s"},
        },
        "details": {
            "error_rate": failed / attempted,
            "job_s_samples": len(walls),
            "job_s_percentiles": percentiles(job_scaled),
            "job_wall_s": walls,
            "job_cpu_s": [job["cpu_s"] for job, _ in jobs_run],
            "setup_wall_s": setup_s,
            "reference_s": refs,
            "pools_per_job": wl.pools_per_job,
            "commands": [" ".join(c.argv) for c in commands],
            "check_failures": {k: v for k, v in checks.items() if v},
            "inputs_sha256": setup_inputs[0],
            "outputs_sha256": reference,
            "inputs_identical_across_setups": inputs_ok,
            "warmups_reproduce_outputs": warmups_ok,
        },
    }


def startup_seconds() -> float:
    """Median wall time of a fresh interpreter running ``import crpo.cli``."""
    samples = []
    for _ in range(STARTUP_PROBES):
        start = perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import crpo.cli"], env=child_env(), cwd=ROOT, check=True
        )
        samples.append(perf_counter() - start)
    return statistics.median(samples)


def run_traced(wl, work: Path, seconds: float) -> dict:
    import traced

    inputs = work / "in"
    wl.prepare(inputs)
    startup_s = startup_seconds()

    def run_pass(name: str, tracer=None) -> tuple[float, dict[str, int]]:
        commands = wl.commands(inputs, work / name)
        (work / name).mkdir(parents=True)
        start = perf_counter()
        codes = traced.run_commands(commands, tracer)
        return perf_counter() - start, codes

    _, warmup_codes = run_pass("warmup")
    tr = traced.Tracer()
    untraced_s, traced_s, per_pass, codes = [], [], [], [warmup_codes]
    start = perf_counter()
    while not per_pass or perf_counter() - start < seconds:
        elapsed, plain_codes = run_pass(f"plain{len(untraced_s)}")
        untraced_s.append(elapsed)
        tr.job = len(per_pass)
        with tr.gc_hook(), tr.installed():
            elapsed, traced_codes = run_pass(f"traced{tr.job}", tr)
        traced_s.append(elapsed)
        codes += [plain_codes, traced_codes]
        spans = [s for s in tr.spans if s["job"] == tr.job]
        per_pass.append((traced.layer_metrics(spans, tr.gc), traced.layer_self_times(spans)))

    # Full checks on the first traced pass; every other pass, the warm-up
    # and the untraced ones included, must reproduce its output bytes.
    commands = wl.commands(inputs, work / "traced0")
    checks = wl.check(inputs, work / "traced0")
    passes = [work / f"traced{i}" for i in range(len(per_pass))]
    passes += [work / "warmup"] + [work / f"plain{i}" for i in range(len(untraced_s))]
    digests = [output_digests(commands, d) for d in passes]
    same = all(d == digests[0] for d in digests)
    failed = sum(
        1 for run in codes for command in commands
        if run[command.label] != 0 or checks[command.label]
    )

    metrics = {
        name: statistics.median(m[name] for m, _ in per_pass) for name in per_pass[0][0]
    }
    metrics["cli.startup_s"] = startup_s
    metrics["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(untraced_s)
    layers = {
        layer: statistics.median(s.get(layer, 0.0) for _, s in per_pass)
        for layer in sorted({layer for _, s in per_pass for layer in s})
    }
    layers["cli"] = layers.get("cli", 0.0) + startup_s * len(commands)
    total = sum(layers.values())
    shares = {k: v / total for k, v in sorted(layers.items(), key=lambda kv: -kv[1])}

    (work / "spans.json").write_text(json.dumps(tr.spans), encoding="utf-8")
    units = metric_units()
    return {
        "correct": failed == 0 and same,
        "attempted": len(codes) * len(commands),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "details": {
            "passes": len(per_pass),
            "untraced_pass_s": untraced_s,
            "traced_pass_s": traced_s,
            "layer_share_of_traced_time": shares,
            "dominant_layer": next(iter(shares)),
            "check_failures": {k: v for k, v in checks.items() if v},
            "outputs_sha256": digests[0],
            "passes_reproduce_outputs": same,
        },
    }


def metric_units() -> dict[str, str]:
    """Per-layer metric names and units, as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def summary(workload: str, trace: int, result: dict) -> list[str]:
    lines = [f"crpo benchmark: workload={workload} trace={trace}"]
    details = result["details"]
    for name, metric in result["metrics"].items():
        lines.append(f"  {name:40s} {metric['value']:.6g} {metric['unit']}")
    if trace:
        lines.append(f"  dominant layer: {details['dominant_layer']}")
        for layer, share in details["layer_share_of_traced_time"].items():
            lines.append(f"    {layer:12s} {share:6.1%}")
    else:
        tails = ", ".join(f"{k}={v:.4f}" for k, v in details["job_s_percentiles"].items())
        lines.append(f"  job_s samples: {details['job_s_samples']} ({tails})")
        lines.append(f"  job wall seconds, unscaled: median {statistics.median(details['job_wall_s']):.4f}")
        lines.append(f"  {'error_rate':40s} {details['error_rate']:.6g} ratio")
    lines.append(f"  correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
    for label, message in details["check_failures"].items():
        lines.append(f"  check failed: {label}: {message}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("select", "mbr", "toy"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink the inputs (the smoke test runs at 0.02)")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind normally so run_command kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "crpo" / "cli.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"perfbench: no crpo sources under {SRC} or no BENCHMARK.json", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import jobs

    wl = jobs.WORKLOADS[args.workload](args.seed, args.scale)
    work = ROOT / "perfbench" / ".work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = environment()
    if args.trace:
        result = run_traced(wl, work, args.seconds)
    else:
        result = run_untraced(wl, work, args.seconds)

    for entry in work.iterdir():
        if entry.is_dir():
            shutil.rmtree(entry)
    record = {"workload": args.workload, "seed": args.seed, "scale": args.scale,
              "environment": env, **result}
    (work / "results.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print("\n".join(summary(args.workload, args.trace, result)))
    line = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
