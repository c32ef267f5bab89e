"""``crpo select`` on source-aligned byte ranges in forked workers.

Each test forces the shards by giving the process 2 or 3 usable CPUs and a
shard size of one byte, and compares with the same command on one usable CPU,
where the whole file runs in the process: the bytes written, the exit code and
the error message must be the same.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from crpo import cli, dataio
from crpo.cli import main
from crpo.core import METHODS, ValidationError

pytestmark = pytest.mark.skipif(
    sys.platform != "linux", reason="select shards its input in forked workers on Linux only"
)

SMALL = Path(__file__).parent / "fixtures" / "candidates_small.jsonl"

WORDS = ("der", "hund", "schläft", "die", "katze", "läuft", "ein", "haus", "blau", "rot")

# Every selector with its default flags, the gated per-token cr_plus, and
# mbr_bmw on a utility-matrix file.
RUNS = {
    **{method: [] for method in METHODS},
    "cr_plus_gated": ["--gate", "log_space", "--logprob-norm", "per_token"],
    "mbr_bmw_file": ["--utility-matrix", "{utility}"],
}


def _method(run: str) -> str:
    return {"cr_plus_gated": "cr_plus", "mbr_bmw_file": "mbr_bmw"}.get(run, run)


def _pools(seed: int, n_sources: int = 12) -> list[list[dict]]:
    """Random pools of 5 to 8 candidates, in a file order that is not source
    id order, with some tied rewards."""
    rng = np.random.default_rng(seed)
    pools = []
    for s in range(n_sources):
        source_id = f"s{(s * 5) % n_sources:02d}"
        direction = "en-de" if s % 2 else "de-en"
        pool = []
        for j in range(int(rng.integers(5, 9))):
            words = rng.choice(WORDS, size=int(rng.integers(2, 7)))
            pool.append({
                "source_id": source_id,
                "source_text": f"source {source_id}",
                "direction": direction,
                "candidate_id": f"c{j}",
                "text": " ".join(words),
                "logprob": float(-rng.uniform(1.0, 60.0)),
                "rewards": {"qe": float(rng.choice([0.25, 0.5, rng.uniform()]))},
                "token_count": int(rng.integers(1, 20)),
            })
        pools.append(pool)
    return pools


def _layout(pools: list[list[dict]], layout: str, seed: int) -> list[dict]:
    """The records of ``pools`` in file order: grouped by source, shuffled,
    or as two grouped halves, the second holding the last two candidates of
    the first half of the sources."""
    if layout == "grouped":
        return [record for pool in pools for record in pool]
    if layout == "shuffled":
        records = [record for pool in pools for record in pool]
        order = np.random.default_rng(seed).permutation(len(records))
        return [records[i] for i in order]
    half = len(pools) // 2
    first = [record for i, pool in enumerate(pools) for record in pool[: -2 if i < half else None]]
    return first + [record for pool in pools[:half] for record in pool[-2:]]


def _write(path: Path, records: list[dict]) -> Path:
    lines = [{"_meta": {"ref_policy": "shard-test"}}, *records]
    path.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in lines),
                    encoding="utf-8")
    return path


@pytest.fixture
def cpus(monkeypatch):
    """Set the usable CPUs, with one-byte shards: ``cpus(n)``."""
    monkeypatch.setattr(cli, "_MIN_SHARD_BYTES", 1)

    def use(n: int) -> None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))

    return use


@pytest.fixture
def ingests(monkeypatch, tmp_path):
    """Who ingested what: ``ingests()`` returns and clears the (pid, span)
    of every ``ingest_candidates`` call that returned, in any process."""
    log = tmp_path / "ingests.jsonl"
    ingest = dataio.ingest_candidates

    def logged(path, span=None):
        sets = ingest(path, span)
        with open(log, "a", encoding="utf-8") as handle:
            handle.write(json.dumps([os.getpid(), span]) + "\n")
        return sets

    monkeypatch.setattr(cli, "ingest_candidates", logged)

    def read() -> list[tuple[int, tuple[int, int] | None]]:
        if not log.exists():
            return []
        calls = [json.loads(line) for line in log.read_text(encoding="utf-8").splitlines()]
        log.unlink()
        return [(pid, tuple(span) if span else None) for pid, span in calls]

    return read


def _assert_no_child_left() -> None:
    """This process has no child process, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _select(candidates: Path, out: Path, run: str, utility: Path | None = None):
    args = [arg.format(utility=utility) for arg in RUNS[run]]
    argv = ["select", "--in", str(candidates), "--out", str(out), "--method", _method(run), *args]
    code = main(argv)
    _assert_no_child_left()
    return code


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Candidate files in each layout, and the utility matrices of their pools."""
    root = tmp_path_factory.mktemp("shards")
    pools = _pools(seed=4)
    paths = {
        layout: _write(root / f"{layout}.jsonl", _layout(pools, layout, seed=9))
        for layout in ("grouped", "shuffled", "halves")
    }
    paths["utility"] = root / "utility.txt"
    assert main(["utility", "matrix", "--in", str(paths["grouped"]),
                 "--out", str(paths["utility"])]) == 0
    return paths


@pytest.mark.parametrize("run", sorted(RUNS))
@pytest.mark.parametrize("layout", ["grouped", "shuffled", "halves"])
def test_sharded_output_is_the_one_process_output(
    files, cpus, ingests, tmp_path, capsys, layout, run
):
    candidates, utility = files[layout], files["utility"]
    cpus(1)
    assert _select(candidates, tmp_path / "one.jsonl", run, utility) == 0
    assert ingests() == [(os.getpid(), None)]
    one = (tmp_path / "one.jsonl").read_bytes()
    summary = capsys.readouterr().out.replace(str(tmp_path / "one.jsonl"), "OUT")
    for n in (2, 3):
        cpus(n)
        out = tmp_path / f"sharded{n}.jsonl"
        assert _select(candidates, out, run, utility) == 0
        assert out.read_bytes() == one, (layout, n)
        assert capsys.readouterr().out.replace(str(out), "OUT") == summary
        calls = ingests()
        if layout == "grouped":
            # No silent fallback: every range ran in a worker of its own.
            assert len(calls) == n and len({pid for pid, _ in calls}) == n
            assert all(pid != os.getpid() and span for pid, span in calls)
        else:
            assert calls[-1] == (os.getpid(), None)


def test_ranges_cut_at_source_changes_and_cover_the_file(files):
    path = files["grouped"]
    data = path.read_bytes()
    for n in (2, 3, 5):
        spans = dataio.source_spans(path, n)
        assert spans[0][0] == 0 and spans[-1][1] == len(data)
        assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
        assert len(spans) == n
        for start, _ in spans[1:]:
            before = data[:start].splitlines()[-1]
            after = data[start:].splitlines()[0]
            assert json.loads(before)["source_id"] != json.loads(after)["source_id"]


def test_a_range_stops_where_a_source_comes_back_or_a_header_follows(tmp_path):
    record = _pools(seed=1)[0][0]
    a0, a1, b0 = (
        {**record, "source_id": source, "candidate_id": candidate}
        for source, candidate in (("a", "c0"), ("a", "c1"), ("b", "c0"))
    )
    path = _write(tmp_path / "c.jsonl", [a0, b0, a1])
    lines = path.read_bytes().splitlines(keepends=True)
    size = path.stat().st_size
    # The whole file groups the two records of "a"; a range of it stops at
    # the second one, its line 4 counted from the start of the file.
    assert [cset.source_id for cset in dataio.ingest_candidates(path)] == ["a", "b"]
    with pytest.raises(ValidationError, match=r":4: source 'a' comes back after another"):
        dataio.ingest_candidates(path, (0, size))
    # A header is the first record of the file only: a range that starts at
    # one does not start the file.
    with_header_later = tmp_path / "later.jsonl"
    with_header_later.write_bytes(lines[1] + lines[0] + lines[2])
    start = len(lines[1])
    with pytest.raises(ValidationError, match=r":1: a _meta header must be the first record"):
        dataio.ingest_candidates(with_header_later, (start, with_header_later.stat().st_size))
    assert len(dataio.ingest_candidates(path, (0, len(lines[0]) + len(lines[1])))) == 1
    # A range is read up to its end only: a malformed line after it is not
    # read, whether the range starts the file or not.
    with_bad_line = tmp_path / "bad.jsonl"
    with_bad_line.write_bytes(b"".join(lines[:3]) + b"{not json\n")
    end = sum(map(len, lines[:3]))
    for start in (0, len(lines[0])):
        sets = dataio.ingest_candidates(with_bad_line, (start, end))
        assert [cset.source_id for cset in sets] == ["a", "b"]


def test_ranges_that_share_a_source_fall_back(files, cpus, ingests, monkeypatch, tmp_path):
    # The "halves" file cut where its second half begins: each range holds
    # its sources contiguously, but the first half's sources come back in the
    # second.
    path = files["halves"]
    lines = path.read_bytes().splitlines(keepends=True)
    pools = _pools(seed=4)
    first_half = 1 + sum(map(len, pools)) - 2 * (len(pools) // 2)
    cut = sum(map(len, lines[:first_half]))
    spans = [(0, cut), (cut, len(b"".join(lines)))]
    monkeypatch.setattr(cli, "source_spans", lambda path, shards: spans)
    cpus(2)
    assert _select(path, tmp_path / "sharded.jsonl", "cr_plus") == 0
    calls = ingests()
    assert sorted(span for _, span in calls[:2]) == spans  # both ranges were read
    assert calls[2:] == [(os.getpid(), None)]
    cpus(1)
    assert _select(path, tmp_path / "one.jsonl", "cr_plus") == 0
    assert (tmp_path / "sharded.jsonl").read_bytes() == (tmp_path / "one.jsonl").read_bytes()


def _corrupt(path: Path, dest: Path, how: str) -> Path:
    lines = path.read_bytes().splitlines(keepends=True)
    first = json.loads(lines[1])
    if how == "bad utf-8 in the last range":
        lines[-1] = lines[-1][:1] + b"\xff" + lines[-1][1:]
    elif how == "_meta in a later range":
        lines.insert(len(lines) - 1, b'{"_meta": {}}\n')
    elif how == "duplicate candidate across a cut":
        lines.append(lines[1])
    elif how == "inconsistent source_text across a cut":
        first.update(candidate_id="c9", source_text="another text")
        lines.append(json.dumps(first).encode() + b"\n")
    dest.write_bytes(b"".join(lines))
    return dest


@pytest.mark.parametrize(
    "how",
    ["bad utf-8 in the last range", "_meta in a later range",
     "duplicate candidate across a cut", "inconsistent source_text across a cut"],
)
def test_a_malformed_file_fails_as_in_one_process(files, cpus, tmp_path, capsys, how):
    bad = _corrupt(files["grouped"], tmp_path / "bad.jsonl", how)
    out = tmp_path / "pairs.jsonl"
    cpus(1)
    assert _select(bad, out, "cr_plus") == 2
    expected = capsys.readouterr().err
    assert expected.startswith(f"error: {bad}:") and not out.exists()
    for n in (2, 3):
        cpus(n)
        assert _select(bad, out, "cr_plus") == 2
        assert capsys.readouterr().err == expected
        assert not out.exists()


def test_a_missing_utility_matrix_in_a_later_range_fails_as_in_one_process(
    files, cpus, tmp_path, capsys
):
    # Drop the matrix of the file's last source, which the last range reads.
    matrices = dataio.load_utility_matrices(files["utility"])
    last = json.loads(files["grouped"].read_bytes().splitlines()[-1])["source_id"]
    del matrices[last]
    utility = tmp_path / "partial.txt"
    dataio.save_utility_matrices(sorted(matrices.items()), utility)
    out = tmp_path / "pairs.jsonl"
    errors = set()
    for n in (1, 2, 3):
        cpus(n)
        assert _select(files["grouped"], out, "mbr_bmw_file", utility) == 2
        errors.add(capsys.readouterr().err)
        assert not out.exists()
    assert errors == {f"error: no utility matrix for source {last!r}\n"}


def test_a_piped_utility_matrix_is_read_once(files, cpus, tmp_path):
    # A pipe holds its bytes for one read: the shuffled file falls back from
    # the ranges to one process, which must select with the matrix read
    # before the ranges ran.
    cpus(1)
    one = tmp_path / "one.jsonl"
    assert _select(files["shuffled"], one, "mbr_bmw_file", files["utility"]) == 0
    cpus(2)
    read_end, write_end = os.pipe()

    def feed() -> None:
        with open(write_end, "wb") as handle:
            handle.write(files["utility"].read_bytes())

    writer = threading.Thread(target=feed)
    writer.start()
    piped = tmp_path / "piped.jsonl"
    try:
        assert _select(files["shuffled"], piped, "mbr_bmw_file", f"/dev/fd/{read_end}") == 0
    finally:
        writer.join()
        os.close(read_end)
    assert piped.read_bytes() == one.read_bytes()


@pytest.mark.parametrize("sharded", [False, True], ids=["small", "sharded"])
def test_a_malformed_utility_matrix_fails_before_the_ingest(
    files, cpus, tmp_path, capsys, sharded
):
    # Both files are malformed: the matrix is read first, so its line is
    # the one reported.
    cpus(2 if sharded else 1)
    source = files["grouped"] if sharded else SMALL
    lines = source.read_bytes().splitlines(keepends=True)
    lines[3] = b"{not json\n"
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(b"".join(lines))
    rows = files["utility"].read_bytes().splitlines(keepends=True)
    rows[1] = b"x" + rows[1][rows[1].index(b" "):]
    matrix = tmp_path / "utility.txt"
    matrix.write_bytes(b"".join(rows))
    out = tmp_path / "pairs.jsonl"
    assert _select(bad, out, "mbr_bmw_file", matrix) == 2
    assert capsys.readouterr().err == f"error: {matrix}:2: non-numeric matrix entry\n"
    assert not out.exists()


def test_workers_die_with_a_killed_parent(files, tmp_path):
    # A parent whose workers block in selection is killed: the kernel must
    # end the workers too, or they would run on for nobody.
    log = tmp_path / "pids.txt"
    script = (
        "import os, sys, time\n"
        "from crpo import cli\n"
        "cli._MIN_SHARD_BYTES = 1\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "def blocked(*args, **kwargs):\n"
        f"    with open({str(log)!r}, 'a') as handle:\n"
        "        handle.write(f'{os.getpid()}\\n')\n"
        "    time.sleep(600)\n"
        "cli.select_dataset = blocked\n"
        "cli.main(['select', '--in', sys.argv[1], '--out', sys.argv[2], '--method', 'cr_plus'])\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    parent = subprocess.Popen(
        [sys.executable, "-c", script, str(files["grouped"]), str(tmp_path / "out.jsonl")],
        env=env,
    )
    workers: list[int] = []
    try:
        deadline = time.monotonic() + 60
        while len(workers) < 2 and time.monotonic() < deadline:
            time.sleep(0.05)
            if log.exists():
                workers = [int(line) for line in log.read_text().split()]
        assert len(workers) == 2 and parent.pid not in workers
        parent.kill()
        parent.wait()
        deadline = time.monotonic() + 10
        while any(map(_running, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_running, workers))
    finally:
        parent.kill()
        parent.wait()
        for pid in workers:
            if _running(pid):
                os.kill(pid, signal.SIGKILL)


def _running(pid: int) -> bool:
    """Whether process ``pid`` exists and has not exited."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rpartition(")")[2].split()[0] != "Z"


def test_a_small_file_runs_in_one_process_and_loads_no_fork_helper(tmp_path):
    # Below two default shard sizes select neither forks nor imports pickle
    # or ctypes, whatever the CPU count.
    script = (
        "import json, os, sys\n"
        "from crpo.cli import main\n"
        "os.sched_getaffinity = lambda pid: {0, 1, 2, 3}\n"
        "argv = ['select', '--in', sys.argv[1], '--out', sys.argv[2], '--method', 'cr_plus']\n"
        "code = main(argv)\n"
        "loaded = [m for m in ('crpo.workers', 'pickle', 'ctypes') if m in sys.modules]\n"
        "print(json.dumps([code, loaded]), file=sys.stderr)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(SMALL), str(tmp_path / "p.jsonl")],
        cwd=Path(cli.__file__).parents[1], capture_output=True, text=True, timeout=120,
    )
    assert json.loads(proc.stderr.splitlines()[-1]) == [0, []], proc.stderr
