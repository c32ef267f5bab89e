"""Property tests of the ``crpo`` commands over their flags.

``select`` (every method), ``stats``, ``utility matrix`` and ``toy compare``
run through ``crpo.cli.main`` with generated flag values (small sizes), on the
fixture and on generated candidate files.  Bad values must be rejected with
exit 2, never with the ``internal error`` exit 1, and every file written on
exit 0 must load back and agree with its inputs.  The order of a candidate
file's records must not change the bytes of any pair record or utility matrix.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from crpo.cli import main  # noqa: E402
from crpo.core import GATE_MODES, LOGPROB_NORMS, MAX_RSO_SAMPLES, METHODS  # noqa: E402
from crpo.dataio import (  # noqa: E402
    MAX_BINS,
    ingest_candidates,
    load_pairs,
    load_utility_matrices,
)
from crpo.toylab import (  # noqa: E402
    COMPARE_METHODS,
    MAX_COMPARE_CANDIDATES,
    MAX_WORLD_CELLS,
)

HERE = Path(__file__).parent
FIXTURE = HERE / "fixtures" / "candidates_small.jsonl"
UTILITY = HERE / "golden" / "utility_small.txt"

FLOATS = (
    st.floats(0.0, 1.0)
    | st.floats(-2.0, 100.0)
    | st.sampled_from([0.0, 1.0, math.inf, -math.inf, math.nan])
)
FLAGS = {
    "--k-trust": FLOATS,
    "--beta": FLOATS,
    "--eta-out": FLOATS,
    "--eta-in": FLOATS,
    "--gate": st.sampled_from(GATE_MODES),
    "--epsilon": FLOATS,
    # Large in-range counts only slow rso down; the cap itself is one case.
    "--rso-samples": st.integers(-2, 3) | st.integers(4, 40) | st.just(MAX_RSO_SAMPLES + 1),
    "--seed": st.integers(-3, 2**70),
    "--logprob-norm": st.sampled_from(LOGPROB_NORMS),
}


@st.composite
def flags(draw) -> list[str]:
    argv = []
    for flag, values in FLAGS.items():
        value = draw(st.none() | values)
        if value is not None:
            # --flag=value keeps argparse from reading a negative value as a flag
            argv.append(f"{flag}={value}")
    return argv


@st.composite
def candidate_file(draw) -> bytes:
    lines = []
    for s in range(draw(st.integers(1, 4))):
        direction = draw(st.sampled_from(["en-de", "de-en", "fr-en"]))
        ids = draw(st.lists(st.sampled_from("ABCDEFG"), min_size=1, max_size=6, unique=True))
        for cid in ids:
            record = {
                "source_id": f"s{s}",
                "source_text": "a source",
                "direction": direction,
                "candidate_id": cid,
                "text": draw(st.sampled_from(["the cat", "the cat sat", "a dog", "dog", "x"])),
                "logprob": draw(st.floats(-80.0, 0.0)),
                "rewards": draw(st.dictionaries(
                    st.sampled_from(["qe", "xcomet"]), st.floats(0.0, 1.0), min_size=1
                )),
            }
            if draw(st.booleans()):
                record["token_count"] = draw(st.integers(1, 30))
            lines.append(json.dumps(record) + "\n")
    return "".join(lines).encode()


@st.composite
def word_salad_records(draw) -> list[str]:
    """Candidate records, in id order, of 1-3 sources with 3-12 candidates
    each.  The texts are word salad, so their utilities are rarely 0 or 1 and
    a row sum taken in another order can differ in its last bit."""
    words = st.sampled_from(("the", "cat", "sat", "on", "a", "mat", "dog", "ran", "far", "red"))
    lines = []
    for s in range(draw(st.integers(1, 3))):
        direction = draw(st.sampled_from(["en-de", "de-en"]))
        for j in range(draw(st.integers(3, 12))):
            record = {
                "source_id": f"s{s}",
                "source_text": "a source",
                "direction": direction,
                "candidate_id": f"c{j:02d}",
                "text": " ".join(draw(st.lists(words, min_size=3, max_size=12))),
                "logprob": draw(st.floats(-80.0, 0.0)),
                "rewards": {"qe": draw(st.floats(0.0, 1.0))},
            }
            lines.append(json.dumps(record) + "\n")
    return lines


@pytest.fixture(scope="module")
def workdir(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("select")


@settings(max_examples=150, deadline=None)
@given(
    argv=flags(),
    data=st.none() | candidate_file(),
    utility=st.sampled_from([False, False, False, True]),
)
def test_select_exits_0_or_2_and_writes_valid_pairs(workdir, argv, data, utility):
    source, out = FIXTURE, workdir / "pairs.jsonl"
    if data is not None:
        source = workdir / "candidates.jsonl"
        source.write_bytes(data)
    if utility:
        argv = [*argv, "--utility-matrix", str(UTILITY)]
    for method in METHODS:
        out.unlink(missing_ok=True)
        rc = main(["select", "--in", str(source), "--out", str(out), "--method", method, *argv])
        assert rc in (0, 2), method
        if rc == 0:
            dataset = load_pairs(out)
            assert dataset.provenance["config"]["method"] == method
            dataset.validate_against(ingest_candidates(source))


@settings(max_examples=25, deadline=None)
@given(records=word_salad_records(), data=st.data())
def test_record_order_changes_no_pair_record(workdir, records, data):
    """Shuffling a candidate file's records, within and across sources,
    leaves every method's pair records and the ``utility matrix`` output
    byte-identical: only ``_meta.input_digest`` may change."""
    shuffled = data.draw(st.permutations(records))
    results = []
    for name, lines in (("ordered", records), ("shuffled", shuffled)):
        source, out = workdir / f"{name}.jsonl", workdir / f"{name}_out"
        source.write_text("".join(lines), encoding="utf-8")
        assert main(["utility", "matrix", "--in", str(source), "--out", str(out)]) == 0
        result = {"utility matrix": out.read_bytes()}
        for method in METHODS:
            assert main(["select", "--in", str(source), "--out", str(out),
                         "--method", method]) == 0, method
            header, body = out.read_text(encoding="utf-8").split("\n", 1)
            meta = json.loads(header)["_meta"]
            del meta["input_digest"]
            result[method] = (meta, body)
        results.append(result)
    assert results[0] == results[1]


@settings(max_examples=40, deadline=None)
@given(
    data=st.none() | candidate_file(),
    method=st.sampled_from(METHODS),
    bins=st.integers(-2, 40),
    with_csv=st.booleans(),
)
@example(data=None, method="cr_plus", bins=0, with_csv=True)
@example(data=None, method="cr_plus", bins=1, with_csv=True)
@example(data=None, method="rso", bins=MAX_BINS, with_csv=True)
@example(data=None, method="cr_plus", bins=MAX_BINS + 1, with_csv=True)
def test_stats_exits_0_or_2_and_counts_every_pair(workdir, data, method, bins, with_csv):
    source, pairs = FIXTURE, workdir / "stats_pairs.jsonl"
    out, csv_out = workdir / "stats.json", workdir / "stats.csv"
    if data is not None:
        source = workdir / "stats_candidates.jsonl"
        source.write_bytes(data)
    for path in (pairs, out, csv_out):
        path.unlink(missing_ok=True)
    # A failed select leaves no pair file, which stats must reject with exit 2.
    main(["select", "--in", str(source), "--out", str(pairs), "--method", method])
    argv = ["stats", "--pairs", str(pairs), "--candidates", str(source),
            "--out", str(out), f"--bins={bins}"]
    if with_csv:
        argv += ["--csv", str(csv_out)]
    rc = main(argv)
    assert rc in (0, 2)
    if rc != 0:
        return
    report = json.loads(out.read_text(encoding="utf-8"))
    dataset = load_pairs(pairs)
    assert report["n_pairs"] == len(dataset.pairs)
    assert report["n_sft_targets"] == len(dataset.sft_targets)
    assert sum(stats["n_pairs"] for stats in report["methods"].values()) == len(dataset.pairs)
    for stats in report["methods"].values():
        for series in ("chosen_reward", "rejected_reward", "chosen_logprob", "rejected_logprob"):
            assert len(stats[f"{series}_hist"]) == bins
            assert sum(stats[f"{series}_hist"]) == stats["n_pairs"]
    if with_csv:
        rows = csv_out.read_text(encoding="utf-8").splitlines()
        assert len(rows) == 1 + len(report["methods"]) * 4 * bins


@settings(max_examples=40, deadline=None)
@given(data=st.none() | candidate_file() | st.binary(max_size=60))
def test_utility_matrix_exits_0_or_2_and_covers_every_source(workdir, data):
    source, out = FIXTURE, workdir / "utility.txt"
    if data is not None:
        source = workdir / "utility_candidates.jsonl"
        source.write_bytes(data)
    out.unlink(missing_ok=True)
    rc = main(["utility", "matrix", "--in", str(source), "--out", str(out)])
    assert rc in (0, 2)
    if rc == 0:
        sets = ingest_candidates(source)
        matrices = load_utility_matrices(out)
        assert list(matrices) == [cset.source_id for cset in sets]
        for cset in sets:
            assert matrices[cset.source_id].ids == tuple(c.id for c in cset.candidates)


# Generated sizes are valid, so that most runs train; the examples hold each
# size just past its bound.
@settings(max_examples=40, deadline=None)
@given(
    methods=st.lists(
        st.sampled_from((*COMPARE_METHODS, "bogus", "", " rso ")), min_size=1, max_size=3
    ),
    seeds=st.integers(1, 3),
    sources=st.integers(1, 6),
    outputs=st.integers(2, 6),
    k=st.integers(2, 6),
    corr=st.floats(-0.25, 1.25),
)
@example(methods=[], seeds=1, sources=3, outputs=4, k=4, corr=0.5)
@example(methods=["cr_plus", "cr_plus"], seeds=1, sources=3, outputs=4, k=4, corr=0.5)
@example(methods=["cr_plus"], seeds=1, sources=3, outputs=4, k=4, corr=math.nan)
@example(methods=["cr_plus"], seeds=0, sources=3, outputs=4, k=4, corr=0.5)
@example(methods=["cr_plus"], seeds=1, sources=3, outputs=4, k=1, corr=0.5)
@example(methods=["cr_plus"], seeds=1, sources=0, outputs=1, k=2, corr=0.5)
@example(methods=["cr_plus"], seeds=1, sources=1, outputs=4,
         k=MAX_COMPARE_CANDIDATES + 1, corr=0.5)
@example(methods=["cr_plus"], seeds=1, sources=1, outputs=MAX_WORLD_CELLS + 1, k=2, corr=0.5)
def test_toy_compare_exits_0_or_2_and_reports_every_run(
    workdir, methods, seeds, sources, outputs, k, corr
):
    out = workdir / "compare.json"
    out.unlink(missing_ok=True)
    rc = main(
        ["toy", "compare", f"--methods={','.join(methods)}", f"--seeds={seeds}",
         f"--sources={sources}", f"--outputs={outputs}", f"--k={k}", f"--corr={corr}",
         "--out", str(out)]
    )
    assert rc in (0, 2)
    if rc == 0:
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["methods"] == [m.strip() for m in methods if m.strip()]
        assert report["seeds"] == list(range(seeds))
        assert list(report["win_rates"]) == report["methods"]
        for row in report["win_rates"].values():
            assert list(row) == report["methods"]
        for gains, flags in zip(report["gains"], report["flags"], strict=True):
            assert len(gains) == len(flags) == seeds
            assert all(gain == 0.0 for gain, flag in zip(gains, flags) if flag == "no_pairs")
