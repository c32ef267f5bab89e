"""Property test of ``crpo select`` over every method and its flags.

Every method runs through ``crpo.cli.main`` with generated flag values
(small sizes), on the fixture and on generated candidate files.  Bad
values must be rejected with exit 2, never with the ``internal error`` exit 1,
and every pair file written on exit 0 must load back and resolve against the
candidates it was selected from.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from crpo.cli import main  # noqa: E402
from crpo.core import GATE_MODES, LOGPROB_NORMS, MAX_RSO_SAMPLES, METHODS  # noqa: E402
from crpo.dataio import ingest_candidates, load_pairs  # noqa: E402

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
