"""Property tests of the candidate and pair JSONL readers.

A valid file is corrupted (bytes flipped, lines truncated, field values
swapped for arbitrary JSON, fields dropped or set to null, ``_meta`` lines
added, lines nested too deep, whitespace or a BOM put around a record) and
read back.  Dropped and null fields reach every fallback of the readers'
exact-type test to the field tables.  It either loads
into well-typed records or is rejected with a ``ValidationError`` that names
the file: no other exception may escape, since the CLI turns any other one
into an ``internal error`` exit.  The readers must also agree with the plain
ones of ``tests/oracles.py``: equal results, or the same error message.
A line ends at ``\\n`` only, so a CR put where JSON allows whitespace, in a
record or in a utility-matrix block header, changes no result and no later
line number.  A lone surrogate, which a JSON escape can spell, is rejected in
every id and method tag, the fields crpo writes back out, and read in texts.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import oracles  # noqa: E402
from crpo.core import ValidationError  # noqa: E402
from crpo.dataio import ingest_candidates, load_pairs, load_utility_matrices  # noqa: E402

HERE = Path(__file__).parent
FIXTURE = HERE / "fixtures" / "candidates_small.jsonl"
CANDIDATES = FIXTURE.read_bytes()
PAIRS = (HERE / "golden" / "pairs_cr_plus.jsonl").read_bytes()
SFT_PAIRS = (HERE / "golden" / "pairs_qe_best.jsonl").read_bytes()
UTILITY = (HERE / "golden" / "utility_small.txt").read_bytes()

# Surrogates cannot be written as UTF-8, so no file could hold them raw; a
# record holds them as JSON escapes (see ``_record_line``).
TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)
LONE_SURROGATES = st.sampled_from(["\ud800", "a\udfff", "\udc80b"])
# Ints beyond the float range are valid JSON but no float field may hold one.
HUGE_INTS = st.sampled_from([10**400, -(10**400)])
JSON_SCALARS = st.none() | st.booleans() | st.integers() | HUGE_INTS | st.floats() | TEXT
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(TEXT, inner, max_size=3),
    max_leaves=8,
)
DEEP = b"[" * 100_000 + b"]" * 100_000
# Appended after a record: JSON whitespace, and characters that str.isspace
# accepts but JSON does not.
TRAILING = st.sampled_from([" ", "\t", "\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\u2028"])
# Put before a record: JSON whitespace, which json.loads skips, or a BOM.
LEADING = st.sampled_from([" ", "  \t", "\ufeff"])


@st.composite
def corrupted(draw, original: bytes) -> bytes:
    lines = original.splitlines(keepends=True)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(
            st.sampled_from(["flip", "truncate", "swap", "drop", "null", "meta", "deep", "space"])
        )
        if kind == "flip":
            at = draw(st.integers(0, len(lines[i]) - 1))
            byte = draw(st.sampled_from([0xFF, 0x80, 0xC3, 0x00, 0x0D]) | st.integers(0, 255))
            lines[i] = lines[i][:at] + bytes([byte]) + lines[i][at + 1 :]
        elif kind == "truncate":
            lines[i] = lines[i][: draw(st.integers(0, len(lines[i]) - 1))] + b"\n"
        elif kind in ("swap", "drop", "null"):
            try:
                record = json.loads(lines[i])
            except (ValueError, RecursionError):
                continue
            if not isinstance(record, dict) or not record:
                continue
            key = draw(st.sampled_from(sorted(record)))
            if kind == "drop":
                del record[key]
            elif kind == "null":
                record[key] = None
            else:
                # Strings often, so that a bad direction tag or id turns up.
                record[key] = draw(TEXT | LONE_SURROGATES | JSON_VALUES)
            lines[i] = _record_line(record)
        elif kind == "meta":
            meta = json.dumps({"_meta": draw(JSON_VALUES)}).encode() + b"\n"
            lines.insert(draw(st.integers(0, len(lines))), meta)
        elif kind == "deep":
            lines[i] = DEEP + b"\n"
        elif draw(st.booleans()):
            record = lines[i].rstrip(b"\r\n")
            lines[i] = record + draw(TRAILING).encode() + lines[i][len(record) :]
        else:
            lines[i] = draw(LEADING).encode() + lines[i]
    return b"".join(lines)


def _record_line(record: dict) -> bytes:
    """A JSONL line of ``record`` as crpo writes one, except that a lone
    surrogate, which UTF-8 cannot encode, is written as its JSON escape."""
    return json.dumps(record, ensure_ascii=False).encode(errors="backslashreplace") + b"\n"


@pytest.fixture(scope="module")
def path(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("jsonl") / "data.jsonl"


def _load_or_reject(read, path: Path, data: bytes):
    path.write_bytes(data)
    try:
        return read(path)
    except ValidationError as err:
        assert "data.jsonl" in str(err)
        return None


def _outcome(read, path: Path) -> str:
    """The repr of what ``read`` returns, or its ValidationError message.  A
    repr compares NaN extras equal, where ``==`` would not."""
    try:
        return repr(read(path))
    except ValidationError as err:
        return f"ValidationError: {err}"


@settings(max_examples=300, deadline=None)
@given(corrupted(CANDIDATES))
def test_corrupted_candidate_files_read_as_the_oracle_reads_them(path, data):
    path.write_bytes(data)
    assert _outcome(ingest_candidates, path) == _outcome(oracles.ingest_candidates, path)


@settings(max_examples=300, deadline=None)
@given(corrupted(PAIRS) | corrupted(SFT_PAIRS))
def test_corrupted_pair_files_read_as_the_oracle_reads_them(path, data):
    path.write_bytes(data)
    assert _outcome(load_pairs, path) == _outcome(oracles.load_pairs, path)


# Every field of every record kind, dropped, set to null or given a value of
# each other JSON type: each reaches the fallback of the readers' exact-type
# test to the field tables, which the random corruptions hit only by chance.
_DROP = object()
_FIELD_VALUES = (
    _DROP, None, True, False, 0, 3, -2.5, 10**400, "", "x-y", "\ud800", "x-\udfff", [], ["x"],
    {}, {"q": 0.5},
)
_RECORDS = (
    (ingest_candidates, oracles.ingest_candidates, CANDIDATES, 1),
    (load_pairs, oracles.load_pairs, PAIRS, 1),
    (load_pairs, oracles.load_pairs, SFT_PAIRS, -1),
)


@pytest.mark.parametrize("read, oracle, original, at", _RECORDS)
def test_every_field_value_reads_as_the_oracle_reads_it(path, read, oracle, original, at):
    lines = original.splitlines(keepends=True)
    record = json.loads(lines[at])
    for key in record:
        for value in _FIELD_VALUES:
            changed = dict(record)
            if value is _DROP:
                del changed[key]
            else:
                changed[key] = value
            lines[at] = _record_line(changed)
            path.write_bytes(b"".join(lines))
            assert _outcome(read, path) == _outcome(oracle, path), (key, value)


# The fields crpo writes back out, by record kind (the pair file's ids and
# method, and the candidate ids that pair files and utility matrices hold),
# then the texts, which are only read.
_WRITTEN = (
    (ingest_candidates, CANDIDATES, 1, ("source_id", "candidate_id"), ("text",)),
    (load_pairs, PAIRS, 1, ("source_id", "chosen_id", "rejected_id", "method"), ()),
    (load_pairs, SFT_PAIRS, -1, ("source_id", "sft_target"), ()),
)


@pytest.mark.parametrize(
    "read, original, at, written, texts", _WRITTEN, ids=["candidates", "pairs", "sft"]
)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_a_lone_surrogate_is_rejected_in_written_fields_and_read_in_texts(
    path, read, original, at, written, texts, data
):
    lines = original.splitlines(keepends=True)
    record = json.loads(lines[at])
    key = data.draw(st.sampled_from(written + texts))
    value = record[key]
    cut = data.draw(st.integers(0, len(value)))
    record[key] = value[:cut] + data.draw(LONE_SURROGATES) + value[cut:]
    lines[at] = _record_line(record)
    assert b"\\u" in lines[at]  # the file is valid UTF-8: the surrogate is an escape
    message = _outcome_of(read, path, lines)
    if key in written:
        line = at + 1 if at >= 0 else len(lines)
        assert message == (
            f"ValidationError: {path}:{line}: {key} holds a lone surrogate, "
            "which UTF-8 cannot encode"
        )
    else:
        assert not message.startswith("ValidationError"), message
    oracle = {ingest_candidates: oracles.ingest_candidates, load_pairs: oracles.load_pairs}
    assert _outcome(oracle[read], path) == message


@settings(max_examples=300, deadline=None)
@given(corrupted(CANDIDATES))
def test_corrupted_candidate_files_load_or_raise_validation_error(path, data):
    sets = _load_or_reject(ingest_candidates, path, data)
    for cset in sets or ():
        assert isinstance(cset.source_id, str) and isinstance(cset.source_text, str)
        for cand in cset.candidates:
            assert isinstance(cand.id, str) and isinstance(cand.text, str)
            assert math.isfinite(cand.logprob) and 0.0 <= cand.reward_agg <= 1.0
            assert cand.token_count is None or isinstance(cand.token_count, int)


@settings(max_examples=300, deadline=None)
@given(corrupted(PAIRS) | corrupted(SFT_PAIRS))
def test_corrupted_pair_files_load_or_raise_validation_error(path, data):
    dataset = _load_or_reject(load_pairs, path, data)
    if dataset is None:
        return
    assert isinstance(dataset.provenance, dict)
    for pair in dataset.pairs:
        for value in (pair.source_id, pair.chosen_id, pair.rejected_id, pair.method):
            assert isinstance(value, str)
        assert not isinstance(pair.score, bool) and math.isfinite(pair.score)
        assert isinstance(pair.extras, dict)
    for source_id, target in dataset.sft_targets:
        assert isinstance(source_id, str) and isinstance(target, str)
    # What `crpo stats` does next: every id must resolve or be rejected.
    try:
        dataset.validate_against(ingest_candidates(FIXTURE))
    except ValidationError:
        pass


def _read_matrices(path: Path) -> dict:
    """``load_utility_matrices`` with each matrix as ids and exact values."""
    return {key: (m.ids, m.values.tolist()) for key, m in load_utility_matrices(path).items()}


def _outcome_of(read, path: Path, lines: list[bytes]) -> str:
    path.write_bytes(b"".join(lines))
    return _outcome(read, path)


def _parses_to(text: str, record: object) -> bool:
    try:
        return json.loads(text) == record
    except ValueError:
        return False


@pytest.mark.parametrize(
    "read, original",
    [
        (ingest_candidates, CANDIDATES),
        (load_pairs, PAIRS),
        (load_pairs, SFT_PAIRS),
        (_read_matrices, UTILITY),
    ],
    ids=["candidates", "pairs", "sft_pairs", "utility_matrix"],
)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_a_cr_in_json_whitespace_changes_no_result_and_no_later_line(path, read, original, data):
    lines = original.splitlines(keepends=True)
    # Every JSONL line is a record; of a utility-matrix file, only the block
    # headers are JSON.
    i = data.draw(st.sampled_from([n for n, line in enumerate(lines) if line.startswith(b"{")]))
    line = lines[i].decode()
    record = json.loads(line)
    # The positions where JSON allows whitespace, up to the one before "\n".
    spots = [at for at in range(len(line)) if _parses_to(line[:at] + "\r" + line[at:], record)]
    at = data.draw(st.sampled_from(spots))
    changed = list(lines)
    changed[i] = (line[:at] + "\r" + line[at:]).encode()
    assert _outcome_of(read, path, changed) == _outcome_of(read, path, lines)
    if i + 1 < len(lines):
        # A bad line later on is named by the same number.
        j = data.draw(st.integers(i + 1, len(lines) - 1))
        lines[j] = changed[j] = b"[]\n"
        message = _outcome_of(read, path, lines)
        assert message.startswith(f"ValidationError: {path}:{j + 1}: ")
        assert _outcome_of(read, path, changed) == message
