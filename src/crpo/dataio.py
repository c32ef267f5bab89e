"""JSON-Lines ingestion, emission, and summary statistics.

Candidate files hold one JSON object per candidate::

    {"source_id": ..., "source_text": ..., "direction": "en-de",
     "candidate_id": ..., "text": ..., "logprob": ..., "rewards": {...},
     "token_count": ...}          # token_count optional

Pair files hold one object per preference pair (or per SFT target in
quality-estimation mode) after a ``{"_meta": {...}}`` provenance header::

    {"source_id": ..., "chosen_id": ..., "rejected_id": ..., "method": ...,
     "score": ..., "extras": {...}}
    {"source_id": ..., "sft_target": ..., "method": "qe_best"}

Either file may start with a ``{"_meta": {...}}`` header, and only its first
record may hold ``_meta``.  Every reader decodes UTF-8, parses and type-checks
through one path, so every malformed line is reported as ``file:line``.  Floats
are written in Python's shortest round-trip representation, so emit followed by
ingest is lossless, and identical inputs produce byte-identical outputs.

No function here loads numpy.  ``emit_stats`` bins and averages on Python
floats, bit for bit as ``np.linspace``, ``np.histogram`` and ``np.mean``
did, and the utility-matrix reader keeps each row as Python floats.
"""

from __future__ import annotations

import bisect
import csv
import gc
import hashlib
import itertools
import json
import math
import operator
from pathlib import Path
from typing import Callable, Iterator, Sequence

from .core import (
    _FLOAT_MAX,
    Candidate,
    CandidateSet,
    PreferenceDataset,
    PreferencePair,
    SelectionConfig,
    ValidationError,
    effective_logprob,
    is_integer,
)
from .scoring import UtilityMatrix, pairwise_sum

# Largest histogram resolution of ``emit_stats``.  Each method's report holds
# four histograms of this many counts, so the bound keeps a size taken from the
# command line from exhausting memory.
MAX_BINS = 100_000

# Read size of ``digest_file``.
_DIGEST_CHUNK = 1 << 20

# Buffer of the line readers: one read call per 64 KiB instead of one per
# file-system block (4 KiB on common file systems).
_READ_BUFFER = 1 << 16


def digest_file(path: str | Path) -> str:
    """SHA-256 hex digest of a file's bytes, read in 1 MiB chunks so the
    file is never held in memory whole."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        while chunk := handle.read(_DIGEST_CHUNK):
            digest.update(chunk)
    return digest.hexdigest()


def parse_direction(tag: str) -> tuple[str, str]:
    """Split a direction tag like ``en-de`` into (source, target)."""
    parts = tag.split("-")
    if len(parts) != 2 or not parts[0] or not parts[1]:
        raise ValidationError(f"invalid direction tag {tag!r}; expected 'src-tgt'")
    return (parts[0], parts[1])


def _lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """Numbered lines of a UTF-8 file, split on ``\\n`` only: a CR, which is
    JSON whitespace, stays in its line, as do U+2028 and U+0085, which
    ``json.dumps`` writes unescaped in ids.  A line that is not strict UTF-8
    is named in the error."""
    with open(path, "rb", buffering=_READ_BUFFER) as handle:
        for lineno, line in enumerate(handle, start=1):
            try:
                text = line.decode()
            except UnicodeDecodeError:
                raise ValidationError(f"{path}:{lineno}: not valid UTF-8") from None
            yield lineno, text


# The scanner of a default decoder parses a record in one call.  ``json.loads``
# reaches the same scanner through ``decode`` and ``raw_decode``, matching
# whitespace before and after the record, which it need not match when the
# record ends just before a line break.
_scan_once = json.JSONDecoder().scan_once
_skip_whitespace = json.decoder.WHITESPACE.match
_LINE_BREAKS = ("\n", "\r\n")


def _loads(line: str, path: str | Path, lineno: int) -> object:
    """``json.loads(line)``, its error named with the line."""
    # ValueError is JSONDecodeError or an int of over 4300 digits.
    try:
        return json.loads(line)
    except (ValueError, RecursionError) as err:
        raise ValidationError(f"{path}:{lineno}: invalid JSON: {err}") from None


def _json_object(line: str, path: str | Path, lineno: int) -> dict:
    """The JSON object on a line that is not a JSONL record (a utility-matrix
    block header), which ``json.loads`` parses or rejects."""
    record = _loads(line, path, lineno)
    if type(record) is not dict:
        raise ValidationError(f"{path}:{lineno}: record must be a JSON object")
    return record


def _read_records(path: str | Path, add: Callable[[dict, int], None]) -> dict:
    """Call ``add(record, lineno)`` for the object on every non-blank line of
    a JSONL file, and return the object of its ``{"_meta": {...}}`` header,
    or ``{}`` without one; ``_meta`` anywhere but in a first record that holds
    nothing else is an error.

    Each line costs one scanner call.  A line the scanner does not take whole
    (leading whitespace, a BOM, extra data, bad syntax, or a record followed
    by anything but JSON whitespace) goes to ``json.loads``, which parses it
    or raises its own error; the whitespace after a record is matched only
    when the record does not end just before the line break.
    """
    header = None
    for lineno, line in _lines(path):
        try:
            record, end = _scan_once(line, 0)
        except (StopIteration, ValueError, RecursionError):
            end = -1
        if end < 0 or (
            line[end:] not in _LINE_BREAKS and _skip_whitespace(line, end).end() != len(line)
        ):
            if line.isspace():
                continue
            record = _loads(line, path, lineno)
        if type(record) is not dict:
            raise ValidationError(f"{path}:{lineno}: record must be a JSON object")
        if header is None:
            header = {}
            if record.keys() == {"_meta"}:
                header = _fields(record, _HEADER_FIELDS, path, lineno)[0]
                continue
        if "_meta" in record:
            raise ValidationError(
                f"{path}:{lineno}: a _meta header must be the first record "
                "and hold no other field"
            )
        add(record, lineno)
    return header or {}


# Field tables: (key, accepted types, message when missing or null, message
# when of another type).  A field with no missing message is optional.  Types
# are matched exactly, as ``json`` builds only the exact built-in types, so no
# field accepts a boolean although bool is a subclass of int.  The values go on
# positionally: the candidate table ends with Candidate's fields and the pair
# table holds PreferencePair's, each in constructor order.  The candidate table
# is mirrored by the exact-type test in ``ingest_candidates``, which must accept
# exactly what the table accepts: change both together.
_MISSING_LOGPROB = "missing logprob (CR scores require reference-policy likelihoods)"
_STR = (str,)
_NUMBER = (int, float)
_HEADER_FIELDS = (("_meta", (dict,), "_meta must be a JSON object", "_meta must be a JSON object"),)
_CANDIDATE_FIELDS = (
    ("source_id", _STR, "missing field 'source_id'", "ids must be strings"),
    ("source_text", _STR, "missing field 'source_text'", "texts must be strings"),
    ("direction", _STR, "missing field 'direction'", "direction must be a string tag"),
    ("candidate_id", _STR, "missing field 'candidate_id'", "ids must be strings"),
    ("text", _STR, "missing field 'text'", "texts must be strings"),
    ("logprob", _NUMBER, _MISSING_LOGPROB, "logprob must be a number"),
    ("rewards", (dict,), "missing field 'rewards'", "rewards must be an object"),
    ("token_count", (int,), None, "token_count must be a positive integer"),
)
_PAIR_FIELDS = (
    ("source_id", _STR, "missing field 'source_id'", "ids must be strings"),
    ("chosen_id", _STR, "missing field 'chosen_id'", "ids must be strings"),
    ("rejected_id", _STR, "missing field 'rejected_id'", "ids must be strings"),
    ("score", _NUMBER, "missing field 'score'", "score must be a number"),
    ("method", _STR, "missing field 'method'", "method must be a string"),
    ("extras", (dict,), None, "extras must be an object"),
)
_SFT_FIELDS = (
    ("source_id", _STR, "missing field 'source_id'", "ids must be strings"),
    ("sft_target", _STR, "missing field 'sft_target'", "ids must be strings"),
)
_MATRIX_HEADER_FIELDS = (
    ("source_id", _STR, "block header needs source_id and ids", "source_id must be a string"),
    ("ids", (list,), "block header needs source_id and ids", "ids must be a list of strings"),
)


# One lookup of the candidate table's required fields, in table order, which
# raises KeyError when one is absent: the optional field is listed last.
_candidate_values = operator.itemgetter(
    *(key for key, _, missing, _ in _CANDIDATE_FIELDS if missing is not None)
)


def _check_encodable(path: str | Path, lineno: int, **values: str) -> None:
    """Reject a field that crpo writes back out when it holds a lone surrogate:
    a JSON escape such as ``"\\ud800"`` reads as one, and no UTF-8 writer can
    encode it.  Texts may hold them, since the utility encodes them with
    ``surrogatepass``; only the ids and method tags are checked."""
    for key, value in values.items():
        if not value.isascii():
            try:
                value.encode()
            except UnicodeEncodeError:
                raise ValidationError(
                    f"{path}:{lineno}: {key} holds a lone surrogate, which UTF-8 cannot encode"
                ) from None


def _fields(record: dict, fields: tuple, path: str | Path, lineno: int) -> list:
    """The values of ``fields`` in ``record``, checked against the table;
    an absent optional field reads as None."""
    values = []
    for key, kinds, missing, wrong in fields:
        value = record.get(key)
        if type(value) in kinds:
            values.append(value)
        elif value is None and missing is None:
            values.append(None)
        else:
            raise ValidationError(f"{path}:{lineno}: {wrong if value is not None else missing}")
    return values


def ingest_candidates(path: str | Path) -> list[CandidateSet]:
    """Read and validate a candidate file, grouping records by source.

    Records for one source need not be contiguous; groups keep first-
    appearance order and each set holds its candidates in id order.  Every
    malformed record is reported with its line number, and a malformed
    source with the line of its first record.
    """
    # source_id -> (source_text, direction, candidates by id, first line)
    groups: dict[str, tuple[str, tuple[str, str], dict[str, Candidate], int]] = {}
    directions: dict[str, tuple[str, str]] = {}  # each distinct tag, parsed once

    def add(record: dict, lineno: int) -> None:
        try:
            source_id, source_text, tag, candidate_id, text, logprob, rewards = (
                _candidate_values(record)
            )
            token_count = record.get("token_count")
            typed = (
                type(source_id) is str
                and type(source_text) is str
                and type(tag) is str
                and type(candidate_id) is str
                and type(text) is str
                and (type(logprob) is float or type(logprob) is int)
                and type(rewards) is dict
                and (token_count is None or type(token_count) is int)
            )
        except KeyError:
            typed = False
        if not typed:  # the table accepts what the test does: it raises the message
            source_id, source_text, tag, candidate_id, text, logprob, rewards, token_count = (
                _fields(record, _CANDIDATE_FIELDS, path, lineno)
            )
        if not (source_id.isascii() and candidate_id.isascii()):
            _check_encodable(path, lineno, source_id=source_id, candidate_id=candidate_id)
        try:
            direction = directions.get(tag)
            if direction is None:
                direction = directions[tag] = parse_direction(tag)
            candidate = Candidate(candidate_id, text, logprob, rewards, token_count)
        except ValidationError as err:
            raise ValidationError(f"{path}:{lineno}: {err}") from None
        group = groups.get(source_id)
        if group is None:
            group = groups[source_id] = (source_text, direction, {}, lineno)
        elif group[0] != source_text or group[1] != direction:
            raise ValidationError(
                f"{path}:{lineno}: source {source_id!r} has inconsistent "
                "source_text or direction across records"
            )
        if candidate_id in group[2]:
            raise ValidationError(
                f"{path}:{lineno}: duplicate candidate id {candidate_id!r} "
                f"for source {source_id!r}"
            )
        group[2][candidate_id] = candidate

    # The cyclic garbage collector is paused while the records and sets, which
    # hold no reference cycles, are built, and then restored to the state it
    # was in.  A collection after the records but before the sets would walk
    # every record.  ``gc.freeze`` is not used: it would also freeze the
    # caller's objects.
    collecting = gc.isenabled()
    gc.disable()
    try:
        _read_records(path, add)  # returns the _meta header, which ingest does not use
        sets = []
        for source_id, (text, direction, candidates, lineno) in groups.items():
            try:
                sets.append(CandidateSet(source_id, text, direction, tuple(candidates.values())))
            except ValidationError as err:
                raise ValidationError(f"{path}:{lineno}: {err}") from None
        return sets
    finally:
        if collecting:
            gc.enable()


# One encoder for every record the writers emit; ``json.dumps`` would build a
# new one per call, as ``ensure_ascii=False`` is not its default.
_encode = json.JSONEncoder(ensure_ascii=False).encode


def emit_pairs(dataset: PreferenceDataset, path: str | Path) -> None:
    """Write a preference dataset: header, pair records, SFT-target records."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(_encode({"_meta": dict(dataset.provenance)}) + "\n")
        handle.writelines(
            _encode(
                {
                    "source_id": pair.source_id,
                    "chosen_id": pair.chosen_id,
                    "rejected_id": pair.rejected_id,
                    "method": pair.method,
                    "score": pair.score,
                    "extras": dict(pair.extras),
                }
            )
            + "\n"
            for pair in dataset.pairs
        )
        handle.writelines(
            _encode({"source_id": source_id, "sft_target": candidate_id, "method": "qe_best"})
            + "\n"
            for source_id, candidate_id in dataset.sft_targets
        )


def load_pairs(path: str | Path) -> PreferenceDataset:
    """Read a pair file back into a PreferenceDataset."""
    pairs: list[PreferencePair] = []
    sft_targets: list[tuple[str, str]] = []

    def add(record: dict, lineno: int) -> None:
        if "sft_target" in record:
            source_id, target = _fields(record, _SFT_FIELDS, path, lineno)
            _check_encodable(path, lineno, source_id=source_id, sft_target=target)
            sft_targets.append((source_id, target))
            return
        source_id, chosen_id, rejected_id, score, method, extras = _fields(
            record, _PAIR_FIELDS, path, lineno
        )
        _check_encodable(
            path,
            lineno,
            source_id=source_id,
            chosen_id=chosen_id,
            rejected_id=rejected_id,
            method=method,
        )
        try:
            pair = PreferencePair(source_id, chosen_id, rejected_id, score, method, extras or {})
        except ValidationError as err:
            raise ValidationError(f"{path}:{lineno}: {err}") from None
        pairs.append(pair)

    collecting = gc.isenabled()
    gc.disable()  # as in ingest_candidates
    try:
        provenance = _read_records(path, add)
    finally:
        if collecting:
            gc.enable()
    return PreferenceDataset(
        pairs=tuple(pairs), sft_targets=tuple(sft_targets), provenance=provenance
    )


# The four histogram series of a stats report, each with the report key of the
# edges it is binned on.
_STATS_SERIES = (
    ("chosen_reward", "reward_edges"),
    ("rejected_reward", "reward_edges"),
    ("chosen_logprob", "logprob_edges"),
    ("rejected_logprob", "logprob_edges"),
)


def _finite_mean(values: Sequence[float]) -> float:
    """``np.mean`` of finite values, bit for bit, rescaled by the largest
    magnitude when the plain sum overflows (log-likelihoods near -1.8e308
    do); each rescaled partial sum is at most its count, so the mean stays
    finite."""
    mean = pairwise_sum(values) / len(values)
    if not math.isfinite(mean):
        scale = max(map(abs, values))
        mean = scale * (pairwise_sum([v / scale for v in values]) / len(values))
    return mean


def _linspace(lo: float, hi: float, num: int) -> list[float]:
    """``np.linspace(lo, hi, num).tolist()`` for num >= 2, bit for bit:
    i * step + lo, or (i / div) * delta + lo when the step underflows to 0,
    and ``hi`` itself as the last edge."""
    div = num - 1
    delta = hi - lo
    step = delta / div
    if step == 0:
        edges = [i / div * delta + lo for i in range(num)]
    else:
        edges = [i * step + lo for i in range(num)]
    edges[-1] = hi
    return edges


def _histogram(values: Sequence[float], edges: Sequence[float]) -> list[int]:
    """``np.histogram(values, bins=edges)[0].tolist()``: the count of values
    in each [edges[i], edges[i + 1]), the last bin closed on the right."""
    ordered = sorted(values)
    below = [bisect.bisect_left(ordered, edge) for edge in edges[:-1]]
    below.append(bisect.bisect_right(ordered, edges[-1]))
    return [high - low for low, high in zip(below, below[1:])]


def emit_stats(
    dataset: PreferenceDataset, sets: Sequence[CandidateSet], bins: int = 20
) -> dict:
    """Histograms and means of chosen/rejected reward and log-likelihood
    populations, grouped by method: the report that ``save_stats`` writes.

    All methods share the same bin edges (rewards on [0, 1], log-likelihoods
    on the candidate population's range) so their histograms are directly
    comparable.  ``scatter`` lists (reward gap, logprob gap) per pair, both
    oriented chosen minus rejected.  Log-likelihoods are normalized as the
    selector normalized them: by the ``logprob_norm`` of the dataset's
    provenance config (``sum`` if absent).
    """
    if not is_integer(bins) or not 1 <= bins <= MAX_BINS:
        raise ValidationError(f"bins must be an integer in [1, {MAX_BINS}], got {bins!r}")
    resolved = dataset.validate_against(sets)
    config = dataset.provenance.get("config", {})
    if not isinstance(config, dict):
        raise ValidationError("pair file provenance config must be a JSON object")
    norm = SelectionConfig(logprob_norm=config.get("logprob_norm", "sum"))
    all_logprobs = [effective_logprob(c, norm) for cset in sets for c in cset.candidates]
    if not all_logprobs:
        raise ValidationError("no candidates to summarize")
    lo, hi = min(all_logprobs), max(all_logprobs)
    if lo == hi:
        # One value: a range of 1 around it, or of 2**-23 of its magnitude when
        # that is wider, so that every edge stays above the last even where a
        # unit is below the value's ulp (-1e300 - 0.5 == -1e300).  The low edge
        # stops at the most negative float.
        half = max(0.5, abs(lo) * 2.0**-24)
        lo, hi = max(lo - half, -_FLOAT_MAX), hi + half
    report = {
        "bins": bins,
        "reward_edges": _linspace(0.0, 1.0, bins + 1),
        "logprob_edges": _linspace(lo, hi, bins + 1),
        "methods": {},
        "n_pairs": len(dataset.pairs),
        "n_sft_targets": len(dataset.sft_targets),
    }

    groups: dict[str, list[tuple[Candidate, Candidate]]] = {}
    for pair, candidates in zip(dataset.pairs, resolved):
        groups.setdefault(pair.method, []).append(candidates)
    for method in sorted(groups):
        chosen, rejected = zip(*groups[method])
        series = {
            "chosen_reward": [c.reward_agg for c in chosen],
            "rejected_reward": [c.reward_agg for c in rejected],
            "chosen_logprob": [effective_logprob(c, norm) for c in chosen],
            "rejected_logprob": [effective_logprob(c, norm) for c in rejected],
        }
        stats: dict[str, object] = {"n_pairs": len(chosen)}
        for name, edges_key in _STATS_SERIES:
            stats[f"{name}_hist"] = _histogram(series[name], report[edges_key])
            stats[f"{name}_mean"] = _finite_mean(series[name])
        stats["scatter"] = [
            [c.reward_agg - r.reward_agg, c_logprob - r_logprob]
            for c, r, c_logprob, r_logprob in zip(
                chosen, rejected, series["chosen_logprob"], series["rejected_logprob"]
            )
        ]
        report["methods"][method] = stats
    return report


def save_stats(report: dict, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, ensure_ascii=False, indent=2)
        handle.write("\n")


def save_stats_csv(report: dict, path: str | Path) -> None:
    """Flat histogram rows: method, series, bin bounds, count."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["method", "series", "bin_lo", "bin_hi", "count"])
        for method, stats in report["methods"].items():
            for series, edges_key in _STATS_SERIES:
                edges = report[edges_key]
                for i, count in enumerate(stats[f"{series}_hist"]):
                    writer.writerow([method, series, edges[i], edges[i + 1], count])


def save_utility_matrices(
    entries: Sequence[tuple[str, UtilityMatrix]], path: str | Path
) -> None:
    """Write utility matrices as blocks: a JSON header line with the source
    and candidate ids, then one whitespace-separated row per candidate."""
    with open(path, "w", encoding="utf-8") as handle:
        for source_id, matrix in entries:
            header = {"source_id": source_id, "ids": list(matrix.ids)}
            handle.write(_encode(header) + "\n")
            for row in matrix.rows:
                handle.write(" ".join(map(repr, row)) + "\n")


def load_utility_matrices(path: str | Path) -> dict[str, UtilityMatrix]:
    """Read utility-matrix blocks back into per-source matrices."""
    matrices: dict[str, UtilityMatrix] = {}
    lines = _lines(path)
    for lineno, line in lines:
        if line.isspace():
            continue
        where = f"{path}:{lineno}"
        header = _json_object(line, path, lineno)
        source_id, ids = _fields(header, _MATRIX_HEADER_FIELDS, path, lineno)
        if source_id in matrices:
            raise ValidationError(f"{where}: duplicate matrix for source {source_id!r}")
        k = len(ids)
        rows = []
        for row_no, row in itertools.islice(lines, k):
            parts = row.split()
            if len(parts) != k:
                raise ValidationError(f"{path}:{row_no}: expected {k} values, got {len(parts)}")
            # ``float`` also reads spellings crpo never writes: "1_0" and
            # non-ASCII digits such as "\u0661" or "\uff11".
            try:
                if "_" in row or not all(map(str.isascii, parts)):
                    raise ValueError
                rows.append([float(p) for p in parts])
            except ValueError:
                raise ValidationError(f"{path}:{row_no}: non-numeric matrix entry") from None
        if len(rows) < k:
            raise ValidationError(f"{where}: block for {source_id!r} is truncated")
        try:
            matrices[source_id] = UtilityMatrix(ids=tuple(ids), values=rows)
        except ValidationError as err:
            raise ValidationError(f"{where}: {err}") from None
    return matrices
