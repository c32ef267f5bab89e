"""JSON-Lines ingestion, emission, merging, and summary statistics.

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
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

from .core import (
    Candidate,
    CandidateSet,
    PreferenceDataset,
    PreferencePair,
    SelectionConfig,
    ValidationError,
    effective_logprob,
)
from .scoring import UtilityMatrix


def digest_file(path: str | Path) -> str:
    """SHA-256 hex digest of a file's bytes."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def parse_direction(tag: str) -> tuple[str, str]:
    """Split a direction tag like ``en-de`` into (source, target)."""
    parts = tag.split("-")
    if len(parts) != 2 or not parts[0] or not parts[1]:
        raise ValidationError(f"invalid direction tag {tag!r}; expected 'src-tgt'")
    return (parts[0], parts[1])


def format_direction(direction: tuple[str, str]) -> str:
    return f"{direction[0]}-{direction[1]}"


def _lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """Numbered lines of a UTF-8 text file, split on newlines only (not on
    U+2028 or U+0085, which ``json.dumps`` writes unescaped in ids).  Bad
    bytes decode to lone surrogates, so the line that holds one is named."""
    with open(path, encoding="utf-8", errors="surrogateescape") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    raise ValidationError(f"{path}:{lineno}: not valid UTF-8") from None
            yield lineno, line


def _json_object(line: str, path: str | Path, lineno: int) -> dict:
    # ValueError is JSONDecodeError or an int of over 4300 digits.
    try:
        record = json.loads(line)
    except (ValueError, RecursionError) as err:
        raise ValidationError(f"{path}:{lineno}: invalid JSON: {err}") from None
    if not isinstance(record, dict):
        raise ValidationError(f"{path}:{lineno}: record must be a JSON object")
    return record


def _read_json_lines(path: str | Path) -> Iterator[tuple[int, dict]]:
    """``(line, header)``, then ``(line, record)`` for every other non-blank
    line.  The header is the object of a ``{"_meta": {...}}`` first record,
    or ``(0, {})`` without one; ``_meta`` anywhere else is an error."""
    header_due = True
    for lineno, line in _lines(path):
        if line.isspace():
            continue
        record = _json_object(line, path, lineno)
        if header_due:
            header_due = False
            if record.keys() == {"_meta"}:
                yield lineno, _fields(record, _HEADER_FIELDS, path, lineno)[0]
                continue
            yield 0, {}
        if "_meta" in record:
            raise ValidationError(
                f"{path}:{lineno}: a _meta header must be the first record "
                "and hold no other field"
            )
        yield lineno, record
    if header_due:
        yield 0, {}


def read_meta(path: str | Path) -> dict:
    """Header metadata of a JSONL file ({} when the file has none)."""
    return next(_read_json_lines(path))[1]


# Field tables: (key, accepted types, message when missing or null, message
# when of another type).  A field with no missing message is optional.  No
# field accepts a boolean, although bool is a subclass of int.  The values go
# on positionally: the candidate table ends with Candidate's fields and the pair
# table holds PreferencePair's, each in constructor order.
_MISSING_LOGPROB = "missing logprob (CR scores require reference-policy likelihoods)"
_HEADER_FIELDS = (("_meta", dict, "_meta must be a JSON object", "_meta must be a JSON object"),)
_CANDIDATE_FIELDS = (
    ("source_id", str, "missing field 'source_id'", "ids must be strings"),
    ("source_text", str, "missing field 'source_text'", "texts must be strings"),
    ("direction", str, "missing field 'direction'", "direction must be a string tag"),
    ("candidate_id", str, "missing field 'candidate_id'", "ids must be strings"),
    ("text", str, "missing field 'text'", "texts must be strings"),
    ("logprob", (int, float), _MISSING_LOGPROB, "logprob must be a number"),
    ("rewards", dict, "missing field 'rewards'", "rewards must be an object"),
    ("token_count", int, None, "token_count must be a positive integer"),
)
_PAIR_FIELDS = (
    ("source_id", str, "missing field 'source_id'", "ids must be strings"),
    ("chosen_id", str, "missing field 'chosen_id'", "ids must be strings"),
    ("rejected_id", str, "missing field 'rejected_id'", "ids must be strings"),
    ("score", (int, float), "missing field 'score'", "score must be a number"),
    ("method", str, "missing field 'method'", "method must be a string"),
    ("extras", dict, None, "extras must be an object"),
)
_SFT_FIELDS = (
    ("source_id", str, "missing field 'source_id'", "ids must be strings"),
    ("sft_target", str, "missing field 'sft_target'", "ids must be strings"),
)
_MATRIX_HEADER_FIELDS = (
    ("source_id", str, "block header needs source_id and ids", "source_id must be a string"),
    ("ids", list, "block header needs source_id and ids", "ids must be a list of strings"),
)


def _fields(record: dict, fields: tuple, path: str | Path, lineno: int) -> list:
    """The values of ``fields`` in ``record``, checked against the table;
    an absent optional field reads as None."""
    values = []
    for key, kind, missing, wrong in fields:
        value = record.get(key)
        if isinstance(value, kind) and value is not True and value is not False:
            values.append(value)
        elif value is None and missing is None:
            values.append(None)
        else:
            raise ValidationError(f"{path}:{lineno}: {wrong if value is not None else missing}")
    return values


def ingest_candidates(path: str | Path) -> list[CandidateSet]:
    """Read and validate a candidate file, grouping records by source.

    Records for one source need not be contiguous; groups keep first-
    appearance order and candidates keep record order.  Every malformed
    record is reported with its line number.
    """
    # source_id -> (source_text, direction, candidates by id)
    groups: dict[str, tuple[str, tuple[str, str], dict[str, Candidate]]] = {}
    records = _read_json_lines(path)
    next(records)  # the _meta header, which ingest does not use
    for lineno, record in records:
        source_id, source_text, direction_tag, *fields = _fields(
            record, _CANDIDATE_FIELDS, path, lineno
        )
        try:
            direction = parse_direction(direction_tag)
            candidate = Candidate(*fields)
        except ValidationError as err:
            raise ValidationError(f"{path}:{lineno}: {err}") from None
        group = groups.get(source_id)
        if group is None:
            group = groups[source_id] = (source_text, direction, {})
        elif group[0] != source_text or group[1] != direction:
            raise ValidationError(
                f"{path}:{lineno}: source {source_id!r} has inconsistent "
                "source_text or direction across records"
            )
        if candidate.id in group[2]:
            raise ValidationError(
                f"{path}:{lineno}: duplicate candidate id {candidate.id!r} "
                f"for source {source_id!r}"
            )
        group[2][candidate.id] = candidate
    return [
        CandidateSet(source_id, source_text, direction, tuple(candidates.values()))
        for source_id, (source_text, direction, candidates) in groups.items()
    ]


def emit_candidates(
    sets: Sequence[CandidateSet],
    path: str | Path,
    meta: Mapping[str, object] | None = None,
) -> None:
    """Write candidate sets back to JSONL (inverse of ``ingest_candidates``)."""
    with open(path, "w", encoding="utf-8") as handle:
        if meta:
            handle.write(json.dumps({"_meta": dict(meta)}, ensure_ascii=False) + "\n")
        for cset in sets:
            for cand in cset.candidates:
                record = {
                    "source_id": cset.source_id,
                    "source_text": cset.source_text,
                    "direction": format_direction(cset.direction),
                    "candidate_id": cand.id,
                    "text": cand.text,
                    "logprob": cand.logprob,
                    "rewards": dict(cand.rewards),
                }
                if cand.token_count is not None:
                    record["token_count"] = cand.token_count
                handle.write(json.dumps(record, ensure_ascii=False) + "\n")


def merge_candidate_sources(
    primary: Sequence[CandidateSet], extra: Sequence[CandidateSet]
) -> list[CandidateSet]:
    """Union extra candidate pools into the per-source primary sets.

    Sources that appear only in ``extra`` are appended after the primary
    sets.  Candidate id collisions within a source are an error.
    """
    merged: dict[str, CandidateSet] = {cset.source_id: cset for cset in primary}
    if len(merged) != len(primary):
        raise ValidationError("duplicate source_id among primary sets")
    order = [cset.source_id for cset in primary]
    for cset in extra:
        if cset.source_id not in merged:
            merged[cset.source_id] = cset
            order.append(cset.source_id)
            continue
        base = merged[cset.source_id]
        if base.source_text != cset.source_text or base.direction != cset.direction:
            raise ValidationError(
                f"source {cset.source_id!r}: extra pool has inconsistent "
                "source_text or direction"
            )
        base_ids = {c.id for c in base.candidates}
        for cand in cset.candidates:
            if cand.id in base_ids:
                raise ValidationError(
                    f"source {cset.source_id!r}: candidate id collision {cand.id!r}"
                )
        merged[cset.source_id] = CandidateSet(
            source_id=base.source_id,
            source_text=base.source_text,
            direction=base.direction,
            candidates=base.candidates + cset.candidates,
        )
    return [merged[source_id] for source_id in order]


def merge_candidate_files(
    primary_path: str | Path, extra_path: str | Path
) -> list[CandidateSet]:
    """File-level merge that also checks the declared reference policies match."""
    primary_meta = read_meta(primary_path)
    extra_meta = read_meta(extra_path)
    ref_a = primary_meta.get("ref_policy")
    ref_b = extra_meta.get("ref_policy")
    if ref_a is not None and ref_b is not None and ref_a != ref_b:
        raise ValidationError(
            f"reference policies differ: {ref_a!r} vs {ref_b!r}; "
            "CR scores require likelihoods under one policy"
        )
    return merge_candidate_sources(
        ingest_candidates(primary_path), ingest_candidates(extra_path)
    )


def emit_pairs(dataset: PreferenceDataset, path: str | Path) -> None:
    """Write a preference dataset: header, pair records, SFT-target records."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(
            json.dumps({"_meta": dict(dataset.provenance)}, ensure_ascii=False) + "\n"
        )
        for pair in dataset.pairs:
            record = {
                "source_id": pair.source_id,
                "chosen_id": pair.chosen_id,
                "rejected_id": pair.rejected_id,
                "method": pair.method,
                "score": pair.score,
                "extras": dict(pair.extras),
            }
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")
        for source_id, candidate_id in dataset.sft_targets:
            record = {
                "source_id": source_id,
                "sft_target": candidate_id,
                "method": "qe_best",
            }
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")


def load_pairs(path: str | Path) -> PreferenceDataset:
    """Read a pair file back into a PreferenceDataset."""
    pairs: list[PreferencePair] = []
    sft_targets: list[tuple[str, str]] = []
    records = _read_json_lines(path)
    _, provenance = next(records)
    for lineno, record in records:
        if "sft_target" in record:
            sft_targets.append(tuple(_fields(record, _SFT_FIELDS, path, lineno)))
            continue
        *fields, extras = _fields(record, _PAIR_FIELDS, path, lineno)
        try:
            pairs.append(PreferencePair(*fields, extras=extras or {}))
        except ValidationError as err:
            raise ValidationError(f"{path}:{lineno}: {err}") from None
    return PreferenceDataset(
        pairs=tuple(pairs), sft_targets=tuple(sft_targets), provenance=provenance
    )


@dataclass(frozen=True)
class StatsReport:
    """Histograms and means of pair populations, grouped by method.

    All methods share the same bin edges (rewards on [0, 1], log-likelihoods
    on the candidate population's range) so their histograms are directly
    comparable.  ``scatter`` lists (reward gap, logprob gap) per pair, both
    oriented chosen minus rejected.
    """

    bins: int
    reward_edges: tuple[float, ...]
    logprob_edges: tuple[float, ...]
    methods: Mapping[str, Mapping[str, object]]
    n_pairs: int
    n_sft_targets: int

    def to_dict(self) -> dict:
        return {
            "bins": self.bins,
            "reward_edges": list(self.reward_edges),
            "logprob_edges": list(self.logprob_edges),
            "methods": {name: dict(stats) for name, stats in self.methods.items()},
            "n_pairs": self.n_pairs,
            "n_sft_targets": self.n_sft_targets,
        }


def _mean_or_none(values: Sequence[float]) -> float | None:
    return float(np.mean(values)) if values else None


def emit_stats(
    dataset: PreferenceDataset, sets: Sequence[CandidateSet], bins: int = 20
) -> StatsReport:
    """Summarize chosen/rejected reward and log-likelihood populations.

    Log-likelihoods are normalized as the selector normalized them: by the
    ``logprob_norm`` of the dataset's provenance config (``sum`` if absent).
    """
    if bins < 1:
        raise ValidationError(f"bins must be >= 1, got {bins}")
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
        lo, hi = lo - 0.5, hi + 0.5
    reward_edges = np.linspace(0.0, 1.0, bins + 1)
    logprob_edges = np.linspace(lo, hi, bins + 1)

    populations: dict[str, dict[str, list]] = {}
    for pair, (chosen, rejected) in zip(dataset.pairs, resolved):
        series = populations.setdefault(
            pair.method,
            {
                "chosen_reward": [],
                "rejected_reward": [],
                "chosen_logprob": [],
                "rejected_logprob": [],
                "scatter": [],
            },
        )
        series["chosen_reward"].append(chosen.reward_agg)
        series["rejected_reward"].append(rejected.reward_agg)
        chosen_logprob = effective_logprob(chosen, norm)
        rejected_logprob = effective_logprob(rejected, norm)
        series["chosen_logprob"].append(chosen_logprob)
        series["rejected_logprob"].append(rejected_logprob)
        series["scatter"].append(
            (chosen.reward_agg - rejected.reward_agg, chosen_logprob - rejected_logprob)
        )

    methods: dict[str, dict[str, object]] = {}
    for method in sorted(populations):
        series = populations[method]
        stats: dict[str, object] = {"n_pairs": len(series["scatter"])}
        for name, edges in (
            ("chosen_reward", reward_edges),
            ("rejected_reward", reward_edges),
            ("chosen_logprob", logprob_edges),
            ("rejected_logprob", logprob_edges),
        ):
            counts, _ = np.histogram(series[name], bins=edges)
            stats[f"{name}_hist"] = [int(c) for c in counts]
            stats[f"{name}_mean"] = _mean_or_none(series[name])
        stats["scatter"] = [[float(a), float(b)] for a, b in series["scatter"]]
        methods[method] = stats

    return StatsReport(
        bins=bins,
        reward_edges=tuple(float(e) for e in reward_edges),
        logprob_edges=tuple(float(e) for e in logprob_edges),
        methods=methods,
        n_pairs=len(dataset.pairs),
        n_sft_targets=len(dataset.sft_targets),
    )


def save_stats(report: StatsReport, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report.to_dict(), handle, ensure_ascii=False, indent=2)
        handle.write("\n")


def save_stats_csv(report: StatsReport, path: str | Path) -> None:
    """Flat histogram rows: method, series, bin bounds, count."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["method", "series", "bin_lo", "bin_hi", "count"])
        for method, stats in report.methods.items():
            for series, edges in (
                ("chosen_reward", report.reward_edges),
                ("rejected_reward", report.reward_edges),
                ("chosen_logprob", report.logprob_edges),
                ("rejected_logprob", report.logprob_edges),
            ):
                counts = stats[f"{series}_hist"]
                for i, count in enumerate(counts):
                    writer.writerow([method, series, edges[i], edges[i + 1], count])


def save_utility_matrices(
    entries: Sequence[tuple[str, UtilityMatrix]], path: str | Path
) -> None:
    """Write utility matrices as blocks: a JSON header line with the source
    and candidate ids, then one whitespace-separated row per candidate."""
    with open(path, "w", encoding="utf-8") as handle:
        for source_id, matrix in entries:
            header = {"source_id": source_id, "ids": list(matrix.ids)}
            handle.write(json.dumps(header, ensure_ascii=False) + "\n")
            for row in matrix.values:
                handle.write(" ".join(repr(float(v)) for v in row) + "\n")


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
            try:
                rows.append([float(p) for p in parts])
            except ValueError:
                raise ValidationError(f"{path}:{row_no}: non-numeric matrix entry") from None
        if len(rows) < k:
            raise ValidationError(f"{where}: block for {source_id!r} is truncated")
        try:
            matrices[source_id] = UtilityMatrix(ids=tuple(ids), values=np.array(rows))
        except ValidationError as err:
            raise ValidationError(f"{where}: {err}") from None
    return matrices
