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

Either file may start with a ``{"_meta": {...}}`` header line.  Floats are
written in Python's shortest round-trip representation, so emit followed by
ingest is lossless, and identical inputs produce byte-identical outputs.
"""

from __future__ import annotations

import csv
import hashlib
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


def _read_json_lines(path: str | Path) -> Iterator[tuple[int, dict]]:
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as err:
                raise ValidationError(f"{path}:{lineno}: invalid JSON: {err}") from None
            if not isinstance(record, dict):
                raise ValidationError(f"{path}:{lineno}: record must be a JSON object")
            yield lineno, record


def read_meta(path: str | Path) -> dict:
    """Header metadata of a JSONL file ({} when the file has none)."""
    for _, record in _read_json_lines(path):
        if "_meta" in record:
            meta = record["_meta"]
            if not isinstance(meta, dict):
                raise ValidationError(f"{path}:1: _meta must be a JSON object")
            return meta
        break
    return {}


def _require(record: dict, key: str, path: str | Path, lineno: int) -> object:
    if key not in record or record[key] is None:
        if key == "logprob":
            raise ValidationError(
                f"{path}:{lineno}: missing logprob "
                "(CR scores require reference-policy likelihoods)"
            )
        raise ValidationError(f"{path}:{lineno}: missing field {key!r}")
    return record[key]


def ingest_candidates(path: str | Path) -> list[CandidateSet]:
    """Read and validate a candidate file, grouping records by source.

    Records for one source need not be contiguous; groups keep first-
    appearance order and candidates keep record order.  Every malformed
    record is reported with its line number.
    """
    groups: dict[str, dict] = {}
    for lineno, record in _read_json_lines(path):
        if "_meta" in record:
            continue
        source_id = _require(record, "source_id", path, lineno)
        source_text = _require(record, "source_text", path, lineno)
        direction_tag = _require(record, "direction", path, lineno)
        candidate_id = _require(record, "candidate_id", path, lineno)
        text = _require(record, "text", path, lineno)
        logprob = _require(record, "logprob", path, lineno)
        rewards = _require(record, "rewards", path, lineno)
        if not isinstance(source_id, str) or not isinstance(candidate_id, str):
            raise ValidationError(f"{path}:{lineno}: ids must be strings")
        if not isinstance(source_text, str) or not isinstance(text, str):
            raise ValidationError(f"{path}:{lineno}: texts must be strings")
        if not isinstance(direction_tag, str):
            raise ValidationError(f"{path}:{lineno}: direction must be a string tag")
        if not isinstance(rewards, dict):
            raise ValidationError(f"{path}:{lineno}: rewards must be an object")
        token_count = record.get("token_count")
        try:
            direction = parse_direction(direction_tag)
            candidate = Candidate(
                id=candidate_id,
                text=text,
                logprob=logprob,
                rewards=rewards,
                token_count=token_count,
            )
        except ValidationError as err:
            raise ValidationError(f"{path}:{lineno}: {err}") from None
        group = groups.setdefault(
            source_id,
            {
                "source_text": source_text,
                "direction": direction,
                "candidates": [],
                "seen": set(),
            },
        )
        if group["source_text"] != source_text or group["direction"] != direction:
            raise ValidationError(
                f"{path}:{lineno}: source {source_id!r} has inconsistent "
                "source_text or direction across records"
            )
        if candidate_id in group["seen"]:
            raise ValidationError(
                f"{path}:{lineno}: duplicate candidate id {candidate_id!r} "
                f"for source {source_id!r}"
            )
        group["seen"].add(candidate_id)
        group["candidates"].append(candidate)
    return [
        CandidateSet(
            source_id=source_id,
            source_text=group["source_text"],
            direction=group["direction"],
            candidates=tuple(group["candidates"]),
        )
        for source_id, group in groups.items()
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
    provenance: dict = {}
    pairs: list[PreferencePair] = []
    sft_targets: list[tuple[str, str]] = []
    for lineno, record in _read_json_lines(path):
        if "_meta" in record:
            if not isinstance(record["_meta"], dict):
                raise ValidationError(f"{path}:{lineno}: _meta must be a JSON object")
            provenance = record["_meta"]
            continue
        if "sft_target" in record:
            source_id = _require(record, "source_id", path, lineno)
            target = _require(record, "sft_target", path, lineno)
            sft_targets.append((source_id, target))
            continue
        source_id = _require(record, "source_id", path, lineno)
        chosen_id = _require(record, "chosen_id", path, lineno)
        rejected_id = _require(record, "rejected_id", path, lineno)
        method = _require(record, "method", path, lineno)
        score = _require(record, "score", path, lineno)
        if not isinstance(score, (int, float)) or isinstance(score, bool):
            raise ValidationError(f"{path}:{lineno}: score must be a number")
        extras = record.get("extras", {})
        if not isinstance(extras, dict):
            raise ValidationError(f"{path}:{lineno}: extras must be an object")
        try:
            pairs.append(
                PreferencePair(
                    source_id=source_id,
                    chosen_id=chosen_id,
                    rejected_id=rejected_id,
                    score=score,
                    method=method,
                    extras=extras,
                )
            )
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
    dataset.validate_against(sets)
    config = dataset.provenance.get("config", {})
    if not isinstance(config, dict):
        raise ValidationError("pair file provenance config must be a JSON object")
    norm = SelectionConfig(logprob_norm=config.get("logprob_norm", "sum"))
    by_source = {cset.source_id: cset for cset in sets}
    all_logprobs = [effective_logprob(c, norm) for cset in sets for c in cset.candidates]
    lo, hi = min(all_logprobs), max(all_logprobs)
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    reward_edges = np.linspace(0.0, 1.0, bins + 1)
    logprob_edges = np.linspace(lo, hi, bins + 1)

    populations: dict[str, dict[str, list]] = {}
    for pair in dataset.pairs:
        cset = by_source[pair.source_id]
        chosen = cset.candidate(pair.chosen_id)
        rejected = cset.candidate(pair.rejected_id)
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
    with open(path, encoding="utf-8") as handle:
        # Not str.splitlines(): it also breaks a header whose ids hold U+2028
        # or U+0085, which json.dumps writes unescaped.
        lines = handle.readlines()
    i = 0
    while i < len(lines):
        if not lines[i].strip():
            i += 1
            continue
        where = f"{path}:{i + 1}"
        try:
            header = json.loads(lines[i])
        except json.JSONDecodeError as err:
            raise ValidationError(f"{where}: invalid block header: {err}") from None
        if not isinstance(header, dict) or "source_id" not in header or "ids" not in header:
            raise ValidationError(f"{where}: block header needs source_id and ids")
        source_id, ids = header["source_id"], header["ids"]
        if not isinstance(source_id, str):
            raise ValidationError(f"{where}: source_id must be a string")
        if not isinstance(ids, list) or not all(isinstance(c, str) for c in ids):
            raise ValidationError(f"{where}: ids must be a list of strings")
        if source_id in matrices:
            raise ValidationError(f"{where}: duplicate matrix for source {source_id!r}")
        k = len(ids)
        rows = []
        for lineno in range(i + 2, i + 2 + k):
            if lineno > len(lines):
                raise ValidationError(f"{where}: block for {source_id!r} is truncated")
            parts = lines[lineno - 1].split()
            if len(parts) != k:
                raise ValidationError(f"{path}:{lineno}: expected {k} values, got {len(parts)}")
            try:
                rows.append([float(p) for p in parts])
            except ValueError:
                raise ValidationError(f"{path}:{lineno}: non-numeric matrix entry") from None
        try:
            matrices[source_id] = UtilityMatrix(ids=tuple(ids), values=np.array(rows))
        except ValidationError as err:
            raise ValidationError(f"{where}: {err}") from None
        i += 1 + k
    return matrices
