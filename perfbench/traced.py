"""The traced run: the workload's own ``crpo`` commands run in-process through
``crpo.cli.main``, with a span around each call of crpo's public functions
and a ``gc.callbacks`` hook.

crpo's orchestration runs unchanged.  For a traced pass, ``Tracer.installed``
replaces each function in ``WRAPPED`` by a timing wrapper in the module that
looks it up (``crpo.cli`` calls ``ingest_candidates``, ``crpo.toylab`` calls
``train_dpo``, ...), and puts the originals back afterwards.  An untraced
pass runs the same commands with nothing replaced; the difference in time is
the tracing overhead.  A wrapper can also record counts taken from the
call's arguments or result (bytes read, pairs selected) as span attributes,
so every per-layer metric comes from the spans of one pass.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import io
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator

import numpy as np

from crpo import cli
from crpo.core import PreferenceDataset

import jobs

# Every method some workload runs, for the per-method selector metrics.
ALL_METHODS = (*jobs.SELECT_RUNS, "mbr_bw", "mbr_bmw", "random_pair")


def _read(tr: "Tracer", path, *_):
    return {"bytes_in": Path(path).stat().st_size}


def _written(result, _obj, path, *_):
    return {"bytes_out": Path(path).stat().st_size}


def _utility_calls(matrix, cset, *_):
    return {"calls": len(cset.candidates) ** 2}


def _selected(result, sets, *_):
    pools = result.provenance["n_sources"]
    return {"pairs": len(result.pairs), "pools": pools, "yielding": pools - result.provenance["n_skipped"]}


def _one_pool(outcome, *_):
    return {"pairs": len(outcome.pairs), "pools": 1, "yielding": int(bool(outcome.pairs))}


def _method(tr: "Tracer", _cset, config, *_):
    return {"method": tr.method_of(config)}


# (module, function, span name, attributes from the arguments, attributes
# from the result and the arguments).  Each function is replaced in the
# module that calls it.
WRAPPED = (
    ("crpo.cli", "ingest_candidates", "dataio.ingest_candidates",
     _read, lambda sets, *_: {"records": sum(len(cset.candidates) for cset in sets)}),
    ("crpo.cli", "digest_file", "dataio.digest_file", None, None),
    ("crpo.cli", "emit_pairs", "dataio.emit_pairs", None, _written),
    ("crpo.cli", "load_pairs", "dataio.load_pairs", _read, None),
    ("crpo.cli", "emit_stats", "dataio.emit_stats", None, None),
    ("crpo.cli", "save_stats", "dataio.save_stats", None, _written),
    ("crpo.cli", "load_utility_matrices", "dataio.load_utility_matrices", _read, None),
    ("crpo.cli", "save_utility_matrices", "dataio.save_utility_matrices", None, _written),
    ("crpo.cli", "utility_matrix_for_set", "scoring.utility_matrix_for_set", None,
     _utility_calls),
    ("crpo.cli", "select_dataset", "selectors.select_dataset", _method, _selected),
    ("crpo.cli", "make_world", "toylab.make_world", None, None),
    ("crpo.cli", "run_comparison", "toylab.run_comparison", None, None),
    ("crpo.selectors", "run_selector", "selectors.run_selector", _method, _one_pool),
    ("crpo.selectors", "utility_matrix_for_set", "scoring.utility_matrix_for_set", None,
     _utility_calls),
    ("crpo.selectors", "mbr_scores", "scoring.mbr_scores", None, None),
    ("crpo.toylab", "sample_candidates", "toylab.sample_candidates", None, None),
    ("crpo.toylab", "run_selector", "selectors.run_selector", _method, _one_pool),
    ("crpo.toylab", "random_pair_outcome", "toylab.random_pair_outcome",
     lambda tr, *_: {"method": "random_pair"}, _one_pool),
    ("crpo.toylab", "resolve_pairs", "toylab.resolve_pairs", None, None),
    ("crpo.toylab", "train_dpo", "toylab.train_dpo", None,
     lambda result, world, pairs, *_: {"pairs_trained": len(pairs)}),
    ("crpo.toylab", "batch_loss_and_grad", "losses.batch_loss_and_grad", None, None),
    ("crpo.toylab", "expected_reward", "toylab.expected_reward", None, None),
)


class Tracer:
    """Spans kept in memory as dicts: id (index into ``spans``), name,
    start, end, parent id, job (pass number) and any attributes."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.job = 0
        self.command = ""
        self.gc = {"pause_s": 0.0, "collections": 0}
        self._stack: list[int] = []
        self._gc_start = 0.0

    @contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[dict]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = {
            "id": index, "name": name, "start": perf_counter(), "end": None,
            "parent": parent, "job": self.job,
        }
        record.update(attrs)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = perf_counter()

    def innermost(self) -> str | None:
        return self.spans[self._stack[-1]]["name"] if self._stack else None

    def method_of(self, config) -> str:
        """The run label of a selection: the select command's label, which
        tells the gated cr_plus run from the plain one, or else the method."""
        kind, _, label = self.command.partition(":")
        return label if kind == "select" else config.method

    def wrap(self, fn: Callable, name: str, before, after, when=None) -> Callable:
        def traced(*args, **kwargs):
            if when is not None and not when():
                return fn(*args, **kwargs)
            attrs = before(self, *args) if before else {}
            with self.span(name, **attrs) as record:
                result = fn(*args, **kwargs)
            if after:
                record.update(after(result, *args))
            return result

        return traced

    @contextmanager
    def installed(self) -> Iterator[None]:
        """Replace every function in WRAPPED, and ``validate_against`` as
        ``emit_stats`` calls it, by its timing wrapper; then restore them."""
        saved = []
        for module_name, attr, name, before, after in WRAPPED:
            module = importlib.import_module(module_name)
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, self.wrap(getattr(module, attr), name, before, after))
        # run_selector validates every outcome with validate_against too;
        # only the call on the whole pair file inside emit_stats is timed.
        saved.append((PreferenceDataset, "validate_against", PreferenceDataset.validate_against))
        PreferenceDataset.validate_against = self.wrap(
            PreferenceDataset.validate_against, "core.validate_against", None, None,
            when=lambda: self.innermost() == "dataio.emit_stats",
        )
        try:
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = perf_counter()
        else:
            self.gc["pause_s"] += perf_counter() - self._gc_start
            self.gc["collections"] += 1

    @contextmanager
    def gc_hook(self) -> Iterator[None]:
        self.gc = {"pause_s": 0.0, "collections": 0}
        gc.callbacks.append(self._on_gc)
        try:
            yield
        finally:
            gc.callbacks.remove(self._on_gc)


def run_commands(commands: list[jobs.Command], tracer: Tracer | None = None) -> dict[str, int]:
    """Run the commands in order through ``crpo.cli.main`` in this process,
    traced when a tracer is given; the exit code of each.  What the commands
    print is dropped."""
    codes = {}
    with contextlib.redirect_stdout(io.StringIO()):
        for command in commands:
            if tracer is None:
                codes[command.label] = cli.main(list(command.argv))
                continue
            tracer.command = command.label
            with tracer.span("cli.main", command=command.label):
                codes[command.label] = cli.main(list(command.argv))
    return codes


def _spans(spans: list[dict], name: str, **attrs: object) -> list[dict]:
    return [s for s in spans if s["name"] == name and all(s.get(k) == v for k, v in attrs.items())]


def _durations(spans: list[dict], name: str, **attrs: object) -> list[float]:
    return [s["end"] - s["start"] for s in _spans(spans, name, **attrs)]


def _total(spans: list[dict], name: str, **attrs: object) -> float:
    return float(sum(_durations(spans, name, **attrs)))


def _sum_attr(spans: list[dict], attr: str) -> int:
    return sum(s.get(attr, 0) for s in spans)


def _percentile(values: list[float], q: float, scale: float) -> float:
    return float(np.percentile(values, q)) * scale if values else 0.0


def _selections(spans: list[dict]) -> list[dict]:
    """The outermost spans that carry a method: one ``select_dataset`` per
    select command, and one selector call per pool inside ``toy compare``."""
    by_id = {s["id"]: s for s in spans}

    def under_method(s: dict) -> bool:
        parent = by_id.get(s["parent"])
        while parent is not None:
            if "method" in parent:
                return True
            parent = by_id.get(parent["parent"])
        return False

    return [s for s in spans if "method" in s and not under_method(s)]


def layer_metrics(spans: list[dict], gc_stats: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass.  A layer the workload does not
    run reads 0."""
    ingest = _spans(spans, "dataio.ingest_candidates")
    ingest_s = _total(spans, "dataio.ingest_candidates")
    pool_us = _durations(spans, "selectors.run_selector", method="cr_plus")
    utility = _spans(spans, "scoring.utility_matrix_for_set")
    utility_s = [s["end"] - s["start"] for s in utility]
    grad = _durations(spans, "losses.batch_loss_and_grad")
    metrics = {
        "dataio.ingest_s": ingest_s,
        "dataio.ingest_records_per_s": _sum_attr(ingest, "records") / ingest_s if ingest_s else 0.0,
        "dataio.digest_s": _total(spans, "dataio.digest_file"),
        "dataio.emit_pairs_s": _total(spans, "dataio.emit_pairs"),
        "dataio.load_pairs_s": _total(spans, "dataio.load_pairs"),
        "dataio.emit_stats_s": _total(spans, "dataio.emit_stats") + _total(spans, "dataio.save_stats"),
        "dataio.bytes_in": _sum_attr(spans, "bytes_in"),
        "dataio.bytes_out": _sum_attr(spans, "bytes_out"),
        "dataio.save_utility_s": _total(spans, "dataio.save_utility_matrices"),
        "dataio.load_utility_s": _total(spans, "dataio.load_utility_matrices"),
        "core.validate_against_s": _total(spans, "core.validate_against"),
        "selectors.pool_p50_us": _percentile(pool_us, 50, 1e6),
        "selectors.pool_p99_us": _percentile(pool_us, 99, 1e6),
        "scoring.utility_s": float(sum(utility_s)),
        "scoring.utility_pool_p50_ms": _percentile(utility_s, 50, 1e3),
        "scoring.utility_pool_p90_ms": _percentile(utility_s, 90, 1e3),
        "scoring.utility_calls": _sum_attr(utility, "calls"),
        "scoring.mbr_scores_s": _total(spans, "scoring.mbr_scores"),
        "losses.grad_eval_us": _percentile(grad, 50, 1e6),
        "losses.grad_evals": len(grad),
        "toylab.sample_s": _total(spans, "toylab.sample_candidates"),
        "toylab.resolve_s": _total(spans, "toylab.resolve_pairs"),
        "toylab.train_s": _total(spans, "toylab.train_dpo"),
        "toylab.pairs_trained": _sum_attr(spans, "pairs_trained"),
        "gc.pause_s": gc_stats["pause_s"],
        "gc.collections": gc_stats["collections"],
    }
    selections = _selections(spans)
    for method in ALL_METHODS:
        runs = [s for s in selections if s["method"] == method]
        pools = _sum_attr(runs, "pools")
        metrics[f"selectors.select_s.{method}"] = float(sum(s["end"] - s["start"] for s in runs))
        metrics[f"selectors.pairs.{method}"] = _sum_attr(runs, "pairs")
        metrics[f"selectors.yield.{method}"] = _sum_attr(runs, "yielding") / pools if pools else 0.0
    return metrics


def layer_self_times(spans: list[dict]) -> dict[str, float]:
    """Seconds of one pass spent in each layer itself, not in its children.
    The layer of a span is its name up to the first dot."""
    self_time = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] in self_time:
            self_time[s["parent"]] -= s["end"] - s["start"]
    layers: dict[str, float] = {}
    for s in spans:
        layer = s["name"].split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + self_time[s["id"]]
    return layers
