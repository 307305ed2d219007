"""Outside-in tracer: spans and counts around calls into the byzfed modules.

Each traced function is replaced in the module that calls it (for example
``byzfed.pipeline.stage1_erms`` or ``byzfed.distopt.aggregate``), so no
file under src/ changes. A span records its name, start, end, parent and
thread. Spans are kept in memory and written out after the run. Pool
tasks start on worker threads with an empty span stack; they take the
open ``pipeline.run_grid`` span as their parent.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import statistics
import threading
import time
from collections import defaultdict

import numpy as np

RUN_GRID = "pipeline.run_grid"
DIVERGENCE_NORM = 1e12  # distopt stops a run once the iterate passes this norm


def _trajectory(tracer, args, result):
    w, traj = result
    norm = float(np.linalg.norm(w))
    with tracer.lock:
        tracer.counts["distopt.rounds"] += len(traj) - 1
        tracer.counts["distopt.diverged_runs"] += not norm <= DIVERGENCE_NORM  # nan counts


def _clustering(tracer, args, result):
    state, _ = result
    with tracer.lock:
        tracer.counts["clustering.iterations"] += state.iteration
        tracer.counts["clustering.trimmed"] += int(state.trimmed.sum())
        tracer.counts["clustering.points"] += len(state.trimmed)


def _components(tracer, args, result):
    with tracer.lock:
        tracer.counts["components.points"] += len(args[0])


def _aggregate_name(args):
    return f"robust_stats.aggregate.{args[1].kind}"


# (module whose global is replaced, attribute, span name or namer, observer)
SPANNED = [
    ("byzfed.cli", "run_grid", RUN_GRID, None),
    ("byzfed.cli", "write_manifest", "reporting.write_manifest", None),
    ("byzfed.cli", "emit_grid_outputs", "reporting.emit_grid_outputs", None),
    ("byzfed.cli", "read_points_csv", "datagen.read_points_csv", None),
    ("byzfed.pipeline", "materialize_fleet", "pipeline.materialize_fleet", None),
    ("byzfed.pipeline", "stage1_erms", "pipeline.stage1_erms", None),
    ("byzfed.pipeline", "run_pipeline", "pipeline.run_pipeline", None),
    ("byzfed.pipeline", "generate_fleet", "datagen.generate_fleet", None),
    ("byzfed.pipeline", "read_points_csv", "datagen.read_points_csv", None),
    ("byzfed.pipeline", "ingest_threshold_graph", "datagen.ingest_threshold_graph", None),
    ("byzfed.pipeline", "warm_start_init", "clustering.warm_start_init", None),
    ("byzfed.pipeline", "run_lloyd_variant", "clustering.run_lloyd_variant", _clustering),
    ("byzfed.pipeline", "robust_gd", "distopt.robust_gd", _trajectory),
    ("byzfed.pipeline", "fed_avg_robust", "distopt.fed_avg_robust", _trajectory),
    ("byzfed.pipeline", "top_eigenpair", "numerics.top_eigenpair", None),
    ("byzfed.distopt", "pooled_auto_step", "distopt.pooled_auto_step", None),
    ("byzfed.distopt", "aggregate", _aggregate_name, None),
    ("byzfed.distopt", "top_eigenpair", "numerics.top_eigenpair", None),
    ("byzfed.robust_stats", "top_eigenpair", "numerics.top_eigenpair", None),
    ("byzfed.clustering", "geometric_median", "robust_stats.geometric_median", None),
    ("byzfed.clustering", "threshold_components", "components.threshold_components", _components),
    ("byzfed.datagen", "threshold_components", "components.threshold_components", _components),
]

# (module, attribute, counter): calls too many for a span each
COUNTED = [
    ("byzfed.distopt", "local_gradient", "localsolve.local_gradient.calls"),
    ("byzfed.localsolve", "local_gradient", "localsolve.local_gradient.calls"),
]
AGGREGATOR_KINDS = ("sample_mean", "trimmed_mean", "coord_median", "geo_median", "iter_filter")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent, thread)
        self.counts: dict[str, int] = defaultdict(int)
        self.lock = threading.Lock()
        self._ids = itertools.count(1)
        self._callcounts: dict[str, itertools.count] = {}
        self._local = threading.local()
        self._run_grid: int | None = None

    def install(self) -> None:
        """Replace every traced function in the module that calls it."""
        for module_name, attr, name, observe in SPANNED:
            module = importlib.import_module(module_name)
            setattr(module, attr, self._spanned(name, getattr(module, attr), observe))
        for module_name, attr, key in COUNTED:
            module = importlib.import_module(module_name)
            setattr(module, attr, self._counter(key, getattr(module, attr)))

    def _counter(self, key, fn):
        # itertools.count advances atomically, so worker threads lose no calls
        counter = self._callcounts.setdefault(key, itertools.count())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            next(counter)
            return fn(*args, **kwargs)

        return wrapper

    def _spanned(self, name, fn, observe):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            span_name = name(args) if callable(name) else name
            parent = stack[-1] if stack else self._run_grid
            sid = next(self._ids)
            if span_name == RUN_GRID:
                self._run_grid = sid
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if span_name == RUN_GRID:
                    self._run_grid = None
                self.spans.append(
                    (sid, span_name, start, end, parent, threading.get_ident())
                )
            if observe is not None:
                observe(self, args, result)
            return result

        return wrapper

    def call_counts(self) -> dict[str, int]:
        # next() on a count returns how many times it was advanced before
        return {key: next(c) for key, c in self._callcounts.items()}

    def dump(self, path) -> None:
        """Write the spans as JSON lines, one object per span."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, thread in sorted(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "thread": thread}) + "\n")


def layer_metrics(spans, counts, call_counts, threads: int) -> dict[str, float]:
    """Per-layer metrics from one traced run's spans and counts."""
    dur = {sid: end - start for sid, _, start, end, _, _ in spans}
    thread_of = {sid: thread for sid, _, _, _, _, thread in spans}
    child_s: dict[int, float] = defaultdict(float)
    for sid, _, _, _, parent, thread in spans:
        # children on another thread overlap their parent; only the
        # pool's own tasks do that, and run_grid has no self time metric
        if parent is not None and thread_of.get(parent) == thread:
            child_s[parent] += dur[sid]
    by_name: dict[str, list[int]] = defaultdict(list)
    for sid, name, *_ in spans:
        by_name[name].append(sid)

    def calls(name):
        return float(len(by_name[name]))

    def total(name):
        return sum((dur[s] for s in by_name[name]), 0.0)

    def self_s(name):
        return sum((dur[s] - child_s[s] for s in by_name[name]), 0.0)

    def p50(name, scale):
        ds = [dur[s] for s in by_name[name]]
        return statistics.median(ds) * scale if ds else 0.0

    grid_ids = by_name[RUN_GRID]
    grid_s = total(RUN_GRID)
    task_s = sum(
        dur[sid]
        for sid, _, _, _, parent, thread in spans
        if parent in grid_ids and thread != thread_of[parent]
    )
    m = {
        "pipeline.run_grid.s": grid_s,
        "pipeline.pool_busy_frac": task_s / (threads * grid_s) if grid_s else 0.0,
        "pipeline.run_pipeline.calls": calls("pipeline.run_pipeline"),
        "pipeline.run_pipeline.self_s": self_s("pipeline.run_pipeline"),
        "pipeline.materialize_fleet.calls": calls("pipeline.materialize_fleet"),
        "pipeline.stage1_erms.calls": calls("pipeline.stage1_erms"),
        "pipeline.stage1_erms.s": total("pipeline.stage1_erms"),
        "localsolve.local_gradient.calls": float(call_counts.get("localsolve.local_gradient.calls", 0)),
    }
    for fn in ("fed_avg_robust", "robust_gd"):
        m[f"distopt.{fn}.calls"] = calls(f"distopt.{fn}")
        m[f"distopt.{fn}.self_s"] = self_s(f"distopt.{fn}")
    m["distopt.pooled_auto_step.calls"] = calls("distopt.pooled_auto_step")
    m["distopt.pooled_auto_step.s"] = total("distopt.pooled_auto_step")
    m["distopt.rounds"] = float(counts["distopt.rounds"])
    m["distopt.diverged_runs"] = float(counts["distopt.diverged_runs"])
    for kind in AGGREGATOR_KINDS:
        name = f"robust_stats.aggregate.{kind}"
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.s"] = total(name)
        m[f"{name}.p50_us"] = p50(name, 1e6)
    m["robust_stats.geometric_median.calls"] = calls("robust_stats.geometric_median")
    m["robust_stats.geometric_median.s"] = total("robust_stats.geometric_median")
    m["components.threshold_components.calls"] = calls("components.threshold_components")
    m["components.threshold_components.s"] = total("components.threshold_components")
    m["components.threshold_components.p50_ms"] = p50("components.threshold_components", 1e3)
    m["components.points"] = float(counts["components.points"])
    m["datagen.generate_fleet.s"] = total("datagen.generate_fleet")
    m["datagen.read_points_csv.calls"] = calls("datagen.read_points_csv")
    m["datagen.read_points_csv.s"] = total("datagen.read_points_csv")
    m["datagen.ingest_threshold_graph.calls"] = calls("datagen.ingest_threshold_graph")
    m["datagen.ingest_threshold_graph.self_s"] = self_s("datagen.ingest_threshold_graph")
    m["clustering.run_lloyd_variant.calls"] = calls("clustering.run_lloyd_variant")
    m["clustering.run_lloyd_variant.s"] = total("clustering.run_lloyd_variant")
    m["clustering.warm_start_init.s"] = total("clustering.warm_start_init")
    m["clustering.iterations"] = float(counts["clustering.iterations"])
    n_pts = counts["clustering.points"]
    m["clustering.trimmed_frac"] = counts["clustering.trimmed"] / n_pts if n_pts else 0.0
    m["numerics.top_eigenpair.calls"] = calls("numerics.top_eigenpair")
    m["numerics.top_eigenpair.s"] = total("numerics.top_eigenpair")
    m["reporting.emit_grid_outputs.s"] = total("reporting.emit_grid_outputs")
    m["reporting.write_manifest.s"] = total("reporting.write_manifest")
    return m
