"""Per-layer spans for the traced benchmark run.

A :class:`Tracer` wraps the public entry points of each layer of ``repro``
(see :data:`TARGETS`) so that every call records a span — name, start, end
and the span it was called from — plus counts taken from its arguments and
result.  Spans stay in memory; :meth:`Tracer.metrics` folds them into the
per-layer metrics and :meth:`Tracer.dump` writes them out at the end.

Wrappers exist only between :meth:`Tracer.install` and
:meth:`Tracer.restore`.  :func:`assert_pristine` proves that no wrapper is
reachable, which the untimed-to-timed boundary of every untraced run checks.

A module-level function is reached through every name bound to it (``from
..data.aggregation import aggregate`` makes a second binding in
``repro.core.corpus``), so installation patches every ``repro`` module
global that *is* the original function.  Methods are patched on their class.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

MARK = "__perfbench_layer__"


def _dir_bytes(path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def _arg(args, kwargs, position, name):
    if name in kwargs:
        return kwargs[name]
    return args[position] if len(args) > position else None


# -- count hooks: (counts, result, args, kwargs) -> None ----------------------


def _count_rows(c, result, args, kwargs):
    c["csv.rows"] += result.n_records


def _count_points(c, result, args, kwargs):
    c["regions.points"] += len(_arg(args, kwargs, 1, "xs"))


def _count_aggregate(c, result, args, kwargs):
    c["aggregate.calls"] += 1
    c["aggregate.functions"] += len(result)


def _count_vertex_order(c, result, args, kwargs):
    c["vertex_order.calls"] += 1


def _count_merge_tree(c, result, args, kwargs):
    c["merge_tree.calls"] += 1
    c["merge_tree.vertices"] += _arg(args, kwargs, 1, "flat_values").size


def _count_thresholds(c, result, args, kwargs):
    c["thresholds.calls"] += 1


def _count_extract(c, result, args, kwargs):
    c["features.functions"] += 1


def _count_apply(c, result, args, kwargs):
    c["incremental.rebuilt"] += result.n_rebuilt + result.n_added
    c["incremental.kept"] += result.n_reused
    c["_bytes_reused"] += result.bytes_reused
    c["_bytes_updated"] += result.bytes_reused + result.bytes_rewritten


def _count_save(c, result, args, kwargs):
    c["persist.bytes_written"] += _dir_bytes(_arg(args, kwargs, 1, "path"))


def _count_load(c, result, args, kwargs):
    c["persist.bytes_read"] += _dir_bytes(_arg(args, kwargs, 0, "path"))


def _count_chunk(c, result, args, kwargs):
    c["relationship.evaluated"] += sum(o.n_evaluated for o in result)
    c["relationship.candidates"] += sum(o.n_candidates for o in result)


def _count_significance(c, result, args, kwargs):
    requests = _arg(args, kwargs, 0, "requests")
    budget = _arg(args, kwargs, 1, "n_permutations")
    if budget is None:
        from repro.core.significance import DEFAULT_PERMUTATIONS

        budget = DEFAULT_PERMUTATIONS
    c["significance.requests"] += len(requests)
    c["_perm_budget"] += len(requests) * budget
    c["significance.perms_run"] += sum(r.n_permutations for r in result)


def _count_engine(c, result, args, kwargs):
    stats = result[1]
    c["engine.jobs"] += 1
    c["engine.map_tasks"] += stats.n_map_chunks or len(stats.map_task_seconds)
    c["engine.busy_s"] += stats.busy_seconds
    c["engine.shuffle_s"] += stats.shuffle_seconds
    c["engine.overhead_s"] += stats.overhead_seconds


def _count_cluster(c, result, args, kwargs):
    engine, stats = args[0], result[1]
    c["cluster.busy_s"] += stats.busy_seconds
    c["cluster.overhead_s"] += stats.overhead_seconds
    c["cluster.tasks"] += sum(engine.last_run_worker_tasks.values())
    c["cluster.steal_grants"] += sum(engine.last_run_worker_steals.values())
    c["cluster.retries"] += engine.last_run_retries
    report = engine.last_run_report
    c["cluster.served_bytes"] += report.bytes_served if report else 0


#: (module, attribute path, span name, count hook) per layer entry point.
TARGETS = (
    ("repro.data.csv_io", "read_csv", "csv.read", _count_rows),
    ("repro.spatial.regions", "RegionSet.locate", "regions.locate", _count_points),
    ("repro.data.aggregation", "aggregate", "aggregate", _count_aggregate),
    (
        "repro.core.scalar_function",
        "ScalarFunction.vertex_order",
        "vertex_order",
        _count_vertex_order,
    ),
    ("repro.core.merge_tree", "compute_join_tree", "merge_tree", _count_merge_tree),
    ("repro.core.merge_tree", "compute_split_tree", "merge_tree", _count_merge_tree),
    ("repro.core.thresholds", "salient_thresholds", "thresholds", _count_thresholds),
    ("repro.core.thresholds", "extreme_thresholds", "thresholds", _count_thresholds),
    (
        "repro.core.features",
        "FeatureExtractor.extract",
        "features.extract",
        _count_extract,
    ),
    (
        "repro.incremental.fingerprint",
        "fingerprints_for_inputs",
        "incremental.fingerprint",
        None,
    ),
    ("repro.incremental.plan", "plan_update", "incremental.plan", None),
    ("repro.incremental.update", "apply_update", "incremental.apply", _count_apply),
    ("repro.persist.index_io", "save_index", "persist.save", _count_save),
    ("repro.persist.index_io", "load_index", "persist.load", _count_load),
    ("repro.core.operator", "enumerate_pair_tasks", "operator.enumerate", None),
    ("repro.core.operator", "evaluate_pair_chunk", "operator.chunk", _count_chunk),
    ("repro.core.relationship", "evaluate_features", "relationship.compare", None),
    (
        "repro.core.significance",
        "significance_batch",
        "significance",
        _count_significance,
    ),
    ("repro.mapreduce.engine", "LocalEngine.run", "engine", _count_engine),
    ("repro.distributed.coordinator", "ClusterEngine.run", "cluster", _count_cluster),
)

#: Per-layer metric -> (kind, span name or count key).  ``total`` is the summed
#: span duration, ``self`` the duration minus child spans, ``count`` a count.
SPAN_METRICS = {
    "csv.read_s": ("total", "csv.read"),
    "regions.locate_s": ("total", "regions.locate"),
    "aggregate.s": ("self", "aggregate"),
    "vertex_order.s": ("total", "vertex_order"),
    "merge_tree.s": ("total", "merge_tree"),
    "thresholds.s": ("total", "thresholds"),
    "features.extract_self_s": ("self", "features.extract"),
    "incremental.fingerprint_s": ("total", "incremental.fingerprint"),
    "incremental.plan_s": ("self", "incremental.plan"),
    "incremental.apply_self_s": ("self", "incremental.apply"),
    "persist.save_s": ("total", "persist.save"),
    "persist.load_s": ("total", "persist.load"),
    "operator.enumerate_s": ("total", "operator.enumerate"),
    "operator.chunk_self_s": ("self", "operator.chunk"),
    "relationship.compare_s": ("total", "relationship.compare"),
    "significance.s": ("total", "significance"),
}

COUNT_METRICS = (
    "csv.rows",
    "regions.points",
    "aggregate.calls",
    "aggregate.functions",
    "vertex_order.calls",
    "merge_tree.calls",
    "merge_tree.vertices",
    "thresholds.calls",
    "features.functions",
    "incremental.rebuilt",
    "incremental.kept",
    "persist.bytes_written",
    "persist.bytes_read",
    "relationship.evaluated",
    "relationship.candidates",
    "significance.requests",
    "significance.perms_run",
    "engine.jobs",
    "engine.map_tasks",
    "engine.busy_s",
    "engine.shuffle_s",
    "engine.overhead_s",
    "cluster.busy_s",
    "cluster.overhead_s",
    "cluster.tasks",
    "cluster.steal_grants",
    "cluster.retries",
    "cluster.served_bytes",
)

#: Metrics a parallel traced run reports itself; every other layer metric of
#: a parallel workload comes from its serial replay (worker-side wrappers
#: cannot report back).
PARALLEL_METRICS = tuple(m for m in COUNT_METRICS if m.startswith(("engine.", "cluster.")))


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("_frac"):
        return "ratio"
    if metric.endswith(("_s", ".s")):
        return "s"
    if "bytes" in metric:
        return "B"
    return "count"


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def _repro_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def assert_pristine() -> None:
    """Raise if any layer wrapper is reachable from ``repro``."""
    for module_name, path, _name, _hook in TARGETS:
        owner, attr = _resolve(module_name, path)
        if hasattr(owner.__dict__.get(attr, getattr(owner, attr)), MARK):
            raise RuntimeError(f"layer wrapper left on {module_name}.{path}")
    for module in _repro_modules():
        for name, value in vars(module).items():
            if hasattr(value, MARK):
                raise RuntimeError(f"layer wrapper bound at {module.__name__}.{name}")


class Tracer:
    """In-memory span recorder with install/restore of the layer wrappers."""

    def __init__(self) -> None:
        #: One ``[name, start, end, parent_index]`` per call, in call order.
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                with tracer._lock:
                    hook(tracer.counts, result, args, kwargs)
            return result

        setattr(wrapper, MARK, name)
        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target, through every binding of it in ``repro``."""
        # Import every target module first, so that no module imported later
        # binds an original that the scan below has already passed over.
        resolved = [_resolve(module_name, path) for module_name, path, _n, _h in TARGETS]
        for (owner, attr), (_module, _path, name, hook) in zip(resolved, TARGETS):
            original = owner.__dict__[attr]
            wrapper = self._wrap(name, original, hook)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for module in _repro_modules():
                for global_name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, global_name, wrapper)

    def restore(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- folding --------------------------------------------------------------

    def _durations(self) -> tuple[dict[str, float], dict[str, float], float]:
        total: dict[str, float] = defaultdict(float)
        child: list[float] = [0.0] * len(self.spans)
        root = 0.0
        for name, start, end, parent in self.spans:
            duration = end - start
            total[name] += duration
            if parent >= 0:
                child[parent] += duration
            else:
                root += duration
        own: dict[str, float] = defaultdict(float)
        for (name, start, end, _parent), nested in zip(self.spans, child):
            own[name] += end - start - nested
        return total, own, root

    def metrics(self, traced_wall: float) -> dict[str, float]:
        """Per-layer metrics of everything traced so far.

        ``traced_wall`` is the wall time of the traced region; the share of
        it spent inside some layer span is ``trace.attributed_frac``.
        """
        total, own, root = self._durations()
        out: dict[str, float] = {}
        for metric, (kind, name) in SPAN_METRICS.items():
            out[metric] = (total if kind == "total" else own)[name]
        for metric in COUNT_METRICS:
            out[metric] = float(self.counts[metric])
        c = self.counts
        out["incremental.reuse_frac"] = (
            c["_bytes_reused"] / c["_bytes_updated"] if c["_bytes_updated"] else 0.0
        )
        out["relationship.candidate_frac"] = (
            c["relationship.candidates"] / c["relationship.evaluated"]
            if c["relationship.evaluated"]
            else 0.0
        )
        out["significance.perm_frac"] = (
            c["significance.perms_run"] / c["_perm_budget"] if c["_perm_budget"] else 0.0
        )
        out["trace.attributed_frac"] = root / traced_wall if traced_wall > 0 else 0.0
        return out

    def dump(self, path: Path) -> None:
        """Write the spans as JSON: ``[name, start_s, duration_s, parent]``."""
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [
            [name, round(start - origin, 7), round(end - start, 7), parent]
            for name, start, end, parent in self.spans
        ]
        with open(path, "w") as handle:
            json.dump({"columns": ["name", "start_s", "duration_s", "parent"], "spans": rows}, handle)
