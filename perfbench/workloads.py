"""Benchmark child: set up one workload, run its closed loop, report.

Started by ``run.py`` as ``python3 perfbench/workloads.py SPEC.json`` in a
fresh interpreter, so that set-up includes importing the program and peak
memory is this process's alone.  The loop has one client — this thread —
which waits for each answer before it sends the next request.

Modes (``spec["mode"]``):

* ``setup``  — import and set up, then tear down (a set-up time sample);
* ``run``    — set up, then run operations until ``seconds`` have passed
  (and at least ``min_ops`` ran);
* ``traced`` — install the layer wrappers, set up, run exactly ``n_ops``
  operations, restore the wrappers, and report per-layer metrics.

``spec["serial"]`` swaps the workload's parallel engine for a serial one
(the replay that measures layers inside worker tasks).  The result is
written as JSON to ``spec["result"]``.

The loop also runs a fixed reference computation (:func:`calibrate`) before
its first operation and after every ``cal_every`` operations, and gives each
operation the mean of the two calibrations around it.  Dividing an
operation's time by it gives a cost that moves far less with the speed of a
shared host's CPUs, which drifts by tens of percent over seconds to minutes.
"""

from __future__ import annotations

import contextlib
import json
import multiprocessing
import os
import resource
import shutil
import sys
import time
from pathlib import Path


#: Sizes of the reference computation: about 15 ms of interpreted
#: arithmetic, small-array NumPy calls and large sorts, the mix the
#: program's operations are made of.
CAL_LOOP = 75_000
CAL_SMALL_CALLS = 1_200
CAL_SORTS = 9
_cal_arrays = None


def _reference() -> float:
    """Seconds one run of the reference computation takes."""
    global _cal_arrays
    import numpy as np

    if _cal_arrays is None:
        big = np.random.default_rng(0).random(60_000)
        _cal_arrays = (big, big[:64].copy())
    big, small = _cal_arrays
    start = time.perf_counter()
    total = 0.0
    for i in range(CAL_LOOP):
        total += i * i % 7
    for _ in range(CAL_SMALL_CALLS):
        total += int(np.count_nonzero(small > 0.5)) + float(small.sum())
    for _ in range(CAL_SORTS):
        np.sort(big)
    return time.perf_counter() - start


def calibrate(all_cpus: bool) -> float:
    """Seconds the reference computation takes right now.

    With ``all_cpus`` the thread is pinned to one CPU after the other, gets
    its own CPU set back, and the mean is returned: the CPUs of a shared
    host drift in speed independently, and a workload whose workers run on
    all of them is slowed by each.
    """
    if not all_cpus:
        return _reference()
    cpus = sorted(os.sched_getaffinity(0))
    try:
        samples = []
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            samples.append(_reference())
    finally:
        os.sched_setaffinity(0, cpus)
    return sum(samples) / len(samples)


class Workload:
    """One workload: ``setup()``, then ``op(i)`` per operation, ``teardown()``.

    ``op`` returns a record with the operation's ``kind`` and its timed
    ``seconds``; work outside the timed part (input changes, output digests)
    is excluded from it.  The loop calibrates every ``cal_every`` operations,
    on every CPU when the work runs on all of them (``cal_all_cpus``).
    """

    cal_every = 1
    cal_all_cpus = False

    def __init__(self, spec: dict, program) -> None:
        self.spec = spec
        self.p = program
        self.work = Path(spec["workdir"])
        self.stack = contextlib.ExitStack()

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, i: int) -> dict:
        raise NotImplementedError

    def teardown(self) -> None:
        self.stack.close()


class IndexUrban(Workload):
    """Serial catalog -> index -> save iterations on the Urban catalog."""

    def setup(self) -> None:
        self.engine = self.p.LocalEngine()

    def op(self, i: int) -> dict:
        out = self.work / f"index-{i}"
        start = time.perf_counter()
        index = self.p.build_index(Path(self.spec["catalog"]), out, self.engine)
        seconds = time.perf_counter() - start
        record = {
            "kind": "index",
            "seconds": seconds,
            "functions": index.stats.n_scalar_functions,
            "partitions": len(index.partition_fingerprints),
            "digest": self.p.index_digest(out),
        }
        del index
        shutil.rmtree(out)
        return record


class QueryUrban(Workload):
    """Serial per-pair queries against the saved Urban index.

    Rounds go over all pairs and cycle through the query seeds; the warm-up
    round (part of set-up) uses the first seed.
    """

    def setup(self) -> None:
        self.engine = self.p.LocalEngine()
        self.index = self.p.CorpusIndex.load(self.spec["input_index"], engine=self.engine)
        names = list(self.index.datasets)
        self.pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1 :]]
        self.seen: set[tuple[int, int]] = set()
        self.cal_every = len(self.pairs)
        self.warmup = [self.query(p, 0, kind="warmup") for p in range(len(self.pairs))]

    def op(self, i: int) -> dict:
        rnd, pair = divmod(i, len(self.pairs))
        return self.query(pair, (rnd + 1) % len(self.spec["qseeds"]))

    def query(self, pair: int, k: int, kind: str = "query") -> dict:
        a, b = self.pairs[pair]
        start = time.perf_counter()
        result = self.index.query(
            [a],
            [b],
            n_permutations=self.p.N_PERMUTATIONS,
            seed=self.spec["qseeds"][k],
            engine=self.engine,
            significance_mode="adaptive",
        )
        seconds = time.perf_counter() - start
        digest, decisions = self.p.query_digest(result)
        record = {
            "kind": kind,
            "seconds": seconds,
            "pair": pair,
            "qseed": k,
            "evaluated": result.n_evaluated,
            "digest": digest,
        }
        if (pair, k) not in self.seen:
            self.seen.add((pair, k))
            record["decisions"] = decisions
        return record


class UpdateCluster(Workload):
    """Incremental update steps on the NYC-Open-like corpus, 2-host cluster."""

    cal_all_cpus = True

    def setup(self) -> None:
        p = self.p
        if self.spec["serial"]:
            self.engine = p.LocalEngine()
        else:
            self.engine = self.stack.enter_context(p.local_cluster(2))
        self.catalog = Path(self.spec["catalog"])
        self.index_dir = self.work / "index"
        self.spatial = tuple(p.SpatialResolution(s) for s in p.OPEN_SPATIAL)
        self.temporal = tuple(p.TemporalResolution(t) for t in p.TEMPORAL)
        index = p.build_index(self.catalog, self.index_dir, self.engine, spatial=p.OPEN_SPATIAL)
        self.datasets = list(index.corpus.datasets.values())

    def op(self, i: int) -> dict:
        p = self.p
        changed = p.revise_open(
            self.datasets, self.catalog, Path(self.spec["pool"]), self.spec["seed"], i
        )
        start = time.perf_counter()
        datasets, city = p.load_catalog(self.catalog)
        corpus = p.Corpus(datasets, city)
        scope = {"spatial": self.spatial, "temporal": self.temporal}
        plan = p.incremental.plan_update(self.index_dir, corpus, **scope)
        report = p.incremental.apply_update(
            self.index_dir, corpus, engine=self.engine, plan=plan, **scope
        )
        seconds = time.perf_counter() - start
        self.datasets = datasets
        return {
            "kind": "update",
            "seconds": seconds,
            "changed": changed,
            "rebuilt": report.n_rebuilt + report.n_added,
            "kept": report.n_reused,
            "partitions": len(plan.entries),
        }


WORKLOADS = {
    "index_urban": IndexUrban,
    "query_urban": QueryUrban,
    "update_cluster": UpdateCluster,
}


def _load_program():
    """Import the program (timed as part of set-up) and this package's helpers."""
    import types

    import inputs
    import repro.incremental as incremental
    from repro.core.corpus import Corpus, CorpusIndex
    from repro.data.catalog import load_catalog
    from repro.distributed import local_cluster
    from repro.mapreduce.engine import LocalEngine
    from repro.spatial.resolution import SpatialResolution
    from repro.temporal.resolution import TemporalResolution

    program = types.SimpleNamespace(
        incremental=incremental,
        Corpus=Corpus,
        CorpusIndex=CorpusIndex,
        load_catalog=load_catalog,
        local_cluster=local_cluster,
        LocalEngine=LocalEngine,
        SpatialResolution=SpatialResolution,
        TemporalResolution=TemporalResolution,
    )
    for name in (
        "N_PERMUTATIONS",
        "OPEN_SPATIAL",
        "TEMPORAL",
        "build_index",
        "index_digest",
        "query_digest",
        "revise_open",
    ):
        setattr(program, name, getattr(inputs, name))
    return program


def _live_children() -> list[str]:
    """Command lines of this process's children that are still running.

    The multiprocessing resource tracker is exempt: it is a helper that
    lives as long as this process, not a worker.
    """
    pids = {p.pid for p in multiprocessing.active_children()}
    with contextlib.suppress(OSError):
        for task in os.listdir("/proc/self/task"):
            with open(f"/proc/self/task/{task}/children") as handle:
                pids.update(int(pid) for pid in handle.read().split())
    live = []
    for pid in sorted(pids):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as handle:
                cmdline = handle.read().replace(b"\0", b" ").decode(errors="replace")
        except OSError:
            continue  # exited meanwhile
        if "resource_tracker" not in cmdline:
            live.append(f"{pid}: {cmdline.strip()}")
    return live


def main(spec_path: str) -> int:
    with open(spec_path) as handle:
        spec = json.load(handle)
    sys.path.insert(0, spec["src"])
    mode = spec["mode"]

    start = time.perf_counter()
    program = _load_program()
    workload = WORKLOADS[spec["workload"]](spec, program)
    tracer = None
    if mode == "traced":
        import layers

        tracer = layers.Tracer()
        tracer.install()
    work_start = time.perf_counter()
    workload.setup()
    setup_end = time.perf_counter()
    out = {
        "setup_s": setup_end - start,
        "setup_work_s": setup_end - work_start,
        "ops": [],
    }

    if mode != "setup":
        n_ops = spec.get("n_ops")
        loop_start = time.perf_counter()
        cals = [calibrate(workload.cal_all_cpus)]
        i = 0
        while True:
            out["ops"].append(workload.op(i))
            i += 1
            if n_ops is not None:
                done = i >= n_ops
            else:
                done = i >= spec["min_ops"] and time.perf_counter() - loop_start >= spec["seconds"]
            if done or i % workload.cal_every == 0:
                cals.append(calibrate(workload.cal_all_cpus))
            if done:
                break
        out["loop_s"] = time.perf_counter() - loop_start
        for k, op in enumerate(out["ops"]):
            block = k // workload.cal_every
            op["cal_s"] = (cals[block] + cals[block + 1]) / 2
        out["cal_samples_s"] = cals
    out["warmup"] = getattr(workload, "warmup", [])
    workload.teardown()

    if tracer is not None:
        tracer.restore()
        traced_wall = out["setup_work_s"] + sum(op["seconds"] for op in out["ops"])
        out["layers"] = tracer.metrics(traced_wall)
        out["traced_wall_s"] = traced_wall
        tracer.dump(Path(spec["spans"]))

    out["live_children"] = _live_children()
    kib = 1024.0
    out["rss_main_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / kib
    out["rss_worker_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / kib
    import layers

    layers.assert_pristine()
    with open(spec["result"], "w") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
