"""Local map-reduce engine (the Hadoop substitute of §5.4 / Appendix C).

Executes :class:`~repro.mapreduce.job.MapReduceJob` instances in process.
Two executors are provided:

* ``"serial"`` — tasks run one after another (deterministic; per-task wall
  times are recorded so the simulated-cluster scheduler can replay them).
* ``"process"`` — tasks run on a :class:`~concurrent.futures.ProcessPoolExecutor`.
  Each worker is a separate interpreter, so pure-Python work (the merge-tree
  sweep dominating feature identification) parallelizes too.  Task payloads
  are pickled, with large NumPy matrices detoured through the shared-memory
  data plane (:mod:`repro.mapreduce.shm`) so the same value matrix is shipped
  once per run instead of once per task.

Determinism.  Every intermediate pair is tagged with its provenance
``(input_index, emit_index)`` before the shuffle; the shuffle sorts by that
tag, so grouped values (and therefore reduce outputs) are identical no
matter how map tasks were scheduled, on which worker they ran, or in which
order their results arrived.  This is what lets :class:`repro.core.Corpus`
promise bit-identical serial and process-parallel indexes/queries.

Chunked map partitions.  One pool task per map input is wasteful when a job
has many tiny inputs (dispatch dominates).  ``map_chunk_size`` groups
consecutive inputs into one schedulable task: pass an ``int``, or ``"auto"``
to size chunks for the pool (see :func:`auto_chunk_size`, which amortizes
the per-task pickle/IPC round trip).  The shuffle groups intermediate pairs
by key with a plain dictionary — the in-process analogue of Hadoop's
sort/partition phase.

Environment defaults.  :func:`default_engine` resolves unset knobs from
``REPRO_EXECUTOR`` / ``REPRO_WORKERS``, which is how CI re-runs whole test
suites under the process executor without touching a single call site.  A
third executor, ``"cluster"``, lives outside this module: it resolves to
:class:`repro.distributed.ClusterEngine` (real multi-host workers over TCP,
``REPRO_CLUSTER`` names the coordinator address) behind the same
``run(job, inputs)`` contract.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import pickle
import sys
import time
import traceback
from collections.abc import Hashable, Iterable
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any

from .. import obs
from ..utils.errors import MapReduceError, ReproError
from . import shm
from .job import JobStats, MapReduceJob

#: The executors :class:`LocalEngine` itself runs, in documentation order.
EXECUTORS = ("serial", "process")

#: Every executor :func:`default_engine` can build — the local two plus
#: the distributed backend (``executor="cluster"`` returns a
#: :class:`repro.distributed.ClusterEngine` behind the same contract).
ALL_EXECUTORS = EXECUTORS + ("cluster",)


def _start_method() -> str:
    """Start method for process-executor workers.

    Pinned explicitly so behavior does not drift with the platform default
    (CPython is migrating it): fork on Linux — cheapest startup, and workers
    inherit the loaded corpus read-only — spawn everywhere else.  The
    shared-memory plane is agnostic either way (attachments are untracked by
    construction, see :mod:`repro.mapreduce.shm`).
    """
    if sys.platform.startswith("linux"):
        return "fork"
    return "spawn"  # pragma: no cover - non-Linux platforms


#: ``"auto"`` chunking targets this many map tasks per worker: enough tasks
#: to keep the pool busy across uneven tasks, few enough that the per-task
#: pickle/IPC round trip (plus a socket hop on a cluster) stays amortized.
#: (The cluster engine's own ``steal_granularity="auto"`` goes further and
#: sizes tasks from *measured* per-input seconds.)
_AUTO_TASKS_PER_WORKER = 2

#: A tagged intermediate pair: ((input_index, emit_index), key, value).
TaggedPair = tuple[tuple[int, int], Hashable, Any]


def auto_chunk_size(n_inputs: int, n_workers: int, executor: str) -> int:
    """Map-chunk size chosen by ``map_chunk_size="auto"``.

    ``ceil(n_inputs / (n_workers * _AUTO_TASKS_PER_WORKER))`` for the
    process and cluster executors, whose every task ships its payload
    through pickle/IPC or a socket.  Serial execution keeps one input per
    task so per-task timings stay maximally informative for the
    simulated-cluster replay.
    """
    if executor not in ALL_EXECUTORS:
        raise MapReduceError(
            f"unknown executor {executor!r} (valid executors: "
            f"{', '.join(ALL_EXECUTORS)})"
        )
    if executor == "serial" or n_workers <= 1 or n_inputs <= 0:
        return 1
    return max(1, math.ceil(n_inputs / (n_workers * _AUTO_TASKS_PER_WORKER)))


def default_engine(
    n_workers: int | None = None,
    executor: str | None = None,
    map_chunk_size: int | str | None = "auto",
):
    """Build an engine, resolving unset knobs from the environment.

    ``executor=None`` falls back to ``$REPRO_EXECUTOR`` (default
    ``"serial"``); ``n_workers=None`` falls back to ``$REPRO_WORKERS``
    (default: 1).  Explicit arguments always win, so only call sites that
    pass nothing become environment-steerable — this is how the CI process
    and cluster jobs replay the whole mapreduce/persist test suites under
    ``REPRO_EXECUTOR=process``/``cluster`` without editing them.

    Environment values are validated *here*, up front: a typo in
    ``REPRO_EXECUTOR`` or ``REPRO_WORKERS`` raises a
    :class:`MapReduceError` naming the variable and the accepted values at
    engine-construction time, instead of surfacing as a raw ``ValueError``
    (or a late failure) deep inside the first job.

    ``executor="cluster"`` returns a
    :class:`repro.distributed.ClusterEngine` whose coordinator binds the
    ``$REPRO_CLUSTER`` address (default ``127.0.0.1:7077``) — the same
    ``run(job, inputs)`` contract, executed by ``repro worker`` daemons.
    ``$REPRO_FALLBACK`` (``serial``/``process``) arms graceful
    degradation: when the cluster is unavailable (workers never registered,
    or all lost mid-run) the job reruns on that local executor instead of
    failing, with the downgrade logged.
    """
    if executor is None:
        raw_executor = os.environ.get("REPRO_EXECUTOR") or "serial"
        if raw_executor not in ALL_EXECUTORS:
            raise MapReduceError(
                f"REPRO_EXECUTOR must be one of {', '.join(ALL_EXECUTORS)}; "
                f"got {raw_executor!r}"
            )
        executor = raw_executor
    if n_workers is None:
        raw = os.environ.get("REPRO_WORKERS")
        if raw is None or raw == "":
            n_workers = 1
        else:
            try:
                n_workers = int(raw)
            except ValueError:
                raise MapReduceError(
                    f"REPRO_WORKERS must be an integer >= 1, got {raw!r}"
                ) from None
            if n_workers < 1:
                raise MapReduceError(
                    f"REPRO_WORKERS must be an integer >= 1, got {raw!r}"
                )
    if executor == "cluster":
        # Imported lazily: repro.distributed builds on this module.
        from ..distributed import ClusterEngine

        bind = os.environ.get("REPRO_CLUSTER") or "127.0.0.1:7077"
        from ..distributed.protocol import parse_address

        parse_address(bind, variable="REPRO_CLUSTER")  # validate up front
        raw_fallback = os.environ.get("REPRO_FALLBACK") or None
        if raw_fallback is not None and raw_fallback not in EXECUTORS:
            raise MapReduceError(
                f"REPRO_FALLBACK must be one of {', '.join(EXECUTORS)} "
                f"(or unset); got {raw_fallback!r}"
            )
        return ClusterEngine(
            bind=bind,
            n_workers=n_workers,
            shared=True,
            fallback=raw_fallback,
        )
    return LocalEngine(
        n_workers=n_workers, executor=executor, map_chunk_size=map_chunk_size
    )


def _map_chunk(job: MapReduceJob, chunk: list) -> list[TaggedPair]:
    """Run one chunk of map inputs, tagging every emitted pair.

    Module-level (not a closure) so the process executor can run it inside a
    worker after unpickling the payload.
    """
    tagged: list[TaggedPair] = []
    for input_index, (key, value) in chunk:
        for emit_index, (k, v) in enumerate(job.map(key, value)):
            tagged.append(((input_index, emit_index), k, v))
    return tagged


def _process_task(payload: bytes) -> tuple:
    """Worker entry point of the process executor.

    Decodes one shm-pickled task, runs it, and reports
    ``("ok", result, seconds)`` — or ``("err", traceback_text, original)``
    so the parent can surface the failure itself (library errors re-raised
    as-is, everything else as a :class:`MapReduceError` carrying the
    *original* traceback) instead of the executor's opaque
    ``BrokenProcessPool`` path.  ``original`` is the exception instance when
    it survives a pickle round trip, else ``None``.
    """
    start = time.perf_counter()
    try:
        kind, job, data = shm.loads(payload)
        if kind == "map":
            result: list = _map_chunk(job, data)
        else:
            key, values = data
            result = list(job.reduce(key, values))
        return ("ok", result, time.perf_counter() - start)
    except BaseException as exc:
        original: BaseException | None
        try:
            original = pickle.loads(pickle.dumps(exc))
        except Exception:
            original = None
        return ("err", traceback.format_exc(), original)


class LocalEngine:
    """Runs map-reduce jobs in process.

    Parameters
    ----------
    n_workers:
        Pool width for the ``"process"`` executor (ignored by ``"serial"``).
    executor:
        ``"serial"`` (default) or ``"process"``.
    map_chunk_size:
        Number of consecutive map inputs grouped into one schedulable task.
        ``None`` (default) keeps one task per input; ``"auto"`` sizes chunks
        for the pool via :func:`auto_chunk_size`.
    shm_min_bytes:
        Arrays at least this large are shipped to process workers through
        the shared-memory plane instead of per-task pickling (ignored by
        the serial executor, which shares objects by reference).
    """

    def __init__(
        self,
        n_workers: int = 1,
        executor: str = "serial",
        map_chunk_size: int | str | None = None,
        shm_min_bytes: int = shm.DEFAULT_MIN_BYTES,
    ) -> None:
        if executor == "cluster":
            raise MapReduceError(
                "executor 'cluster' is the distributed backend — build it "
                "with default_engine(executor='cluster') or "
                "repro.distributed.ClusterEngine, not LocalEngine"
            )
        if executor not in EXECUTORS:
            raise MapReduceError(
                f"unknown executor {executor!r} (valid executors: "
                f"{', '.join(EXECUTORS)})"
            )
        if not isinstance(n_workers, int) or n_workers < 1:
            raise MapReduceError(
                f"n_workers must be an integer >= 1, got {n_workers!r}"
            )
        if map_chunk_size is not None and map_chunk_size != "auto":
            if not isinstance(map_chunk_size, int) or map_chunk_size < 1:
                raise MapReduceError(
                    "map_chunk_size must be a positive int, 'auto' or None"
                )
        if shm_min_bytes < 1:
            raise MapReduceError("shm_min_bytes must be >= 1")
        self.n_workers = n_workers
        self.executor = executor
        self.map_chunk_size = map_chunk_size
        self.shm_min_bytes = shm_min_bytes
        #: :class:`repro.obs.RunReport` of the most recent ``run`` call.
        self.last_run_report: obs.RunReport | None = None

    @property
    def is_parallel(self) -> bool:
        """True when tasks actually run on a process pool."""
        return self.executor == "process" and self.n_workers > 1

    def _resolve_chunk_size(self, n_inputs: int) -> int:
        if self.map_chunk_size is None:
            return 1
        if self.map_chunk_size == "auto":
            if not self.is_parallel:
                return 1
            return auto_chunk_size(n_inputs, self.n_workers, self.executor)
        return self.map_chunk_size

    def run(
        self, job: MapReduceJob, inputs: Iterable[tuple[Any, Any]]
    ) -> tuple[list[tuple[Any, Any]], JobStats]:
        """Execute ``job`` over ``inputs``; returns (outputs, stats)."""
        stats = JobStats()
        wall_start = time.perf_counter()
        with obs.span(
            "engine.run",
            executor=self.executor,
            n_workers=self.n_workers,
            job=type(job).__name__,
        ) as run_span:
            outputs = self._execute(job, inputs, stats, run_span.span_id)
            run_span.set(n_outputs=stats.n_outputs)
        stats.wall_seconds = time.perf_counter() - wall_start
        obs.histogram("repro.engine.run_seconds", executor=self.executor).observe(
            stats.wall_seconds
        )
        report = obs.RunReport.from_stats(
            stats, job=type(job).__name__, executor=self.executor,
            n_workers=self.n_workers,
        )
        self.last_run_report = report
        trace = obs.current_trace()
        if trace is not None:
            trace.add_report(report.to_json())
        return outputs, stats

    def _execute(
        self,
        job: MapReduceJob,
        inputs: Iterable[tuple[Any, Any]],
        stats: JobStats,
        run_span_id: int | None,
    ) -> list[tuple[Any, Any]]:
        """The phases of :meth:`run` (spans/report handled by the caller)."""
        input_list = list(inputs)
        chunk_size = self._resolve_chunk_size(len(input_list))
        indexed = list(enumerate(input_list))
        chunks = [
            indexed[lo : lo + chunk_size]
            for lo in range(0, len(indexed), chunk_size)
        ]
        stats.n_map_chunks = len(chunks)

        if self.is_parallel:
            return self._run_process(job, chunks, stats, run_span_id)

        # -- map phase -------------------------------------------------------
        map_results = []
        for chunk in chunks:
            with obs.span("map.task", n_inputs=len(chunk)):
                start = time.perf_counter()
                map_results.append(_map_chunk(job, chunk))
                stats.map_task_seconds.append(time.perf_counter() - start)

        # -- shuffle -----------------------------------------------------------
        with obs.span("engine.shuffle"):
            start = time.perf_counter()
            groups = self.shuffle(
                pair for emitted in map_results for pair in emitted
            )
            stats.shuffle_seconds = time.perf_counter() - start

        # -- reduce phase ------------------------------------------------------
        reduce_results = []
        for k, vs in groups.items():
            with obs.span("reduce.task"):
                start = time.perf_counter()
                emitted = list(job.reduce(k, vs))
                stats.reduce_task_seconds.append(time.perf_counter() - start)
                reduce_results.append(emitted)

        outputs = [pair for emitted in reduce_results for pair in emitted]
        stats.n_outputs = len(outputs)
        return outputs

    @staticmethod
    def shuffle(tagged: Iterable[TaggedPair]) -> dict[Hashable, list[Any]]:
        """Group tagged intermediate pairs by key, deterministically.

        Pairs are first sorted by their ``(input_index, emit_index)`` tag, so
        both the per-key value order and the key (reduce-task) order depend
        only on what the map phase emitted — never on scheduling order.  This
        is the property the parallel/serial equivalence tests pin down.
        """
        ordered = sorted(tagged, key=lambda pair: pair[0])
        groups: dict[Hashable, list[Any]] = {}
        for _tag, key, value in ordered:
            groups.setdefault(key, []).append(value)
        return groups

    # -- process executor ----------------------------------------------------

    def _run_process(
        self,
        job: MapReduceJob,
        chunks: list[list],
        stats: JobStats,
        run_span_id: int | None = None,
    ) -> list[tuple[Any, Any]]:
        """Map + shuffle + reduce with one process pool and one shm plane.

        The pool and the shared-memory plane span both task phases, so a
        value matrix referenced by a map chunk *and* a reduce group is still
        registered only once.  The plane is closed in ``finally`` — success,
        task failure or pool breakage all release every segment.
        """
        plane = shm.SharedArrayPlane(min_bytes=self.shm_min_bytes)
        try:
            with ProcessPoolExecutor(
                max_workers=self.n_workers,
                mp_context=multiprocessing.get_context(_start_method()),
            ) as pool:
                map_results = self._submit_process_phase(
                    pool,
                    plane,
                    [("map", job, chunk) for chunk in chunks],
                    stats.map_task_seconds,
                    phase="map",
                    span_parent=run_span_id,
                )

                with obs.span("engine.shuffle"):
                    start = time.perf_counter()
                    groups = self.shuffle(
                        pair for emitted in map_results for pair in emitted
                    )
                    stats.shuffle_seconds = time.perf_counter() - start

                items = list(groups.items())
                reduce_results = self._submit_process_phase(
                    pool,
                    plane,
                    [("reduce", job, item) for item in items],
                    stats.reduce_task_seconds,
                    phase="reduce",
                    span_parent=run_span_id,
                )
        finally:
            plane.close()

        outputs = [pair for emitted in reduce_results for pair in emitted]
        stats.n_outputs = len(outputs)
        return outputs

    def _submit_process_phase(
        self,
        pool: ProcessPoolExecutor,
        plane: shm.SharedArrayPlane,
        tasks: list[tuple],
        timings: list[float],
        phase: str,
        span_parent: int | None = None,
    ) -> list[list]:
        """Ship one phase's tasks to the pool; results in submission order."""
        try:
            futures: list[Future] = [
                pool.submit(_process_task, shm.dumps(task, plane))
                for task in tasks
            ]
        except BrokenProcessPool as exc:  # pragma: no cover - races only
            raise MapReduceError(
                f"process pool broke while submitting {phase} tasks: {exc}"
            ) from exc

        outputs: list[list] = []
        try:
            for future in futures:
                result = future.result()
                if result[0] == "err":
                    _status, remote_tb, original = result
                    if isinstance(original, ReproError):
                        # Library errors keep their type and message —
                        # serial and process execution raise the same
                        # exception; the worker traceback rides along
                        # as the cause.
                        raise original from MapReduceError(
                            f"raised in a {phase} worker process; original "
                            f"traceback:\n{remote_tb}"
                        )
                    raise MapReduceError(
                        f"{phase} task failed in a worker process; original "
                        f"traceback:\n{remote_tb}"
                    )
                _status, out, seconds = result
                outputs.append(out)
                timings.append(seconds)
                # Worker processes have no trace; approximate each task as
                # an interval ending at result arrival in the parent clock.
                obs.record_span(
                    f"{phase}.task",
                    seconds,
                    parent=span_parent,
                    track="process-pool",
                )
        except BrokenProcessPool as exc:
            raise MapReduceError(
                f"a worker process died during the {phase} phase (killed or "
                f"crashed before reporting a result): {exc}"
            ) from exc
        finally:
            for future in futures:
                future.cancel()
        return outputs
