"""Map-reduce job abstraction (Appendix C).

A job transforms an iterable of ``(key, value)`` input pairs through a map
phase, a shuffle (grouping intermediate pairs by key), and a reduce phase.
Jobs are plain Python classes implementing :class:`MapReduceJob`; the engine
(:mod:`repro.mapreduce.engine`) decides how tasks are executed.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Hashable, Iterable
from dataclasses import dataclass, field
from typing import Any, Protocol, runtime_checkable


class MapReduceJob(ABC):
    """One map-reduce job: ``map`` then shuffle then ``reduce``."""

    @abstractmethod
    def map(self, key: Any, value: Any) -> Iterable[tuple[Hashable, Any]]:
        """Emit intermediate ``(key, value)`` pairs for one input pair."""

    @abstractmethod
    def reduce(self, key: Hashable, values: list[Any]) -> Iterable[tuple[Any, Any]]:
        """Emit output pairs for one intermediate key and its value group."""


@runtime_checkable
class Engine(Protocol):
    """The engine contract every backend implements.

    :class:`repro.mapreduce.engine.LocalEngine` (serial / process)
    and :class:`repro.distributed.ClusterEngine` (multi-host over TCP) are
    interchangeable behind this protocol: ``run`` executes one job over its
    inputs and returns ``(outputs, stats)``, bit-identically for a
    deterministic job regardless of backend — including under the cluster
    scheduler's work stealing, overlapped shuffle, worker loss and elastic
    join, none of which may leak into outputs.  Corpus indexing, querying
    and index persistence only ever depend on this surface.
    (``docs/ARCHITECTURE.md`` documents this contract and the dataflow
    built on it.)
    """

    n_workers: int
    executor: str

    def run(
        self, job: "MapReduceJob", inputs: Iterable[tuple[Any, Any]]
    ) -> tuple[list[tuple[Any, Any]], "JobStats"]:
        """Execute ``job`` over ``inputs``; returns (outputs, stats)."""
        ...  # pragma: no cover - protocol stub


@dataclass
class JobStats:
    """Per-phase accounting of one job run.

    ``map_task_seconds`` and ``reduce_task_seconds`` record the wall time of
    each individual task; the simulated-cluster scheduler replays them onto
    n virtual nodes to estimate distributed makespans (Fig. 10).  When the
    engine chunks map inputs (see ``LocalEngine.map_chunk_size``), each chunk
    is one schedulable task: ``n_map_chunks`` counts them and
    ``map_task_seconds`` holds one entry per chunk.
    """

    map_task_seconds: list[float] = field(default_factory=list)
    reduce_task_seconds: list[float] = field(default_factory=list)
    shuffle_seconds: float = 0.0
    n_outputs: int = 0
    n_map_chunks: int = 0
    #: End-to-end wall time of the run as measured by the engine; 0.0 when
    #: the stats were built outside an engine (e.g. merged or hand-made).
    wall_seconds: float = 0.0

    @property
    def total_task_seconds(self) -> float:
        """Sum of all task times (the single-node sequential cost).

        Deliberately excludes ``shuffle_seconds`` — the simulated-cluster
        scheduler replays *tasks* onto virtual nodes and accounts the
        shuffle separately.  Use :attr:`busy_seconds` for the full
        sequential cost including the shuffle.
        """
        return sum(self.map_task_seconds) + sum(self.reduce_task_seconds)

    @property
    def busy_seconds(self) -> float:
        """Task time plus shuffle time (the full sequential cost)."""
        return self.total_task_seconds + self.shuffle_seconds

    @property
    def overhead_seconds(self) -> float:
        """Wall time not accounted to tasks or the shuffle.

        Dispatch, scheduling waits, result transport.  0.0 when
        ``wall_seconds`` was never measured (or clocks disagree slightly on
        a fully-parallel run, where wall < busy is expected anyway).
        """
        if self.wall_seconds <= 0.0:
            return 0.0
        return max(0.0, self.wall_seconds - self.busy_seconds)
