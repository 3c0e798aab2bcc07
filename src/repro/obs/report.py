"""Run reports: one human/JSON summary per engine run.

A :class:`RunReport` condenses a run's :class:`~repro.mapreduce.job.JobStats`
plus the engine-level context the stats alone cannot carry — which executor,
how many workers, the per-worker task/steal/retry breakdown of a cluster
run, data-plane bytes moved, and the fallback reason if the cluster
degraded.  Engines build one after every run (``engine.last_run_report``)
and, when a trace is active, attach its JSON form to the trace so
``repro stats TRACE.json`` can render the breakdown later.

``render()`` is the pretty text form; ``to_json()``/``from_json()`` are the
machine round trip.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..mapreduce.job import JobStats

__all__ = ["RunReport"]


def _fmt_seconds(seconds: float) -> str:
    if seconds >= 100.0:
        return f"{seconds:,.0f}s"
    if seconds >= 0.1:
        return f"{seconds:.2f}s"
    return f"{seconds * 1e3:.1f}ms"


def _fmt_bytes(n: int) -> str:
    value = float(n)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024.0 or unit == "GiB":
            return f"{value:,.1f} {unit}" if unit != "B" else f"{int(value)} B"
        value /= 1024.0
    return f"{int(n)} B"  # pragma: no cover - unreachable


@dataclass
class RunReport:
    """Summary of one engine run (see module docstring)."""

    job: str = ""
    executor: str = ""
    n_workers: int = 0
    n_map_tasks: int = 0
    n_reduce_tasks: int = 0
    n_outputs: int = 0
    map_seconds: float = 0.0
    reduce_seconds: float = 0.0
    shuffle_seconds: float = 0.0
    wall_seconds: float = 0.0
    #: Cluster only: tasks completed per worker id.
    worker_tasks: dict[str, int] = field(default_factory=dict)
    #: Cluster only: steal requests granted per worker id.
    worker_steals: dict[str, int] = field(default_factory=dict)
    #: Cluster only: worker-loss retry events of this run.
    retries: int = 0
    #: Cluster only: why the run degraded to a local executor, or ``None``.
    fallback: str | None = None
    #: Cluster only: artifact bytes served over worker sockets this run.
    bytes_served: int = 0
    #: Cluster only: distinct arrays promoted to spool artifacts this run.
    n_artifacts: int = 0

    @classmethod
    def from_stats(
        cls, stats: "JobStats", job: str, executor: str, n_workers: int, **extra: Any
    ) -> "RunReport":
        return cls(
            job=job,
            executor=executor,
            n_workers=n_workers,
            n_map_tasks=len(stats.map_task_seconds),
            n_reduce_tasks=len(stats.reduce_task_seconds),
            n_outputs=stats.n_outputs,
            map_seconds=sum(stats.map_task_seconds),
            reduce_seconds=sum(stats.reduce_task_seconds),
            shuffle_seconds=stats.shuffle_seconds,
            wall_seconds=stats.wall_seconds,
            **extra,
        )

    @property
    def busy_seconds(self) -> float:
        """Total task + shuffle time (the sequential cost of the run)."""
        return self.map_seconds + self.reduce_seconds + self.shuffle_seconds

    @property
    def overhead_seconds(self) -> float:
        """Wall time not accounted to tasks or shuffle (dispatch, waits)."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return max(0.0, self.wall_seconds - self.busy_seconds)

    @property
    def parallelism(self) -> float:
        """Achieved busy/wall ratio (1.0 means perfectly serial)."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.busy_seconds / self.wall_seconds

    def to_json(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "RunReport":
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in data.items() if k in known})

    def render(self) -> str:
        """The pretty text report (``repro stats`` output)."""
        # Cluster runs fold the shuffle into map-result arrival; local runs
        # (and cluster runs degraded to a local fallback) run it as a phase
        # between map and reduce.
        overlapped = self.executor == "cluster" and not self.fallback
        shuffle_note = " (overlapped fold)" if overlapped else ""
        lines = [
            f"run report — {self.job or 'job'} on {self.executor or '?'} "
            f"({self.n_workers} worker(s))",
            f"  tasks:   {self.n_map_tasks} map + {self.n_reduce_tasks} reduce "
            f"-> {self.n_outputs} output(s)",
            f"  phases:  map {_fmt_seconds(self.map_seconds)}, "
            f"shuffle {_fmt_seconds(self.shuffle_seconds)}{shuffle_note}, "
            f"reduce {_fmt_seconds(self.reduce_seconds)}",
        ]
        if self.wall_seconds > 0.0:
            lines.append(
                f"  wall:    {_fmt_seconds(self.wall_seconds)} "
                f"(busy {_fmt_seconds(self.busy_seconds)}, overhead "
                f"{_fmt_seconds(self.overhead_seconds)}, "
                f"{self.parallelism:.2f}x busy/wall)"
            )
        if self.worker_tasks:
            lines.append("  workers:")
            for worker in sorted(self.worker_tasks):
                steals = self.worker_steals.get(worker, 0)
                steal_note = f", {steals} steal grant(s)" if steals else ""
                lines.append(
                    f"    {worker}: {self.worker_tasks[worker]} task(s)"
                    f"{steal_note}"
                )
        if self.retries:
            lines.append(f"  retries: {self.retries} worker-loss event(s)")
        if self.n_artifacts or self.bytes_served:
            lines.append(
                f"  data plane: {self.n_artifacts} artifact(s) spooled, "
                f"{_fmt_bytes(self.bytes_served)} served over sockets"
            )
        if self.fallback:
            lines.append(f"  fallback: {self.fallback}")
        return "\n".join(lines)
