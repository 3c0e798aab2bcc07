"""Hierarchical tracing: spans collected per run into an exportable trace.

One :class:`Trace` is a process-wide collection of :class:`Span` records —
named intervals with monotonic start/duration, attributes, and a parent id
forming a tree.  Call sites never touch the trace directly; they use the
module-level :func:`span` context manager (and :func:`record_span` /
:func:`add_span` for intervals measured elsewhere, e.g. shipped back from a
cluster worker):

    with span("engine.run", executor="process") as s:
        ...

Inert by default, same discipline as :mod:`repro.distributed.faults`: with
no trace installed (:data:`_ACTIVE` is ``None``), every hook is one module-
global read and a ``None`` check — ``span()`` hands back a shared no-op
context manager, so the production hot path stays untouched.  A dedicated
test pins the disabled-path overhead.

Activation is explicit (:func:`start_trace` / :func:`end_trace`) or
environment-steered: the CLI starts a trace when ``REPRO_TRACE`` names an
output file (see :mod:`repro.__main__`).

Exports:

* **JSONL** (:meth:`Trace.to_jsonl`) — one span object per line, the
  machine-diffable format the obs tests consume.
* **Chrome ``trace_event`` JSON** (:meth:`Trace.to_chrome`) — loadable in
  ``chrome://tracing`` and Perfetto.  Spans become complete (``"ph": "X"``)
  events; tracks (one per thread/worker lane) become named tids.  Extra
  repro payload (metrics snapshot, run reports) rides under a top-level
  ``"repro"`` key, which trace viewers ignore.

Timing: span starts are ``time.perf_counter()`` relative to the trace's
epoch — monotonic, never wall-clock, so spans cannot travel backwards
across an NTP step.  ``wall_epoch`` records the wall-clock time of the
epoch once, for humans correlating a trace with logs.
"""

from __future__ import annotations

import json
import secrets
import threading
import time
from pathlib import Path
from typing import Any

__all__ = [
    "Span",
    "Trace",
    "add_span",
    "current_trace",
    "enabled",
    "end_trace",
    "record_span",
    "span",
    "start_trace",
]


class Span:
    """One closed interval of a trace (see module docstring)."""

    __slots__ = ("span_id", "parent_id", "name", "start", "duration", "attrs", "track")

    def __init__(
        self,
        span_id: int,
        parent_id: int | None,
        name: str,
        start: float,
        duration: float,
        attrs: dict[str, Any],
        track: str,
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.duration = duration
        self.attrs = attrs
        self.track = track

    @property
    def end(self) -> float:
        return self.start + self.duration

    def to_dict(self) -> dict[str, Any]:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "track": self.track,
            "attrs": self.attrs,
        }


class _SpanHandle:
    """Context manager of one live span; records it on exit."""

    __slots__ = ("_trace", "span_id", "name", "attrs", "track", "_start", "_parent")

    def __init__(
        self,
        trace: "Trace",
        name: str,
        parent: int | None,
        track: str | None,
        attrs: dict[str, Any],
    ) -> None:
        self._trace = trace
        self.name = name
        self.attrs = attrs
        self.track = track
        self._parent = parent
        self.span_id = trace._allocate_id()
        self._start = 0.0

    def set(self, **attrs: Any) -> None:
        """Attach attributes mid-span (e.g. a result count known at the end)."""
        self.attrs.update(attrs)

    def __enter__(self) -> "_SpanHandle":
        stack = self._trace._stack()
        if self._parent is None and stack:
            self._parent = stack[-1]
        stack.append(self.span_id)
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, _tb) -> bool:
        duration = time.perf_counter() - self._start
        stack = self._trace._stack()
        if stack and stack[-1] == self.span_id:
            stack.pop()
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        self._trace._record(
            Span(
                self.span_id,
                self._parent,
                self.name,
                self._start - self._trace.epoch,
                duration,
                self.attrs,
                self.track or threading.current_thread().name,
            )
        )
        return False


class _NoopSpan:
    """The shared do-nothing span handed out while tracing is disabled."""

    __slots__ = ()
    span_id = None
    attrs: dict[str, Any] = {}

    def set(self, **attrs: Any) -> None:
        pass

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: Any) -> bool:
        return False


_NOOP_SPAN = _NoopSpan()


class Trace:
    """One run's span collection (thread-safe; see module docstring)."""

    def __init__(self, name: str = "run") -> None:
        self.name = name
        self.trace_id = f"{name}-{secrets.token_hex(4)}"
        self.epoch = time.perf_counter()
        self.wall_epoch = time.time()
        self.spans: list[Span] = []
        #: Run reports (plain dicts) attached by engines while this trace
        #: was active; exported under the Chrome file's ``repro`` key.
        self.reports: list[dict] = []
        self._lock = threading.Lock()
        self._next_id = 0
        self._local = threading.local()

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _allocate_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    def _record(self, item: Span) -> None:
        with self._lock:
            self.spans.append(item)

    def span(
        self,
        name: str,
        parent: int | None = None,
        track: str | None = None,
        **attrs: Any,
    ) -> _SpanHandle:
        """A live span context manager.

        ``parent`` overrides the thread-local nesting (needed when the
        logical parent ran on another thread, e.g. a coordinator reader
        thread parenting under the run span); ``track`` overrides the lane
        name (default: the recording thread's name).
        """
        return _SpanHandle(self, name, parent, track, attrs)

    def add_span(
        self,
        name: str,
        start: float,
        duration: float,
        parent_id: int | None = None,
        track: str = "",
        attrs: dict[str, Any] | None = None,
    ) -> int:
        """Record an already-measured interval (trace-relative ``start``).

        This is how remote intervals enter the tree: worker-side task spans
        ship back as (name, offset, duration) tuples and are re-based onto
        the coordinator's clock before landing here.  Returns the span id so
        callers can parent further spans under it.
        """
        span_id = self._allocate_id()
        self._record(
            Span(
                span_id,
                parent_id,
                name,
                start,
                duration,
                dict(attrs or {}),
                track or threading.current_thread().name,
            )
        )
        return span_id

    def rel_now(self) -> float:
        """Seconds since the trace epoch (the ``start`` coordinate space)."""
        return time.perf_counter() - self.epoch

    def add_report(self, report: dict) -> None:
        with self._lock:
            self.reports.append(report)

    # -- analysis ------------------------------------------------------------

    def duration(self) -> float:
        """Span-covered wall window: first start to last end."""
        if not self.spans:
            return 0.0
        return max(s.end for s in self.spans) - min(s.start for s in self.spans)

    def coverage(self) -> float:
        """Fraction of :meth:`duration` covered by the union of all spans."""
        total = self.duration()
        if total <= 0.0:
            return 0.0
        intervals = sorted((s.start, s.end) for s in self.spans)
        covered = 0.0
        cursor = intervals[0][0]
        for start, end in intervals:
            if end <= cursor:
                continue
            covered += end - max(start, cursor)
            cursor = end
        return covered / total

    def tree(self) -> dict[int | None, list[Span]]:
        """Spans grouped by parent id (``None`` keys the roots)."""
        children: dict[int | None, list[Span]] = {}
        for item in sorted(self.spans, key=lambda s: (s.start, s.span_id)):
            children.setdefault(item.parent_id, []).append(item)
        return children

    def shape(self) -> list[tuple[str, str | None]]:
        """The timing-free structure: sorted (name, parent name) pairs.

        Two runs of the same workload produce the same shape — the property
        the schema-stability tests pin down.
        """
        by_id = {s.span_id: s for s in self.spans}
        pairs = []
        for item in self.spans:
            parent = by_id.get(item.parent_id)
            pairs.append((item.name, parent.name if parent else None))
        return sorted(pairs)

    # -- export --------------------------------------------------------------

    def to_jsonl(self, path: str | Path) -> Path:
        """Write one JSON object per span (plus a leading trace header)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            header = {
                "trace_id": self.trace_id,
                "name": self.name,
                "wall_epoch": self.wall_epoch,
                "n_spans": len(self.spans),
            }
            handle.write(json.dumps(header) + "\n")
            for item in sorted(self.spans, key=lambda s: (s.start, s.span_id)):
                handle.write(json.dumps(item.to_dict()) + "\n")
        return path

    def chrome_events(self) -> list[dict]:
        """Spans as Chrome ``trace_event`` complete events (+ tid metadata)."""
        tracks = sorted({s.track for s in self.spans})
        tids = {track: index for index, track in enumerate(tracks)}
        events: list[dict] = [
            {
                "ph": "M",
                "name": "thread_name",
                "pid": 1,
                "tid": tids[track],
                "args": {"name": track},
            }
            for track in tracks
        ]
        for item in sorted(self.spans, key=lambda s: (s.start, s.span_id)):
            args = {k: v for k, v in item.attrs.items()}
            args["span_id"] = item.span_id
            if item.parent_id is not None:
                args["parent_id"] = item.parent_id
            events.append(
                {
                    "ph": "X",
                    "name": item.name,
                    "pid": 1,
                    "tid": tids[item.track],
                    "ts": round(item.start * 1e6, 3),
                    "dur": round(item.duration * 1e6, 3),
                    "args": args,
                }
            )
        return events

    def to_chrome(self, path: str | Path, metrics: dict | None = None) -> Path:
        """Write the Chrome/Perfetto JSON file (see module docstring)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        document = {
            "traceEvents": self.chrome_events(),
            "displayTimeUnit": "ms",
            "repro": {
                "trace_id": self.trace_id,
                "name": self.name,
                "wall_epoch": self.wall_epoch,
                "coverage": self.coverage(),
                "reports": self.reports,
                "metrics": metrics or {},
            },
        }
        path.write_text(json.dumps(document, indent=1), encoding="utf-8")
        return path


#: The process-wide active trace; ``None`` (the default) keeps hooks inert.
_ACTIVE: Trace | None = None

_INSTALL_LOCK = threading.Lock()


def start_trace(name: str = "run") -> Trace:
    """Install a fresh trace as the process's active one and return it."""
    global _ACTIVE
    with _INSTALL_LOCK:
        _ACTIVE = Trace(name)
        return _ACTIVE


def end_trace() -> Trace | None:
    """Uninstall and return the active trace (hooks become inert again)."""
    global _ACTIVE
    with _INSTALL_LOCK:
        trace, _ACTIVE = _ACTIVE, None
        return trace


def current_trace() -> Trace | None:
    return _ACTIVE


def enabled() -> bool:
    """True when a trace is collecting (the one branch hot paths pay)."""
    return _ACTIVE is not None


# -- hook shims (call sites use these; inert = one global read) --------------


def span(
    name: str, parent: int | None = None, track: str | None = None, **attrs: Any
):
    """Open a span on the active trace, or a shared no-op when disabled."""
    trace = _ACTIVE
    if trace is None:
        return _NOOP_SPAN
    return trace.span(name, parent=parent, track=track, **attrs)


def record_span(
    name: str,
    seconds: float,
    parent: int | None = None,
    track: str = "",
    **attrs: Any,
) -> int | None:
    """Record an interval of ``seconds`` ending now (measured elsewhere)."""
    trace = _ACTIVE
    if trace is None:
        return None
    return trace.add_span(
        name, trace.rel_now() - seconds, seconds, parent, track, attrs
    )


def add_span(
    name: str,
    start: float,
    duration: float,
    parent: int | None = None,
    track: str = "",
    **attrs: Any,
) -> int | None:
    """Record an interval at an explicit trace-relative ``start``."""
    trace = _ACTIVE
    if trace is None:
        return None
    return trace.add_span(name, start, duration, parent, track, attrs)
