"""Span-tree correctness for every local executor + schema stability.

The trace of a run must tell the truth about structure: task spans are
children of the run span under both the serial and the process executor
(pool results are recorded in the parent, so parenting is explicit),
and two identical runs produce the identical span schema — same names,
same parent/child pairs — differing only in timings and ids.
"""

import pytest

from repro import obs
from repro.mapreduce.engine import LocalEngine
from repro.mapreduce.job import MapReduceJob


@pytest.fixture(autouse=True)
def no_leaked_trace():
    obs.end_trace()
    yield
    obs.end_trace()


# Module scope so the job pickles by reference under the process executor.
class GroupSum(MapReduceJob):
    def map(self, key, value):
        yield key % 3, value

    def reduce(self, key, values):
        yield key, sum(values)


INPUTS = [(i, float(i)) for i in range(12)]


def traced_run(executor: str, n_workers: int):
    engine = LocalEngine(n_workers=n_workers, executor=executor, map_chunk_size=3)
    trace = obs.start_trace("run")
    outputs, stats = engine.run(GroupSum(), INPUTS)
    obs.end_trace()
    return trace, outputs, stats, engine


@pytest.mark.parametrize(
    "executor,n_workers",
    [("serial", 1), ("process", 2), ("process", 3)],
)
def test_task_spans_parent_under_the_run_span(executor, n_workers):
    trace, outputs, stats, engine = traced_run(executor, n_workers)
    run_spans = [s for s in trace.spans if s.name == "engine.run"]
    assert len(run_spans) == 1
    run_span = run_spans[0]
    assert run_span.attrs["executor"] == executor
    assert run_span.attrs["n_outputs"] == len(outputs)

    map_spans = [s for s in trace.spans if s.name == "map.task"]
    reduce_spans = [s for s in trace.spans if s.name == "reduce.task"]
    assert len(map_spans) == len(stats.map_task_seconds) == 4
    assert len(reduce_spans) == len(stats.reduce_task_seconds) == 3
    for span in map_spans + reduce_spans:
        assert span.parent_id == run_span.span_id

    shuffle_spans = [s for s in trace.spans if s.name == "engine.shuffle"]
    assert len(shuffle_spans) == 1
    assert shuffle_spans[0].parent_id == run_span.span_id


@pytest.mark.parametrize("executor,n_workers", [("serial", 1), ("process", 2)])
def test_schema_stable_across_runs(executor, n_workers):
    first, _, _, _ = traced_run(executor, n_workers)
    second, _, _, _ = traced_run(executor, n_workers)
    assert first.shape() == second.shape()
    # ... while the ids and timings are of course fresh objects.
    assert first.trace_id != second.trace_id


def test_engine_records_wall_seconds_and_report():
    trace, outputs, stats, engine = traced_run("serial", 1)
    assert stats.wall_seconds > 0.0
    assert stats.wall_seconds >= stats.busy_seconds * 0.5  # sanity, not equality
    report = engine.last_run_report
    assert report is not None
    assert report.executor == "serial"
    assert report.n_map_tasks == 4 and report.n_reduce_tasks == 3
    # The trace carries the same report for `repro stats`.
    assert trace.reports and trace.reports[0]["job"] == "GroupSum"


def test_untraced_run_still_builds_report():
    engine = LocalEngine(executor="serial")
    outputs, stats = engine.run(GroupSum(), INPUTS)
    assert engine.last_run_report is not None
    assert engine.last_run_report.n_outputs == len(outputs) == 3
    assert stats.wall_seconds > 0.0
