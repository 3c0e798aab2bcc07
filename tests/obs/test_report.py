"""RunReport unit tests: construction, round trip, rendering."""

import pytest

from repro.mapreduce.job import JobStats
from repro.obs import RunReport


def make_stats() -> JobStats:
    stats = JobStats()
    stats.map_task_seconds = [0.2, 0.3]
    stats.reduce_task_seconds = [0.1]
    stats.shuffle_seconds = 0.05
    stats.wall_seconds = 0.9
    stats.n_outputs = 4
    return stats


def test_from_stats_copies_the_right_fields():
    report = RunReport.from_stats(
        make_stats(), job="WordCount", executor="process", n_workers=4
    )
    assert report.job == "WordCount"
    assert report.executor == "process"
    # Local runs shuffle as a phase between map and reduce, not as a fold.
    assert "overlapped" not in report.render()
    assert report.n_workers == 4
    assert report.n_map_tasks == 2 and report.n_reduce_tasks == 1
    assert report.map_seconds == pytest.approx(0.5)
    assert report.reduce_seconds == pytest.approx(0.1)
    assert report.shuffle_seconds == pytest.approx(0.05)
    assert report.wall_seconds == pytest.approx(0.9)
    assert report.n_outputs == 4


def test_derived_properties():
    report = RunReport.from_stats(make_stats(), job="J", executor="serial", n_workers=1)
    assert report.busy_seconds == pytest.approx(0.65)
    assert report.overhead_seconds == pytest.approx(0.25)
    assert report.parallelism == pytest.approx(0.65 / 0.9)
    empty = RunReport()
    assert empty.overhead_seconds == 0.0
    assert empty.parallelism == 0.0


def test_json_roundtrip_filters_unknown_keys():
    report = RunReport.from_stats(
        make_stats(),
        job="J",
        executor="cluster",
        n_workers=2,
        worker_tasks={"w1": 3, "w2": 2},
        retries=1,
        fallback=None,
        bytes_served=2048,
    )
    payload = report.to_json()
    payload["some_future_field"] = "ignored"
    restored = RunReport.from_json(payload)
    assert restored == report


def test_render_mentions_the_load_bearing_numbers():
    report = RunReport.from_stats(
        make_stats(),
        job="RowSum",
        executor="cluster",
        n_workers=2,
        worker_tasks={"host0": 3, "host1": 2},
        worker_steals={"host0": 2, "host1": 1},
        retries=1,
        bytes_served=4096,
        n_artifacts=2,
    )
    text = report.render()
    assert "RowSum" in text and "cluster" in text
    assert "host0" in text and "host1" in text
    assert "overlapped" in text
    assert "retries" in text or "retry" in text


def test_legacy_shuffle_overlapped_field_is_ignored():
    # Reports written before the note was derived carry the old field.
    payload = RunReport(job="J", executor="process").to_json()
    assert "shuffle_overlapped" not in payload
    payload["shuffle_overlapped"] = True
    restored = RunReport.from_json(payload)
    assert restored == RunReport(job="J", executor="process")
    assert "overlapped" not in restored.render()


def test_render_reports_fallback():
    report = RunReport(job="J", executor="cluster", fallback="no workers joined")
    text = report.render()
    assert "no workers joined" in text
    # The fallback ran the shuffle locally, as a phase between map and reduce.
    assert "overlapped" not in text
