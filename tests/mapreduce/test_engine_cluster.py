"""Tests for the local map-reduce engine and the simulated-cluster scheduler."""

import pytest

from repro.mapreduce.cluster import (
    greedy_makespan,
    job_makespan,
    speedup_curve,
    straggler_ratio,
)
from repro.mapreduce.engine import LocalEngine
from repro.mapreduce.job import JobStats, MapReduceJob
from repro.utils.errors import MapReduceError


class WordCount(MapReduceJob):
    def map(self, key, value):
        for word in value.split():
            yield word.lower(), 1

    def reduce(self, key, values):
        yield key, sum(values)


DOCS = [
    (1, "the quick brown fox"),
    (2, "the lazy dog"),
    (3, "the quick dog"),
]


class TestEngine:
    def test_wordcount_serial(self):
        outputs, stats = LocalEngine().run(WordCount(), DOCS)
        counts = dict(outputs)
        assert counts["the"] == 3
        assert counts["quick"] == 2
        assert counts["fox"] == 1
        assert stats.n_outputs == len(counts)
        assert len(stats.map_task_seconds) == 3
        assert len(stats.reduce_task_seconds) == len(counts)

    def test_wordcount_process_matches_serial(self):
        serial, _ = LocalEngine().run(WordCount(), DOCS)
        parallel, _ = LocalEngine(n_workers=4, executor="process").run(
            WordCount(), DOCS
        )
        assert dict(serial) == dict(parallel)

    def test_serial_ignores_worker_count(self):
        serial, _ = LocalEngine().run(WordCount(), DOCS)
        wide, stats = LocalEngine(n_workers=4, executor="serial").run(
            WordCount(), DOCS
        )
        assert wide == serial
        assert stats.n_map_chunks == len(DOCS)

    def test_unknown_executor_rejected(self):
        with pytest.raises(MapReduceError):
            LocalEngine(executor="gpu")

    def test_bad_worker_count_rejected(self):
        with pytest.raises(MapReduceError):
            LocalEngine(n_workers=0)

    def test_empty_input(self):
        outputs, stats = LocalEngine().run(WordCount(), [])
        assert outputs == []
        assert stats.total_task_seconds == 0.0


class TestGreedyMakespan:
    def test_single_node_is_sum(self):
        assert greedy_makespan([1.0, 2.0, 3.0], 1) == pytest.approx(6.0)

    def test_perfectly_parallel(self):
        assert greedy_makespan([1.0, 1.0, 1.0, 1.0], 4) == pytest.approx(1.0)

    def test_straggler_dominates(self):
        # One 10s task + many small: makespan can't go below 10s.
        tasks = [10.0] + [0.5] * 20
        assert greedy_makespan(tasks, 8) >= 10.0

    def test_empty_tasks(self):
        assert greedy_makespan([], 4) == 0.0

    def test_invalid_inputs(self):
        with pytest.raises(MapReduceError):
            greedy_makespan([1.0], 0)
        with pytest.raises(MapReduceError):
            greedy_makespan([-1.0], 2)

    def test_makespan_monotone_in_nodes(self):
        tasks = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
        spans = [greedy_makespan(tasks, n) for n in (1, 2, 4, 8)]
        assert spans == sorted(spans, reverse=True)


class TestSpeedupCurve:
    def make_stats(self, map_times, reduce_times):
        stats = JobStats()
        stats.map_task_seconds = map_times
        stats.reduce_task_seconds = reduce_times
        return stats

    def test_homogeneous_tasks_scale_nearly_linearly(self):
        stats = self.make_stats([1.0] * 16, [1.0] * 16)
        curve = speedup_curve(stats, [1, 2, 4, 8])
        assert curve[1] == pytest.approx(1.0)
        assert curve[4] == pytest.approx(4.0)
        assert curve[8] == pytest.approx(8.0)

    def test_stragglers_cap_speedup(self):
        stats = self.make_stats([8.0] + [0.5] * 16, [])
        curve = speedup_curve(stats, [1, 4, 16])
        # T1 = 16; Tn >= 8 regardless of n.
        assert curve[16] <= 2.0 + 1e-9

    def test_curve_is_single_node_over_job_makespan(self):
        stats = self.make_stats([3.0, 1.0, 2.0, 0.5], [1.5, 0.25])
        stats.shuffle_seconds = 0.75
        curve = speedup_curve(stats, [1, 2, 3])
        for n, speedup in curve.items():
            assert speedup == pytest.approx(
                job_makespan(stats, 1) / job_makespan(stats, n)
            )

    def test_makespan_model_is_not_selectable(self):
        # job_makespan is the one model; there is no overlapped variant.
        stats = self.make_stats([1.0], [1.0])
        with pytest.raises(TypeError):
            speedup_curve(stats, [1, 2], makespan=job_makespan)

    def test_job_makespan_includes_shuffle(self):
        stats = self.make_stats([1.0, 1.0], [1.0, 1.0])
        stats.shuffle_seconds = 0.5
        assert job_makespan(stats, 2) == pytest.approx(1.0 + 0.5 + 1.0)

    def test_map_reduce_barrier_makespans_add(self):
        """The reduce wave starts only after the slowest map task: the two
        wave makespans add instead of overlapping (the model job_makespan's
        docstring pins down)."""
        stats = self.make_stats([4.0, 1.0, 1.0], [3.0, 1.0])
        # 2 nodes: map wave = 4.0 (straggler), reduce wave = 3.0.
        assert job_makespan(stats, 2) == pytest.approx(4.0 + 3.0)
        # Were the phases overlapped, 2 nodes could finish sooner; the
        # barrier model must never report that.
        assert job_makespan(stats, 2) > max(4.0, 3.0)


class TestSpeedupCurveEdgeCases:
    """The cases the fig10 benchmark (and its measured twin) can feed in."""

    def make_stats(self, map_times, reduce_times, shuffle=0.0):
        stats = JobStats()
        stats.map_task_seconds = map_times
        stats.reduce_task_seconds = reduce_times
        stats.shuffle_seconds = shuffle
        return stats

    def test_single_node_is_exactly_one(self):
        stats = self.make_stats([0.5, 1.5, 2.5], [1.0], shuffle=0.25)
        curve = speedup_curve(stats, [1])
        assert curve[1] == pytest.approx(1.0)

    def test_more_nodes_than_tasks_plateaus(self):
        stats = self.make_stats([1.0, 1.0], [])
        curve = speedup_curve(stats, [2, 4, 64])
        # Two tasks can use at most two nodes; extra nodes idle.
        assert curve[2] == pytest.approx(2.0)
        assert curve[4] == pytest.approx(2.0)
        assert curve[64] == pytest.approx(2.0)

    def test_zero_duration_tasks_report_unit_speedup(self):
        stats = self.make_stats([0.0, 0.0, 0.0], [0.0])
        curve = speedup_curve(stats, [1, 2, 8])
        assert curve == {1: 1.0, 2: 1.0, 8: 1.0}

    def test_empty_stats_report_unit_speedup(self):
        curve = speedup_curve(JobStats(), [1, 4])
        assert curve == {1: 1.0, 4: 1.0}

    def test_shuffle_only_stats_are_flat(self):
        # Pure coordinator time cannot be sped up by adding nodes.
        stats = self.make_stats([], [], shuffle=2.0)
        curve = speedup_curve(stats, [1, 2, 16])
        assert all(v == pytest.approx(1.0) for v in curve.values())


class TestStragglerRatio:
    def test_uniform_tasks(self):
        assert straggler_ratio([2.0, 2.0, 2.0]) == pytest.approx(1.0)

    def test_heavy_tail(self):
        assert straggler_ratio([1.0, 1.0, 10.0]) == pytest.approx(10.0 / 4.0)

    def test_empty(self):
        assert straggler_ratio([]) == 1.0
