"""Process-executor tests: equivalence, crash containment, shm hygiene.

The contract: ``executor="process"`` must produce bit-identical outputs to
``"serial"`` for any deterministic job, task failures inside a worker must
surface as :class:`MapReduceError` carrying the *original* traceback (never
a bare ``BrokenProcessPool``), and every shared-memory segment must be
released no matter how the run ended.
"""

import glob
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.mapreduce import shm
from repro.mapreduce.engine import (
    LocalEngine,
    auto_chunk_size,
    default_engine,
)
from repro.mapreduce.job import MapReduceJob
from repro.utils.errors import MapReduceError


def assert_no_segment_leaks():
    """No segment of ours is tracked or left behind in /dev/shm."""
    assert shm.live_segments() == frozenset()
    if os.path.isdir("/dev/shm"):  # Linux: the segments are visible as files
        assert glob.glob(f"/dev/shm/{shm.SEGMENT_PREFIX}*") == []


# Jobs live at module scope so they pickle by reference under any start
# method (spawn imports this module inside the worker).


class WordCount(MapReduceJob):
    def map(self, key, value):
        for word in value.split():
            yield word.lower(), 1

    def reduce(self, key, values):
        yield key, sum(values)


class OrderSensitiveJob(MapReduceJob):
    """Reduce output depends on value order: pins the shuffle guarantee."""

    def map(self, key, value):
        for i, v in enumerate(value):
            yield key % 3, (key, i, v)

    def reduce(self, key, values):
        yield key, tuple(values)


class ArraySumJob(MapReduceJob):
    """Ships a large matrix per input — exercises the shm plane."""

    def map(self, key, value):
        yield key % 2, float(value.sum())

    def reduce(self, key, values):
        yield key, sum(values)


class ExplodingMapJob(MapReduceJob):
    def map(self, key, value):
        if key == 2:
            raise ValueError("planted map failure")
        yield key, value

    def reduce(self, key, values):
        yield key, values


class ExplodingReduceJob(MapReduceJob):
    def map(self, key, value):
        yield key, value

    def reduce(self, key, values):
        raise RuntimeError("planted reduce failure")


class LibraryErrorJob(MapReduceJob):
    """Raises a library error — must keep its type across the process hop."""

    def map(self, key, value):
        from repro.utils.errors import PersistError

        raise PersistError("checksum mismatch for partition 3")

    def reduce(self, key, values):  # pragma: no cover - never reached
        yield key, values


class DyingWorkerJob(MapReduceJob):
    """Kills the worker process outright (no exception to pickle back)."""

    def map(self, key, value):
        os._exit(17)

    def reduce(self, key, values):  # pragma: no cover - never reached
        yield key, values


DOCS = [(1, "the quick brown fox"), (2, "the lazy dog"), (3, "the quick dog")]


class TestProcessExecutorEquivalence:
    def test_wordcount_matches_serial(self):
        serial, _ = LocalEngine().run(WordCount(), DOCS)
        proc, stats = LocalEngine(n_workers=2, executor="process").run(
            WordCount(), DOCS
        )
        assert proc == serial
        assert len(stats.map_task_seconds) == stats.n_map_chunks
        assert_no_segment_leaks()

    @pytest.mark.parametrize("chunk", [None, 2, "auto"])
    def test_order_sensitive_reduce_is_stable(self, chunk):
        inputs = [(k, list(range(k + 1))) for k in range(10)]
        serial, _ = LocalEngine().run(OrderSensitiveJob(), inputs)
        proc, _ = LocalEngine(
            n_workers=3, executor="process", map_chunk_size=chunk
        ).run(OrderSensitiveJob(), inputs)
        assert proc == serial

    def test_large_arrays_travel_through_shm(self):
        rng = np.random.default_rng(3)
        big = rng.normal(0, 1, 50_000)  # 400 KB, well above the threshold
        inputs = [(i, big) for i in range(5)]
        serial, _ = LocalEngine().run(ArraySumJob(), inputs)
        proc, _ = LocalEngine(
            n_workers=2, executor="process", map_chunk_size="auto"
        ).run(ArraySumJob(), inputs)
        assert proc == serial
        assert_no_segment_leaks()

    def test_single_worker_process_runs_serially(self):
        engine = LocalEngine(n_workers=1, executor="process")
        assert not engine.is_parallel
        outputs, _ = engine.run(WordCount(), DOCS)
        assert dict(outputs)["the"] == 3

    def test_empty_input(self):
        outputs, stats = LocalEngine(n_workers=2, executor="process").run(
            WordCount(), []
        )
        assert outputs == []
        assert stats.n_outputs == 0
        assert_no_segment_leaks()


class TestCrashContainment:
    def test_map_failure_carries_original_traceback(self):
        with pytest.raises(MapReduceError) as excinfo:
            LocalEngine(n_workers=2, executor="process").run(ExplodingMapJob(), DOCS)
        message = str(excinfo.value)
        assert "ValueError: planted map failure" in message
        assert "Traceback (most recent call last)" in message
        assert "map task failed" in message
        assert_no_segment_leaks()

    def test_reduce_failure_carries_original_traceback(self):
        with pytest.raises(MapReduceError) as excinfo:
            LocalEngine(n_workers=2, executor="process").run(ExplodingReduceJob(), DOCS)
        message = str(excinfo.value)
        assert "RuntimeError: planted reduce failure" in message
        assert "reduce task failed" in message
        assert_no_segment_leaks()

    def test_library_errors_keep_their_type(self):
        """ReproError subclasses cross the process boundary unchanged, so
        callers see the same exception the serial executor would raise; the
        worker traceback rides along as the cause."""
        from repro.utils.errors import PersistError

        with pytest.raises(PersistError, match="checksum mismatch") as excinfo:
            LocalEngine(n_workers=2, executor="process").run(LibraryErrorJob(), DOCS)
        cause = excinfo.value.__cause__
        assert isinstance(cause, MapReduceError)
        assert "Traceback (most recent call last)" in str(cause)
        assert_no_segment_leaks()

    def test_worker_death_surfaces_as_mapreduce_error(self):
        with pytest.raises(MapReduceError) as excinfo:
            LocalEngine(n_workers=2, executor="process").run(DyingWorkerJob(), DOCS)
        assert "worker process died" in str(excinfo.value)
        assert_no_segment_leaks()

    def test_failing_run_releases_shared_memory(self):
        rng = np.random.default_rng(5)
        big = rng.normal(0, 1, 50_000)
        inputs = [(i, big) for i in range(4)] + [(2, big)]
        with pytest.raises(MapReduceError):
            LocalEngine(n_workers=2, executor="process").run(ExplodingMapJob(), inputs)
        assert_no_segment_leaks()

    @pytest.mark.skipif(
        not sys.platform.startswith("linux"),
        reason="fork start method (the inline job class needs fork)",
    )
    def test_no_resource_tracker_warnings_end_to_end(self):
        """A full interpreter run must not trip the resource tracker.

        Leaked (or double-unregistered) segments surface as
        ``resource_tracker`` noise on stderr at interpreter exit — the
        symptom this asserts against, in a fresh subprocess so the tracker
        actually shuts down.
        """
        script = (
            "import numpy as np\n"
            "from repro.mapreduce.engine import LocalEngine\n"
            "from repro.mapreduce.job import MapReduceJob\n"
            "class ArraySum(MapReduceJob):\n"
            "    def map(self, key, value):\n"
            "        yield key % 2, float(value.sum())\n"
            "    def reduce(self, key, values):\n"
            "        yield key, sum(values)\n"
            "class ReduceShipsArrays(MapReduceJob):\n"
            "    # Tiny map inputs, large map *outputs*: the first shm\n"
            "    # registration happens only in the reduce phase, after the\n"
            "    # workers were forked — the topology where tracked\n"
            "    # attachments used to leak into per-worker trackers.\n"
            "    def map(self, key, value):\n"
            "        yield key % 2, np.full(20_000, float(value))\n"
            "    def reduce(self, key, values):\n"
            "        yield key, float(sum(v.sum() for v in values))\n"
            "big = np.arange(60_000, dtype=np.float64)\n"
            "engine = LocalEngine(n_workers=2, executor='process')\n"
            "out, _ = engine.run(ArraySum(), [(i, big) for i in range(4)])\n"
            "out2, _ = engine.run(ReduceShipsArrays(), [(i, i) for i in range(6)])\n"
            "print('OK', len(out) + len(out2))\n"
        )
        root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(root, "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert "OK 4" in result.stdout
        assert "resource_tracker" not in result.stderr, result.stderr


class TestEngineValidation:
    def test_unknown_executor_message_lists_valid_ones(self):
        with pytest.raises(MapReduceError) as excinfo:
            LocalEngine(executor="gpu")
        message = str(excinfo.value)
        assert "valid executors: serial, process" in message
        assert "'gpu'" in message

    def test_thread_executor_is_rejected(self):
        with pytest.raises(MapReduceError) as excinfo:
            LocalEngine(executor="thread", n_workers=2)
        message = str(excinfo.value)
        assert "valid executors: serial, process" in message
        assert "'thread'" in message

    @pytest.mark.parametrize("bad", [0, -3, 1.5, "4"])
    def test_bad_worker_count_message(self, bad):
        with pytest.raises(MapReduceError) as excinfo:
            LocalEngine(n_workers=bad)
        message = str(excinfo.value)
        assert "n_workers" in message
        assert repr(bad) in message

    def test_bad_shm_min_bytes_rejected(self):
        with pytest.raises(MapReduceError):
            LocalEngine(shm_min_bytes=0)


class TestAutoChunkSize:
    def test_process_targets_two_tasks_per_worker(self):
        # Larger chunks amortize the per-task pickle/IPC round trip.
        assert auto_chunk_size(64, 4, "process") == 8
        assert auto_chunk_size(17, 4, "process") == 3

    def test_serial_and_degenerate_cases_keep_one_per_task(self):
        assert auto_chunk_size(64, 4, "serial") == 1
        assert auto_chunk_size(64, 1, "process") == 1
        assert auto_chunk_size(0, 4, "process") == 1

    def test_never_below_one(self):
        assert auto_chunk_size(1, 16, "process") == 1

    def test_unknown_executor_rejected(self):
        with pytest.raises(MapReduceError, match="serial, process, cluster"):
            auto_chunk_size(10, 2, "gpu")

    def test_thread_executor_rejected(self):
        with pytest.raises(MapReduceError, match="serial, process, cluster"):
            auto_chunk_size(10, 2, "thread")

    def test_parallel_executors_share_one_sizing(self):
        # One tasks-per-worker target for every parallel backend.
        for n_inputs, n_workers in ((64, 4), (17, 4), (5, 2), (1000, 3)):
            assert auto_chunk_size(n_inputs, n_workers, "process") == (
                auto_chunk_size(n_inputs, n_workers, "cluster")
            )

    def test_engine_resolves_auto_per_executor(self):
        inputs = [(k, [k]) for k in range(64)]
        _, serial_stats = LocalEngine(
            n_workers=4, executor="serial", map_chunk_size="auto"
        ).run(OrderSensitiveJob(), inputs)
        _, proc_stats = LocalEngine(
            n_workers=4, executor="process", map_chunk_size="auto"
        ).run(OrderSensitiveJob(), inputs)
        assert serial_stats.n_map_chunks == 64
        assert proc_stats.n_map_chunks == 8


class TestDefaultEngine:
    def test_defaults_to_serial_single_worker(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        engine = default_engine()
        assert (engine.executor, engine.n_workers) == ("serial", 1)

    def test_environment_supplies_defaults(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "process")
        monkeypatch.setenv("REPRO_WORKERS", "4")
        engine = default_engine()
        assert (engine.executor, engine.n_workers) == ("process", 4)
        assert engine.map_chunk_size == "auto"

    def test_explicit_arguments_beat_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "process")
        monkeypatch.setenv("REPRO_WORKERS", "4")
        engine = default_engine(n_workers=2, executor="serial")
        assert (engine.executor, engine.n_workers) == ("serial", 2)

    @pytest.mark.parametrize("name", ["serial", "process"])
    def test_each_local_executor_selectable_from_environment(
        self, monkeypatch, name
    ):
        monkeypatch.setenv("REPRO_EXECUTOR", name)
        monkeypatch.setenv("REPRO_WORKERS", "2")
        engine = default_engine()
        assert isinstance(engine, LocalEngine)
        assert (engine.executor, engine.n_workers) == (name, 2)

    def test_explicit_thread_argument_rejected(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        with pytest.raises(MapReduceError, match="'thread'"):
            default_engine(n_workers=2, executor="thread")

    def test_invalid_environment_rejected(self, monkeypatch):
        for bad in ("gpu", "thread"):
            monkeypatch.setenv("REPRO_EXECUTOR", bad)
            with pytest.raises(MapReduceError, match="serial, process, cluster"):
                default_engine()
        monkeypatch.setenv("REPRO_EXECUTOR", "serial")
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.raises(MapReduceError) as excinfo:
            default_engine()
        assert "REPRO_WORKERS" in str(excinfo.value)
