"""Chaos matrix: seeded fault injection against real localhost clusters.

The robustness contract (ISSUE tentpole): under every injected fault class
a run must end in one of exactly two states — **bit-identical outputs** to
the serial reference, or a **typed error / declared fallback** — within a
bounded wall clock.  Never a hang, never silently wrong bytes.

Each test spawns its own cluster (faults leave corpses) and uses a fixed
plan seed, so a failure reproduces with the same injected events.  Kept
lean for single-core CI boxes: small inputs, 2-host clusters, one
many-host test for the poison-task quarantine.
"""

import os
import time

import numpy as np
import pytest

from repro.distributed import ClusterEngine, local_cluster
from repro.distributed.coordinator import FALLBACK_EXECUTORS
from repro.distributed.faults import ENV_VAR
from repro.mapreduce.engine import EXECUTORS, LocalEngine, default_engine
from repro.mapreduce.job import MapReduceJob
from repro.utils.errors import ClusterUnavailableError, MapReduceError

#: Ceiling on any chaos run (seconds): recovery must be prompt, and a
#: regression toward "hang until some 30 s timeout" must fail loudly.
WALL_CLOCK_BOUND = 60.0


class RowSumJob(MapReduceJob):
    """Deterministic job whose payloads carry a shared matrix.

    The matrix rides the artifact data plane (``min_artifact_bytes`` is
    lowered below its size), so every fault class — frame, artifact,
    scheduler — sits on this job's critical path.
    """

    def __init__(self, matrix):
        self.matrix = matrix

    def map(self, key, value):
        row = self.matrix[key % self.matrix.shape[0]]
        yield key % 3, (key, float(row.sum()) + value)

    def reduce(self, key, values):
        yield key, tuple(values)


class DieOnKeyJob(MapReduceJob):
    """A poison input: mapping ``key == 2`` kills whichever host tries."""

    def map(self, key, value):
        if key == 2:
            os._exit(23)
        yield key % 2, (key, value)

    def reduce(self, key, values):
        yield key, tuple(values)


MATRIX = np.random.default_rng(0).normal(size=(4, 2048))  # 64 KB
INPUTS = [(i, float(i)) for i in range(12)]


def serial_outputs(job=None, inputs=INPUTS):
    outputs, _ = LocalEngine().run(job or RowSumJob(MATRIX), inputs)
    return outputs


def run_chaos(fault_plan=None, n_hosts=2, worker_env=None, **engine_kwargs):
    """One cluster run under ``fault_plan``; asserts the recovery contract."""
    expected = serial_outputs()
    start = time.monotonic()
    with local_cluster(
        n_hosts,
        min_artifact_bytes=1024,
        fault_plan=fault_plan,
        worker_env=worker_env,
        retry_seconds=15.0,
        **engine_kwargs,
    ) as engine:
        outputs, _ = engine.run(RowSumJob(MATRIX), INPUTS)
        retries = engine.last_run_retries
        fallback = engine.last_run_fallback
    elapsed = time.monotonic() - start
    assert outputs == expected, "cluster output diverged from serial under faults"
    assert fallback is None  # recovered on the cluster, no downgrade
    assert elapsed < WALL_CLOCK_BOUND
    return retries


#: Recoverable fault classes: (pytest id, broadcast plan).  Every plan must
#: end bit-identical with no fallback.  Seeds pin the corruption positions.
RECOVERABLE_PLANS = [
    (
        "frame-corrupt-taskstream",
        "seed=7;protocol.send:corrupt:role=coordinator,msg=TaskStream",
    ),
    (
        "frame-truncate-taskstream",
        "seed=7;protocol.send:truncate:role=coordinator,msg=TaskStream",
    ),
    ("dispatch-drop", "coordinator.dispatch:drop:role=coordinator"),
    (
        "artifact-corrupt-then-refetch",
        "seed=23;dataplane.read:error:times=inf,role=worker;"
        "dataplane.serve:corrupt:times=1,role=coordinator",
    ),
    ("compute-straggler", "worker.compute:delay:times=2,seconds=0.2,role=worker"),
    ("heartbeat-stall-brief", "worker.heartbeat:delay:times=1,seconds=0.3"),
    ("dial-flaky", "worker.dial:error:times=2,role=worker"),
]


class TestRecoverableFaults:
    @pytest.mark.parametrize(
        "plan", [p for _, p in RECOVERABLE_PLANS], ids=[i for i, _ in RECOVERABLE_PLANS]
    )
    def test_run_recovers_bit_identically(self, plan):
        run_chaos(fault_plan=plan)

    def test_targeted_recv_drop_recovers(self):
        # Broadcasting a recv-drop can sever *both* hosts in the same
        # instant (a legitimate ClusterUnavailableError); aiming it at one
        # host pins the recoverable path: the survivor carries the run
        # while the dropped host redials.
        run_chaos(worker_env=[{ENV_VAR: "protocol.recv:drop:after=3"}])

    def test_targeted_worker_crash_requeues(self):
        # One host crashes on its first compute; the targeting rides
        # worker_env so only host0 installs the plan.
        retries = run_chaos(
            worker_env=[{ENV_VAR: "worker.compute:crash"}],
        )
        assert retries >= 1


class TestTaskDeadline:
    def test_stuck_but_heartbeating_worker_loses_tasks(self):
        """The acceptance scenario: a worker hangs mid-compute while its
        heartbeat thread keeps beating.  The execution deadline — not the
        heartbeat timeout — must requeue its tasks onto the healthy host."""
        expected = serial_outputs()
        hang = 20.0
        start = time.monotonic()
        with local_cluster(
            2,
            min_artifact_bytes=1024,
            worker_env=[{ENV_VAR: f"worker.compute:hang:seconds={hang}"}],
            retry_seconds=2.0,
            task_deadline=1.5,
        ) as engine:
            outputs, _ = engine.run(RowSumJob(MATRIX), INPUTS)
            retries = engine.last_run_retries
            elapsed = time.monotonic() - start
        assert outputs == expected
        assert retries >= 1  # the hung host demonstrably lost tasks
        assert elapsed < hang  # the run never waited out the hang

    def test_deadline_validation(self):
        with pytest.raises(MapReduceError, match="task_deadline"):
            ClusterEngine(bind="127.0.0.1:0", task_deadline=0)


class TestPoisonQuarantine:
    def test_poison_input_is_quarantined_with_its_label(self):
        """An input that kills every host it touches must fail the run
        *naming the offending chunk* after MAX_TASK_ATTEMPTS distinct
        workers died on it — while healthy hosts survive."""
        start = time.monotonic()
        with local_cluster(4, steal_granularity=1) as engine:
            with pytest.raises(MapReduceError, match="poison task quarantined") as err:
                engine.run(DieOnKeyJob(), [(i, f"record {i}") for i in range(8)])
            message = str(err.value)
            assert "input #" in message and "key 2" in message
            assert "3 distinct worker(s)" in message
            # The cluster was not wiped out: the poison was contained.
            assert len(engine.coordinator.alive_workers()) >= 1
            healthy, _ = engine.run(RowSumJob(MATRIX), INPUTS)
        assert healthy == serial_outputs()
        assert time.monotonic() - start < WALL_CLOCK_BOUND


class TestGracefulDegradation:
    def test_no_workers_falls_back_to_local_executor(self):
        expected = serial_outputs()
        engine = ClusterEngine(
            bind="127.0.0.1:0",
            n_workers=1,
            connect_timeout=0.3,
            shared=False,
            fallback="serial",
        )
        try:
            outputs, _ = engine.run(RowSumJob(MATRIX), INPUTS)
        finally:
            engine.close()
        assert outputs == expected
        assert engine.last_run_fallback is not None
        assert "worker" in engine.last_run_fallback

    def test_no_workers_without_fallback_is_typed(self):
        engine = ClusterEngine(
            bind="127.0.0.1:0", n_workers=1, connect_timeout=0.3, shared=False
        )
        try:
            with pytest.raises(ClusterUnavailableError):
                engine.run(RowSumJob(MATRIX), INPUTS)
        finally:
            engine.close()
        assert engine.last_run_fallback is None

    def test_all_workers_lost_mid_run_falls_back(self):
        expected = serial_outputs()
        with local_cluster(
            2,
            min_artifact_bytes=1024,
            fault_plan="worker.compute:crash:role=worker",
            retry_seconds=1.0,
            fallback="serial",
        ) as engine:
            outputs, _ = engine.run(RowSumJob(MATRIX), INPUTS)
            fallback = engine.last_run_fallback
        assert outputs == expected
        assert fallback is not None and "died" in fallback

    def test_fallback_name_is_validated(self):
        with pytest.raises(MapReduceError, match="serial, process or None"):
            ClusterEngine(bind="127.0.0.1:0", fallback="gpu")

    def test_thread_fallback_is_rejected(self):
        # "thread" is no longer an executor, so it cannot be a fallback.
        with pytest.raises(MapReduceError, match="serial, process or None"):
            ClusterEngine(bind="127.0.0.1:0", fallback="thread")

    def test_fallback_list_is_the_local_executor_list(self):
        assert FALLBACK_EXECUTORS == EXECUTORS

    @pytest.mark.parametrize("name", ["serial", "process"])
    def test_every_local_executor_is_a_valid_fallback(self, name):
        engine = ClusterEngine(bind="127.0.0.1:0", fallback=name)
        assert engine.fallback == name

    def test_repro_fallback_env_plumbs_through(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "cluster")
        monkeypatch.setenv("REPRO_CLUSTER", "127.0.0.1:7219")
        monkeypatch.setenv("REPRO_FALLBACK", "process")
        assert default_engine().fallback == "process"
        for name in ("gpu", "thread"):
            monkeypatch.setenv("REPRO_FALLBACK", name)
            with pytest.raises(
                MapReduceError, match="REPRO_FALLBACK must be one of serial, process"
            ):
                default_engine()

    @pytest.mark.parametrize("name", EXECUTORS)
    def test_repro_fallback_accepts_every_local_executor(self, monkeypatch, name):
        monkeypatch.setenv("REPRO_EXECUTOR", "cluster")
        monkeypatch.setenv("REPRO_CLUSTER", "127.0.0.1:7219")
        monkeypatch.setenv("REPRO_FALLBACK", name)
        assert default_engine().fallback == name


HOUR = 3600


def tiny_corpus():
    """Two correlated city/hour data sets plus noise (a shrunken §6.2)."""
    from repro.core.corpus import Corpus
    from repro.data.dataset import Dataset
    from repro.data.schema import DatasetSchema
    from repro.spatial.city import CityModel
    from repro.spatial.resolution import SpatialResolution
    from repro.temporal.resolution import TemporalResolution

    rng = np.random.default_rng(5)
    n_hours = 240
    ts = np.arange(n_hours, dtype=np.int64) * HOUR
    t = np.arange(n_hours)
    a = 10 + 1.5 * np.sin(2 * np.pi * t / 24) + rng.normal(0, 0.2, n_hours)
    b = 5 + 0.8 * np.sin(2 * np.pi * t / 24) + rng.normal(0, 0.1, n_hours)
    for e in rng.choice(n_hours - 6, 10, replace=False):
        a[e : e + 4] += 8
        b[e : e + 4] += 6
    noise = 10 + rng.normal(0, 1.0, n_hours)

    def city_dataset(name, values):
        schema = DatasetSchema(
            name,
            SpatialResolution.CITY,
            TemporalResolution.HOUR,
            numeric_attributes=("v",),
        )
        return Dataset(schema, timestamps=ts, numerics={"v": values})

    city = CityModel.synthetic(nbhd_grid=(2, 2), zip_grid=(2, 2))
    return Corpus(
        [city_dataset("alpha", a), city_dataset("beta", b), city_dataset("gamma", noise)],
        city,
    )


class TestPipelineUnderChaos:
    def test_index_and_query_survive_combined_faults(self):
        """The paper pipeline (index + query) under a combined plan: one
        corrupted artifact frame and one worker crash.  Results must stay
        bit-identical to serial."""
        from repro.temporal.resolution import TemporalResolution

        corpus = tiny_corpus()
        temporal = (TemporalResolution.HOUR,)
        serial_index = corpus.build_index(temporal=temporal)
        serial_result = serial_index.query(n_permutations=60, seed=3)

        start = time.monotonic()
        with local_cluster(
            2,
            fault_plan="seed=23;dataplane.serve:corrupt:times=1,role=coordinator",
            worker_env=[{ENV_VAR: "worker.compute:crash:after=2"}],
            retry_seconds=15.0,
        ) as engine:
            cluster_index = corpus.build_index(temporal=temporal, engine=engine)
            cluster_result = cluster_index.query(
                n_permutations=60, seed=3, engine=engine
            )
        assert time.monotonic() - start < 2 * WALL_CLOCK_BOUND

        assert (
            serial_result.n_evaluated,
            serial_result.n_candidates,
            serial_result.n_significant,
        ) == (
            cluster_result.n_evaluated,
            cluster_result.n_candidates,
            cluster_result.n_significant,
        )
        rows = lambda r: [  # noqa: E731
            (x.function1, x.function2, x.feature_type, x.score, x.strength, x.p_value)
            for x in r.results
        ]
        assert rows(serial_result) == rows(cluster_result)
