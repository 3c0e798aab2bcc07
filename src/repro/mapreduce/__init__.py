"""Map-reduce substrate: local engine, simulated cluster, framework jobs.

The real multi-host backend lives in :mod:`repro.distributed`; it plugs in
behind the same :class:`Engine` contract via ``executor="cluster"``.
"""

from .cluster import (
    greedy_makespan,
    job_makespan,
    speedup_curve,
    straggler_ratio,
)
from .engine import (
    ALL_EXECUTORS,
    EXECUTORS,
    LocalEngine,
    auto_chunk_size,
    default_engine,
)
from .job import Engine, JobStats, MapReduceJob
from .shm import SharedArrayPlane
from .pipeline import (
    FeatureIdentificationJob,
    PipelineRun,
    PolygamyPipeline,
    RelationshipJob,
    ScalarFunctionJob,
)

__all__ = [
    "ALL_EXECUTORS",
    "EXECUTORS",
    "Engine",
    "LocalEngine",
    "SharedArrayPlane",
    "auto_chunk_size",
    "default_engine",
    "JobStats",
    "MapReduceJob",
    "greedy_makespan",
    "job_makespan",
    "speedup_curve",
    "straggler_ratio",
    "PolygamyPipeline",
    "PipelineRun",
    "ScalarFunctionJob",
    "FeatureIdentificationJob",
    "RelationshipJob",
]
