"""Shared utilities: bit vectors, RNG plumbing, and errors."""

from .bitvector import BitVector
from .errors import (
    ClusterUnavailableError,
    DataError,
    MapReduceError,
    QueryError,
    ReproError,
    ResolutionError,
    SchemaError,
    TopologyError,
)
from .rng import RngLike, ensure_rng, spawn

__all__ = [
    "BitVector",
    "ClusterUnavailableError",
    "DataError",
    "MapReduceError",
    "QueryError",
    "ReproError",
    "ResolutionError",
    "SchemaError",
    "TopologyError",
    "RngLike",
    "ensure_rng",
    "spawn",
]
