"""Shared fixtures for the incremental-maintenance suite.

The base scenario: a small two-data-set index (taxi + weather, city
resolution, day + hour) built and saved once per session, then copied into
a private directory per test so mutations never leak.  Mutation material —
a longer taxi data set and a citibike data set — comes from the same
deterministic simulation (the synthetic city model is independent of
``n_days``, so mixing data sets across generations keeps one coherent
city).
"""

import shutil

import pytest
from _helpers import RES_KWARGS

from repro.core.corpus import Corpus
from repro.synth import nyc_urban_collection

_SEED, _DAYS, _SCALE = 5, 10, 0.15


@pytest.fixture(scope="session")
def base_collection():
    """taxi + weather over 10 days (the index's original inputs)."""
    return nyc_urban_collection(
        seed=_SEED, n_days=_DAYS, scale=_SCALE, subset=("taxi", "weather")
    )


@pytest.fixture(scope="session")
def extended_taxi():
    """The taxi data set with 4 more days appended (same seed, same city)."""
    coll = nyc_urban_collection(
        seed=_SEED, n_days=_DAYS + 4, scale=_SCALE, subset=("taxi",)
    )
    return coll.dataset("taxi")


@pytest.fixture(scope="session")
def citibike():
    """A data set the base index has never seen."""
    coll = nyc_urban_collection(
        seed=_SEED, n_days=_DAYS, scale=_SCALE, subset=("citibike",)
    )
    return coll.dataset("citibike")


@pytest.fixture(scope="session")
def base_corpus(base_collection):
    return Corpus(base_collection.datasets, base_collection.city)


@pytest.fixture(scope="session")
def base_index_dir(base_corpus, tmp_path_factory):
    """The pristine saved base index (session-scoped: copy, never mutate)."""
    path = tmp_path_factory.mktemp("incremental-base") / "idx"
    base_corpus.build_index(**RES_KWARGS).save(path)
    return path


@pytest.fixture()
def index_copy(base_index_dir, tmp_path):
    """A private, mutable copy of the base index for one test."""
    target = tmp_path / "idx"
    shutil.copytree(base_index_dir, target)
    return target


@pytest.fixture(params=["process", "cluster"])
def update_engine(request):
    """Engines the applier must behave identically on.

    The cluster case reuses the session-scoped 2-host localhost cluster;
    ``getfixturevalue`` keeps it lazy so process runs never spawn
    workers.
    """
    if request.param == "cluster":
        return request.getfixturevalue("cluster_engine")
    from repro.mapreduce.engine import LocalEngine

    return LocalEngine(n_workers=2, executor=request.param)
