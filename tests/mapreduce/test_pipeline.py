"""Tests for the three framework jobs: the MR path must match the direct path."""

import numpy as np
import pytest

from repro.core.clause import Clause
from repro.core.corpus import Corpus
from repro.mapreduce.engine import LocalEngine
from repro.mapreduce.pipeline import PolygamyPipeline, _chunk_dataset
from repro.spatial.resolution import SpatialResolution
from repro.synth import nyc_urban_collection
from repro.temporal.resolution import TemporalResolution


@pytest.fixture(scope="module")
def small_collection():
    return nyc_urban_collection(
        seed=13,
        n_days=21,
        scale=0.3,
        subset=("taxi", "weather", "complaints_311"),
    )


class TestChunking:
    def test_chunks_partition_records(self, small_collection):
        taxi = small_collection.dataset("taxi")
        chunks = _chunk_dataset(taxi, 4)
        assert sum(c.n_records for c in chunks) == taxi.n_records
        assert all(c.schema is taxi.schema for c in chunks)

    def test_more_chunks_than_records(self, small_collection):
        taxi = small_collection.dataset("taxi")
        tiny = _chunk_dataset(taxi, taxi.n_records * 2)
        assert sum(c.n_records for c in tiny) == taxi.n_records


class TestScalarFunctionJob:
    def test_mr_functions_match_direct_aggregation(self, small_collection):
        city = small_collection.city
        datasets = small_collection.datasets
        pipeline = PolygamyPipeline(city, chunks_per_dataset=3)
        functions, stats = pipeline.run_scalar_functions(
            datasets,
            spatial=(SpatialResolution.CITY,),
            temporal=(TemporalResolution.DAY,),
        )
        assert stats.total_task_seconds > 0.0

        corpus = Corpus(datasets, city)
        index = corpus.build_index(
            spatial=(SpatialResolution.CITY,), temporal=(TemporalResolution.DAY,)
        )
        for (name, s_res, t_res), fns in functions.items():
            direct = index.dataset_index(name).functions[(s_res, t_res)]
            direct_by_id = {f.function.function_id: f.function for f in direct}
            for fn in fns:
                ref = direct_by_id[fn.function_id]
                assert np.allclose(fn.values, ref.values), fn.function_id

    def test_mr_functions_match_direct_on_neighborhood(self, small_collection):
        city = small_collection.city
        datasets = [small_collection.dataset("taxi")]
        pipeline = PolygamyPipeline(city, chunks_per_dataset=2)
        functions, _ = pipeline.run_scalar_functions(
            datasets,
            spatial=(SpatialResolution.NEIGHBORHOOD,),
            temporal=(TemporalResolution.DAY,),
        )
        corpus = Corpus(datasets, city)
        index = corpus.build_index(
            spatial=(SpatialResolution.NEIGHBORHOOD,),
            temporal=(TemporalResolution.DAY,),
        )
        key = ("taxi", SpatialResolution.NEIGHBORHOOD, TemporalResolution.DAY)
        direct = index.dataset_index("taxi").functions[
            (SpatialResolution.NEIGHBORHOOD, TemporalResolution.DAY)
        ]
        direct_by_id = {f.function.function_id: f.function for f in direct}
        for fn in functions[key]:
            assert np.allclose(fn.values, direct_by_id[fn.function_id].values)


class TestEndToEndPipeline:
    def test_pipeline_produces_reports(self, small_collection):
        pipeline = PolygamyPipeline(
            small_collection.city,
            engine=LocalEngine(n_workers=2, executor="process"),
            chunks_per_dataset=2,
        )
        run = pipeline.run(
            small_collection.datasets,
            clause=Clause(),
            n_permutations=60,
            spatial=(SpatialResolution.CITY,),
            temporal=(TemporalResolution.DAY,),
            seed=3,
        )
        assert set(run.indexes) == {"taxi", "weather", "complaints_311"}
        assert len(run.reports) == 3  # all unordered pairs
        assert run.scalar_stats.total_task_seconds > 0
        assert run.feature_stats.total_task_seconds > 0
        assert run.relationship_stats.total_task_seconds > 0

    def test_pipeline_relationships_match_corpus_query(self, small_collection):
        pipeline = PolygamyPipeline(small_collection.city, chunks_per_dataset=2)
        run = pipeline.run(
            small_collection.datasets,
            n_permutations=60,
            spatial=(SpatialResolution.CITY,),
            temporal=(TemporalResolution.DAY,),
            seed=3,
        )
        corpus = Corpus(small_collection.datasets, small_collection.city)
        index = corpus.build_index(
            spatial=(SpatialResolution.CITY,), temporal=(TemporalResolution.DAY,)
        )
        direct = index.query(n_permutations=60, seed=3)
        mr_pairs = {
            (r.function1, r.function2, r.feature_type)
            for report in run.reports
            for r in report.results
        }
        direct_pairs = {
            (r.function1, r.function2, r.feature_type) for r in direct.results
        }
        assert mr_pairs == direct_pairs
