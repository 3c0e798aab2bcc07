"""Round-trip fidelity of the on-disk index format.

The contract: ``CorpusIndex.load(path)`` after ``index.save(path)`` restores
every function, feature mask, threshold and stat bit-identically, answers
queries exactly like the original index (serial and parallel), and the
on-disk array bytes reconcile with the §5.4 ``IndexStats`` accounting.
"""

import json

import numpy as np

from repro.core.corpus import CorpusIndex
from repro.mapreduce.engine import LocalEngine
from repro.persist import (
    FORMAT_NAME,
    FORMAT_VERSION,
    INDEX_MANIFEST,
    PARTITION_DIR,
    disk_usage,
    read_partition,
    write_partition,
)
from repro.spatial.resolution import SpatialResolution
from repro.temporal.resolution import TemporalResolution


def assert_indexes_equal(index1, index2):
    """Every persisted field of the two indexes must match exactly."""
    assert list(index1.datasets) == list(index2.datasets)
    for name, ds1 in index1.datasets.items():
        ds2 = index2.datasets[name]
        assert list(ds1.functions) == list(ds2.functions)
        for key, fns1 in ds1.functions.items():
            fns2 = ds2.functions[key]
            assert [f.function_id for f in fns1] == [f.function_id for f in fns2]
            for f1, f2 in zip(fns1, fns2):
                assert f1.function.dataset == f2.function.dataset
                assert f1.function.spatial is f2.function.spatial
                assert f1.function.temporal is f2.function.temporal
                assert np.array_equal(f1.function.values, f2.function.values)
                assert np.array_equal(
                    f1.function.graph.step_labels, f2.function.graph.step_labels
                )
                assert np.array_equal(
                    f1.function.graph.spatial_pairs, f2.function.graph.spatial_pairs
                )
                for feature_type in ("salient", "extreme"):
                    s1 = f1.feature_set(feature_type)
                    s2 = f2.feature_set(feature_type)
                    assert np.array_equal(s1.positive, s2.positive)
                    assert np.array_equal(s1.negative, s2.negative)
                assert f1.features.extreme_theta_pos == f2.features.extreme_theta_pos
                assert f1.features.extreme_theta_neg == f2.features.extreme_theta_neg
                assert len(f1.features.intervals) == len(f2.features.intervals)
                for iv1, iv2 in zip(f1.features.intervals, f2.features.intervals):
                    assert (iv1.step_start, iv1.step_stop) == (
                        iv2.step_start,
                        iv2.step_stop,
                    )
                    assert (iv1.n_maxima, iv1.n_minima) == (iv2.n_maxima, iv2.n_minima)
                    assert iv1.thresholds.theta_pos == iv2.thresholds.theta_pos
                    assert iv1.thresholds.theta_neg == iv2.thresholds.theta_neg
                    assert np.array_equal(
                        iv1.thresholds.salient_max_values,
                        iv2.thresholds.salient_max_values,
                    )
                    assert np.array_equal(
                        iv1.thresholds.salient_min_values,
                        iv2.thresholds.salient_min_values,
                    )


def assert_query_results_equal(r1, r2):
    assert (r1.n_evaluated, r1.n_candidates, r1.n_significant) == (
        r2.n_evaluated,
        r2.n_candidates,
        r2.n_significant,
    )
    rows1 = [
        (x.function1, x.function2, x.feature_type, x.score, x.strength,
         x.p_value, x.n_related, x.precision, x.recall)
        for x in r1.results
    ]
    rows2 = [
        (x.function1, x.function2, x.feature_type, x.score, x.strength,
         x.p_value, x.n_related, x.precision, x.recall)
        for x in r2.results
    ]
    assert rows1 == rows2


class TestRoundTrip:
    def test_load_restores_index_bit_identically(self, built_index, index_dir):
        loaded = CorpusIndex.load(index_dir)
        assert_indexes_equal(built_index, loaded)

    def test_stats_and_context_survive(self, built_index, index_dir):
        loaded = CorpusIndex.load(index_dir)
        assert loaded.stats == built_index.stats
        assert loaded.corpus is None  # raw data is not part of the format
        assert loaded.fill == built_index.fill
        original = built_index.extractor
        assert loaded.extractor.seasonal == original.seasonal
        assert loaded.extractor.use_index == original.use_index
        assert loaded.extractor.extreme_fence == original.extreme_fence
        assert loaded.extractor.max_feature_fraction == original.max_feature_fraction
        assert loaded.city.name == built_index.city.name
        assert (
            loaded.city.available_resolutions()
            == built_index.city.available_resolutions()
        )

    def test_loaded_query_bit_identical_serial_and_parallel(
        self, built_index, index_dir
    ):
        loaded = CorpusIndex.load(index_dir)
        fresh = built_index.query(n_permutations=40, seed=0)
        serial = loaded.query(n_permutations=40, seed=0)
        parallel = loaded.query(
            n_permutations=40, seed=0, n_workers=3, executor="process"
        )
        assert_query_results_equal(fresh, serial)
        assert_query_results_equal(fresh, parallel)
        assert fresh.n_evaluated > 0

    def test_explicit_engine_override(self, built_index, tmp_path):
        engine = LocalEngine(n_workers=2, executor="process", map_chunk_size=2)
        built_index.save(tmp_path, engine=engine)
        loaded = CorpusIndex.load(tmp_path, engine=engine)
        assert_indexes_equal(built_index, loaded)

    def test_save_and_load_through_process_engine(self, built_index, tmp_path):
        """Persist jobs must pickle cleanly into worker processes, and the
        round trip must stay bit-identical — including follow-up queries."""
        from repro.mapreduce import shm

        built_index.save(tmp_path, n_workers=2, executor="process")
        loaded = CorpusIndex.load(tmp_path, n_workers=2, executor="process")
        assert_indexes_equal(built_index, loaded)
        assert loaded.job_stats is not None
        assert loaded.job_stats.n_map_chunks >= 1
        fresh = built_index.query(n_permutations=40, seed=0)
        processed = loaded.query(
            n_permutations=40, seed=0, n_workers=2, executor="process"
        )
        assert_query_results_equal(fresh, processed)
        assert shm.live_segments() == frozenset()

    def test_save_and_load_through_cluster_engine(
        self, built_index, tmp_path, cluster_engine
    ):
        """Persist jobs run on real cluster workers (separate OS processes
        over TCP): partition files land where the caller asked despite the
        workers' different working directory, and the round trip — plus a
        follow-up query on the cluster — stays bit-identical."""
        built_index.save(tmp_path / "idx", engine=cluster_engine)
        loaded = CorpusIndex.load(tmp_path / "idx", engine=cluster_engine)
        assert_indexes_equal(built_index, loaded)
        fresh = built_index.query(n_permutations=40, seed=0)
        clustered = loaded.query(n_permutations=40, seed=0, engine=cluster_engine)
        assert_query_results_equal(fresh, clustered)
        # No artifact spool files survive the runs.
        assert list(cluster_engine.coordinator.spool_dir.glob("*.npy")) == []

    def test_persist_jobs_pickle_roundtrip(self, tmp_path):
        """The save/load jobs themselves survive pickling (process workers
        receive them by value inside every task payload)."""
        import pickle

        from repro.persist.index_io import PartitionLoadJob, PartitionSaveJob

        for job in (PartitionSaveJob(tmp_path), PartitionLoadJob(tmp_path)):
            clone = pickle.loads(pickle.dumps(job))
            assert type(clone) is type(job)
            assert clone.directory == job.directory


class TestOnDiskLayout:
    def test_manifest_structure(self, built_index, index_dir):
        manifest = json.loads((index_dir / INDEX_MANIFEST).read_text())
        assert manifest["format"] == FORMAT_NAME
        assert manifest["format_version"] == FORMAT_VERSION
        assert manifest["datasets"] == list(built_index.datasets)
        n_partitions = sum(len(ds.functions) for ds in built_index.datasets.values())
        assert len(manifest["partitions"]) == n_partitions
        for record in manifest["partitions"]:
            path = index_dir / record["file"]
            assert path.is_file()
            assert path.stat().st_size == record["nbytes"]
            assert len(record["sha256"]) == 64

    def test_v2_manifest_carries_fingerprints_and_partition_stats(
        self, built_index, index_dir
    ):
        """Format v2: every partition record holds a content fingerprint and
        its own IndexStats contribution; the manifest holds the config/city
        digests — the reuse evidence `repro update` plans from."""
        manifest = json.loads((index_dir / INDEX_MANIFEST).read_text())
        assert set(manifest["fingerprints"]) == {"config", "city"}
        partition_totals = {"n_scalar_functions": 0, "function_bytes": 0}
        for record in manifest["partitions"]:
            assert len(record["fingerprint"]) == 64
            for counter in partition_totals:
                partition_totals[counter] += record["stats"][counter]
        # Partition stats sum back to the whole-index counters.
        assert (
            partition_totals["n_scalar_functions"]
            == built_index.stats.n_scalar_functions
        )
        assert partition_totals["function_bytes"] == built_index.stats.function_bytes

    def test_v2_bookkeeping_survives_load_and_resave(
        self, built_index, index_dir, tmp_path
    ):
        loaded = CorpusIndex.load(index_dir)
        assert loaded.partition_fingerprints == built_index.partition_fingerprints
        assert set(loaded.partition_stats) == set(built_index.partition_stats)
        # A loaded index re-saves with its reuse evidence intact.
        loaded.save(tmp_path / "again")
        manifest = json.loads((tmp_path / "again" / INDEX_MANIFEST).read_text())
        for record in manifest["partitions"]:
            assert "fingerprint" in record and "stats" in record

    def test_build_scope_is_recorded_and_survives_roundtrip(
        self, built_index, index_dir
    ):
        """The resolution whitelists an index was built with are part of
        the manifest, so `repro update` maintains the *requested* scope —
        not a reconstruction from whatever partitions survive."""
        manifest = json.loads((index_dir / INDEX_MANIFEST).read_text())
        assert manifest["scope"] == {
            "spatial": ["city", "neighborhood"],
            "temporal": ["day", "hour"],
        }
        loaded = CorpusIndex.load(index_dir)
        assert loaded.scope == manifest["scope"]

    def test_partition_files_are_byte_deterministic(self, built_index, tmp_path):
        """Same content, same bytes: the property that lets incremental
        updates be compared bit-for-bit against from-scratch rebuilds."""
        built_index.save(tmp_path / "a")
        built_index.save(tmp_path / "b")
        manifest = json.loads((tmp_path / "a" / INDEX_MANIFEST).read_text())
        assert manifest["partitions"], "fixture index must have partitions"
        for record in manifest["partitions"]:
            assert (tmp_path / "a" / record["file"]).read_bytes() == (
                tmp_path / "b" / record["file"]
            ).read_bytes()

    def test_disk_usage_reconciles_with_index_stats(self, built_index, index_dir):
        usage = disk_usage(index_dir)
        # Arrays are stored uncompressed, so the §5.4 counters must match
        # the on-disk payload byte for byte.
        assert usage.function_bytes == built_index.stats.function_bytes
        assert usage.feature_bytes == built_index.stats.feature_bytes
        assert usage.total_bytes > usage.function_bytes + usage.feature_bytes

    def test_resave_removes_stale_partitions(self, built_index, tmp_path):
        target = tmp_path / "idx"
        built_index.save(target)
        stale = target / PARTITION_DIR / "p9999_stale_city_day.npz"
        stale.write_bytes(b"leftover")
        built_index.save(target)
        assert not stale.exists()
        manifest = json.loads((target / INDEX_MANIFEST).read_text())
        on_disk = sorted(p.name for p in (target / PARTITION_DIR).glob("*.npz"))
        listed = sorted(r["file"].split("/")[-1] for r in manifest["partitions"])
        assert on_disk == listed
        # The atomic swap must not leave staging/retired siblings behind.
        assert sorted(p.name for p in tmp_path.iterdir()) == ["idx"]

    def test_save_into_fresh_nested_directory(self, built_index, tmp_path):
        target = tmp_path / "a" / "b" / "idx"
        manifest_path = built_index.save(target)
        assert manifest_path == target / INDEX_MANIFEST
        assert_indexes_equal(built_index, CorpusIndex.load(target))


class TestPartitionLevel:
    def test_single_partition_roundtrip(self, built_index, tmp_path):
        """The partition file is the IndexPartitionJob-aligned unit."""
        name, ds_index = next(iter(built_index.datasets.items()))
        (spatial, temporal), functions = next(iter(ds_index.functions.items()))
        path = tmp_path / "part.npz"
        record = write_partition(path, functions)
        assert len(record["functions"]) == len(functions)
        restored = read_partition(path, record, spatial, temporal)
        assert [f.function_id for f in restored] == [f.function_id for f in functions]
        for original, loaded in zip(functions, restored):
            assert np.array_equal(original.function.values, loaded.function.values)
            assert np.array_equal(
                original.features.salient.positive, loaded.features.salient.positive
            )

    def test_empty_partition_roundtrip(self, tmp_path):
        path = tmp_path / "empty.npz"
        record = write_partition(path, [])
        assert record["functions"] == []
        assert record["bytes"] == {
            "function": 0,
            "feature": 0,
            "threshold": 0,
            "structure": 0,
        }
        assert read_partition(
            path, record, SpatialResolution.CITY, TemporalResolution.DAY
        ) == []
