"""Figure 8: indexing + feature-identification time vs. number of data sets.

The paper plots scalar-function-computation time and feature-identification
time as the collection grows, for NYC Urban (a) and NYC Open (b), annotating
the number of computations.  We rebuild the index over growing prefixes of
each collection and print both phases; the paper's qualitative observations
are asserted: adding the taxi data set dominates the Urban cost, and for the
Open collection feature identification outweighs scalar-function computation.
``test_fig8c_parallel_indexing`` re-runs the Urban build through the
map-reduce engine with four worker processes and checks the parallel index
is bit-identical to the serial one (the §5.4 deployment argument).
``test_fig8d_executor_comparison`` races serial against process on the same
build — indexing is dominated by the pure-Python merge-tree sweeps, the
workload the process executor exists for — and records the measured
speedups as a ``BENCH_*.json`` artifact.
"""

import time

import numpy as np

from _host import usable_cpus
from repro.core.corpus import Corpus
from repro.synth import URBAN_DATASETS, nyc_open_collection
from repro.temporal.resolution import TemporalResolution

COMPARISON_WORKERS = 4


def test_fig8a_nyc_urban(benchmark, urban_small, smoke):
    rows = []
    for k in range(1, len(URBAN_DATASETS) + 1):
        subset = urban_small.datasets[:k]
        corpus = Corpus(subset, urban_small.city)
        index = corpus.build_index(
            temporal=(TemporalResolution.DAY, TemporalResolution.WEEK)
        )
        rows.append(
            (
                k,
                index.stats.n_scalar_functions,
                index.stats.scalar_seconds,
                index.stats.feature_seconds,
            )
        )
    print("\nFigure 8(a) — NYC Urban: indexing time vs. number of data sets")
    print(
        f"{'#data sets':>10s} {'#functions':>11s}"
        f" {'scalar (s)':>11s} {'features (s)':>13s}"
    )
    for k, n_fns, scalar_s, feature_s in rows:
        print(f"{k:>10d} {n_fns:>11d} {scalar_s:>11.3f} {feature_s:>13.3f}")

    # The paper observes two jumps: data volume (taxi) drives the time, and
    # attribute count (weather, 228 attrs) drives the computation count.
    # Wall-clock jitter makes time-based argmax assertions flaky, so the
    # checks anchor on the deterministic computation counts plus a soft
    # monotonicity condition on the time series itself.
    # (The paper's weather data set also jumps the count via its 228
    # attributes; our replica keeps 8 core attributes — pass
    # weather_extra_attributes to reproduce that profile too.)
    function_counts = [r[1] for r in rows]
    count_jumps = [b - a for a, b in zip(function_counts, function_counts[1:])]
    taxi_count_jump = count_jumps[URBAN_DATASETS.index("taxi") - 1]
    assert taxi_count_jump == max(count_jumps), (
        "taxi (7 functions x 6 resolutions) adds the most computations"
    )
    # Each row is an independent rebuild, so per-row wall times carry jitter;
    # the robust claim is that the full corpus costs more than a small prefix.
    if not smoke:
        scalar_times = [r[2] for r in rows]
        assert scalar_times[-1] > scalar_times[0], (
            "indexing the full corpus costs more than indexing one data set"
        )

    corpus = Corpus(urban_small.datasets, urban_small.city)
    benchmark.pedantic(
        lambda: corpus.build_index(temporal=(TemporalResolution.WEEK,)),
        iterations=1,
        rounds=2,
    )


def test_fig8b_nyc_open(benchmark, smoke):
    if smoke:
        coll = nyc_open_collection(n_datasets=8, seed=11, n_days=30)
        ks = (4, 8)
    else:
        coll = nyc_open_collection(n_datasets=24, seed=11, n_days=120)
        ks = (6, 12, 18, 24)
    rows = []
    for k in ks:
        corpus = Corpus(coll.datasets[:k], coll.city)
        index = corpus.build_index()
        rows.append(
            (
                k,
                index.stats.n_scalar_functions,
                index.stats.scalar_seconds,
                index.stats.feature_seconds,
            )
        )
    print("\nFigure 8(b) — NYC Open: indexing time vs. number of data sets")
    print(
        f"{'#data sets':>10s} {'#functions':>11s}"
        f" {'scalar (s)':>11s} {'features (s)':>13s}"
    )
    for k, n_fns, scalar_s, feature_s in rows:
        print(f"{k:>10d} {n_fns:>11d} {scalar_s:>11.3f} {feature_s:>13.3f}")

    # Paper: for NYC Open, feature identification dominates because the data
    # sets are small (little aggregation work) but every function still needs
    # its merge trees.
    if not smoke:
        total_scalar = rows[-1][2]
        total_features = rows[-1][3]
        assert total_features > total_scalar

    corpus = Corpus(coll.datasets[: ks[-1] // 2], coll.city)
    benchmark.pedantic(lambda: corpus.build_index(), iterations=1, rounds=2)


def test_fig8c_parallel_indexing(benchmark, urban_small):
    """Serial vs. 4-process map-reduce indexing: identical index, lower wall."""
    corpus = Corpus(urban_small.datasets, urban_small.city)
    temporal = (TemporalResolution.DAY, TemporalResolution.WEEK)

    start = time.perf_counter()
    serial = corpus.build_index(temporal=temporal)
    serial_seconds = time.perf_counter() - start
    start = time.perf_counter()
    parallel = corpus.build_index(temporal=temporal, n_workers=4, executor="process")
    parallel_seconds = time.perf_counter() - start

    assert serial.stats.n_scalar_functions == parallel.stats.n_scalar_functions
    assert serial.stats.n_feature_sets == parallel.stats.n_feature_sets
    for name, ds_serial in serial.datasets.items():
        ds_parallel = parallel.datasets[name]
        assert list(ds_serial.functions) == list(ds_parallel.functions)
        for key, fns in ds_serial.functions.items():
            for fn_s, fn_p in zip(fns, ds_parallel.functions[key]):
                assert fn_s.function_id == fn_p.function_id
                assert np.array_equal(fn_s.function.values, fn_p.function.values)

    print(
        "\nFigure 8(c) — parallel indexing (process, 4 workers)\n"
        f"serial: {serial_seconds:.2f}s  parallel: {parallel_seconds:.2f}s  "
        f"({parallel.job_stats.n_map_chunks} map chunks)"
    )
    benchmark.pedantic(
        lambda: corpus.build_index(
            temporal=temporal, n_workers=4, executor="process"
        ),
        iterations=1,
        rounds=2,
    )


def _assert_index_identical(reference, other):
    assert reference.stats.n_scalar_functions == other.stats.n_scalar_functions
    for name, ds_ref in reference.datasets.items():
        ds_other = other.datasets[name]
        assert list(ds_ref.functions) == list(ds_other.functions)
        for key, fns in ds_ref.functions.items():
            for fn_r, fn_o in zip(fns, ds_other.functions[key]):
                assert fn_r.function_id == fn_o.function_id
                assert np.array_equal(fn_r.function.values, fn_o.function.values)


def test_fig8d_executor_comparison(benchmark, urban_small, write_bench_record):
    """Serial vs process indexing: identical index, who is fastest.

    Hour resolution makes the build merge-tree-bound (feature identification
    is >90% of the wall time), i.e. pure-Python work that only separate
    worker processes can overlap.  The
    measured wall times and speedups are recorded to
    ``BENCH_fig8d_executor_comparison.json`` for the per-commit perf
    trajectory.
    """
    corpus = Corpus(urban_small.datasets, urban_small.city)
    temporal = (TemporalResolution.HOUR,)

    def best_of_two(**kwargs):
        runs = []
        for _ in range(2):
            start = time.perf_counter()
            index = corpus.build_index(temporal=temporal, **kwargs)
            runs.append((time.perf_counter() - start, index))
        return min(runs, key=lambda r: r[0])

    serial_seconds, serial_index = best_of_two()
    process_seconds, process_index = best_of_two(
        n_workers=COMPARISON_WORKERS, executor="process"
    )

    # Bit-identical indexes regardless of executor.
    _assert_index_identical(serial_index, process_index)

    cpus = usable_cpus()
    record = {
        "figure": "8d",
        "workers": COMPARISON_WORKERS,
        "n_scalar_functions": serial_index.stats.n_scalar_functions,
        "serial_seconds": round(serial_seconds, 4),
        "process_seconds": round(process_seconds, 4),
        "process_speedup": round(serial_seconds / process_seconds, 3),
        "bit_identical": True,
    }
    write_bench_record("fig8d_executor_comparison", record)

    print(
        f"\nFigure 8(d) — executor comparison ({COMPARISON_WORKERS} workers, "
        f"{cpus} usable CPU(s))"
    )
    print(f"{'mode':>10s} {'seconds':>9s} {'speedup':>8s}")
    for mode, seconds in (
        ("serial", serial_seconds),
        ("process", process_seconds),
    ):
        print(f"{mode:>10s} {seconds:>9.2f} {serial_seconds / seconds:>7.2f}x")

    # The process executor must beat serial whenever there is any physical
    # parallelism at all — asserted in smoke mode too, since the merge-tree
    # work per partition is substantial even on tiny collections.  The
    # stronger >=1.5x bar needs the worker count actually backed by cores.
    if cpus >= 2:
        assert process_seconds < serial_seconds, (
            f"process executor ({process_seconds:.2f}s) must beat serial "
            f"({serial_seconds:.2f}s) with {cpus} usable CPUs"
        )
    if cpus >= COMPARISON_WORKERS:
        assert record["process_speedup"] >= 1.5, (
            "4 process workers on >=4 cores must index >=1.5x faster "
            f"than serial (got {record['process_speedup']:.2f}x)"
        )

    benchmark.pedantic(
        lambda: corpus.build_index(
            temporal=temporal, n_workers=COMPARISON_WORKERS, executor="process"
        ),
        iterations=1,
        rounds=1,
    )
