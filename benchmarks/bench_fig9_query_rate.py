"""Figure 9: relationship-evaluation rate vs. number of data sets.

The paper reports a roughly constant rate above 10^4 relationship evaluations
per minute as collections grow, arguing the rate is independent of raw data
size because everything operates on the precomputed features.  We query
growing prefixes of both collections and print the rate series.

``test_fig9c_parallel_query_rate`` additionally runs the same query serially
and through the map-reduce engine with ``executor="process", n_workers=4``:
results must be bit-identical, and the printed ratio is the measured
parallel speedup (the paper's Hadoop deployment argument, §5.4).
``test_fig9d_executor_comparison`` races serial against process on one
query — bit-identical results asserted, rates recorded to ``BENCH_*.json``.
Query work (feature comparisons, permutation tests) is a stream of small
NumPy calls that each hold the interpreter lock, so only separate worker
processes overlap it; the process executor pays for that by pickling the
feature payloads into every task.
``test_fig9e_significance_modes`` races the three significance modes on a
single core — batched must reproduce exact's p-values bit-for-bit,
adaptive must reproduce every significance decision at α, and both must
beat exact by the asserted floors (the CI ``query-throughput`` job runs
this in smoke mode per commit and archives the ``BENCH_fig9e_*.json``
record).
"""

from _host import usable_cpus as _usable_cpus
from repro.core.corpus import Corpus
from repro.synth import nyc_open_collection
from repro.temporal.resolution import TemporalResolution

PARALLEL_WORKERS = 4


def _rate_series(collection, ks, temporal, n_permutations=100):
    rows = []
    for k in ks:
        corpus = Corpus(collection.datasets[:k], collection.city)
        index = corpus.build_index(temporal=temporal)
        result = index.query(n_permutations=n_permutations, seed=0)
        rows.append((k, result.n_evaluated, result.evaluations_per_minute))
    return rows


def _print(label, rows):
    print(f"\nFigure 9{label}")
    print(f"{'#data sets':>10s} {'#evaluations':>13s} {'evals/minute':>13s}")
    for k, n_eval, rate in rows:
        print(f"{k:>10d} {n_eval:>13,d} {rate:>13,.0f}")


def test_fig9a_nyc_urban_rate(benchmark, urban_small, smoke):
    rows = _rate_series(
        urban_small,
        ks=(3, 5, 7, 9),
        temporal=(TemporalResolution.DAY, TemporalResolution.WEEK),
        n_permutations=30 if smoke else 100,
    )
    _print("(a) — NYC Urban", rows)
    rates = [r[2] for r in rows if r[1] > 0]
    if not smoke:
        assert min(rates) > 1e3, "must sustain >10^3 evaluations/minute"
        # Rate roughly constant: within an order of magnitude across sizes.
        assert max(rates) / min(rates) < 10

    corpus = Corpus(urban_small.datasets, urban_small.city)
    index = corpus.build_index(temporal=(TemporalResolution.WEEK,))
    benchmark.pedantic(
        lambda: index.query(n_permutations=100, seed=0), iterations=1, rounds=3
    )


def test_fig9b_nyc_open_rate(benchmark, smoke):
    if smoke:
        coll = nyc_open_collection(n_datasets=8, seed=11, n_days=30)
        ks = (4, 8)
    else:
        coll = nyc_open_collection(n_datasets=24, seed=11, n_days=120)
        ks = (6, 12, 24)
    rows = _rate_series(coll, ks=ks, temporal=None, n_permutations=30 if smoke else 100)
    _print("(b) — NYC Open", rows)
    rates = [r[2] for r in rows if r[1] > 0]
    if not smoke:
        assert min(rates) > 1e3
        assert max(rates) / min(rates) < 10

    corpus = Corpus(coll.datasets[: ks[-1] // 2], coll.city)
    index = corpus.build_index()
    benchmark.pedantic(
        lambda: index.query(n_permutations=100, seed=0), iterations=1, rounds=3
    )


def test_fig9c_parallel_query_rate(benchmark, urban_small, smoke):
    """Serial vs. 4-process map-reduce query: identical results, higher rate."""
    corpus = Corpus(urban_small.datasets, urban_small.city)
    index = corpus.build_index(
        temporal=(TemporalResolution.DAY, TemporalResolution.WEEK)
    )
    n_permutations = 200 if smoke else 400

    # Best-of-two per mode: one jittery round on a shared runner must not
    # decide the speedup comparison.
    def best_rate(**kwargs):
        runs = [
            index.query(n_permutations=n_permutations, seed=0, **kwargs)
            for _ in range(2)
        ]
        return max(runs, key=lambda r: r.evaluations_per_minute)

    serial = best_rate()
    parallel = best_rate(n_workers=PARALLEL_WORKERS, executor="process")

    # Bit-identical outcome regardless of scheduling.
    assert [r.p_value for r in serial.results] == [r.p_value for r in parallel.results]
    assert [(r.function1, r.function2, r.score) for r in serial.results] == [
        (r.function1, r.function2, r.score) for r in parallel.results
    ]
    assert serial.n_evaluated == parallel.n_evaluated

    ratio = parallel.evaluations_per_minute / max(serial.evaluations_per_minute, 1e-9)
    print(
        f"\nFigure 9(c) — parallel query rate ({PARALLEL_WORKERS} processes, "
        f"{_usable_cpus()} usable CPU(s))"
    )
    print(
        f"{'mode':>10s} {'#evaluations':>13s} {'evals/minute':>13s}\n"
        f"{'serial':>10s} {serial.n_evaluated:>13,d} "
        f"{serial.evaluations_per_minute:>13,.0f}\n"
        f"{'process-4':>10s} {parallel.n_evaluated:>13,d} "
        f"{parallel.evaluations_per_minute:>13,.0f}\n"
        f"speedup: {ratio:.2f}x"
    )
    # The speedup claim needs physical parallelism *and* non-trivial task
    # sizes: under --smoke the per-pair work is tiny and shared-runner jitter
    # dominates, so smoke runs print the measured ratio but only the
    # equivalence asserts above gate CI (same policy as fig7/fig10's
    # timing assertions).
    if not smoke:
        if _usable_cpus() >= PARALLEL_WORKERS:
            assert ratio >= 1.5, "4 workers must beat serial by >=1.5x"
        elif _usable_cpus() >= 2:
            assert ratio >= 1.1, "2+ cores must still show overlap"

    benchmark.pedantic(
        lambda: index.query(
            n_permutations=n_permutations,
            seed=0,
            n_workers=PARALLEL_WORKERS,
            executor="process",
        ),
        iterations=1,
        rounds=3,
    )


def test_fig9d_executor_comparison(benchmark, urban_small, smoke, write_bench_record):
    """Serial vs process query: identical results, measured rates."""
    corpus = Corpus(urban_small.datasets, urban_small.city)
    index = corpus.build_index(
        temporal=(TemporalResolution.DAY, TemporalResolution.WEEK)
    )
    n_permutations = 200 if smoke else 400

    def best_rate(**kwargs):
        runs = [
            index.query(n_permutations=n_permutations, seed=0, **kwargs)
            for _ in range(2)
        ]
        return max(runs, key=lambda r: r.evaluations_per_minute)

    serial = best_rate()
    process = best_rate(n_workers=PARALLEL_WORKERS, executor="process")

    assert [r.p_value for r in serial.results] == [
        r.p_value for r in process.results
    ]
    assert [(r.function1, r.function2, r.score) for r in serial.results] == [
        (r.function1, r.function2, r.score) for r in process.results
    ]
    assert serial.n_evaluated == process.n_evaluated

    rates = {
        "serial": serial.evaluations_per_minute,
        "process": process.evaluations_per_minute,
    }
    record = {
        "figure": "9d",
        "workers": PARALLEL_WORKERS,
        "n_evaluated": serial.n_evaluated,
        "n_permutations": n_permutations,
        "evaluations_per_minute": {k: round(v, 1) for k, v in rates.items()},
        "process_speedup": round(rates["process"] / max(rates["serial"], 1e-9), 3),
        "bit_identical": True,
    }
    write_bench_record("fig9d_executor_comparison", record)

    print(
        f"\nFigure 9(d) — executor comparison ({PARALLEL_WORKERS} workers, "
        f"{_usable_cpus()} usable CPU(s))"
    )
    print(f"{'mode':>10s} {'evals/minute':>13s} {'speedup':>8s}")
    for mode, rate in rates.items():
        print(f"{mode:>10s} {rate:>13,.0f} "
              f"{rate / max(rates['serial'], 1e-9):>7.2f}x")

    benchmark.pedantic(
        lambda: index.query(
            n_permutations=n_permutations,
            seed=0,
            n_workers=PARALLEL_WORKERS,
            executor="process",
        ),
        iterations=1,
        rounds=1,
    )


def test_fig9e_significance_modes(benchmark, urban_small, smoke, write_bench_record):
    """Exact vs batched vs adaptive significance on a single core.

    Batched must be bit-identical to exact (same p-values, same results);
    adaptive must agree with exact on every significance decision at α.
    The speedups are the tentpole claim: batched vectorizes the permutation
    tests across chunks of pairs, adaptive additionally stops each test
    once its decision is settled.
    """
    corpus = Corpus(urban_small.datasets, urban_small.city)
    index = corpus.build_index(
        temporal=(TemporalResolution.DAY, TemporalResolution.WEEK)
    )
    n_permutations = 200 if smoke else 400

    def best_rate(mode):
        runs = [
            index.query(n_permutations=n_permutations, seed=0, significance_mode=mode)
            for _ in range(2)
        ]
        return max(runs, key=lambda r: r.evaluations_per_minute)

    exact = best_rate("exact")
    batched = best_rate("batched")
    adaptive = best_rate("adaptive")

    # Batched mode is bit-identical to the exact reference.
    assert [r.p_value for r in exact.results] == [r.p_value for r in batched.results]
    assert [(r.function1, r.function2, r.score) for r in exact.results] == [
        (r.function1, r.function2, r.score) for r in batched.results
    ]
    # Adaptive mode reports different p-values (fewer permutations) but must
    # reach the identical set of significant relationships.
    assert [(r.function1, r.function2, r.score) for r in exact.results] == [
        (r.function1, r.function2, r.score) for r in adaptive.results
    ]
    for other in (batched, adaptive):
        assert exact.n_evaluated == other.n_evaluated
        assert exact.n_candidates == other.n_candidates
        assert exact.n_significant == other.n_significant

    rates = {
        "exact": exact.evaluations_per_minute,
        "batched": batched.evaluations_per_minute,
        "adaptive": adaptive.evaluations_per_minute,
    }
    batched_speedup = rates["batched"] / max(rates["exact"], 1e-9)
    adaptive_speedup = rates["adaptive"] / max(rates["exact"], 1e-9)
    record = {
        "figure": "9e",
        "n_evaluated": exact.n_evaluated,
        "n_candidates": exact.n_candidates,
        "n_significant": exact.n_significant,
        "n_permutations": n_permutations,
        "evaluations_per_minute": {k: round(v, 1) for k, v in rates.items()},
        "batched_speedup": round(batched_speedup, 3),
        "adaptive_speedup": round(adaptive_speedup, 3),
        "batched_bit_identical": True,
        "adaptive_decision_identical": True,
    }
    write_bench_record("fig9e_significance_modes", record)

    print("\nFigure 9(e) — significance modes (single core)")
    print(f"{'mode':>10s} {'evals/minute':>13s} {'speedup':>8s}")
    for mode, rate in rates.items():
        print(f"{mode:>10s} {rate:>13,.0f} "
              f"{rate / max(rates['exact'], 1e-9):>7.2f}x")

    # The perf gate: the smoke floor holds the line per commit in CI; the
    # full run asserts the tentpole's >=10x single-core target.
    if smoke:
        assert batched_speedup >= 3.0, "batched must beat exact by >=3x"
        assert adaptive_speedup >= 3.0, "adaptive must beat exact by >=3x"
    else:
        assert batched_speedup >= 5.0, "batched must beat exact by >=5x"
        assert adaptive_speedup >= 10.0, "adaptive must beat exact by >=10x"

    benchmark.pedantic(
        lambda: index.query(
            n_permutations=n_permutations, seed=0, significance_mode="adaptive"
        ),
        iterations=1,
        rounds=3,
    )
