"""Property tests for the batched/adaptive significance modes.

The contract (see :mod:`repro.core.significance`): ``batched`` returns
p-values bit-identical to the per-pair ``exact`` reference on every score
path; ``adaptive`` may stop permuting early but must reproduce every
``is_significant(alpha)`` decision, for any alpha it was run at.  Both
must hold across randomized pairs, seeds, and all three restricted
randomization methods — and at the query level, under every executor.
"""

import numpy as np
import pytest

from repro.core.corpus import Corpus
from repro.core.features import FeatureSet
from repro.core.significance import (
    SIGNIFICANCE_MODES,
    SignificanceRequest,
    significance_batch,
    significance_test,
)
from repro.data.dataset import Dataset
from repro.data.schema import DatasetSchema
from repro.graph.domain_graph import DomainGraph
from repro.spatial.adjacency import grid_adjacency
from repro.spatial.city import CityModel
from repro.spatial.resolution import SpatialResolution
from repro.temporal.resolution import TemporalResolution
from repro.utils.errors import DataError, QueryError


def random_pair(n_steps, n_regions, seed, grid=None, density=0.12, related=False):
    """One randomized feature-set pair + its domain graph."""
    rng = np.random.default_rng(seed)

    def features():
        pos = rng.uniform(size=(n_steps, n_regions)) < density
        neg = (rng.uniform(size=(n_steps, n_regions)) < density) & ~pos
        return FeatureSet(pos, neg)

    fs1 = features()
    fs2 = (
        FeatureSet(fs1.positive.copy(), fs1.negative.copy()) if related else features()
    )
    pairs = grid_adjacency(*grid) if grid else None
    graph = DomainGraph(n_regions, n_steps, pairs)
    return fs1, fs2, graph


def case_grid():
    """Randomized cases covering rotation, toroidal and torus3 paths."""
    cases = []
    for seed in range(5):
        cases.append((*random_pair(300, 1, seed), None))  # temporal rotation
    for seed in range(5):
        cases.append((*random_pair(60, 36, 50 + seed, grid=(6, 6)), None))
    for seed in range(3):
        cases.append(
            (
                *random_pair(60, 36, 80 + seed, grid=(6, 6)),
                "spatiotemporal_torus",
            )
        )
    for seed in range(2):  # planted relationships (significant side)
        cases.append((*random_pair(60, 36, 90 + seed, grid=(6, 6), related=True), None))
    return cases


class TestBatchedBitIdentity:
    @pytest.mark.parametrize("alternative", ["two-sided", "greater", "less"])
    def test_batched_matches_exact_bitwise(self, alternative):
        cases = case_grid()
        exact = [
            significance_test(fs1, fs2, graph, 150, alternative, method, seed=11 + i)
            for i, (fs1, fs2, graph, method) in enumerate(cases)
        ]
        batched = significance_batch(
            [
                SignificanceRequest(fs1, fs2, graph, seed=11 + i, method=method)
                for i, (fs1, fs2, graph, method) in enumerate(cases)
            ],
            150,
            alternative,
            mode="batched",
        )
        for e, b in zip(exact, batched):
            assert b.p_value == e.p_value
            assert b.observed_score == e.observed_score
            assert b.n_permutations == e.n_permutations
            assert b.method == e.method
            assert b.mode == "batched"

    def test_singleton_api_matches_batch(self):
        fs1, fs2, graph = random_pair(60, 36, 7, grid=(6, 6))
        via_test = significance_test(fs1, fs2, graph, 100, seed=3, mode="batched")
        via_batch = significance_batch(
            [SignificanceRequest(fs1, fs2, graph, seed=3)], 100, mode="batched"
        )[0]
        assert via_test == via_batch

    def test_observed_override_matches_recompute(self):
        from repro.core.relationship import evaluate_features

        fs1, fs2, graph = random_pair(60, 36, 8, grid=(6, 6))
        observed = evaluate_features(fs1, fs2).score
        with_override = significance_batch(
            [SignificanceRequest(fs1, fs2, graph, seed=0, observed=observed)], 100
        )[0]
        without = significance_batch(
            [SignificanceRequest(fs1, fs2, graph, seed=0)], 100
        )[0]
        assert with_override == without


class TestAdaptiveDecisionIdentity:
    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.2, 0.5])
    def test_decisions_match_exact_at_alpha(self, alpha):
        cases = case_grid()
        exact = [
            significance_test(fs1, fs2, graph, 150, method=method, seed=11 + i)
            for i, (fs1, fs2, graph, method) in enumerate(cases)
        ]
        adaptive = significance_batch(
            [
                SignificanceRequest(fs1, fs2, graph, seed=11 + i, method=method)
                for i, (fs1, fs2, graph, method) in enumerate(cases)
            ],
            150,
            mode="adaptive",
            alpha=alpha,
        )
        for e, a in zip(exact, adaptive):
            assert a.is_significant(alpha) == e.is_significant(alpha)
            assert a.n_permutations <= e.n_permutations
            assert a.mode == "adaptive"

    def test_early_termination_engages(self):
        # Most null pairs must stop well short of the requested permutation
        # count — otherwise the adaptive mode is not actually adapting.
        cases = [(*random_pair(60, 36, 500 + s, grid=(6, 6)), None) for s in range(6)]
        adaptive = significance_batch(
            [
                SignificanceRequest(fs1, fs2, graph, seed=s)
                for s, (fs1, fs2, graph, _m) in enumerate(cases)
            ],
            400,
            mode="adaptive",
        )
        assert any(a.n_permutations < 400 for a in adaptive)

    def test_naive_method_stream(self):
        fs1, fs2, graph = random_pair(30, 16, 9, grid=(4, 4))
        exact = significance_test(fs1, fs2, graph, 80, method="naive", seed=5)
        batched = significance_test(
            fs1, fs2, graph, 80, method="naive", seed=5, mode="batched"
        )
        adaptive = significance_test(
            fs1, fs2, graph, 80, method="naive", seed=5, mode="adaptive"
        )
        assert batched.p_value == exact.p_value
        assert adaptive.is_significant() == exact.is_significant()

    def test_degenerate_spatial_falls_back_to_rotation(self):
        # n_regions == 1 with a spatial method: exact falls back to rotation
        # scores; the batch path must do the same, keeping the method label.
        fs1, fs2, graph = random_pair(200, 1, 12)
        for method in ("spatial_toroidal", "spatiotemporal_torus"):
            exact = significance_test(fs1, fs2, graph, 100, method=method, seed=2)
            batched = significance_test(
                fs1, fs2, graph, 100, method=method, seed=2, mode="batched"
            )
            assert batched.p_value == exact.p_value
            assert batched.method == exact.method == method


class TestEffectivePermutationCounts:
    def test_rotation_exhaustive_fallback_reported(self):
        # 10 steps admit only 9 distinct non-trivial rotations: every mode
        # must evaluate and report the full population, not the request.
        fs1, fs2, graph = random_pair(10, 1, 0)
        for mode in SIGNIFICANCE_MODES:
            result = significance_test(fs1, fs2, graph, 500, seed=0, mode=mode)
            assert result.n_permutations == 9
        sampled = significance_test(fs1, fs2, graph, 5, seed=0)
        assert sampled.n_permutations == 5

    def test_rotation_modes_identical_even_adaptive(self):
        # The rotation path computes all shifts in one FFT pass, so adaptive
        # has nothing to truncate: all three modes agree bit-for-bit.
        fs1, fs2, graph = random_pair(300, 1, 3)
        results = [
            significance_test(fs1, fs2, graph, 150, seed=4, mode=mode)
            for mode in SIGNIFICANCE_MODES
        ]
        assert len({r.p_value for r in results}) == 1
        assert len({r.n_permutations for r in results}) == 1

    def test_batched_reports_full_count_on_toroidal(self):
        fs1, fs2, graph = random_pair(60, 36, 4, grid=(6, 6))
        result = significance_test(fs1, fs2, graph, 120, seed=0, mode="batched")
        assert result.n_permutations == 120


class TestModeValidation:
    def test_unknown_mode_rejected(self):
        fs1, fs2, graph = random_pair(30, 1, 0)
        with pytest.raises(DataError):
            significance_test(fs1, fs2, graph, mode="quantum")
        with pytest.raises(DataError):
            significance_batch([SignificanceRequest(fs1, fs2, graph)], mode="exact")

    def test_batch_validates_requests(self):
        fs1, _fs2, graph = random_pair(30, 1, 0)
        other = random_pair(31, 1, 0)[0]
        with pytest.raises(DataError):
            significance_batch([SignificanceRequest(fs1, other, graph)])
        with pytest.raises(DataError):
            significance_batch([SignificanceRequest(fs1, fs1, graph, method="quantum")])
        with pytest.raises(DataError):
            significance_batch([SignificanceRequest(fs1, fs1, graph)], alternative="x")


HOUR = 3600


def small_corpus(seed=0, n_hours=600):
    """Three city/hour data sets: two related, one noise (like §6.2)."""
    rng = np.random.default_rng(seed)
    ts = np.arange(n_hours, dtype=np.int64) * HOUR
    t = np.arange(n_hours)
    base = 10 + 1.5 * np.sin(2 * np.pi * t / 24) + rng.normal(0, 0.2, n_hours)
    a = base.copy()
    b = 5 + 0.8 * np.sin(2 * np.pi * t / 24) + rng.normal(0, 0.1, n_hours)
    for e in rng.choice(n_hours - 6, 15, replace=False):
        a[e : e + 4] += 8
        b[e : e + 4] += 6
    for e in rng.choice(n_hours - 6, 15, replace=False):
        a[e : e + 4] -= 8
        b[e : e + 4] -= 6
    noise = 10 + rng.normal(0, 1.0, n_hours)

    def city_dataset(name, values):
        schema = DatasetSchema(
            name,
            SpatialResolution.CITY,
            TemporalResolution.HOUR,
            numeric_attributes=("v",),
        )
        return Dataset(schema, timestamps=ts, numerics={"v": values})

    city = CityModel.synthetic(nbhd_grid=(3, 3), zip_grid=(2, 2))
    return Corpus(
        [
            city_dataset("alpha", a),
            city_dataset("beta", b),
            city_dataset("gamma", noise),
        ],
        city,
    )


class TestQueryModesAcrossExecutors:
    """Query-level mode guarantees must survive every executor."""

    @pytest.fixture(scope="class")
    def index(self):
        return small_corpus().build_index(temporal=(TemporalResolution.HOUR,))

    @pytest.fixture(params=("process", "cluster"))
    def parallel_kwargs(self, request):
        if request.param == "cluster":
            return {"engine": request.getfixturevalue("cluster_engine")}
        return {"n_workers": 4, "executor": request.param}

    @staticmethod
    def rows(result):
        return [
            (x.function1, x.function2, x.feature_type, x.score, x.p_value)
            for x in result.results
        ]

    @staticmethod
    def decisions(result):
        return [
            (x.function1, x.function2, x.feature_type, x.score)
            for x in result.results
        ]

    def test_modes_bit_stable_across_executors(self, index, parallel_kwargs):
        for mode in ("batched", "adaptive"):
            serial = index.query(n_permutations=120, seed=0, significance_mode=mode)
            parallel = index.query(
                n_permutations=120, seed=0, significance_mode=mode, **parallel_kwargs
            )
            assert self.rows(serial) == self.rows(parallel)
            assert serial.n_evaluated == parallel.n_evaluated
            assert serial.n_candidates == parallel.n_candidates

    def test_adaptive_decisions_match_exact_under_executor(
        self, index, parallel_kwargs
    ):
        exact = index.query(n_permutations=120, seed=0)
        adaptive = index.query(
            n_permutations=120, seed=0, significance_mode="adaptive", **parallel_kwargs
        )
        assert self.decisions(exact) == self.decisions(adaptive)
        assert exact.n_significant == adaptive.n_significant
        assert exact.n_significant >= 1  # the planted pair survives

    def test_batched_bit_identical_to_exact_serial(self, index):
        exact = index.query(n_permutations=120, seed=0)
        batched = index.query(n_permutations=120, seed=0, significance_mode="batched")
        assert self.rows(exact) == self.rows(batched)
        assert exact.significance_mode == "exact"
        assert batched.significance_mode == "batched"

    def test_unknown_query_mode_rejected(self, index):
        with pytest.raises(QueryError):
            index.query(n_permutations=10, significance_mode="quantum")
