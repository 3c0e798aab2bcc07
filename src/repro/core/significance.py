"""Restricted Monte Carlo permutation tests (§4).

Urban data carries spatial and temporal autocorrelation; naive permutation
tests that scramble every point independently destroy that structure and
overstate significance.  The paper's randomizations preserve it:

* **Temporal correlation** (functions whose domain is purely temporal): time
  is wrapped onto a 1-D torus and rotated — every randomization is a circular
  shift, which preserves the series' autocorrelation exactly.
* **Spatial correlation** (functions with a spatial domain): the region graph
  is mapped onto itself by a breadth-first *toroidal shift* — a random
  bijection grown from a random seed pair so that adjacent regions map to
  adjacent regions wherever possible.

A *naive* full-shuffle test is also provided for the ablation benchmark that
reproduces the paper's §6.3 observation (the standard test rejects genuine
relationships such as snow-precipitation vs. bike-trip duration).

Implementation notes.  For rotations the per-shift intersection counts are
circular cross-correlations, computed for *all* shifts at once with FFTs in
``O(n_regions · n_steps log n_steps)``.  For toroidal shifts the counts
reduce to gathers over precomputed region-by-region co-occurrence matrices
(``C[r, s] = Σ_t mask1[t, r] · mask2[t, s]``), so each of the |m| = 1,000
shifts costs only O(n_regions).

The permutation statistic counts #p as ``|Σ⁺₁∩Σ⁺₂| + |Σ⁻₁∩Σ⁻₂|``; this equals
Definition 10's union count whenever a function's positive and negative
features are disjoint (always true when θ⁻ < θ⁺, i.e. for every non-degenerate
threshold pair), and only the null distribution — not the observed score —
uses it.

Evaluation modes.  Three modes trade per-pair Python overhead for speed
while pinning down exactly what they preserve:

* ``"exact"`` — the reference: one pair at a time, the full permutation
  loop.  Bit-identical across releases and executors; everything else is
  validated against it.
* ``"batched"`` — :func:`significance_batch` vectorizes the permutation
  test across a whole chunk of pairs at once (stacked rotation FFTs,
  batched co-occurrence matmuls + one gather for toroidal shifts).  All
  null counts are exact integers in float64, so batched p-values are
  **bit-identical** to exact mode.
* ``"adaptive"`` — batched scoring plus sequential early termination: a
  pair's permutation stream (identical to exact mode's, in the same
  order) is consumed in growing spans, and permuting stops as soon as the
  significance *decision* at the configured α is mathematically settled —
  either the hit count alone already forces p > α, or even all remaining
  permutations hitting could not push p above α.  The reported p-value
  then uses fewer permutations (recorded in
  ``SignificanceResult.n_permutations``), but the decision
  ``is_significant(alpha)`` is **provably identical** to exact mode's.

Exhaustive fallback.  When the domain admits fewer distinct randomizations
than requested — temporal rotations have only ``n_steps - 1`` non-trivial
shifts — the test evaluates the full population instead of sampling, and
``SignificanceResult.n_permutations`` reports the count actually evaluated
(all four score paths do this; the rotation path is where it commonly
bites).  The rotation path computes every shift in one FFT pass, so for it
all three modes return identical p-values.
"""

from __future__ import annotations

import threading
import zlib
from collections import deque
from dataclasses import dataclass

import numpy as np

from .. import obs
from ..graph.domain_graph import DomainGraph
from ..utils.errors import DataError
from ..utils.rng import RngLike, ensure_rng
from .features import FeatureSet
from .relationship import evaluate_features

#: Significance level used throughout the paper (§5.3).
DEFAULT_ALPHA = 0.05

#: Number of randomizations |m| used by the paper (§4).
DEFAULT_PERMUTATIONS = 1000

_ALTERNATIVES = ("two-sided", "greater", "less")

#: Evaluation modes for the permutation test (see the module docstring).
SIGNIFICANCE_MODES = ("exact", "batched", "adaptive")


@dataclass(frozen=True)
class SignificanceResult:
    """Outcome of a Monte Carlo significance test for one function pair.

    ``n_permutations`` is the number of randomizations actually evaluated —
    smaller than the requested |m| when the domain admits fewer distinct
    shifts (exhaustive fallback) or when adaptive mode stopped early.
    """

    p_value: float
    observed_score: float
    n_permutations: int
    method: str
    alternative: str
    mode: str = "exact"

    def is_significant(self, alpha: float = DEFAULT_ALPHA) -> bool:
        """Definition 14: the relationship is significant iff p ≤ α."""
        return self.p_value <= alpha


def significance_test(
    fs1: FeatureSet,
    fs2: FeatureSet,
    graph: DomainGraph,
    n_permutations: int = DEFAULT_PERMUTATIONS,
    alternative: str = "two-sided",
    method: str | None = None,
    seed: RngLike = None,
    mode: str = "exact",
    alpha: float = DEFAULT_ALPHA,
) -> SignificanceResult:
    """Restricted Monte Carlo test for a pair of feature sets.

    Parameters
    ----------
    fs1, fs2:
        Aligned feature sets (same ``(n_steps, n_regions)`` shape).
    graph:
        Domain graph shared by the two functions (provides the region
        adjacency used to build toroidal shifts).
    n_permutations:
        Number of randomizations |m|.
    alternative:
        ``"two-sided"`` (default; tests |τ|), ``"greater"`` or ``"less"``.
        The paper's Eq. 4 is the left tail; two-sided matches its reported
        usage where both strong positive and strong negative relationships
        survive the filter.
    method:
        Force ``"temporal_rotation"``, ``"spatial_toroidal"`` or ``"naive"``.
        Default: rotation for purely temporal domains, toroidal shifts
        otherwise (§4).
    seed:
        RNG seed for reproducible tests.
    mode:
        ``"exact"`` (default), ``"batched"`` or ``"adaptive"`` — see the
        module docstring.  Batched is bit-identical to exact; adaptive is
        decision-identical at ``alpha``.
    alpha:
        Significance level driving adaptive early termination.  Ignored by
        the other modes.
    """
    if mode not in SIGNIFICANCE_MODES:
        raise DataError(f"unknown significance mode {mode!r}")
    if mode != "exact":
        request = SignificanceRequest(fs1, fs2, graph, seed=seed, method=method)
        return significance_batch(
            [request],
            n_permutations=n_permutations,
            alternative=alternative,
            mode=mode,
            alpha=alpha,
        )[0]
    if alternative not in _ALTERNATIVES:
        raise DataError(f"unknown alternative {alternative!r}")
    if fs1.shape != fs2.shape:
        raise DataError("feature sets must be aligned before testing")
    if method is None:
        method = "temporal_rotation" if graph.is_time_series else "spatial_toroidal"

    observed = evaluate_features(fs1, fs2).score
    rng = ensure_rng(seed)

    if method == "temporal_rotation":
        scores = _rotation_scores(fs1, fs2, n_permutations, rng)
    elif method == "spatial_toroidal":
        scores = _toroidal_scores(fs1, fs2, graph, n_permutations, rng)
    elif method == "spatiotemporal_torus":
        scores = _torus3_scores(fs1, fs2, graph, n_permutations, rng)
    elif method == "naive":
        scores = _naive_scores(fs1, fs2, n_permutations, rng)
    else:
        raise DataError(f"unknown significance method {method!r}")

    p = _p_value(observed, scores, alternative)
    return SignificanceResult(
        p_value=p,
        observed_score=observed,
        n_permutations=int(scores.size),
        method=method,
        alternative=alternative,
    )


def _count_hits(observed: float, scores: np.ndarray, alternative: str) -> int:
    """Permutation scores at least as extreme as ``observed``."""
    eps = 1e-12
    if alternative == "two-sided":
        return int(np.count_nonzero(np.abs(scores) >= abs(observed) - eps))
    if alternative == "greater":
        return int(np.count_nonzero(scores >= observed - eps))
    return int(np.count_nonzero(scores <= observed + eps))


def _p_value(observed: float, scores: np.ndarray, alternative: str) -> float:
    """Add-one permutation p-value (the observed statistic counts once)."""
    hits = _count_hits(observed, scores, alternative)
    return float((1 + hits) / (scores.size + 1))


# ---------------------------------------------------------------------------
# Temporal rotations (1-D torus)
# ---------------------------------------------------------------------------


def _cross_correlation_counts(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``counts[k] = Σ_t Σ_r a[t, r] * b[(t - k) % m, r]`` for all shifts k.

    Computed with FFTs along the time axis and summed over regions.  Inputs
    are boolean masks; the result is rounded back to exact integers.
    """
    m = a.shape[0]
    fa = np.fft.rfft(a.astype(np.float64), axis=0)
    fb = np.fft.rfft(b.astype(np.float64), axis=0)
    corr = np.fft.irfft(fa * np.conj(fb), n=m, axis=0).sum(axis=1)
    return np.rint(corr).astype(np.int64)


def rotation_scores_all(fs1: FeatureSet, fs2: FeatureSet) -> np.ndarray:
    """Relationship score of every non-trivial circular time shift.

    Index k of the result is the score after rotating ``fs2`` forward in time
    by k steps (k = 1 .. n_steps-1).
    """
    p1, n1 = fs1.positive, fs1.negative
    p2, n2 = fs2.positive, fs2.negative
    u1, u2 = fs1.union(), fs2.union()
    pp = _cross_correlation_counts(p1, p2)
    nn = _cross_correlation_counts(n1, n2)
    pn = _cross_correlation_counts(p1, n2)
    np_ = _cross_correlation_counts(n1, p2)
    sigma = _cross_correlation_counts(u1, u2)
    with np.errstate(divide="ignore", invalid="ignore"):
        tau = np.where(sigma > 0, (pp + nn - pn - np_) / np.maximum(sigma, 1), 0.0)
    return tau[1:]  # k = 0 is the observed configuration


def _rotation_scores(
    fs1: FeatureSet, fs2: FeatureSet, n_permutations: int, rng: np.random.Generator
) -> np.ndarray:
    n_steps = fs1.shape[0]
    if n_steps < 2:
        return np.zeros(0)
    all_scores = rotation_scores_all(fs1, fs2)
    if all_scores.size <= n_permutations:
        return all_scores
    chosen = rng.choice(all_scores.size, size=n_permutations, replace=False)
    return all_scores[chosen]


# ---------------------------------------------------------------------------
# Spatial toroidal shifts (graph self-maps, §4)
# ---------------------------------------------------------------------------


def toroidal_map(neighbors: list[np.ndarray], rng: np.random.Generator) -> np.ndarray:
    """One adjacency-respecting random bijection of the region graph.

    Starts from a random seed assignment ``m(u0) = v0`` and grows breadth-
    first: each unassigned neighbour of ``u`` is mapped onto an unused
    neighbour of ``m(u)`` when one exists (preserving adjacency), otherwise
    onto a random unused region.  The result is always a permutation.
    """
    n = len(neighbors)
    image = np.full(n, -1, dtype=np.int64)
    used = np.zeros(n, dtype=bool)
    start = int(rng.integers(n))
    target = int(rng.integers(n))
    image[start] = target
    used[target] = True
    queue: deque[int] = deque([start])
    order = rng.permutation(n)
    while queue:
        u = queue.popleft()
        v = int(image[u])
        for un in neighbors[u]:
            un = int(un)
            if image[un] >= 0:
                continue
            candidates = [int(vn) for vn in neighbors[v] if not used[vn]]
            if candidates:
                choice = candidates[int(rng.integers(len(candidates)))]
            else:
                choice = _first_free(used, order)
            image[un] = choice
            used[choice] = True
            queue.append(un)
    for un in np.flatnonzero(image < 0):
        choice = _first_free(used, order)
        image[int(un)] = choice
        used[choice] = True
    return image


def _first_free(used: np.ndarray, order: np.ndarray) -> int:
    for v in order:
        if not used[v]:
            return int(v)
    raise DataError("toroidal map ran out of free vertices")  # pragma: no cover


def adjacency_preservation(neighbors: list[np.ndarray], image: np.ndarray) -> float:
    """Fraction of graph edges whose endpoints stay adjacent under ``image``.

    Diagnostic for the quality of a toroidal shift (§4 asks that distances be
    preserved 'in most cases').
    """
    neighbor_sets = [set(int(x) for x in ns) for ns in neighbors]
    total = 0
    kept = 0
    for u, ns in enumerate(neighbors):
        for w in ns:
            if u < int(w):
                total += 1
                if int(image[w]) in neighbor_sets[int(image[u])]:
                    kept += 1
    return kept / total if total else 1.0


#: Domain-level cache of toroidal-shift families.  §4 defines the |m| shifts
#: as randomizations of the *spatial domain*, so one family per region graph
#: is both faithful and fast: reusing the same permutations across function
#: pairs is the standard formulation of a permutation test.  The lock keeps
#: the cache safe for callers that query from their own threads: concurrent
#: queries over the same region graph share one deterministically-seeded
#: family instead of racing to build (and evict) their own.
_TOROIDAL_CACHE: dict[tuple, np.ndarray] = {}
_TOROIDAL_CACHE_LIMIT = 32
_TOROIDAL_CACHE_LOCK = threading.Lock()


def domain_toroidal_maps(graph: DomainGraph, n_maps: int) -> np.ndarray:
    """The cached family of ``n_maps`` toroidal shifts of a region graph."""
    key = (
        graph.n_regions,
        graph.spatial_pairs.tobytes(),
        int(n_maps),
    )
    with _TOROIDAL_CACHE_LOCK:
        cached = _TOROIDAL_CACHE.get(key)
        if cached is None:
            neighbors = [graph.region_neighbors(r) for r in range(graph.n_regions)]
            rng = ensure_rng(zlib.crc32(key[1]) + graph.n_regions)
            cached = np.stack([toroidal_map(neighbors, rng) for _ in range(n_maps)])
            if len(_TOROIDAL_CACHE) >= _TOROIDAL_CACHE_LIMIT:
                _TOROIDAL_CACHE.pop(next(iter(_TOROIDAL_CACHE)))
            _TOROIDAL_CACHE[key] = cached
    return cached


def _toroidal_scores(
    fs1: FeatureSet,
    fs2: FeatureSet,
    graph: DomainGraph,
    n_permutations: int,
    rng: np.random.Generator,
) -> np.ndarray:
    n_regions = fs1.shape[1]
    if n_regions < 2:
        # Degenerate spatial domain: fall back to temporal rotations.
        return _rotation_scores(fs1, fs2, n_permutations, rng)
    maps = domain_toroidal_maps(graph, n_permutations)

    p1, n1 = fs1.positive, fs1.negative
    p2, n2 = fs2.positive, fs2.negative
    u1, u2 = fs1.union(), fs2.union()
    # Co-occurrence matrices: C[r, s] = sum_t mask1[t, r] * mask2[t, s].
    c_pp = p1.T.astype(np.float64) @ p2.astype(np.float64)
    c_nn = n1.T.astype(np.float64) @ n2.astype(np.float64)
    c_pn = p1.T.astype(np.float64) @ n2.astype(np.float64)
    c_np = n1.T.astype(np.float64) @ p2.astype(np.float64)
    c_uu = u1.T.astype(np.float64) @ u2.astype(np.float64)

    scores = np.empty(n_permutations, dtype=np.float64)
    regions = np.arange(n_regions)
    for i in range(n_permutations):
        # mask2 region r is relocated to rows[r]; the intersection with
        # mask1 therefore pairs mask1 column rows[r] with mask2 column r.
        rows = maps[i]
        pp = c_pp[rows, regions].sum()
        nn = c_nn[rows, regions].sum()
        pn = c_pn[rows, regions].sum()
        np_ = c_np[rows, regions].sum()
        sig = c_uu[rows, regions].sum()
        scores[i] = (pp + nn - pn - np_) / sig if sig > 0 else 0.0
    return scores


# ---------------------------------------------------------------------------
# Combined spatio-temporal torus (§8 future work)
# ---------------------------------------------------------------------------


def _torus3_scores(
    fs1: FeatureSet,
    fs2: FeatureSet,
    graph: DomainGraph,
    n_permutations: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Randomizations combining a toroidal spatial shift with a time rotation.

    The paper's §8 proposes extending the significance test to a 3-torus that
    wraps space and time together; each randomization here applies an
    adjacency-respecting spatial self-map *and* a circular time rotation to
    the second function's features, preserving both correlation structures
    simultaneously.
    """
    n_steps, n_regions = fs1.shape
    if n_regions < 2:
        return _rotation_scores(fs1, fs2, n_permutations, rng)
    maps = domain_toroidal_maps(graph, n_permutations)
    p1, n1, u1 = fs1.positive, fs1.negative, fs1.union()
    p2, n2, u2 = fs2.positive, fs2.negative, fs2.union()
    scores = np.empty(n_permutations, dtype=np.float64)
    for i in range(n_permutations):
        k = int(rng.integers(1, n_steps)) if n_steps > 1 else 0
        cols = maps[i]
        p2s = np.roll(p2, k, axis=0)
        n2s = np.roll(n2, k, axis=0)
        u2s = np.roll(u2, k, axis=0)
        # Column permutation: region r of fs2 relocated to cols[r].
        pp = int(np.count_nonzero(p1[:, cols] & p2s))
        nn = int(np.count_nonzero(n1[:, cols] & n2s))
        pn = int(np.count_nonzero(p1[:, cols] & n2s))
        np_ = int(np.count_nonzero(n1[:, cols] & p2s))
        sig = int(np.count_nonzero(u1[:, cols] & u2s))
        scores[i] = (pp + nn - pn - np_) / sig if sig > 0 else 0.0
    return scores


# ---------------------------------------------------------------------------
# Naive (unrestricted) permutation — ablation baseline
# ---------------------------------------------------------------------------


def _naive_scores(
    fs1: FeatureSet, fs2: FeatureSet, n_permutations: int, rng: np.random.Generator
) -> np.ndarray:
    """Scores under full independent shuffling of all spatio-temporal points.

    This is the 'standard Monte Carlo procedure' of §6.3: it ignores spatial
    and temporal dependence entirely.
    """
    shape = fs1.shape
    size = shape[0] * shape[1]
    p1 = fs1.positive.ravel()
    n1 = fs1.negative.ravel()
    p2 = fs2.positive.ravel()
    n2 = fs2.negative.ravel()
    scores = np.empty(n_permutations, dtype=np.float64)
    for i in range(n_permutations):
        perm = rng.permutation(size)
        pp = np.count_nonzero(p1 & p2[perm])
        nn = np.count_nonzero(n1 & n2[perm])
        pn = np.count_nonzero(p1 & n2[perm])
        np_ = np.count_nonzero(n1 & p2[perm])
        sig = np.count_nonzero((p1 | n1) & (p2 | n2)[perm])
        scores[i] = (pp + nn - pn - np_) / sig if sig > 0 else 0.0
    return scores


# ---------------------------------------------------------------------------
# Batched + adaptive evaluation (query hot path)
# ---------------------------------------------------------------------------

#: First adaptive span size; spans double afterwards so a decided pair pays
#: at most ~2x the permutations it minimally needed.
_ADAPTIVE_FIRST_SPAN = 32


@dataclass(frozen=True)
class SignificanceRequest:
    """One pair queued for :func:`significance_batch`.

    ``observed`` lets callers that already computed the relationship score
    (e.g. while filtering candidates) skip the recompute; ``None`` means
    re-evaluate, exactly as :func:`significance_test` does.
    """

    fs1: FeatureSet
    fs2: FeatureSet
    graph: DomainGraph
    seed: RngLike = None
    method: str | None = None
    observed: float | None = None


def _adaptive_spans(n_avail: int) -> list[tuple[int, int]]:
    """Fixed doubling span boundaries over the permutation stream.

    The boundaries depend only on ``n_avail`` — never on which pairs share a
    batch — so a pair stops at the same permutation count under any
    chunking or executor, keeping adaptive results bit-identical across
    parallel plans.
    """
    spans = []
    lo = 0
    size = _ADAPTIVE_FIRST_SPAN
    while lo < n_avail:
        hi = min(lo + size, n_avail)
        spans.append((lo, hi))
        lo = hi
        size *= 2
    return spans


def _decided(hits, n_done, n_avail: int, alpha: float):
    """True where the significance decision at ``alpha`` is already forced.

    Not-significant: the exact-mode p-value is ``(1 + H) / (n_avail + 1)``
    with final hit count ``H >= hits``; float division is monotone in the
    numerator, so ``(1 + hits) / (n_avail + 1) > alpha`` already forces it
    above alpha.  The early-stop p ``(1 + hits) / (n_done + 1)`` only has a
    smaller denominator, so its decision agrees.

    Significant: ``H <= hits + (n_avail - n_done)``, so the first clause
    forces the exact-mode p under alpha; the second clause pins the
    *reported* early-stop quotient under alpha too (guarding the one-ulp
    gap between the two float divisions).
    """
    remaining = n_avail - n_done
    not_sig = (1.0 + hits) / (n_avail + 1) > alpha
    sig = ((1.0 + hits + remaining) / (n_avail + 1) <= alpha) & (
        (1.0 + hits) / (n_done + 1) <= alpha
    )
    return not_sig | sig


def _hits_against(
    observed: np.ndarray, scores: np.ndarray, alternative: str
) -> np.ndarray:
    """Row-wise hit counts: ``observed`` is (P,), ``scores`` is (P, k)."""
    eps = 1e-12
    if alternative == "two-sided":
        return (np.abs(scores) >= np.abs(observed)[:, None] - eps).sum(axis=1)
    if alternative == "greater":
        return (scores >= observed[:, None] - eps).sum(axis=1)
    return (scores <= observed[:, None] + eps).sum(axis=1)


def _request_observed(request: SignificanceRequest) -> float:
    if request.observed is not None:
        return float(request.observed)
    return evaluate_features(request.fs1, request.fs2).score


def significance_batch(
    requests: list[SignificanceRequest],
    n_permutations: int = DEFAULT_PERMUTATIONS,
    alternative: str = "two-sided",
    mode: str = "batched",
    alpha: float = DEFAULT_ALPHA,
) -> list[SignificanceResult]:
    """Vectorized permutation tests for a chunk of pairs at once.

    Returns one :class:`SignificanceResult` per request, in order.  Pairs
    are grouped by method and domain shape: rotation pairs share stacked
    FFT passes, toroidal pairs over the same region graph share batched
    co-occurrence matmuls and a single gather per span.  ``mode="batched"``
    is bit-identical to per-pair exact results; ``mode="adaptive"`` adds
    early termination that provably preserves every ``is_significant(alpha)``
    decision (see :func:`_decided`).
    """
    if alternative not in _ALTERNATIVES:
        raise DataError(f"unknown alternative {alternative!r}")
    if mode not in ("batched", "adaptive"):
        raise DataError(f"unknown batch significance mode {mode!r}")

    rotation_groups: dict[tuple[int, int], list[tuple[int, str]]] = {}
    toroidal_groups: dict[tuple[int, int, bytes], list[int]] = {}
    stream_items: list[tuple[int, str]] = []
    for idx, request in enumerate(requests):
        if request.fs1.shape != request.fs2.shape:
            raise DataError("feature sets must be aligned before testing")
        method = request.method
        if method is None:
            method = (
                "temporal_rotation"
                if request.graph.is_time_series
                else "spatial_toroidal"
            )
        if method not in (
            "temporal_rotation",
            "spatial_toroidal",
            "spatiotemporal_torus",
            "naive",
        ):
            raise DataError(f"unknown significance method {method!r}")
        n_steps, n_regions = request.fs1.shape
        if method == "temporal_rotation" or (
            n_regions < 2 and method in ("spatial_toroidal", "spatiotemporal_torus")
        ):
            # Degenerate spatial domains fall back to rotations (matching
            # the exact path) but keep their requested method label.
            rotation_groups.setdefault((n_steps, n_regions), []).append((idx, method))
        elif method == "spatial_toroidal":
            key = (n_steps, n_regions, request.graph.spatial_pairs.tobytes())
            toroidal_groups.setdefault(key, []).append(idx)
        else:
            stream_items.append((idx, method))

    results: list[SignificanceResult | None] = [None] * len(requests)
    with obs.span(
        "significance.batch",
        n_requests=len(requests),
        mode=mode,
        n_groups=len(rotation_groups) + len(toroidal_groups) + len(stream_items),
    ):
        for items in rotation_groups.values():
            _run_rotation_group(
                requests, items, n_permutations, alternative, mode, results
            )
        for idxs in toroidal_groups.values():
            _run_toroidal_group(
                requests, idxs, n_permutations, alternative, mode, alpha, results
            )
        for idx, method in stream_items:
            results[idx] = _run_stream(
                requests[idx], method, n_permutations, alternative, mode, alpha
            )
    return results  # type: ignore[return-value]


def _run_rotation_group(
    requests: list[SignificanceRequest],
    items: list[tuple[int, str]],
    n_permutations: int,
    alternative: str,
    mode: str,
    results: list[SignificanceResult | None],
) -> None:
    """Stacked-FFT rotation scores for all pairs sharing one domain shape.

    Rotations already evaluate every shift in a single pass, so adaptive
    mode has nothing to truncate here: all three modes agree bit-for-bit.
    """
    reqs = [requests[idx] for idx, _ in items]
    n_steps = reqs[0].fs1.shape[0]
    if n_steps < 2:
        empty = np.zeros(0)
        for idx, label in items:
            observed = _request_observed(requests[idx])
            results[idx] = SignificanceResult(
                p_value=_p_value(observed, empty, alternative),
                observed_score=observed,
                n_permutations=0,
                method=label,
                alternative=alternative,
                mode=mode,
            )
        return
    p1 = np.stack([r.fs1.positive for r in reqs])
    n1 = np.stack([r.fs1.negative for r in reqs])
    u1 = np.stack([r.fs1.union() for r in reqs])
    p2 = np.stack([r.fs2.positive for r in reqs])
    n2 = np.stack([r.fs2.negative for r in reqs])
    u2 = np.stack([r.fs2.union() for r in reqs])
    pp = _stacked_cross_correlation(p1, p2)
    nn = _stacked_cross_correlation(n1, n2)
    pn = _stacked_cross_correlation(p1, n2)
    np_ = _stacked_cross_correlation(n1, p2)
    sigma = _stacked_cross_correlation(u1, u2)
    with np.errstate(divide="ignore", invalid="ignore"):
        tau = np.where(sigma > 0, (pp + nn - pn - np_) / np.maximum(sigma, 1), 0.0)
    tau = tau[:, 1:]  # k = 0 is the observed configuration
    for j, (idx, label) in enumerate(items):
        request = requests[idx]
        all_scores = tau[j]
        if all_scores.size > n_permutations:
            rng = ensure_rng(request.seed)
            chosen = rng.choice(all_scores.size, size=n_permutations, replace=False)
            scores = all_scores[chosen]
        else:
            scores = all_scores
        observed = _request_observed(request)
        results[idx] = SignificanceResult(
            p_value=_p_value(observed, scores, alternative),
            observed_score=observed,
            n_permutations=int(scores.size),
            method=label,
            alternative=alternative,
            mode=mode,
        )


def _stacked_cross_correlation(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:func:`_cross_correlation_counts` for a (P, T, R) stack of mask pairs."""
    m = a.shape[1]
    fa = np.fft.rfft(a.astype(np.float64), axis=1)
    fb = np.fft.rfft(b.astype(np.float64), axis=1)
    corr = np.fft.irfft(fa * np.conj(fb), n=m, axis=1).sum(axis=2)
    return np.rint(corr).astype(np.int64)


def _run_toroidal_group(
    requests: list[SignificanceRequest],
    idxs: list[int],
    n_permutations: int,
    alternative: str,
    mode: str,
    alpha: float,
    results: list[SignificanceResult | None],
) -> None:
    """Batched toroidal-shift scores for pairs sharing one region graph.

    The five per-pair co-occurrence matrices collapse into a numerator and
    denominator stack (all entries exact integers in float64), so each span
    of shifts costs two gathers for the whole group instead of five per
    pair.  Adaptive mode drops decided pairs from the stack between spans;
    the cached map family is seeded by graph content only, so its first
    ``n`` maps are the same for any requested count and every pair consumes
    the identical permutation stream exact mode would.
    """
    reqs = [requests[i] for i in idxs]
    graph = reqs[0].graph
    maps = domain_toroidal_maps(graph, n_permutations)
    n_regions = reqs[0].fs1.shape[1]

    def cooc(a: list[np.ndarray], b: list[np.ndarray]) -> np.ndarray:
        sa = np.stack(a).astype(np.float64)
        sb = np.stack(b).astype(np.float64)
        return sa.transpose(0, 2, 1) @ sb

    p1 = [r.fs1.positive for r in reqs]
    n1 = [r.fs1.negative for r in reqs]
    u1 = [r.fs1.union() for r in reqs]
    p2 = [r.fs2.positive for r in reqs]
    n2 = [r.fs2.negative for r in reqs]
    u2 = [r.fs2.union() for r in reqs]
    num = cooc(p1, p2) + cooc(n1, n2) - cooc(p1, n2) - cooc(n1, p2)
    den = cooc(u1, u2)

    observed = np.array([_request_observed(r) for r in reqs])
    n_pairs = len(reqs)
    hits = np.zeros(n_pairs, dtype=np.int64)
    done = np.zeros(n_pairs, dtype=np.int64)
    alive = np.arange(n_pairs)
    regions = np.arange(n_regions)
    spans = (
        _adaptive_spans(n_permutations)
        if mode == "adaptive"
        else [(0, n_permutations)]
    )
    for lo, hi in spans:
        if alive.size == 0:
            break
        rows = maps[lo:hi]
        num_g = num[alive][:, rows, regions].sum(axis=2)
        den_g = den[alive][:, rows, regions].sum(axis=2)
        with np.errstate(divide="ignore", invalid="ignore"):
            scores = np.where(den_g > 0, num_g / np.maximum(den_g, 1), 0.0)
        hits[alive] += _hits_against(observed[alive], scores, alternative)
        done[alive] = hi
        if mode == "adaptive" and hi < n_permutations:
            alive = alive[~_decided(hits[alive], hi, n_permutations, alpha)]

    for j, idx in enumerate(idxs):
        p = float((1 + hits[j]) / (done[j] + 1))
        results[idx] = SignificanceResult(
            p_value=p,
            observed_score=float(observed[j]),
            n_permutations=int(done[j]),
            method="spatial_toroidal",
            alternative=alternative,
            mode=mode,
        )


def _run_stream(
    request: SignificanceRequest,
    method: str,
    n_permutations: int,
    alternative: str,
    mode: str,
    alpha: float,
) -> SignificanceResult:
    """Span-at-a-time evaluation for the per-pair RNG-stream methods.

    The torus3 and naive randomizations consume a per-pair RNG stream, so
    they cannot stack across pairs; they still vectorize within each span
    and support adaptive early termination.  RNG draws happen span by span
    in exact mode's order, so the first k randomizations match exact
    mode's first k.
    """
    observed = _request_observed(request)
    rng = ensure_rng(request.seed)
    if method == "spatiotemporal_torus":
        span_scores = _torus3_span_scores(request, n_permutations, rng)
    else:
        span_scores = _naive_span_scores(request, rng)
    spans = (
        _adaptive_spans(n_permutations)
        if mode == "adaptive"
        else [(0, n_permutations)]
    )
    hits = 0
    done = 0
    for lo, hi in spans:
        hits += _count_hits(observed, span_scores(lo, hi), alternative)
        done = hi
        if (
            mode == "adaptive"
            and done < n_permutations
            and bool(_decided(np.int64(hits), done, n_permutations, alpha))
        ):
            break
    return SignificanceResult(
        p_value=float((1 + hits) / (done + 1)),
        observed_score=observed,
        n_permutations=done,
        method=method,
        alternative=alternative,
        mode=mode,
    )


def _torus3_span_scores(
    request: SignificanceRequest, n_permutations: int, rng: np.random.Generator
):
    """Vectorized spans of :func:`_torus3_scores` randomizations."""
    n_steps, _ = request.fs1.shape
    maps = domain_toroidal_maps(request.graph, n_permutations)
    fs1, fs2 = request.fs1, request.fs2
    p1, n1, u1 = fs1.positive, fs1.negative, fs1.union()
    p2, n2, u2 = fs2.positive, fs2.negative, fs2.union()
    t_idx = np.arange(n_steps)

    def span(lo: int, hi: int) -> np.ndarray:
        ks = np.array(
            [
                int(rng.integers(1, n_steps)) if n_steps > 1 else 0
                for _ in range(hi - lo)
            ]
        )
        rows = (t_idx[None, :] - ks[:, None]) % n_steps
        cols = maps[lo:hi]
        p1c = p1[:, cols].transpose(1, 0, 2)
        n1c = n1[:, cols].transpose(1, 0, 2)
        u1c = u1[:, cols].transpose(1, 0, 2)
        pp = np.count_nonzero(p1c & p2[rows], axis=(1, 2))
        nn = np.count_nonzero(n1c & n2[rows], axis=(1, 2))
        pn = np.count_nonzero(p1c & n2[rows], axis=(1, 2))
        np_ = np.count_nonzero(n1c & p2[rows], axis=(1, 2))
        sig = np.count_nonzero(u1c & u2[rows], axis=(1, 2))
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(sig > 0, (pp + nn - pn - np_) / np.maximum(sig, 1), 0.0)

    return span


def _naive_span_scores(request: SignificanceRequest, rng: np.random.Generator):
    """Vectorized spans of :func:`_naive_scores` randomizations."""
    fs1, fs2 = request.fs1, request.fs2
    size = fs1.shape[0] * fs1.shape[1]
    p1 = fs1.positive.ravel()
    n1 = fs1.negative.ravel()
    u1 = p1 | n1
    p2 = fs2.positive.ravel()
    n2 = fs2.negative.ravel()
    u2 = p2 | n2

    def span(lo: int, hi: int) -> np.ndarray:
        perms = np.stack([rng.permutation(size) for _ in range(hi - lo)])
        pp = np.count_nonzero(p1[None, :] & p2[perms], axis=1)
        nn = np.count_nonzero(n1[None, :] & n2[perms], axis=1)
        pn = np.count_nonzero(p1[None, :] & n2[perms], axis=1)
        np_ = np.count_nonzero(n1[None, :] & p2[perms], axis=1)
        sig = np.count_nonzero(u1[None, :] & u2[perms], axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(sig > 0, (pp + nn - pn - np_) / np.maximum(sig, 1), 0.0)

    return span
