"""Workload inputs, their seeded changes, and digests of program outputs.

Everything here derives from the workload seed: the same seed gives the same
catalogs, the same update steps and the same query seeds.  The program only
ever sees the results as catalog directories (CSV + ``catalog.json``) and
saved index directories.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path

import numpy as np

#: The NYC Urban replica: nine data sets over this many days, simulated
#: from one fixed world (``nyc_urban_collection``'s default seed).  The
#: workload seed draws which records of the event data sets are kept, so
#: contents differ between seeds while sizes and the planted structure —
#: which set the cost of indexing and querying — do not.
URBAN_DAYS = 60
URBAN_WORLD = 7
URBAN_KEEP = 0.9
#: Data sets with fewer records (weather, gas prices) are kept whole.
URBAN_SUBSAMPLE_MIN = 10_000
#: Evaluation resolutions of every index the benchmark builds.
TEMPORAL = ("day", "week")
OPEN_SPATIAL = ("zip", "city")
#: The NYC-Open-like corpus over this many days.  Its composition is fixed —
#: data sets per (spatial, temporal) stratum with 1, 2 and 3 attributes —
#: so that the seed changes content but not size.
OPEN_DAYS = 180
OPEN_BASE = {
    ("zip", "day"): (7, 7, 6),
    ("zip", "week"): (4, 3, 3),
    ("city", "day"): (7, 7, 6),
    ("city", "week"): (4, 3, 3),
}
#: Every update step revises one 2-attribute data set of each of these
#: strata and swaps the catalog's one pool data set (2 attributes,
#: ``STEP_ADD``) for the next of ``OPEN_POOL``.
STEP_REVISE = (("zip", "day"), ("zip", "week"), ("city", "day"))
STEP_ADD = ("zip", "day")
STEP_ATTRIBUTES = 2
OPEN_POOL = 12
#: Permutation budget of every query (adaptive mode).
N_PERMUTATIONS = 1000
#: Query seeds cycled through by query rounds.
N_QUERY_SEEDS = 3


def query_seeds(seed: int) -> list[int]:
    """The query seeds of workload seed ``seed``."""
    state = np.random.SeedSequence([seed, 1]).generate_state(N_QUERY_SEEDS)
    return [int(s) for s in state]


def urban_collection(seed: int):
    """(data sets, city) of the Urban catalog of ``seed``."""
    from repro.synth import nyc_urban_collection

    coll = nyc_urban_collection(seed=URBAN_WORLD, n_days=URBAN_DAYS)
    rng = np.random.default_rng([seed, 4])
    datasets = []
    for ds in coll.datasets:
        if ds.n_records >= URBAN_SUBSAMPLE_MIN:
            keep = rng.choice(ds.n_records, int(ds.n_records * URBAN_KEEP), replace=False)
            ds = _rows(ds, np.sort(keep))
        datasets.append(ds)
    return datasets, coll.city


def _rows(ds, keep: np.ndarray):
    """The records ``keep`` of data set ``ds``."""
    from repro.data.dataset import Dataset

    def pick(column):
        return None if column is None else column[keep]

    return Dataset(
        ds.schema,
        timestamps=ds.timestamps[keep],
        x=pick(ds.x),
        y=pick(ds.y),
        regions=pick(ds.regions),
        keys={k: v[keep] for k, v in ds.keys.items()},
        numerics={k: v[keep] for k, v in ds.numerics.items()},
    )


def write_open(seed: int, directory: Path, pool: Path) -> dict:
    """Write the NYC-Open-like catalog and the pool of data sets to swap in.

    The catalog holds the base data sets plus pool entry 0.  Data sets are
    drawn, in generation order, from a seeded
    ``nyc_open_collection`` large enough to fill every stratum.
    """
    from repro.data.catalog import save_catalog
    from repro.synth import nyc_open_collection

    need = {
        (s, t, attrs): count
        for (s, t), counts in OPEN_BASE.items()
        for attrs, count in enumerate(counts, start=1)
    }
    pool_key = (*STEP_ADD, STEP_ATTRIBUTES)
    n_generated = 400
    while True:
        coll = nyc_open_collection(n_datasets=n_generated, seed=seed, n_days=OPEN_DAYS)
        base, extra, taken = [], [], dict.fromkeys(need, 0)
        for ds in coll.datasets:
            key = (*_stratum(ds), len(ds.schema.numeric_attributes))
            if taken.get(key, need.get(key, 0)) < need.get(key, 0):
                taken[key] += 1
                base.append(ds)
            elif key == pool_key and len(extra) < OPEN_POOL:
                extra.append(ds)
        if taken == need and len(extra) == OPEN_POOL:
            break
        n_generated *= 2
    save_catalog(directory, base + extra[:1], coll.city)
    save_catalog(pool, extra, coll.city)
    return catalog_sizes(base + extra[:1], directory)


def _stratum(ds) -> tuple[str, str]:
    return ds.schema.spatial_resolution.value, ds.schema.temporal_resolution.value


def catalog_sizes(datasets, directory: Path | None = None) -> dict:
    """Input sizes of a catalog; CSV bytes when it was written to ``directory``."""
    sizes = {
        "datasets": len(datasets),
        "records": int(sum(ds.n_records for ds in datasets)),
    }
    if directory is not None:
        sizes["csv_bytes"] = sum(p.stat().st_size for p in Path(directory).glob("*.csv"))
    return sizes


def build_index(catalog: Path, out: Path, engine, spatial=None):
    """``load_catalog`` -> ``build_index`` -> ``save`` at the benchmark scope."""
    from repro.data.catalog import load_catalog

    datasets, city = load_catalog(catalog)
    return index_datasets(datasets, city, out, engine, spatial)


def index_datasets(datasets, city, out: Path, engine, spatial=None):
    """``Corpus.build_index`` -> ``save`` at the benchmark scope."""
    from repro.core.corpus import Corpus
    from repro.spatial.resolution import SpatialResolution
    from repro.temporal.resolution import TemporalResolution

    index = Corpus(datasets, city).build_index(
        spatial=None if spatial is None else tuple(SpatialResolution(s) for s in spatial),
        temporal=tuple(TemporalResolution(t) for t in TEMPORAL),
        engine=engine,
    )
    index.save(str(out), engine=engine)
    return index


def revise_open(datasets: list, catalog: Path, pool: Path, seed: int, step: int) -> list[str]:
    """Update step ``step``: revise some data sets and swap the pool data set.

    One 2-attribute data set of each ``STEP_REVISE`` stratum gets seeded
    noise on one attribute and its CSV rewritten.  The pool data set in the
    catalog (``write_open`` starts it with pool entry 0) is removed and the
    next pool entry added, so every step changes as much and the corpus
    keeps its size.  Returns the names of the revised and the added data
    sets.
    """
    from repro.data.csv_io import write_csv
    from repro.data.dataset import Dataset

    pool_records = json.loads((pool / "catalog.json").read_text())["datasets"]
    pooled = {r["name"] for r in pool_records}
    rng = np.random.default_rng([seed, 2, step])
    changed = []
    for stratum in STEP_REVISE:
        candidates = [
            ds
            for ds in datasets
            if _stratum(ds) == stratum
            and len(ds.schema.numeric_attributes) == STEP_ATTRIBUTES
            and ds.name not in pooled
        ]
        ds = candidates[int(rng.integers(len(candidates)))]
        attrs = ds.schema.numeric_attributes
        attr = attrs[int(rng.integers(len(attrs)))]
        values = ds.numerics[attr]
        numerics = dict(ds.numerics)
        numerics[attr] = values + rng.normal(
            0.0, 0.05 * float(np.nanstd(values)) + 1e-6, values.size
        )
        revised = Dataset(
            ds.schema, timestamps=ds.timestamps, regions=ds.regions, numerics=numerics
        )
        write_csv(revised, catalog / f"{ds.name}.csv")
        changed.append(ds.name)

    removed = pool_records[step % len(pool_records)]
    added = pool_records[(step + 1) % len(pool_records)]
    manifest = json.loads((catalog / "catalog.json").read_text())
    manifest["datasets"] = [r for r in manifest["datasets"] if r["name"] != removed["name"]]
    (catalog / removed["file"]).unlink()
    shutil.copyfile(pool / added["file"], catalog / added["file"])
    manifest["datasets"].append(added)
    (catalog / "catalog.json").write_text(json.dumps(manifest, indent=2))
    changed.append(added["name"])
    return changed


def index_digest(path: Path) -> str:
    """Digest of a saved index: partition bytes plus the manifest.

    The manifest's two wall-clock counters (``scalar_seconds``,
    ``feature_seconds``) and its self-signature are zeroed first; everything
    else must match byte for byte.
    """
    path = Path(path)
    manifest = json.loads((path / "index.json").read_text())
    manifest.pop("manifest_sha256", None)
    for stats in [manifest["stats"]] + [r["stats"] for r in manifest["partitions"] if "stats" in r]:
        stats["scalar_seconds"] = 0.0
        stats["feature_seconds"] = 0.0
    digest = hashlib.sha256(json.dumps(manifest, sort_keys=True).encode())
    for record in manifest["partitions"]:
        digest.update(record["file"].encode())
        digest.update(hashlib.sha256((path / record["file"]).read_bytes()).digest())
    return digest.hexdigest()


def query_digest(result) -> tuple[str, list[str]]:
    """(digest of every reported value, sorted significant-relationship keys)."""
    rows = [
        (
            r.dataset1,
            r.dataset2,
            r.function1,
            r.function2,
            r.spatial.value,
            r.temporal.value,
            r.feature_type,
            r.score,
            r.strength,
            r.p_value,
            r.n_related,
            r.precision,
            r.recall,
        )
        for r in result.results
    ]
    text = repr((result.n_evaluated, result.n_candidates, result.n_significant, rows))
    decisions = sorted(
        f"{r.function1}|{r.function2}|{r.spatial.value}|{r.temporal.value}|{r.feature_type}"
        for r in result.results
    )
    return hashlib.sha256(text.encode()).hexdigest(), decisions
