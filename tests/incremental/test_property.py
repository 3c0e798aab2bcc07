"""The subsystem's contract, asserted per executor.

Property: for randomized catalog mutations — append days to a data set, add
a data set, drop a data set, change the extractor config — ``repro
update`` produces an index **bit-identical** to a from-scratch
``build_index`` + ``save`` of the mutated catalog (partition bytes exactly;
manifest up to wall-clock timings; query results exactly), on the process
and cluster executors alike.  Unchanged partitions are *proven*
untouched: their reuse is counted in the ``UpdateReport`` and their NPZ
files keep inode and mtime through the update.
"""

import json
import shutil

import numpy as np
import pytest
from _helpers import (
    RES_KWARGS,
    assert_index_dirs_bit_identical,
    assert_query_results_equal,
    file_identities,
)

from repro.core.corpus import Corpus, CorpusIndex
from repro.core.features import FeatureExtractor
from repro.incremental import apply_update, plan_update

#: Catalog mutations the generator draws from.  Each op maps
#: (datasets dict, extractor) -> (datasets dict, extractor, description).
def _op_append_days(datasets, extractor, material):
    datasets = dict(datasets, taxi=material["extended_taxi"])
    return datasets, extractor, "append days to taxi"


def _op_add_dataset(datasets, extractor, material):
    datasets = dict(datasets, citibike=material["citibike"])
    return datasets, extractor, "add citibike"


def _op_drop_dataset(datasets, extractor, material):
    datasets = dict(datasets)
    victim = "weather" if "weather" in datasets else sorted(datasets)[-1]
    datasets.pop(victim)
    return datasets, extractor, f"drop {victim}"


def _op_change_extractor(datasets, extractor, material):
    fence = 2.5 if extractor.extreme_fence != 2.5 else 3.0
    return datasets, FeatureExtractor(extreme_fence=fence), "change extractor"


_OPS = {
    "append_days": _op_append_days,
    "add_dataset": _op_add_dataset,
    "drop_dataset": _op_drop_dataset,
    "change_extractor": _op_change_extractor,
}


@pytest.mark.parametrize("seed", [11, 29])
def test_randomized_mutations_update_equals_rebuild(
    seed,
    update_engine,
    base_collection,
    base_index_dir,
    extended_taxi,
    citibike,
    tmp_path,
):
    rng = np.random.default_rng(seed)
    ops = list(rng.choice(sorted(_OPS), size=2, replace=False))

    material = {"extended_taxi": extended_taxi, "citibike": citibike}
    datasets = {ds.name: ds for ds in base_collection.datasets}
    extractor = FeatureExtractor()
    applied = []
    for name in ops:
        datasets, extractor, description = _OPS[name](datasets, extractor, material)
        applied.append(description)

    corpus = Corpus(list(datasets.values()), base_collection.city, extractor=extractor)
    index_dir = tmp_path / "idx"
    shutil.copytree(base_index_dir, index_dir)

    plan = plan_update(index_dir, corpus, **RES_KWARGS)
    keeps = [e.old_record["file"] for e in plan.by_action("keep")]
    if "change_extractor" in ops:
        # Config changes invalidate every fingerprint: full rebuild.
        assert plan.counts["keep"] == 0
    before = file_identities(index_dir, keeps)

    report = apply_update(
        index_dir, corpus, **RES_KWARGS, engine=update_engine, plan=plan
    )
    assert report.applied, f"mutations: {applied}"
    assert report.n_reused == len(keeps)

    # Reused partitions were never rewritten: same inode, same mtime.
    manifest = json.loads((index_dir / "index.json").read_text())
    kept_now = {
        r["file"]
        for r in manifest["partitions"]
        if any(
            e.dataset == r["dataset"]
            and e.spatial.value == r["spatial"]
            and e.temporal.value == r["temporal"]
            for e in plan.by_action("keep")
        )
    }
    # Files may have been renamed (seq shift), so compare identity multisets:
    # every kept file's inode + mtime survives the update unchanged.
    assert sorted(i for i, _m in before.values()) == sorted(
        (index_dir / f).stat().st_ino for f in kept_now
    )
    assert sorted(m for _i, m in before.values()) == sorted(
        (index_dir / f).stat().st_mtime_ns for f in kept_now
    )

    # The invariant: bit-identical to a from-scratch rebuild (reference
    # built serially — every executor has its own equivalence suite).
    scratch = tmp_path / "scratch"
    corpus.build_index(**RES_KWARGS).save(scratch)
    assert_index_dirs_bit_identical(index_dir, scratch)

    updated = CorpusIndex.load(index_dir)
    rebuilt = CorpusIndex.load(scratch)
    assert_query_results_equal(
        updated.query(n_permutations=20, seed=0),
        rebuilt.query(n_permutations=20, seed=0),
    )


def test_consecutive_updates_stay_bit_identical(
    update_engine,
    base_collection,
    base_index_dir,
    extended_taxi,
    citibike,
    tmp_path,
):
    """Two updates in a row (append days, then add + drop) land exactly
    where one from-scratch build of the final catalog lands."""
    index_dir = tmp_path / "idx"
    shutil.copytree(base_index_dir, index_dir)

    corpus1 = Corpus(
        [extended_taxi, base_collection.dataset("weather")],
        base_collection.city,
    )
    report1 = apply_update(index_dir, corpus1, **RES_KWARGS, engine=update_engine)
    assert report1.n_rebuilt == 2 and report1.n_reused == 2

    corpus2 = Corpus([extended_taxi, citibike], base_collection.city)
    report2 = apply_update(index_dir, corpus2, **RES_KWARGS, engine=update_engine)
    assert report2.n_added == 2 and report2.n_dropped == 2
    assert report2.n_reused == 2  # taxi partitions survive both rounds

    scratch = tmp_path / "scratch"
    corpus2.build_index(**RES_KWARGS).save(scratch)
    assert_index_dirs_bit_identical(index_dir, scratch)
