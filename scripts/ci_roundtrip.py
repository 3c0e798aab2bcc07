"""CI persistence round-trip: prove the index format is host-independent.

Two modes, run in *separate* CI jobs with the index shipped between them as
a workflow artifact (see ``.github/workflows/ci.yml``):

* ``build`` — simulate the deterministic reference collection, build the
  index, and save it to ``--out``.
* ``verify`` — on a fresh host, rebuild the same index from the same
  deterministic collection, load the artifact written by ``build``, and
  assert that (a) the loaded index matches the rebuilt one bit for bit and
  (b) both answer the reference query identically under serial *and*
  process-parallel execution.

Any mismatch exits non-zero, failing the workflow.

Usage::

    PYTHONPATH=src python scripts/ci_roundtrip.py build --out index-artifact
    PYTHONPATH=src python scripts/ci_roundtrip.py verify --index index-artifact
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from repro.core.corpus import Corpus, CorpusIndex
from repro.obs import configure_logging, get_logger
from repro.spatial.resolution import SpatialResolution
from repro.synth import nyc_urban_collection
from repro.temporal.resolution import TemporalResolution

#: Deterministic reference configuration shared by both modes.  Changing any
#: of these invalidates artifacts produced by older commits — bump alongside
#: the on-disk format version if the reference setup ever needs to move.
COLLECTION = dict(
    seed=11, n_days=60, scale=0.25, subset=("taxi", "weather", "citibike")
)
INDEX_KWARGS = dict(
    spatial=(SpatialResolution.CITY, SpatialResolution.NEIGHBORHOOD),
    temporal=(TemporalResolution.DAY, TemporalResolution.WEEK),
)
QUERY_KWARGS = dict(n_permutations=100, seed=0)

logger = get_logger("repro.scripts.ci_roundtrip")


def reference_index() -> CorpusIndex:
    coll = nyc_urban_collection(**COLLECTION)
    return Corpus(coll.datasets, coll.city).build_index(**INDEX_KWARGS)


def check(condition: bool, message: str) -> None:
    if not condition:
        sys.exit(f"round-trip FAILED: {message}")


def assert_indexes_equal(rebuilt: CorpusIndex, loaded: CorpusIndex) -> None:
    check(list(rebuilt.datasets) == list(loaded.datasets), "data set order differs")
    # Timing fields (scalar_seconds/feature_seconds) are wall-clock and
    # legitimately differ across hosts; the counters must not.
    counters = lambda s: (  # noqa: E731 - tiny accessor
        s.n_scalar_functions,
        s.n_feature_sets,
        s.raw_bytes,
        s.function_bytes,
        s.feature_bytes,
    )
    check(
        counters(rebuilt.stats) == counters(loaded.stats),
        "IndexStats counters differ",
    )
    for name, ds1 in rebuilt.datasets.items():
        ds2 = loaded.datasets[name]
        check(
            list(ds1.functions) == list(ds2.functions),
            f"{name}: resolution set differs",
        )
        for key, fns1 in ds1.functions.items():
            fns2 = ds2.functions[key]
            ids1 = [f.function_id for f in fns1]
            ids2 = [f.function_id for f in fns2]
            check(ids1 == ids2, f"{name}/{key}: function list differs")
            for f1, f2 in zip(fns1, fns2):
                check(
                    np.array_equal(f1.function.values, f2.function.values),
                    f"{f1.function_id}: value matrices differ",
                )
                for feature_type in ("salient", "extreme"):
                    s1 = f1.feature_set(feature_type)
                    s2 = f2.feature_set(feature_type)
                    check(
                        np.array_equal(s1.positive, s2.positive)
                        and np.array_equal(s1.negative, s2.negative),
                        f"{f1.function_id}: {feature_type} feature masks differ",
                    )


def query_rows(result) -> list[tuple]:
    return [
        (x.function1, x.function2, x.feature_type, x.score, x.strength,
         x.p_value, x.n_related, x.precision, x.recall)
        for x in result.results
    ]


def cmd_build(args: argparse.Namespace) -> None:
    start = time.perf_counter()
    index = reference_index()
    logger.info(
        "built reference index: %d scalar functions in %.1fs",
        index.stats.n_scalar_functions,
        time.perf_counter() - start,
    )
    index.save(args.out)
    logger.info("saved to %s", args.out)


def cmd_verify(args: argparse.Namespace) -> None:
    rebuilt = reference_index()
    start = time.perf_counter()
    loaded = CorpusIndex.load(args.index)
    logger.info("loaded artifact index in %.2fs", time.perf_counter() - start)

    assert_indexes_equal(rebuilt, loaded)
    logger.info("index structure: identical")

    reference = rebuilt.query(**QUERY_KWARGS)
    serial = loaded.query(**QUERY_KWARGS)
    parallel = loaded.query(**QUERY_KWARGS, n_workers=4, executor="process")
    check(
        query_rows(reference) == query_rows(serial),
        "loaded-index query differs from rebuilt-index query (serial)",
    )
    check(
        query_rows(reference) == query_rows(parallel),
        "loaded-index query differs from rebuilt-index query (process)",
    )
    check(
        (reference.n_evaluated, reference.n_candidates, reference.n_significant)
        == (serial.n_evaluated, serial.n_candidates, serial.n_significant),
        "query counters differ",
    )
    logger.info(
        "query equality: OK (%d evaluated, %d significant, "
        "serial == process == rebuilt)",
        reference.n_evaluated,
        reference.n_significant,
    )


def main(argv: list[str] | None = None) -> None:
    configure_logging()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build", help="build + save the reference index")
    build.add_argument("--out", required=True, help="output index directory")
    build.set_defaults(func=cmd_build)

    verify = sub.add_parser("verify", help="compare artifact vs. fresh rebuild")
    verify.add_argument("--index", required=True, help="artifact index directory")
    verify.set_defaults(func=cmd_verify)

    args = parser.parse_args(argv)
    args.func(args)


if __name__ == "__main__":
    main()
