"""Incremental index maintenance: fingerprint, diff, rebuild only what changed.

Urban data arrives continuously — new taxi days, new 311 records, new
sensors — but a persisted index (:mod:`repro.persist`) is write-once: any
change used to force a full ``Corpus.build_index`` recompute.  This
subsystem turns the saved index into a *maintainable* artifact:

* :mod:`.fingerprint` hashes each partition's raw inputs (data set schema +
  columns, function specs, city model, extractor config, fill policy) into
  content fingerprints recorded in the index manifest (format v2);
* :mod:`.plan` diffs a live :class:`~repro.core.corpus.Corpus` against a
  saved index's fingerprints into an :class:`UpdatePlan` of partitions to
  keep / rebuild / add / drop (rendered by ``repro update --dry-run``);
* :mod:`.update` applies the plan: only the changed partitions'
  ``IndexPartitionJob`` tasks run — through any
  :class:`~repro.mapreduce.job.Engine` backend (serial, process, cluster)
  unchanged — then the results are spliced with the untouched partition
  files on disk and the manifest is rewritten atomically.

The subsystem's contract, asserted per executor by the property suite: an
incrementally updated index is **bit-identical** to a from-scratch rebuild
of the same catalog, and unchanged partitions are provably never rewritten.

Entry points: ``CorpusIndex.update(path, corpus)`` and
``repro update --data CAT --index IDX [--dry-run]``.
"""

from .fingerprint import (
    city_digest,
    config_digest,
    dataset_digest,
    fingerprints_for_inputs,
    partition_fingerprint,
    specs_digest,
)
from .plan import ACTIONS, PlanEntry, UpdatePlan, plan_update
from .update import UpdateReport, apply_update, update_index

__all__ = [
    "ACTIONS",
    "PlanEntry",
    "UpdatePlan",
    "UpdateReport",
    "apply_update",
    "city_digest",
    "config_digest",
    "dataset_digest",
    "fingerprints_for_inputs",
    "partition_fingerprint",
    "plan_update",
    "specs_digest",
    "update_index",
]
