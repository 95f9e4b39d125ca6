"""Validation subsystem: invariants, golden runs, differential checks.

Three complementary correctness tools for the linkage pipeline:

* :mod:`repro.validation.invariants` — a registry of runtime-checkable
  structural invariants over :class:`~repro.core.pipeline.LinkageResult`
  (Alg. 1/2 of the paper), runnable standalone via
  :func:`~repro.validation.invariants.validate_result` or inline via
  ``LinkageConfig(validate=True)``;
* :mod:`repro.validation.golden` — canonical JSON serialization of
  seeded end-to-end runs, pinned as committed fixtures and replayed by
  ``repro golden --check`` and the tier-1 suite;
* :mod:`repro.validation.differential` — a runner that executes the
  pipeline under two configurations and asserts declared equivalences
  (cache-bounded == unbounded, vectorized == python scoring, cross-product
  blocking ⊇ standard blocking).
"""

from .differential import (
    DifferentialOutcome,
    EquivalenceViolation,
    MappingDiff,
    assert_equivalences,
    blocking_cross_covers_standard,
    cache_bounded_vs_unbounded,
    incremental_vs_scratch,
    run_differential,
    service_vs_inprocess,
    sharded_vs_unsharded,
)
from .golden import (
    DEFAULT_SPECS,
    GoldenCheck,
    GoldenSpec,
    analysis_jsonable,
    canonical_json,
    check_golden,
    config_fingerprint,
    diff_documents,
    record_golden,
    run_golden,
)
from .invariants import (
    REGISTRY,
    InvariantViolation,
    ValidationReport,
    Violation,
    invariant,
    validate_result,
    validate_selection,
)

__all__ = [
    "DifferentialOutcome",
    "EquivalenceViolation",
    "MappingDiff",
    "assert_equivalences",
    "blocking_cross_covers_standard",
    "cache_bounded_vs_unbounded",
    "incremental_vs_scratch",
    "run_differential",
    "service_vs_inprocess",
    "sharded_vs_unsharded",
    "DEFAULT_SPECS",
    "GoldenCheck",
    "GoldenSpec",
    "analysis_jsonable",
    "canonical_json",
    "check_golden",
    "config_fingerprint",
    "diff_documents",
    "record_golden",
    "run_golden",
    "REGISTRY",
    "InvariantViolation",
    "ValidationReport",
    "Violation",
    "invariant",
    "validate_result",
    "validate_selection",
]
