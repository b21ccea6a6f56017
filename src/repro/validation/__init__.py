"""Validation subsystem: invariant checkers, golden trajectories and the scenario fuzzer.

Three complementary guards keep the fast-moving simulator layers honest:

* :mod:`repro.validation.invariants` — machine-checked accounting identities over any
  batch round execution, round record or simulation result (energy sums, id
  partitions, round-time and online-population bounds);
* :mod:`repro.validation.golden` — record/check/diff of compact per-round trajectory
  snapshots keyed by spec hash, so refactors prove themselves behaviour-preserving
  bit-for-bit on the shipped scenario presets;
* :mod:`repro.validation.fuzzer` — seeded randomised scenarios across every registered
  axis, each run audited against every invariant.

``python -m repro validate {record,check,fuzz}`` exposes all three from the CLI, and
``BatchRunner(validate=True)`` self-checks every executed sweep point.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.defaults": ("DEFAULT_GOLDEN_DIR", "GOLDEN_MAX_ROUNDS"),
    "repro.validation.fuzzer": ("FuzzFailure", "FuzzReport", "run_fuzz", "sample_spec"),
    "repro.validation.golden": (
        "GOLDEN_POLICY",
        "GOLDEN_PRESETS",
        "GOLDEN_SCHEMA_VERSION",
        "GOLDENS",
        "Divergence",
        "DriftReport",
        "GoldenStore",
        "GoldenTrajectory",
        "diff_trajectories",
        "golden_spec",
        "run_trajectory",
        "trajectory_rows",
    ),
    "repro.validation.invariants": (
        "InvariantAuditor",
        "InvariantViolation",
        "ValidationReport",
        "check_batch_execution",
        "check_round_record",
        "check_simulation_result",
    ),
}

__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
