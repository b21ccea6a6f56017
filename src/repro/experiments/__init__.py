"""Experiment subsystem: declarative specs, sweep grids, batch execution and reporting."""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.experiments.harness": (
        "ComparisonRow",
        "PredictionAccuracyReport",
        "run_cluster_sweep",
        "run_policy_comparison",
        "run_simulation",
        "run_with_reference",
    ),
    "repro.experiments.reporting": (
        "format_batch_footer",
        "format_comparison",
        "format_experiment_results",
        "format_registry",
        "format_table",
    ),
    "repro.experiments.runner": (
        "BatchReport",
        "BatchRunner",
        "ExperimentResult",
        "MultiprocessExecutor",
        "SerialExecutor",
        "SpecFailure",
        "StoreBackend",
        "build_simulation",
        "get_executor",
        "run_experiment",
    ),
    "repro.experiments.settings": (
        "BASELINE_POLICIES",
        "CLUSTER_TEMPLATES",
        "EVALUATION_POLICIES",
        "GLOBAL_PARAMETER_SETTINGS",
    ),
    "repro.experiments.spec": ("ExperimentSpec", "Sweep", "parse_axis"),
}

__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
