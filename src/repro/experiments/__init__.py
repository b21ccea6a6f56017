"""Experiment subsystem: declarative specs, sweep grids, batch execution and reporting."""

from repro.experiments.harness import (
    ComparisonRow,
    PredictionAccuracyReport,
    run_cluster_sweep,
    run_policy_comparison,
    run_simulation,
    run_with_reference,
)
from repro.experiments.reporting import (
    format_batch_footer,
    format_comparison,
    format_experiment_results,
    format_registry,
    format_table,
)
from repro.experiments.runner import (
    BatchReport,
    BatchRunner,
    ExperimentResult,
    MultiprocessExecutor,
    SerialExecutor,
    SpecFailure,
    StoreBackend,
    build_simulation,
    get_executor,
    run_experiment,
)
from repro.experiments.settings import (
    CLUSTER_TEMPLATES,
    GLOBAL_PARAMETER_SETTINGS,
    BASELINE_POLICIES,
    EVALUATION_POLICIES,
)
from repro.experiments.spec import ExperimentSpec, Sweep, parse_axis

__all__ = [
    "BASELINE_POLICIES",
    "BatchReport",
    "BatchRunner",
    "CLUSTER_TEMPLATES",
    "ComparisonRow",
    "EVALUATION_POLICIES",
    "ExperimentResult",
    "ExperimentSpec",
    "GLOBAL_PARAMETER_SETTINGS",
    "MultiprocessExecutor",
    "PredictionAccuracyReport",
    "SerialExecutor",
    "SpecFailure",
    "StoreBackend",
    "Sweep",
    "build_simulation",
    "format_batch_footer",
    "format_comparison",
    "format_experiment_results",
    "format_registry",
    "format_table",
    "get_executor",
    "parse_axis",
    "run_cluster_sweep",
    "run_experiment",
    "run_policy_comparison",
    "run_simulation",
    "run_with_reference",
]
