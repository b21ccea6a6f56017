"""Results warehouse: columnar analytics, repro queries and regression evals.

The analytics subsystem answers questions the stores cannot — "how does AutoFL's PPW
compare to the oracle across 10k scenarios?" rather than "is this spec hash cached?":

* :mod:`repro.analytics.schema` — the flat per-round/per-run/bench column schemas and
  the row builders that flatten :class:`~repro.sim.results.SimulationResult`
  trajectories, store payloads, golden files and ``BENCH_*.json`` records into them;
* :mod:`repro.analytics.warehouse` — the columnar :class:`Warehouse` (Parquet via
  ``pyarrow`` when installed, a pure-numpy ``.npz`` fallback otherwise) with
  idempotent ingest from every existing result source;
* :mod:`repro.analytics.query` — vectorised filter + group-by aggregation
  (mean/p50/p95/…) executed as numpy column ops;
* :mod:`repro.analytics.evals` — cross-run comparison reports and the regression
  eval that diffs a candidate ingest against a named baseline with pass/fail
  thresholds.

The CLI front-ends are ``python -m repro {ingest,query,report,eval}``.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.analytics.evals": (
        "DEFAULT_THRESHOLDS",
        "EVAL_HEADERS",
        "REPORT_HEADERS",
        "EvalReport",
        "MetricComparison",
        "Threshold",
        "build_comparison_report",
        "parse_threshold",
        "relative_delta",
        "run_regression_eval",
    ),
    "repro.analytics.query": (
        "DEFAULT_GROUP_BY",
        "DEFAULT_METRICS",
        "QueryResult",
        "filter_mask",
        "parse_where",
        "run_query",
    ),
    "repro.analytics.schema": (
        "TABLES",
        "WAREHOUSE_SCHEMA_VERSION",
        "bench_rows_from_record",
        "metrics_rows_from_snapshot",
        "round_rows_from_golden",
        "round_rows_from_result",
        "run_row_from_golden",
        "run_row_from_result",
        "run_rows_from_experiment",
        "table_schema",
    ),
    "repro.analytics.warehouse": (
        "BACKENDS",
        "NumpyBackend",
        "ParquetBackend",
        "Warehouse",
        "get_backend",
        "have_pyarrow",
    ),
    "repro.defaults": ("AGGREGATIONS", "DEFAULT_WAREHOUSE_ROOT"),
}

__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
