"""Flat columnar schemas of the results warehouse, and the row builders that feed them.

The warehouse holds three tables, each a set of equally-long columns:

``rounds``
    One row per executed aggregation round of an ingested trajectory — the flattened
    form of :meth:`repro.sim.results.RoundRecord.to_dict` plus the run identity
    (spec hash, preset, policy, workload, seed, …).  This is the table the paper's
    cross-policy figures aggregate over.
``runs``
    One row per seed replica of an ingested run — the flattened
    :class:`~repro.fl.metrics.EfficiencySummary` plus the same identity columns.
    Store ingests (which keep summaries, not trajectories) land only here.
``bench``
    One row per measurement of a historical ``BENCH_*.json`` record (one fleet size
    of the retired round-engine bench, one backend of the retired store bench),
    carrying the recorded provenance (``git_sha``, numpy, platform) so those perf
    trajectories stay queryable across commits.

Columns are either strings or float64 numbers; missing values are ``""`` and ``NaN``
respectively, so every backend (Parquet or the ``.npz`` fallback) stores the same
shapes and the query layer can stay pure-numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

import numpy as np

from repro.exceptions import AnalyticsError

if TYPE_CHECKING:  # pragma: no cover - import-time only
    from repro.experiments.runner import ExperimentResult
    from repro.experiments.spec import ExperimentSpec
    from repro.sim.results import SimulationResult
    from repro.validation.golden import GoldenTrajectory

#: Bumped whenever a table's column set changes, so stale warehouses fail loudly.
#: v3 added the ``metrics`` table (telemetry snapshot ingest).
WAREHOUSE_SCHEMA_VERSION = 3

#: Sentinel for a missing string cell.
NULL_STR = ""


@dataclass(frozen=True)
class Column:
    """One column of a warehouse table: a name and a kind (``str`` or ``num``)."""

    name: str
    kind: str  # "str" | "num"

    def null(self) -> object:
        """The missing-value sentinel of this column."""
        return NULL_STR if self.kind == "str" else float("nan")


def _columns(*specs: tuple[str, str]) -> tuple[Column, ...]:
    return tuple(Column(name, kind) for name, kind in specs)


#: Identity columns shared by the ``rounds`` and ``runs`` tables: which run a row
#: belongs to, and the scenario axes it can be filtered/grouped by.
IDENTITY_COLUMNS: tuple[Column, ...] = _columns(
    ("label", "str"),  # ingest label; evals diff two labels
    ("source", "str"),  # run | store | golden
    ("spec_hash", "str"),
    ("spec_schema", "num"),
    ("preset", "str"),
    ("policy", "str"),
    ("workload", "str"),
    ("setting", "str"),
    ("interference", "str"),
    ("network", "str"),
    ("data_distribution", "str"),
    ("availability", "str"),
    ("num_devices", "num"),
    ("seed", "num"),
)

ROUNDS_COLUMNS: tuple[Column, ...] = IDENTITY_COLUMNS + _columns(
    ("round_index", "num"),
    ("num_selected", "num"),
    ("num_dropped", "num"),
    ("num_failed", "num"),
    ("num_aggregated", "num"),
    ("num_online", "num"),
    ("round_time_s", "num"),
    ("participant_energy_j", "num"),
    ("global_energy_j", "num"),
    ("accuracy", "num"),
    ("accuracy_improvement", "num"),
)

RUNS_COLUMNS: tuple[Column, ...] = IDENTITY_COLUMNS + _columns(
    ("converged", "num"),
    ("rounds_executed", "num"),
    ("convergence_round", "num"),
    ("convergence_time_s", "num"),
    ("total_time_s", "num"),
    ("final_accuracy", "num"),
    ("participant_energy_j", "num"),
    ("global_energy_j", "num"),
    ("total_straggler_drops", "num"),
    ("total_fault_failures", "num"),
)

BENCH_COLUMNS: tuple[Column, ...] = _columns(
    ("benchmark", "str"),
    ("timestamp", "str"),
    ("git_sha", "str"),
    ("python_version", "str"),
    ("numpy_version", "str"),
    ("platform", "str"),
    ("machine", "str"),
    ("workload", "str"),
    ("interference", "str"),
    ("network", "str"),
    ("seed", "num"),
    # Round-engine suite measurements of historical BENCH_roundengine.json records
    # (one row per fleet size).
    ("num_devices", "num"),
    ("num_participants", "num"),
    ("scalar_rounds_per_s", "num"),
    ("batch_rounds_per_s", "num"),
    ("speedup", "num"),
    ("control_plane_round_s", "num"),
    ("energy_math_round_s", "num"),
    # Seed-replication measurement (one row per record, benchmark
    # "roundengine-replication").
    ("replicates", "num"),
    ("rounds", "num"),
    ("serial_wall_s", "num"),
    ("replicated_wall_s", "num"),
    # Store-suite measurements of historical BENCH_store.json records (one row per backend).
    ("backend", "str"),
    ("entries", "num"),
    ("inserts_per_s", "num"),
    ("lookups_per_s", "num"),
    ("cold_open_s", "num"),
)

#: One row per metric series of an ingested telemetry snapshot
#: (:func:`repro.telemetry.exporter.snapshot_payload`).  Counters and gauges fill
#: ``value``; histograms fill ``count``/``sum`` and the bucket-rule quantiles.
METRICS_COLUMNS: tuple[Column, ...] = _columns(
    ("label", "str"),  # ingest label, like rounds/runs
    ("ts", "num"),  # snapshot wall-clock timestamp
    ("name", "str"),  # metric name, e.g. repro_round_time_s
    ("kind", "str"),  # counter | gauge | histogram
    ("labels", "str"),  # canonical "k=v,k=v" series labels
    ("value", "num"),
    ("count", "num"),
    ("sum", "num"),
    ("p50", "num"),
    ("p95", "num"),
    ("p99", "num"),
)

#: The warehouse tables by name.
TABLES: dict[str, tuple[Column, ...]] = {
    "rounds": ROUNDS_COLUMNS,
    "runs": RUNS_COLUMNS,
    "bench": BENCH_COLUMNS,
    "metrics": METRICS_COLUMNS,
}

#: Columns whose values identify a run, used to deduplicate re-ingests.
TABLE_KEYS: dict[str, tuple[str, ...]] = {
    "rounds": ("label", "source", "spec_hash", "seed"),
    "runs": ("label", "source", "spec_hash", "seed"),
    "bench": ("benchmark", "timestamp", "num_devices", "backend"),
    "metrics": ("label", "ts", "name", "labels"),
}


def table_schema(name: str) -> tuple[Column, ...]:
    """The column set of one table, with a did-you-mean error on unknown names."""
    try:
        return TABLES[name]
    except KeyError:
        raise AnalyticsError(
            f"unknown warehouse table {name!r}; expected one of {sorted(TABLES)}"
        ) from None


def column_kinds(name: str) -> dict[str, str]:
    """Column name -> kind mapping of one table."""
    return {column.name: column.kind for column in table_schema(name)}


# ---------------------------------------------------------------------- row builders
def identity_row(
    spec: "ExperimentSpec", label: str, source: str, preset: str | None
) -> dict:
    """The identity cells shared by every row a run contributes."""
    scenario = spec.scenario
    return {
        "label": label,
        "source": source,
        "spec_hash": spec.spec_hash(),
        "spec_schema": float(spec.to_dict()["schema"]),
        "preset": preset if preset else NULL_STR,
        "policy": spec.policy,
        "workload": scenario.workload,
        "setting": scenario.setting,
        "interference": scenario.interference,
        "network": scenario.network,
        "data_distribution": scenario.data_distribution,
        "availability": scenario.availability,
        "num_devices": float(scenario.num_devices),
        "seed": float(scenario.seed),
    }


def _num(value: object) -> float:
    return float("nan") if value is None else float(value)


def round_rows_from_result(
    result: "SimulationResult",
    spec: "ExperimentSpec",
    label: str = "default",
    source: str = "run",
    preset: str | None = None,
) -> list[dict]:
    """Flatten every :class:`~repro.sim.results.RoundRecord` of one trajectory."""
    identity = identity_row(spec, label, source, preset)
    rows = []
    for record in result.records:
        rows.append(
            {
                **identity,
                "round_index": float(record.round_index),
                "num_selected": float(len(record.selected_ids)),
                "num_dropped": float(len(record.dropped_ids)),
                "num_failed": float(len(record.failed_ids)),
                "num_aggregated": float(record.num_aggregated),
                "num_online": _num(record.num_online),
                "round_time_s": record.round_time_s,
                "participant_energy_j": record.participant_energy_j,
                "global_energy_j": record.global_energy_j,
                "accuracy": record.accuracy,
                "accuracy_improvement": record.accuracy_improvement,
            }
        )
    return rows


def run_row_from_result(
    result: "SimulationResult",
    spec: "ExperimentSpec",
    label: str = "default",
    source: str = "run",
    preset: str | None = None,
) -> dict:
    """One ``runs`` row summarising a full trajectory."""
    identity = identity_row(spec, label, source, preset)
    return {
        **identity,
        "converged": float(result.converged_round is not None),
        "rounds_executed": float(result.num_rounds),
        "convergence_round": _num(result.converged_round),
        "convergence_time_s": float(
            sum(
                record.round_time_s
                for record in result.records
                if result.converged_round is None
                or record.round_index <= result.converged_round
            )
        ),
        "total_time_s": float(result.total_time_s),
        "final_accuracy": float(result.final_accuracy),
        "participant_energy_j": float(result.total_participant_energy_j),
        "global_energy_j": float(result.total_global_energy_j),
        "total_straggler_drops": float(result.total_straggler_drops),
        "total_fault_failures": float(result.total_fault_failures),
    }


def round_rows_from_golden(golden: "GoldenTrajectory", label: str = "golden") -> list[dict]:
    """Flatten a recorded golden trajectory's per-round rows (no re-run needed).

    Golden rows carry the same per-round metrics as :func:`round_rows_from_result`
    (they are snapshots of the same :class:`~repro.sim.results.RoundRecord` fields),
    so a golden ingest and a fresh run of the same spec produce identical columns.
    """
    identity = identity_row(golden.spec, label, "golden", golden.name)
    rows = []
    for row in golden.rows:
        num_selected = float(row["num_selected"])
        num_dropped = float(row["num_dropped"])
        num_failed = float(row["num_failed"])
        rows.append(
            {
                **identity,
                "round_index": float(row["round"]),
                "num_selected": num_selected,
                "num_dropped": num_dropped,
                "num_failed": num_failed,
                "num_aggregated": num_selected - num_dropped - num_failed,
                "num_online": _num(row["num_online"]),
                "round_time_s": row["round_time_s"],
                "participant_energy_j": row["participant_energy_j"],
                "global_energy_j": row["global_energy_j"],
                "accuracy": row["accuracy"],
                "accuracy_improvement": row["accuracy_improvement"],
            }
        )
    return rows


def run_row_from_golden(golden: "GoldenTrajectory", label: str = "golden") -> dict:
    """One ``runs`` row summarising a recorded golden trajectory."""
    identity = identity_row(golden.spec, label, "golden", golden.name)
    rows = golden.rows
    return {
        **identity,
        "converged": float("nan"),  # Goldens record with stop_at_convergence=False.
        "rounds_executed": float(len(rows)),
        "convergence_round": float("nan"),
        "convergence_time_s": float("nan"),
        "total_time_s": float(sum(row["round_time_s"] for row in rows)),
        "final_accuracy": float(rows[-1]["accuracy"]) if rows else float("nan"),
        "participant_energy_j": float(sum(row["participant_energy_j"] for row in rows)),
        "global_energy_j": float(sum(row["global_energy_j"] for row in rows)),
        "total_straggler_drops": float(sum(row["num_dropped"] for row in rows)),
        "total_fault_failures": float(sum(row["num_failed"] for row in rows)),
    }


def run_rows_from_experiment(
    result: "ExperimentResult",
    label: str = "default",
    source: str = "store",
    preset: str | None = None,
) -> list[dict]:
    """One ``runs`` row per seed replica of a cached :class:`ExperimentResult`.

    Store payloads keep per-seed :class:`~repro.fl.metrics.EfficiencySummary` objects,
    not trajectories, so store ingests contribute ``runs`` rows only; the per-round
    failure totals are unknown and land as ``NaN``.
    """
    rows = []
    for unit, summary in zip(result.spec.seed_specs(), result.summaries):
        identity = identity_row(unit, label, source, preset)
        rows.append(
            {
                **identity,
                "converged": float(summary.converged),
                "rounds_executed": float(summary.rounds_executed),
                "convergence_round": _num(summary.convergence_round),
                "convergence_time_s": float(summary.convergence_time_s),
                "total_time_s": float(summary.total_time_s),
                "final_accuracy": float(summary.final_accuracy),
                "participant_energy_j": float(summary.participant_energy_j),
                "global_energy_j": float(summary.global_energy_j),
                "total_straggler_drops": float("nan"),
                "total_fault_failures": float("nan"),
            }
        )
    return rows


def bench_rows_from_record(record: Mapping) -> list[dict]:
    """Flatten one ``BENCH_*.json`` record into ``bench`` rows.

    A round-engine record contributes one row per timed fleet size and a store-suite
    record one row per backend; both suites are retired, and their records stay
    readable.  Unknown record shapes raise instead of silently ingesting unqueryable
    rows.
    """
    provenance = record.get("provenance", {}) or {}
    base = {
        "benchmark": str(record.get("benchmark", NULL_STR)),
        "timestamp": str(record.get("timestamp", NULL_STR)),
        "git_sha": str(provenance.get("git_sha") or NULL_STR),
        "python_version": str(provenance.get("python") or NULL_STR),
        "numpy_version": str(provenance.get("numpy") or NULL_STR),
        "platform": str(provenance.get("platform") or NULL_STR),
        "machine": str(provenance.get("machine") or NULL_STR),
        "workload": str(record.get("workload") or NULL_STR),
        "interference": str(record.get("interference") or NULL_STR),
        "network": str(record.get("network") or NULL_STR),
        "seed": _num(record.get("seed")),
    }
    benchmark = record.get("benchmark")
    if benchmark == "roundengine":
        rows = [
            {
                **base,
                "num_devices": _num(row.get("num_devices")),
                "num_participants": _num(row.get("num_participants")),
                "scalar_rounds_per_s": _num(row.get("scalar_rounds_per_s")),
                "batch_rounds_per_s": _num(row.get("batch_rounds_per_s")),
                "speedup": _num(row.get("speedup")),
                "control_plane_round_s": _num(row.get("control_plane_round_s")),
                "energy_math_round_s": _num(row.get("energy_math_round_s")),
            }
            for row in record.get("results", ())
        ]
        replication = record.get("replication")
        if replication:
            # A distinct benchmark name keys the replication measurement, so it never
            # collides with a fleet-size row of the same record in the dedup keys.
            rows.append(
                {
                    **base,
                    "benchmark": "roundengine-replication",
                    "num_devices": _num(replication.get("num_devices")),
                    "num_participants": _num(replication.get("num_participants")),
                    "replicates": _num(replication.get("replicates")),
                    "rounds": _num(replication.get("rounds")),
                    "serial_wall_s": _num(replication.get("serial_wall_s")),
                    "replicated_wall_s": _num(replication.get("replicated_wall_s")),
                    "speedup": _num(replication.get("speedup")),
                }
            )
        return rows
    if benchmark == "store":
        results = record.get("results", {})
        return [
            {
                **base,
                "backend": backend,
                "entries": _num(results[backend].get("entries")),
                "inserts_per_s": _num(results[backend].get("inserts_per_s")),
                "lookups_per_s": _num(results[backend].get("lookups_per_s")),
                "cold_open_s": _num(results[backend].get("cold_open_s")),
            }
            for backend in ("jsonl", "sqlite")
            if backend in results
        ]
    raise AnalyticsError(
        f"unknown bench record kind {benchmark!r}; expected 'roundengine' or 'store'"
    )


def metrics_rows_from_snapshot(
    snapshot: Mapping | list, label: str = "metrics"
) -> list[dict]:
    """Flatten a telemetry snapshot payload into ``metrics`` rows.

    Accepts the payload shape written by
    :func:`repro.telemetry.exporter.write_snapshot` (``{"schema", "ts", "metrics"}``)
    or a bare entry list as returned by
    :meth:`repro.telemetry.metrics.MetricsRegistry.snapshot`.
    """
    if isinstance(snapshot, Mapping):
        entries = snapshot.get("metrics", ())
        ts = _num(snapshot.get("ts"))
    else:
        entries = snapshot
        ts = float("nan")
    rows = []
    for entry in entries:
        labels = entry.get("labels", {})
        row = {
            "label": label,
            "ts": ts,
            "name": str(entry["name"]),
            "kind": str(entry["kind"]),
            "labels": ",".join(f"{k}={v}" for k, v in sorted(labels.items())),
        }
        if entry["kind"] == "histogram":
            row.update(
                count=float(entry["count"]),
                sum=float(entry["sum"]),
                p50=_num(entry.get("p50")),
                p95=_num(entry.get("p95")),
                p99=_num(entry.get("p99")),
            )
        else:
            row["value"] = float(entry["value"])
        rows.append(row)
    return rows


def rows_to_columns(table: str, rows: list[dict]) -> dict[str, np.ndarray]:
    """Materialise row dicts as schema-ordered numpy columns (missing cells -> null)."""
    schema = table_schema(table)
    columns: dict[str, np.ndarray] = {}
    for column in schema:
        cells = [row.get(column.name, column.null()) for row in rows]
        if column.kind == "str":
            columns[column.name] = np.array(
                [NULL_STR if cell is None else str(cell) for cell in cells], dtype=str
            )
        else:
            columns[column.name] = np.array(
                [_num(cell) for cell in cells], dtype=np.float64
            )
    return columns


def empty_columns(table: str) -> dict[str, np.ndarray]:
    """An empty (zero-row) column set of one table."""
    return rows_to_columns(table, [])
