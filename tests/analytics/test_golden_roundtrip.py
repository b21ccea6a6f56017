"""Warehouse correctness against the committed golden presets.

The committed ``goldens/*.jsonl`` fixtures are bit-exact snapshots of deterministic
trajectories, so they double as ground truth for the warehouse: every query
aggregation over an ingested golden must equal the same aggregation computed
directly from the :class:`~repro.sim.results.SimulationResult` round records — on
both columnar backends, with exact ``==`` (all paths are float64 ops over the same
JSON-round-tripped doubles, so no tolerance is needed).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.analytics import Warehouse, run_query
from repro.validation.golden import GOLDEN_PRESETS, GOLDENS, golden_spec, run_trajectory

GOLDEN_DIR = Path(__file__).parents[2] / "goldens"

#: The per-round metrics the paper's figures aggregate, with every aggregation.
METRICS = (
    "round_time_s",
    "participant_energy_j",
    "global_energy_j",
    "accuracy",
    "num_dropped",
    "num_failed",
)
AGGS = ("mean", "p50", "p95", "sum", "min", "max", "count")


def _direct(values: np.ndarray, agg: str) -> float:
    """The reference aggregation, computed straight from trajectory records."""
    if agg == "count":
        return float(values.size)
    if agg == "mean":
        return float(np.mean(values))
    if agg == "p50":
        return float(np.percentile(values, 50))
    if agg == "p95":
        return float(np.percentile(values, 95))
    if agg == "sum":
        return float(np.sum(values))
    if agg == "min":
        return float(np.min(values))
    return float(np.max(values))


def _record_values(result, metric: str) -> np.ndarray:
    extract = {
        "round_time_s": lambda r: r.round_time_s,
        "participant_energy_j": lambda r: r.participant_energy_j,
        "global_energy_j": lambda r: r.global_energy_j,
        "accuracy": lambda r: r.accuracy,
        "num_dropped": lambda r: float(len(r.dropped_ids)),
        "num_failed": lambda r: float(len(r.failed_ids)),
    }[metric]
    return np.array([extract(record) for record in result.records], dtype=np.float64)


@pytest.fixture(scope="module")
def fresh_results() -> dict:
    """One fresh deterministic trajectory per committed golden."""
    return {name: run_trajectory(golden_spec(name)) for name in GOLDENS}


@pytest.fixture
def golden_warehouse(tmp_path, backend) -> Warehouse:
    warehouse = Warehouse(tmp_path / "wh", backend=backend)
    assert warehouse.ingest_goldens(GOLDEN_DIR) > 0
    return warehouse


class TestGoldenRoundtrip:
    def test_every_aggregation_is_exact(self, golden_warehouse, fresh_results):
        result = run_query(
            golden_warehouse, "rounds", group_by=("preset",), metrics=METRICS, aggs=AGGS
        )
        by_preset = {row[0]: row[1:] for row in result.rows}
        assert set(by_preset) == set(GOLDENS)
        for preset, fresh in fresh_results.items():
            cells = by_preset[preset]
            position = 0
            for metric in METRICS:
                values = _record_values(fresh, metric)
                for agg in AGGS:
                    expected = _direct(values, agg)
                    actual = cells[position]
                    assert actual == expected, (
                        f"{preset}.{metric}:{agg}: warehouse={actual!r} "
                        f"direct={expected!r}"
                    )
                    position += 1

    def test_filtered_single_preset_query_is_exact(self, golden_warehouse, fresh_results):
        preset = GOLDEN_PRESETS[0]
        result = run_query(
            golden_warehouse,
            "rounds",
            where={"preset": [preset]},
            group_by=(),
            metrics=("global_energy_j",),
            aggs=("sum",),
        )
        ((total,),) = result.rows
        assert total == float(
            np.sum(_record_values(fresh_results[preset], "global_energy_j"))
        )

    def test_golden_ingest_equals_fresh_run_ingest(self, tmp_path, backend, fresh_results):
        """A golden ingest and a fresh-run ingest of the same spec produce identical
        per-round columns (the golden files really are snapshots of the records)."""
        preset = "flaky-fleet"
        from_golden = Warehouse(tmp_path / "golden", backend=backend)
        from_golden.ingest_goldens(GOLDEN_DIR, names=[preset], label="x")
        from_run = Warehouse(tmp_path / "fresh", backend=backend)
        from_run.ingest_result(
            fresh_results[preset],
            golden_spec(preset),
            label="x",
            source="golden",
            preset=preset,
        )
        golden_columns = from_golden.table("rounds")
        run_columns = from_run.table("rounds")
        for name in golden_columns:
            golden_col, run_col = golden_columns[name], run_columns[name]
            if golden_col.dtype.kind == "U":
                assert list(golden_col) == list(run_col), name
            else:
                np.testing.assert_array_equal(golden_col, run_col, err_msg=name)

    def test_runs_summary_rows_match_trajectory_totals(self, golden_warehouse, fresh_results):
        result = run_query(
            golden_warehouse,
            "runs",
            group_by=("preset",),
            metrics=("total_time_s", "final_accuracy", "global_energy_j"),
            aggs=("mean",),
        )
        for preset, time_s, accuracy, energy in result.rows:
            fresh = fresh_results[preset]
            assert time_s == float(sum(r.round_time_s for r in fresh.records))
            assert accuracy == fresh.final_accuracy
            assert energy == float(sum(r.global_energy_j for r in fresh.records))
