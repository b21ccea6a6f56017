"""Tests for regression evals and the cross-run comparison report."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analytics import (
    Threshold,
    Warehouse,
    build_comparison_report,
    parse_threshold,
    relative_delta,
    run_regression_eval,
)
from repro.exceptions import AnalyticsError



@pytest.fixture
def warehouse(tmp_path, make_run_row):
    """Two ingest labels over two scenarios: the candidate regresses on one metric."""
    warehouse = Warehouse(tmp_path / "wh", backend="numpy")
    rows = []
    for label, energy, accuracy in (("good", 1000.0, 0.80), ("bad", 1500.0, 0.80)):
        rows.append(
            make_run_row(
                label=label, preset="fleet-1k", policy="autofl", spec_hash="h0",
                global_energy_j=energy, final_accuracy=accuracy,
            )
        )
        rows.append(
            make_run_row(
                label=label, preset="", workload="cnn-mnist", setting="S3",
                num_devices=200.0, policy="autofl", spec_hash="h1",
                global_energy_j=1000.0, final_accuracy=accuracy,
            )
        )
    warehouse.append_rows("runs", rows)
    return warehouse


class TestThresholds:
    def test_parse_lower_is_better(self):
        threshold = parse_threshold("global_energy_j=5")
        assert threshold == Threshold("global_energy_j", 0.05)
        assert threshold.passes(100.0, 104.0)
        assert not threshold.passes(100.0, 106.0)

    def test_parse_higher_is_better(self):
        threshold = parse_threshold("final-accuracy=+1")
        assert threshold == Threshold("final_accuracy", 0.01, higher_is_better=True)
        assert threshold.passes(0.80, 0.795)
        assert not threshold.passes(0.80, 0.78)

    def test_malformed_threshold_raises(self):
        for text in ("global_energy_j", "x=abc", "x=-5"):
            with pytest.raises(AnalyticsError):
                parse_threshold(text)

    def test_relative_delta_is_zero_safe(self):
        assert relative_delta(0.0, 0.0) == 0.0
        assert relative_delta(100.0, 110.0) == pytest.approx(0.10)


class TestRegressionEval:
    def test_regressed_metric_fails_the_eval(self, warehouse):
        report = run_regression_eval(
            warehouse, baseline="good", candidate="bad",
            thresholds=[Threshold("global_energy_j", 0.05)],
        )
        assert not report.ok
        (failure,) = report.failures
        assert failure.scenario == "fleet-1k"
        assert failure.delta_rel == pytest.approx(0.5)
        assert "FAILED" in report.format()

    def test_within_threshold_passes(self, warehouse):
        report = run_regression_eval(
            warehouse, baseline="good", candidate="bad",
            thresholds=[Threshold("final_accuracy", 0.01, higher_is_better=True)],
        )
        assert report.ok
        assert len(report.comparisons) == 2
        assert "eval OK" in report.format()

    def test_presetless_scenarios_get_composed_names(self, warehouse):
        report = run_regression_eval(
            warehouse, baseline="good", candidate="bad",
            thresholds=[Threshold("final_accuracy", 0.01, higher_is_better=True)],
        )
        assert {c.scenario for c in report.comparisons} == {
            "fleet-1k", "cnn-mnist/S3/N200"
        }

    def test_missing_scenario_fails_the_eval(self, tmp_path, make_run_row):
        warehouse = Warehouse(tmp_path / "wh", backend="numpy")
        warehouse.append_rows(
            "runs",
            [
                make_run_row(label="base", preset="fleet-1k", spec_hash="h0"),
                make_run_row(label="base", preset="churn-heavy", spec_hash="h1"),
                make_run_row(label="cand", preset="fleet-1k", spec_hash="h0"),
            ],
        )
        report = run_regression_eval(warehouse, baseline="base", candidate="cand")
        assert not report.ok
        assert report.missing == [("churn-heavy", "autofl")]
        assert "MISSING" in report.format()

    def test_suite_restricts_and_validates(self, warehouse):
        report = run_regression_eval(
            warehouse, baseline="good", candidate="bad", suite=["fleet-1k"],
            thresholds=[Threshold("final_accuracy", 0.01, higher_is_better=True)],
        )
        assert {c.scenario for c in report.comparisons} == {"fleet-1k"}
        with pytest.raises(AnalyticsError, match="no baseline rows"):
            run_regression_eval(warehouse, baseline="good", candidate="bad",
                                suite=["fleet-10k"])

    def test_unknown_label_raises_with_known_labels(self, warehouse):
        with pytest.raises(AnalyticsError, match="ingested labels"):
            run_regression_eval(warehouse, baseline="nonexistent", candidate="bad")

    def test_nan_metrics_are_skipped_not_compared(self, tmp_path, make_run_row):
        warehouse = Warehouse(tmp_path / "wh", backend="numpy")
        warehouse.append_rows(
            "runs",
            [
                make_run_row(label="base", total_straggler_drops=float("nan")),
                make_run_row(label="cand", total_straggler_drops=float("nan")),
            ],
        )
        report = run_regression_eval(
            warehouse, baseline="base", candidate="cand",
            thresholds=[Threshold("total_straggler_drops", 0.05)],
        )
        assert report.ok and report.comparisons == []

    def test_no_thresholds_raises(self, warehouse):
        with pytest.raises(AnalyticsError, match="at least one threshold"):
            run_regression_eval(warehouse, baseline="good", thresholds=[])

    def test_to_dict_round_trips_to_json(self, warehouse):
        import json

        report = run_regression_eval(
            warehouse, baseline="good", candidate="bad",
            thresholds=[Threshold("global_energy_j", 0.05)],
        )
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["kind"] == "regression-eval-report"
        assert payload["ok"] is False
        assert payload["comparisons"][0]["metric"] == "global_energy_j"


class TestComparisonReport:
    def test_energy_and_time_normalise_to_baseline_policy(self, tmp_path, make_run_row):
        warehouse = Warehouse(tmp_path / "wh", backend="numpy")
        warehouse.append_rows(
            "runs",
            [
                make_run_row(policy="fedavg-random", spec_hash="h0",
                             global_energy_j=1000.0, total_time_s=100.0),
                make_run_row(policy="autofl", spec_hash="h1",
                             global_energy_j=800.0, total_time_s=50.0),
            ],
        )
        headers, rows = build_comparison_report(warehouse)
        assert "energy vs baseline" in headers
        by_policy = {row[1]: row for row in rows}
        assert by_policy["autofl"][4] == pytest.approx(0.8)
        assert by_policy["autofl"][5] == pytest.approx(0.5)
        assert by_policy["fedavg-random"][4] == pytest.approx(1.0)

    def test_missing_baseline_policy_yields_nan_ratios(self, tmp_path, make_run_row):
        warehouse = Warehouse(tmp_path / "wh", backend="numpy")
        warehouse.append_rows("runs", [make_run_row(policy="autofl")])
        _headers, rows = build_comparison_report(warehouse)
        (row,) = rows
        assert np.isnan(row[4]) and np.isnan(row[5])

    def test_empty_filter_raises(self, tmp_path, make_run_row):
        warehouse = Warehouse(tmp_path / "wh", backend="numpy")
        warehouse.append_rows("runs", [make_run_row()])
        with pytest.raises(AnalyticsError, match="no ingested runs match"):
            build_comparison_report(warehouse, where={"policy": ["oracle"]})
