"""Tests for the invariant checkers: clean runs audit green, corruption is caught."""

import dataclasses

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.experiments.runner import build_simulation
from repro.experiments.spec import ExperimentSpec
from repro.sim import replicated
from repro.sim.context import SelectionDecision
from repro.sim.results import RoundRecord
from repro.sim.round_engine import RoundEngine
from repro.sim.scenarios import ScenarioSpec
from repro.validation.invariants import (
    InvariantAuditor,
    InvariantViolation,
    ValidationReport,
    check_batch_execution,
    check_round_record,
    check_simulation_result,
)

FLAKY = ExperimentSpec(
    scenario=ScenarioSpec(
        num_devices=30,
        max_rounds=6,
        seed=5,
        setting="S4",
        availability="bernoulli",
        dropout_rate=0.2,
        slow_fault_rate=0.1,
    ),
    policy="autofl",
    stop_at_convergence=False,
)


def _record(**overrides) -> RoundRecord:
    base = dict(
        round_index=0,
        selected_ids=(1, 2, 3),
        dropped_ids=(2,),
        targets={},
        round_time_s=10.0,
        participant_energy_j=50.0,
        global_energy_j=80.0,
        accuracy=0.5,
        accuracy_improvement=0.1,
        failed_ids=(3,),
        num_online=10,
    )
    base.update(overrides)
    return RoundRecord(**base)


class TestCheckBatchExecution:
    """The vectorised engine's real output must satisfy every identity; hand-corrupted
    copies must not."""

    @pytest.fixture
    def batch(self, small_environment):
        engine = RoundEngine(small_environment)
        arrays = small_environment.sample_condition_arrays()
        decision = SelectionDecision(participants=small_environment.fleet.device_ids[:8])
        return engine.execute_batch(decision, arrays)

    def test_clean_execution_has_no_violations(self, batch):
        assert check_batch_execution(batch) == []

    def test_corrupted_round_time_detected(self, batch):
        batch.round_time_s = batch.round_time_s * 2
        names = {violation.invariant for violation in check_batch_execution(batch)}
        assert "round-time" in names

    def test_idle_energy_on_selected_row_detected(self, batch):
        rows = np.isin(batch.fleet_device_ids, batch.selected_ids)
        batch.idle_j[rows] = 1.0
        names = {violation.invariant for violation in check_batch_execution(batch)}
        assert "idle-accounting" in names

    def test_negative_energy_detected(self, batch):
        batch.compute_j[0] = -1.0
        names = {violation.invariant for violation in check_batch_execution(batch)}
        assert "finite-nonnegative" in names

    def test_offline_idle_energy_detected(self, batch):
        online_mask = np.ones(len(batch.fleet_device_ids), dtype=bool)
        offline_row = len(online_mask) - 1  # Not among the selected first 8 rows.
        online_mask[offline_row] = False
        batch.idle_j[offline_row] = 3.0
        names = {
            violation.invariant
            for violation in check_batch_execution(batch, online_mask=online_mask)
        }
        assert "offline-idle" in names

    def test_selection_exceeding_online_population_detected(self, batch):
        online_mask = np.zeros(len(batch.fleet_device_ids), dtype=bool)
        online_mask[:2] = True  # Only 2 online, 8 selected.
        batch.idle_j[:] = 0.0  # Isolate the selection-bound invariant.
        names = {
            violation.invariant
            for violation in check_batch_execution(batch, online_mask=online_mask)
        }
        assert "selection-bound" in names

    def test_failed_participant_transmitting_detected(self, batch):
        batch.failed[0] = True
        batch.communication_j[0] = 5.0
        names = {violation.invariant for violation in check_batch_execution(batch)}
        assert "failure-semantics" in names

    def test_misrouted_fleet_rows_detected(self, batch):
        # The global total places each participant's energy at its fleet row.
        batch.rows[[0, 1]] = batch.rows[[1, 0]]
        names = {violation.invariant for violation in check_batch_execution(batch)}
        assert names == {"energy-accounting"}

    def test_global_energy_off_the_idle_plus_participant_sum_detected(self, batch):
        assert batch.global_energy_j > 0  # Summed (and cached) before the change.
        idle_row = len(batch.fleet_device_ids) - 1  # Not among the selected first 8 rows.
        batch.idle_j[idle_row] += 1.0
        names = {violation.invariant for violation in check_batch_execution(batch)}
        assert names == {"energy-accounting"}


class TestCheckRoundRecord:
    def test_consistent_record_passes(self):
        assert check_round_record(_record()) == []

    def test_dropped_failed_overlap_detected(self):
        violations = check_round_record(_record(dropped_ids=(2, 3)))
        assert {violation.invariant for violation in violations} == {"id-partition"}

    def test_accuracy_out_of_range_detected(self):
        violations = check_round_record(_record(accuracy=1.5))
        assert {violation.invariant for violation in violations} == {"metric-range"}

    def test_participant_energy_above_global_detected(self):
        violations = check_round_record(_record(participant_energy_j=100.0))
        assert {violation.invariant for violation in violations} == {"energy-accounting"}

    def test_selection_above_online_population_detected(self):
        violations = check_round_record(_record(num_online=2))
        assert {violation.invariant for violation in violations} == {"selection-bound"}

    def test_online_above_fleet_size_detected(self):
        violations = check_round_record(_record(num_online=10), num_devices=5)
        assert {violation.invariant for violation in violations} == {"selection-bound"}


class TestCheckSimulationResult:
    def test_real_trajectory_passes(self):
        result = build_simulation(FLAKY).run()
        assert check_simulation_result(result, num_devices=30) == []

    def test_out_of_order_rounds_detected(self):
        result = build_simulation(FLAKY).run()
        result.records.reverse()
        names = {
            violation.invariant for violation in check_simulation_result(result)
        }
        assert "trajectory" in names

    def test_bad_converged_round_detected(self):
        result = build_simulation(FLAKY).run()
        result.converged_round = 999
        names = {
            violation.invariant for violation in check_simulation_result(result)
        }
        assert "trajectory" in names

    def test_empty_result_detected(self):
        result = build_simulation(FLAKY).run()
        result.records = []
        assert check_simulation_result(result)


class TestInvariantAuditor:
    def test_audits_every_round_of_a_dynamic_run(self):
        auditor = InvariantAuditor(num_devices=30)
        result = build_simulation(FLAKY, round_observer=auditor).run()
        report = auditor.audit_result(result)
        assert report.ok
        assert report.rounds_checked == FLAKY.scenario.max_rounds
        assert report.results_checked == 1

    def test_a_corrupted_record_is_reported_once(self, monkeypatch):
        # The round hook and the end-of-run audit both see this corrupted record.
        build_record = replicated._record_from_batch

        def corrupting(round_index, *args):
            record = build_record(round_index, *args)
            if round_index == 1:
                record = dataclasses.replace(record, accuracy=record.accuracy + 2.0)
            return record

        monkeypatch.setattr(replicated, "_record_from_batch", corrupting)
        auditor = InvariantAuditor(num_devices=30)
        result = build_simulation(FLAKY, round_observer=auditor).run()
        report = auditor.audit_result(result)
        assert [(v.invariant, v.round_index) for v in report.violations] == [
            ("metric-range", 1)
        ]
        assert report.rounds_checked == FLAKY.scenario.max_rounds

    def test_static_fleet_run_audits_green_too(self):
        spec = dataclasses.replace(
            FLAKY,
            scenario=ScenarioSpec(num_devices=30, max_rounds=4, seed=2, setting="S4"),
        )
        auditor = InvariantAuditor(num_devices=30)
        result = build_simulation(spec, round_observer=auditor).run()
        assert auditor.audit_result(result).ok

    def test_raise_on_violation_aborts(self):
        report = ValidationReport()
        report.extend([InvariantViolation(invariant="x", message="boom", round_index=3)])
        with pytest.raises(ValidationError, match="boom"):
            report.raise_if_failed()

    def test_report_formats_round_and_invariant(self):
        violation = InvariantViolation(
            invariant="energy-accounting", message="off by one joule", round_index=7
        )
        assert "round 7" in str(violation)
        assert "energy-accounting" in str(violation)
