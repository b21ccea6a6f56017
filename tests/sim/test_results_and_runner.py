"""Tests for result containers and the simulation runner."""

import math

import pytest

from repro.core.selection import RandomPolicy
from repro.devices.device import ExecutionTarget
from repro.exceptions import SimulationError
from repro.sim.context import SelectionDecision
from repro.sim.results import RoundRecord, SimulationResult
from repro.sim.runner import FLSimulation
from repro.sim.scenarios import build_surrogate_backend


def _record(index, accuracy, round_time=2.0, participant=50.0, global_j=80.0):
    return RoundRecord(
        round_index=index,
        selected_ids=(0, 1),
        dropped_ids=(),
        targets={0: ExecutionTarget("cpu", 1)},
        round_time_s=round_time,
        participant_energy_j=participant,
        global_energy_j=global_j,
        accuracy=accuracy,
        accuracy_improvement=0.01,
    )


class TestSimulationResult:
    def test_aggregates(self):
        result = SimulationResult("random", "cnn-mnist", 0.95)
        result.append(_record(0, 0.5))
        result.append(_record(1, 0.9, round_time=3.0))
        assert result.num_rounds == 2
        assert result.final_accuracy == pytest.approx(0.9)
        assert result.total_time_s == pytest.approx(5.0)
        assert result.total_global_energy_j == pytest.approx(160.0)
        assert result.mean_round_time_s == pytest.approx(2.5)
        assert result.accuracy_history == [0.5, 0.9]

    def test_totals_and_summary_sum_left_to_right(self):
        # One dominant term per series and small terms below half its ULP: a
        # left-to-right sum drops them, a compensated sum (math.fsum, or the built-in sum
        # from Python 3.12 on) keeps them, so the two give different bits.
        def series(scale):
            return [scale] + [scale * 1e-16] * 10

        def left_to_right(values):
            total = 0.0
            for value in values:
                total += value
            return total

        times, participant, global_j = series(1.0), series(1024.0), series(4096.0)
        result = SimulationResult("random", "cnn-mnist", 0.95)
        for index in range(len(times)):
            result.append(
                _record(index, 0.5, times[index], participant[index], global_j[index])
            )
        result.converged_round = 8
        summary = result.summary()
        for values, total, converged_total in (
            (times, result.total_time_s, summary.convergence_time_s),
            (participant, result.total_participant_energy_j, summary.participant_energy_j),
            (global_j, result.total_global_energy_j, summary.global_energy_j),
        ):
            assert math.fsum(values) != left_to_right(values)
            assert math.fsum(values[:9]) != left_to_right(values[:9])
            assert total == left_to_right(values)
            assert converged_total == left_to_right(values[:9])
        assert summary.total_time_s == left_to_right(times)

    def test_summary_truncates_at_convergence(self):
        result = SimulationResult("random", "cnn-mnist", 0.95)
        for index, accuracy in enumerate([0.5, 0.96, 0.97, 0.97]):
            result.append(_record(index, accuracy))
        result.converged_round = 1
        summary = result.summary()
        assert summary.converged
        assert summary.convergence_round == 1
        assert summary.convergence_time_s == pytest.approx(4.0)
        assert summary.global_energy_j == pytest.approx(160.0)
        assert summary.total_time_s == pytest.approx(8.0)

    def test_summary_without_convergence_uses_all_rounds(self):
        result = SimulationResult("random", "cnn-mnist", 0.95)
        result.append(_record(0, 0.5))
        summary = result.summary()
        assert not summary.converged
        assert summary.convergence_time_s == pytest.approx(2.0)

    def test_empty_result_raises(self):
        with pytest.raises(SimulationError):
            SimulationResult("random", "cnn-mnist", 0.95).summary()

    def test_selection_history(self):
        result = SimulationResult("random", "cnn-mnist", 0.95)
        result.append(_record(0, 0.5))
        assert result.selection_history() == [(0, 1)]


class TestFLSimulation:
    def test_run_round_produces_consistent_record(self, small_environment, small_backend):
        simulation = FLSimulation(
            small_environment, RandomPolicy(), small_backend, max_rounds=5
        )
        record = simulation.run_round(0)
        assert len(record.selected_ids) == small_environment.global_params.num_participants
        assert record.round_time_s > 0
        assert record.global_energy_j > record.participant_energy_j > 0
        assert 0.0 <= record.accuracy <= 1.0

    def test_run_stops_at_convergence(self, small_environment, small_backend):
        simulation = FLSimulation(
            small_environment,
            RandomPolicy(),
            small_backend,
            max_rounds=200,
            target_accuracy=0.5,
        )
        result = simulation.run()
        assert result.converged_round is not None
        assert result.num_rounds == result.converged_round + 1
        assert result.final_accuracy >= 0.5

    def test_run_respects_max_rounds(self, small_environment):
        backend = build_surrogate_backend(small_environment)
        simulation = FLSimulation(
            small_environment,
            RandomPolicy(),
            backend,
            max_rounds=3,
            target_accuracy=0.999,
        )
        result = simulation.run()
        assert result.num_rounds == 3
        assert result.converged_round is None

    def test_stop_at_convergence_disabled(self, small_environment):
        backend = build_surrogate_backend(small_environment)
        simulation = FLSimulation(
            small_environment,
            RandomPolicy(),
            backend,
            max_rounds=30,
            target_accuracy=0.3,
            stop_at_convergence=False,
        )
        result = simulation.run()
        assert result.num_rounds == 30
        assert result.converged_round is not None

    def test_policy_selecting_nothing_is_an_error(self, small_environment, small_backend):
        class EmptyPolicy(RandomPolicy):
            name = "empty"

            def select(self, ctx):
                return SelectionDecision(participants=[])

        simulation = FLSimulation(small_environment, EmptyPolicy(), small_backend, max_rounds=2)
        with pytest.raises(SimulationError):
            simulation.run_round(0)

    def test_invalid_max_rounds(self, small_environment, small_backend):
        with pytest.raises(SimulationError):
            FLSimulation(small_environment, RandomPolicy(), small_backend, max_rounds=0)

    def test_target_accuracy_default_from_workload(self, small_environment, small_backend):
        simulation = FLSimulation(small_environment, RandomPolicy(), small_backend)
        assert simulation.target_accuracy == pytest.approx(
            min(
                small_environment.workload.target_accuracy,
                small_environment.config.target_accuracy,
            )
        )
