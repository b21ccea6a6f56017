"""Equivalence and regression tests for the vectorised round-engine path.

The batched engine must agree with the scalar oracle (``scalar_engine.py``:
`estimate_device` / `execute`) within 1e-9 across randomised fleets, execution targets
and runtime conditions — these property-style tests are what lets every future perf
change to the array path be validated mechanically.
"""

import numpy as np
import pytest

from repro.devices.device import ExecutionTarget, RoundConditions
from repro.devices.energy import DeviceEnergy
from repro.devices.fleet_arrays import PROCESSOR_CODES, RoundConditionsArrays
from repro.exceptions import SimulationError
from repro.sim.context import SelectionDecision
from repro.sim.results import DeviceRoundOutcome
from repro.sim.round_engine import RoundEngine
from repro.sim.scenarios import ScenarioSpec, build_environment
from scalar_engine import ScalarRoundEngine, straggler_deadline

REL_TOL = 1e-9


def _random_environment(rng):
    spec = ScenarioSpec(
        workload=str(rng.choice(["cnn-mnist", "lstm-shakespeare", "mobilenet-imagenet"])),
        setting=str(rng.choice(["S1", "S2", "S3", "S4"])),
        interference=str(rng.choice(["none", "moderate", "heavy"])),
        network=str(rng.choice(["stable", "variable", "weak"])),
        data_distribution=str(rng.choice(["iid", "non_iid_50"])),
        num_devices=int(rng.integers(20, 60)),
        seed=int(rng.integers(0, 10_000)),
    )
    return build_environment(spec)


def _random_decision(environment, rng):
    num_participants = int(rng.integers(4, min(16, len(environment.fleet)) + 1))
    participants = [
        int(device_id)
        for device_id in rng.choice(
            environment.fleet.device_ids, size=num_participants, replace=False
        )
    ]
    targets = {}
    for device_id in participants:
        if rng.random() < 0.3:
            continue  # Exercise the default-target fallback too.
        device = environment.fleet[device_id]
        processor = str(rng.choice(["cpu", "gpu"]))
        spec = device.spec.processor(processor)
        targets[device_id] = ExecutionTarget(
            processor=processor, vf_step=int(rng.integers(0, spec.num_vf_steps))
        )
    return SelectionDecision(participants=participants, targets=targets)


def _assert_outcomes_match(scalar, batch):
    assert set(scalar.outcomes) == set(batch.outcomes)
    assert batch.round_time_s == pytest.approx(scalar.round_time_s, rel=REL_TOL)
    for device_id, expected in scalar.outcomes.items():
        actual = batch.outcomes[device_id]
        assert actual.target == expected.target
        assert actual.dropped == expected.dropped
        assert actual.compute_time_s == pytest.approx(expected.compute_time_s, rel=REL_TOL)
        assert actual.communication_time_s == pytest.approx(
            expected.communication_time_s, rel=REL_TOL
        )
        assert actual.energy.compute_j == pytest.approx(expected.energy.compute_j, rel=REL_TOL)
        assert actual.energy.communication_j == pytest.approx(
            expected.energy.communication_j, rel=REL_TOL
        )
        assert actual.energy.idle_j == pytest.approx(
            expected.energy.idle_j, rel=REL_TOL, abs=1e-12
        )
    assert set(scalar.energy.per_device) == set(batch.energy.per_device)
    for device_id, expected_energy in scalar.energy.per_device.items():
        assert batch.energy.device(device_id).total_j == pytest.approx(
            expected_energy.total_j, rel=REL_TOL, abs=1e-12
        )
    assert batch.energy.global_j == pytest.approx(scalar.energy.global_j, rel=REL_TOL)


class TestEstimateBatchEquivalence:
    @pytest.mark.parametrize("trial", range(8))
    def test_matches_scalar_reference(self, trial):
        rng = np.random.default_rng(100 + trial)
        environment = _random_environment(rng)
        engine = ScalarRoundEngine(environment)
        decision = _random_decision(environment, rng)
        conditions = environment.sample_condition_arrays().to_mapping(
            environment.fleet.device_ids
        )
        arrays = environment.fleet_arrays
        rows = arrays.rows_for(decision.participants)
        processors = np.array(
            [
                PROCESSOR_CODES[
                    decision.target_for(
                        device_id, environment.fleet[device_id].default_target()
                    ).processor
                ]
                for device_id in decision.participants
            ],
            dtype=np.int64,
        )
        vf_steps = np.array(
            [
                decision.target_for(
                    device_id, environment.fleet[device_id].default_target()
                ).vf_step
                for device_id in decision.participants
            ],
            dtype=np.int64,
        )
        estimates = engine.estimate_batch(
            rows,
            processors,
            vf_steps,
            RoundConditionsArrays.from_mapping(decision.participants, conditions),
        )
        for i, device_id in enumerate(decision.participants):
            device = environment.fleet[device_id]
            target = decision.target_for(device_id, device.default_target())
            expected = engine.estimate_device(device, target, conditions[device_id])
            assert estimates.compute_time_s[i] == pytest.approx(
                expected.compute_time_s, rel=REL_TOL
            )
            assert estimates.communication_time_s[i] == pytest.approx(
                expected.communication_time_s, rel=REL_TOL
            )
            assert estimates.compute_j[i] == pytest.approx(
                expected.energy.compute_j, rel=REL_TOL
            )
            assert estimates.communication_j[i] == pytest.approx(
                expected.energy.communication_j, rel=REL_TOL
            )


class TestExecuteBatchEquivalence:
    @pytest.mark.parametrize("trial", range(8))
    def test_matches_scalar_execute(self, trial):
        rng = np.random.default_rng(2_000 + trial)
        environment = _random_environment(rng)
        engine = ScalarRoundEngine(environment)
        decision = _random_decision(environment, rng)
        arrays = environment.sample_condition_arrays()
        scalar = engine.execute(decision, arrays.to_mapping(environment.fleet.device_ids))
        batch = engine.execute_batch(decision, arrays)
        assert batch.participant_ids == scalar.participant_ids
        assert batch.dropped_ids == scalar.dropped_ids
        assert batch.participant_energy_j == pytest.approx(
            scalar.participant_energy_j, rel=REL_TOL
        )
        assert batch.global_energy_j == pytest.approx(scalar.energy.global_j, rel=REL_TOL)
        _assert_outcomes_match(scalar, batch.to_execution())

    def test_straggler_truncation_matches(self, small_environment):
        engine = ScalarRoundEngine(small_environment)
        device_ids = small_environment.fleet.device_ids
        conditions = {
            device_id: RoundConditions(bandwidth_mbps=90.0) for device_id in device_ids
        }
        straggler = device_ids[0]
        conditions[straggler] = RoundConditions(bandwidth_mbps=3.0, co_cpu_util=0.9)
        decision = SelectionDecision(participants=device_ids[:8])
        scalar = engine.execute(decision, conditions)
        batch = engine.execute_batch(
            decision, RoundConditionsArrays.from_mapping(device_ids, conditions)
        )
        assert straggler in scalar.dropped_ids
        assert batch.dropped_ids == scalar.dropped_ids
        _assert_outcomes_match(scalar, batch.to_execution())


class TestMissingConditions:
    def test_scalar_execute_raises_with_device_id(self, small_environment):
        engine = ScalarRoundEngine(small_environment)
        participants = small_environment.fleet.device_ids[:4]
        conditions = {
            device_id: RoundConditions() for device_id in participants[:-1]
        }
        with pytest.raises(SimulationError, match=str(participants[-1])):
            engine.execute(SelectionDecision(participants=participants), conditions)

    def test_batch_execute_raises_with_device_id(self, small_environment):
        # The batch engine takes fleet-order arrays: arrays that stop short of the
        # fleet's last device are refused, even when no participant falls past them.
        engine = RoundEngine(small_environment)
        num_devices = len(small_environment.fleet)
        short = small_environment.sample_condition_arrays().take(np.arange(num_devices - 1))
        participants = small_environment.fleet.device_ids[:4]
        with pytest.raises(SimulationError, match="cover every device"):
            engine.execute_batch(SelectionDecision(participants=participants), short)


class _ZeroTimeEngine(ScalarRoundEngine):
    """Engine whose every estimate is instantaneous — the degenerate deadline case."""

    def estimate_device(self, device, target, conditions):
        return DeviceRoundOutcome(
            device_id=device.device_id,
            target=target,
            compute_time_s=0.0,
            communication_time_s=0.0,
            energy=DeviceEnergy(),
        )


class TestDegenerateStragglerDeadline:
    def test_deadline_guard_values(self):
        assert straggler_deadline(np.array([1.0, 2.0, 3.0]), 2.5) == pytest.approx(5.0)
        # Median zero but some activity: the slowest participant sets the deadline.
        assert straggler_deadline(np.array([0.0, 0.0, 0.0, 4.0]), 2.5) == pytest.approx(4.0)
        # Every outcome time zero: infinite deadline instead of the degenerate 0.0.
        assert straggler_deadline(np.array([0.0, 0.0]), 2.5) == np.inf

    def test_all_zero_times_drop_nothing(self, small_environment):
        engine = _ZeroTimeEngine(small_environment)
        decision = SelectionDecision(participants=small_environment.fleet.device_ids[:5])
        conditions = {
            device_id: RoundConditions()
            for device_id in small_environment.fleet.device_ids
        }
        execution = engine.execute(decision, conditions)
        assert execution.dropped_ids == []
        assert execution.round_time_s == 0.0
        assert np.isfinite(execution.energy.global_j)
        for outcome in execution.outcomes.values():
            assert outcome.compute_time_s == 0.0
            assert np.isfinite(outcome.energy.total_j)
