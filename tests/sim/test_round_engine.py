"""Tests for the round execution engine (time, energy, stragglers)."""

import numpy as np
import pytest

from repro.devices.device import ExecutionTarget, RoundConditions
from repro.devices.fleet_arrays import PROC_GPU, PROCESSOR_CODES, RoundConditionsArrays
from repro.exceptions import SimulationError
from repro.sim.context import SelectionDecision
from repro.sim.round_engine import RoundEngine


@pytest.fixture
def engine(small_environment):
    return RoundEngine(small_environment)


@pytest.fixture
def clean_conditions(small_environment):
    num_devices = len(small_environment.fleet)
    return RoundConditionsArrays(
        co_cpu_util=np.zeros(num_devices),
        co_mem_util=np.zeros(num_devices),
        bandwidth_mbps=np.full(num_devices, 90.0),
    )


def _decision(environment, count=6):
    return SelectionDecision(participants=environment.fleet.device_ids[:count])


def _estimate(engine, environment, target=None, conditions=None):
    """The engine's estimate for the fleet's first device alone, as scalars."""
    device = environment.fleet.devices[0]
    target = target if target is not None else device.default_target()
    conditions = conditions if conditions is not None else RoundConditions()
    estimates = engine.estimate_batch(
        environment.fleet_arrays.rows_for([device.device_id]),
        np.array([PROCESSOR_CODES[target.processor]]),
        np.array([target.vf_step]),
        RoundConditionsArrays.from_mapping([device.device_id], {device.device_id: conditions}),
    )
    return {
        "compute_time_s": float(estimates.compute_time_s[0]),
        "communication_time_s": float(estimates.communication_time_s[0]),
        "compute_j": float(estimates.compute_j[0]),
        "communication_j": float(estimates.communication_j[0]),
    }


class TestEstimateDevice:
    def test_positive_times_and_energy(self, engine, small_environment):
        outcome = _estimate(engine, small_environment)
        assert outcome["compute_time_s"] > 0
        assert outcome["communication_time_s"] > 0
        assert outcome["compute_j"] > 0
        assert outcome["communication_j"] > 0

    def test_interference_increases_cpu_time(self, engine, small_environment):
        clean = _estimate(engine, small_environment)
        congested = _estimate(
            engine,
            small_environment,
            conditions=RoundConditions(co_cpu_util=0.8, co_mem_util=0.6),
        )
        assert congested["compute_time_s"] > clean["compute_time_s"]

    def test_gpu_less_affected_by_interference(self, engine, small_environment):
        device = small_environment.fleet.devices[0]
        gpu_target = ExecutionTarget("gpu", device.spec.gpu.num_vf_steps - 1)
        conditions = RoundConditions(co_cpu_util=0.8, co_mem_util=0.6)
        clean_gpu = _estimate(engine, small_environment, gpu_target)
        congested_gpu = _estimate(engine, small_environment, gpu_target, conditions)
        clean_cpu = _estimate(engine, small_environment)
        congested_cpu = _estimate(engine, small_environment, conditions=conditions)
        gpu_penalty = congested_gpu["compute_time_s"] / clean_gpu["compute_time_s"]
        cpu_penalty = congested_cpu["compute_time_s"] / clean_cpu["compute_time_s"]
        assert gpu_penalty < cpu_penalty

    def test_weak_bandwidth_increases_communication(self, engine, small_environment):
        strong = _estimate(
            engine, small_environment, conditions=RoundConditions(bandwidth_mbps=90.0)
        )
        weak = _estimate(
            engine, small_environment, conditions=RoundConditions(bandwidth_mbps=15.0)
        )
        assert weak["communication_time_s"] > 3 * strong["communication_time_s"]
        assert weak["communication_j"] > strong["communication_j"]


class TestExecute:
    def test_round_time_is_slowest_retained_participant(
        self, engine, small_environment, clean_conditions
    ):
        batch = engine.execute_batch(_decision(small_environment), clean_conditions)
        retained = ~batch.dropped & ~batch.failed
        assert batch.round_time_s == pytest.approx(float(batch.total_time_s[retained].max()))

    def test_every_device_has_an_energy_record(
        self, engine, small_environment, clean_conditions
    ):
        batch = engine.execute_batch(_decision(small_environment), clean_conditions)
        execution = batch.to_execution()
        assert set(execution.energy.per_device) == set(small_environment.fleet.device_ids)

    def test_non_participants_only_idle(self, engine, small_environment, clean_conditions):
        decision = _decision(small_environment)
        execution = engine.execute_batch(decision, clean_conditions).to_execution()
        for device_id in small_environment.fleet.device_ids:
            energy = execution.energy.device(device_id)
            if device_id in decision.participants:
                assert energy.active_j > 0
            else:
                assert energy.active_j == 0
                assert energy.idle_j > 0

    def test_global_energy_exceeds_participant_energy(
        self, engine, small_environment, clean_conditions
    ):
        batch = engine.execute_batch(_decision(small_environment), clean_conditions)
        assert batch.global_energy_j > batch.participant_energy_j

    def test_straggler_dropped_under_extreme_conditions(self, engine, small_environment):
        decision = _decision(small_environment, count=8)
        device_ids = small_environment.fleet.device_ids
        conditions = {device_id: RoundConditions(bandwidth_mbps=90.0) for device_id in device_ids}
        straggler = decision.participants[0]
        conditions[straggler] = RoundConditions(bandwidth_mbps=3.0, co_cpu_util=0.9)
        batch = engine.execute_batch(
            decision, RoundConditionsArrays.from_mapping(device_ids, conditions)
        )
        assert straggler in batch.dropped_ids
        assert straggler not in batch.participant_ids
        # The dropped straggler still consumed (truncated) energy.
        assert batch.compute_j[0] + batch.communication_j[0] > 0

    def test_custom_targets_respected(self, engine, small_environment, clean_conditions):
        participants = small_environment.fleet.device_ids[:3]
        targets = {}
        for device_id in participants:
            device = small_environment.fleet[device_id]
            targets[device_id] = ExecutionTarget("gpu", device.spec.gpu.num_vf_steps - 1)
        decision = SelectionDecision(participants=participants, targets=targets)
        batch = engine.execute_batch(decision, clean_conditions)
        assert np.all(batch.processors == PROC_GPU)
        for device_id in participants:
            assert batch.to_execution().outcomes[device_id].target.processor == "gpu"

    def test_empty_selection_rejected(self, engine, clean_conditions):
        with pytest.raises(SimulationError):
            engine.execute_batch(SelectionDecision(participants=[]), clean_conditions)

    def test_invalid_cutoff_rejected(self, small_environment):
        with pytest.raises(SimulationError):
            RoundEngine(small_environment, straggler_cutoff=1.0)
