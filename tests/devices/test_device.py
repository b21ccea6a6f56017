"""Tests for the MobileDevice abstraction and execution targets."""

import pytest

from repro.devices.device import ExecutionTarget, MobileDevice, RoundConditions
from repro.devices.performance import ComputeWorkload
from repro.devices.specs import DeviceTier, GALAXY_S10E, MI8_PRO, MOTO_X_FORCE
from repro.exceptions import DeviceError


@pytest.fixture
def device():
    return MobileDevice(device_id=3, spec=MI8_PRO, num_local_samples=300)


@pytest.fixture
def workload():
    return ComputeWorkload.for_round(45e6, 1.5e6, 300, 16, 5)


class TestExecutionTarget:
    def test_label(self):
        assert ExecutionTarget("cpu", 12).label() == "cpu@12"

    def test_invalid_processor(self):
        with pytest.raises(DeviceError):
            ExecutionTarget("npu", 0)

    def test_negative_step(self):
        with pytest.raises(DeviceError):
            ExecutionTarget("cpu", -1)


class TestRoundConditions:
    def test_defaults_are_clean(self):
        conditions = RoundConditions()
        assert not conditions.has_interference
        assert conditions.bandwidth_mbps > 0

    def test_interference_flag(self):
        assert RoundConditions(co_cpu_util=0.3).has_interference
        assert RoundConditions(co_mem_util=0.2).has_interference

    def test_bounds(self):
        with pytest.raises(DeviceError):
            RoundConditions(co_cpu_util=1.2)
        with pytest.raises(DeviceError):
            RoundConditions(bandwidth_mbps=0.0)


class TestMobileDevice:
    def test_basic_properties(self, device):
        assert device.device_id == 3
        assert device.tier is DeviceTier.HIGH
        assert device.num_local_samples == 300

    def test_default_target_is_top_cpu(self, device):
        target = device.default_target()
        assert target.processor == "cpu"
        assert target.vf_step == MI8_PRO.cpu.num_vf_steps - 1

    def test_available_targets_include_gpu_and_top_cpu(self, device):
        targets = device.available_targets()
        processors = {target.processor for target in targets}
        assert processors == {"cpu", "gpu"}
        assert device.default_target() in targets

    def test_available_targets_unique(self, device):
        targets = device.available_targets(dvfs_levels=5)
        labels = [target.label() for target in targets]
        assert len(labels) == len(set(labels))

    def test_validate_target_rejects_out_of_range(self, device):
        with pytest.raises(DeviceError):
            device.validate_target(ExecutionTarget("gpu", 50))

    def test_estimate_compute_positive(self, device, workload):
        estimate = device.estimate_compute(workload, device.default_target())
        assert estimate.time_s > 0
        assert estimate.energy_j > 0
        assert 0 < estimate.utilization <= 1.0

    def test_gpu_slower_but_lower_power_than_cpu(self, device, workload):
        """Without interference the CPU is the more energy-efficient target (paper 6.2)."""
        cpu = device.estimate_compute(workload, device.default_target())
        gpu = device.estimate_compute(
            workload, ExecutionTarget("gpu", MI8_PRO.gpu.num_vf_steps - 1)
        )
        assert gpu.time_s > cpu.time_s
        assert cpu.energy_j < gpu.energy_j

    def test_interference_increases_time_and_energy(self, device, workload):
        clean = device.estimate_compute(workload, device.default_target())
        congested = device.estimate_compute(
            workload, device.default_target(), compute_slowdown=2.0, memory_slowdown=1.5
        )
        assert congested.time_s > clean.time_s
        assert congested.energy_j > clean.energy_j

    def test_tier_energy_ordering_at_large_batch(self, workload):
        """At B = 32 (compute-saturated) the high-end tier is the most energy-efficient."""
        big_batch = ComputeWorkload.for_round(45e6, 1.5e6, 300, 32, 5)
        energies = {}
        for spec in (MI8_PRO, GALAXY_S10E, MOTO_X_FORCE):
            device = MobileDevice(0, spec, 300)
            energies[spec.tier] = device.estimate_compute(big_batch, device.default_target()).energy_j
        assert energies[DeviceTier.HIGH] < energies[DeviceTier.LOW]

    def test_awake_power_between_idle_and_peak(self, device):
        assert device.idle_power() < device.awake_power() < MI8_PRO.cpu.peak_power_watt

    def test_invalid_constructor_args(self):
        with pytest.raises(DeviceError):
            MobileDevice(device_id=-1, spec=MI8_PRO)
        with pytest.raises(DeviceError):
            MobileDevice(device_id=0, spec=MI8_PRO, num_local_samples=-5)
