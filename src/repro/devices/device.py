"""The :class:`MobileDevice` abstraction combining specs, power and performance models."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from repro.devices.performance import ComputeWorkload, TrainingTimeModel
from repro.devices.power import awake_power, busy_power_at_frequency
from repro.devices.specs import DeviceSpec, DeviceTier
from repro.exceptions import DeviceError


@dataclass(frozen=True)
class ExecutionTarget:
    """An on-device execution target: which processor runs training and at which V-F step.

    This is the second-level AutoFL action (paper Section 4.1): CPUs and GPUs are both
    candidate targets and the CPU/GPU DVFS step augments the action space.
    """

    processor: str
    vf_step: int

    def __post_init__(self) -> None:
        if self.processor not in ("cpu", "gpu"):
            raise DeviceError(f"processor must be 'cpu' or 'gpu', got {self.processor!r}")
        if self.vf_step < 0:
            raise DeviceError(f"vf_step must be non-negative, got {self.vf_step}")

    def label(self) -> str:
        """Human-readable label such as ``"cpu@12"``."""
        return f"{self.processor}@{self.vf_step}"


@cache
def execution_target(processor: str, vf_step: int) -> ExecutionTarget:
    """The one shared :class:`ExecutionTarget` for ``(processor, vf_step)``.

    Targets are immutable, so round records and selection decisions all hold the same
    few instances instead of a fresh object per selected device and round.
    """
    return ExecutionTarget(processor=processor, vf_step=int(vf_step))


@dataclass(frozen=True)
class RoundConditions:
    """Per-device runtime conditions observed for one aggregation round.

    Attributes
    ----------
    co_cpu_util:
        CPU utilisation of co-running applications, in ``[0, 1]`` (paper state ``S_Co_CPU``).
    co_mem_util:
        Memory usage of co-running applications, in ``[0, 1]`` (paper state ``S_Co_MEM``).
    bandwidth_mbps:
        Available uplink network bandwidth in Mbit/s (paper state ``S_Network``).
    """

    co_cpu_util: float = 0.0
    co_mem_util: float = 0.0
    bandwidth_mbps: float = 80.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.co_cpu_util <= 1.0:
            raise DeviceError(f"co_cpu_util must be in [0, 1], got {self.co_cpu_util}")
        if not 0.0 <= self.co_mem_util <= 1.0:
            raise DeviceError(f"co_mem_util must be in [0, 1], got {self.co_mem_util}")
        if self.bandwidth_mbps <= 0:
            raise DeviceError(f"bandwidth_mbps must be positive, got {self.bandwidth_mbps}")

    @property
    def has_interference(self) -> bool:
        """Whether any co-running application activity is present."""
        return self.co_cpu_util > 0.0 or self.co_mem_util > 0.0


@dataclass(frozen=True)
class ComputeEstimate:
    """Predicted local-training time, energy and utilisation for one target choice."""

    time_s: float
    energy_j: float
    utilization: float


class MobileDevice:
    """A single mobile device in the FL population.

    The device exposes its hardware specification, enumerates its available execution
    targets and predicts the time/energy of local training for a given workload, target and
    interference slowdown.  It is deliberately stateless with respect to runtime conditions:
    the simulator samples :class:`RoundConditions` each round and passes the derived
    slowdowns in, which keeps devices cheap to copy and trivially deterministic.
    """

    def __init__(self, device_id: int, spec: DeviceSpec, num_local_samples: int = 0) -> None:
        if device_id < 0:
            raise DeviceError(f"device_id must be non-negative, got {device_id}")
        if num_local_samples < 0:
            raise DeviceError(f"num_local_samples must be non-negative, got {num_local_samples}")
        self._device_id = device_id
        self._spec = spec
        self._num_local_samples = num_local_samples
        self._time_model = TrainingTimeModel()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MobileDevice(id={self._device_id}, spec={self._spec.name})"

    @property
    def device_id(self) -> int:
        """Unique identifier of the device within the fleet."""
        return self._device_id

    @property
    def spec(self) -> DeviceSpec:
        """Hardware specification of the device."""
        return self._spec

    @property
    def tier(self) -> DeviceTier:
        """Performance tier of the device."""
        return self._spec.tier

    @property
    def num_local_samples(self) -> int:
        """Number of local training samples the device holds."""
        return self._num_local_samples

    def default_target(self) -> ExecutionTarget:
        """The baseline execution target: CPU at the highest frequency."""
        return ExecutionTarget(processor="cpu", vf_step=self._spec.cpu.num_vf_steps - 1)

    def available_targets(self, dvfs_levels: int = 3) -> list[ExecutionTarget]:
        """Enumerate the discrete execution-target action space for this device.

        ``dvfs_levels`` evenly spaced CPU frequency steps (always including the highest)
        plus the GPU at its highest step.  Keeping the action space small is what makes the
        Q-table approach tractable (paper Section 4, "Low Training and Inference Overhead").
        """
        if dvfs_levels < 1:
            raise DeviceError(f"dvfs_levels must be >= 1, got {dvfs_levels}")
        cpu_steps = self._spec.cpu.num_vf_steps
        targets: list[ExecutionTarget] = []
        seen: set[int] = set()
        for i in range(dvfs_levels):
            if dvfs_levels == 1:
                step = cpu_steps - 1
            else:
                step = round((cpu_steps - 1) * (1.0 - i / (dvfs_levels - 1) * 0.6))
            if step not in seen:
                seen.add(step)
                targets.append(ExecutionTarget(processor="cpu", vf_step=step))
        targets.append(ExecutionTarget(processor="gpu", vf_step=self._spec.gpu.num_vf_steps - 1))
        return targets

    def validate_target(self, target: ExecutionTarget) -> None:
        """Raise :class:`DeviceError` if the target's V-F step is out of range."""
        spec = self._spec.processor(target.processor)
        if target.vf_step >= spec.num_vf_steps:
            raise DeviceError(
                f"device {self._device_id}: V-F step {target.vf_step} out of range for "
                f"{target.processor} with {spec.num_vf_steps} steps"
            )

    def estimate_compute(
        self,
        workload: ComputeWorkload,
        target: ExecutionTarget,
        compute_slowdown: float = 1.0,
        memory_slowdown: float = 1.0,
    ) -> ComputeEstimate:
        """Predict the local-training time, energy and utilisation for one round."""
        self.validate_target(target)
        spec = self._spec.processor(target.processor)
        time_s = self._time_model.training_time(
            workload, spec, target.vf_step, compute_slowdown, memory_slowdown
        )
        utilization = self._time_model.utilization(workload, spec, target.vf_step)
        power = busy_power_at_frequency(
            spec, target.vf_step, utilization, self._spec.training_power_scale
        )
        return ComputeEstimate(time_s=time_s, energy_j=power * time_s, utilization=utilization)

    def idle_power(self) -> float:
        """Device idle power draw (W) when not selected for a round (paper Eq. 4)."""
        return self._spec.cpu.idle_power_watt

    def awake_power(self) -> float:
        """Power draw (W) while participating in a round but not actively training.

        Participants keep a wakelock, the CPU cluster online and the radio connected while
        waiting for the round to close, which costs far more than deep idle; this is what
        makes straggler-stretched rounds expensive for every selected device.
        """
        return awake_power(
            self._spec.cpu.peak_power_watt,
            self._spec.cpu.idle_power_watt,
            self._spec.training_power_scale,
        )
