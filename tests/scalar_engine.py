"""The scalar round engine: the per-device reference implementation the tests compare
the shipped array engine against (within 1e-9).

:class:`ScalarRoundEngine` subclasses the shipped engine, so one instance runs both paths.
"""

from __future__ import annotations

import math
from collections.abc import Mapping

import numpy as np

from repro.devices.device import ExecutionTarget, MobileDevice, RoundConditions
from repro.devices.energy import DeviceEnergy, RoundEnergyAccount
from repro.devices.performance import ComputeWorkload
from repro.devices.power import busy_power_at_frequency
from repro.dynamics.faults import DeviceFault
from repro.exceptions import SimulationError
from repro.sim.context import SelectionDecision
from repro.sim.results import DeviceRoundOutcome, RoundExecution
from repro.sim.round_engine import CO_RUNNER_POWER_WATT, RoundEngine


def straggler_deadline(times: np.ndarray, cutoff: float) -> float:
    """Round deadline implied by the straggler cutoff for the given outcome times.

    The deadline is ``cutoff`` times the median participant time.  When the median is
    zero the cutoff is undefined: if some participants still take time, the slowest one
    sets the deadline (nobody is dropped); if *every* outcome time is zero — empty
    shards and instant links — there is no straggler structure at all, so the deadline
    is infinite rather than the degenerate ``0.0`` that would truncate by ``0/0``.
    """
    median_time = float(np.median(times))
    if median_time > 0:
        return cutoff * median_time
    max_time = float(times.max())
    if max_time > 0:
        return max_time
    return math.inf


class ScalarRoundEngine(RoundEngine):
    """The round engine plus the scalar, one-device-at-a-time reference path."""

    def device_round_workload(self, device: MobileDevice) -> ComputeWorkload:
        """Local-training computational demand of one device for the current job."""
        params = self._env.global_params
        return ComputeWorkload.for_round(
            flops_per_sample=self._env.workload.flops_per_sample,
            bytes_per_sample=self._env.workload.bytes_per_sample,
            num_samples=device.num_local_samples,
            batch_size=params.batch_size,
            local_epochs=params.local_epochs,
        )

    def estimate_device(
        self,
        device: MobileDevice,
        target: ExecutionTarget,
        conditions: RoundConditions,
    ) -> DeviceRoundOutcome:
        """Predict one selected device's time and energy for the round.

        Interference from co-running applications slows the selected processor, sustained
        power above the thermal budget adds throttling, and the sampled bandwidth determines
        communication time and radio energy.  This is the scalar reference implementation;
        :meth:`estimate_batch` computes the same quantities for a whole selection at once.
        """
        workload = self.device_round_workload(device)
        slowdown = self._env.slowdown
        capability = device.spec.processor("cpu").peak_gflops
        compute_slowdown = slowdown.compute_slowdown(
            conditions.co_cpu_util, conditions.co_mem_util, target.processor, capability
        )
        memory_slowdown = slowdown.memory_slowdown(
            conditions.co_cpu_util, conditions.co_mem_util, target.processor, capability
        )
        estimate = device.estimate_compute(workload, target, compute_slowdown, memory_slowdown)

        # Thermal throttling: sustained power above the chassis budget slows the CPU further.
        if target.processor == "cpu" and estimate.time_s > 0:
            spec = device.spec.processor(target.processor)
            sustained_power = busy_power_at_frequency(
                spec, target.vf_step, estimate.utilization, device.spec.training_power_scale
            ) + CO_RUNNER_POWER_WATT * conditions.co_cpu_util
            throttle = self._env.thermal.throttle_slowdown(sustained_power)
            if throttle > 1.0:
                estimate = device.estimate_compute(
                    workload, target, compute_slowdown * throttle, memory_slowdown
                )

        communication = self._env.communication.estimate(
            model_size_mb=self._env.workload.model_size_mb,
            bandwidth_mbps=conditions.bandwidth_mbps,
        )
        # The radio front-end and modem of lower-tier platforms draw proportionally less
        # power, mirroring the tier-level platform power calibration of the compute side.
        communication_energy = communication.energy_j * device.spec.training_power_scale
        energy = DeviceEnergy(
            compute_j=estimate.energy_j,
            communication_j=communication_energy,
            idle_j=0.0,
        )
        return DeviceRoundOutcome(
            device_id=device.device_id,
            target=target,
            compute_time_s=estimate.time_s,
            communication_time_s=communication.total_time_s,
            energy=energy,
        )

    def execute(
        self,
        decision: SelectionDecision,
        conditions: Mapping[int, RoundConditions],
        faults: Mapping[int, DeviceFault] | None = None,
        online_mask: np.ndarray | None = None,
    ) -> RoundExecution:
        """Execute the round: evaluate every selected device, apply the straggler cutoff,
        and account idle energy for non-selected devices.

        ``faults`` / ``online_mask`` mirror :meth:`execute_batch`: slow-fail stragglers
        stretch compute before the cutoff, upload failures waste their compute without
        transmitting, and offline devices can neither be selected nor draw idle energy.
        """
        if not decision.participants:
            raise SimulationError("a round needs at least one selected participant")
        if online_mask is not None:
            rows = self._env.fleet_arrays.rows_for(decision.participants)
            self._check_selection_online(rows, online_mask)
        fault_of: Mapping[int, DeviceFault] = faults if faults is not None else {}
        outcomes: dict[int, DeviceRoundOutcome] = {}
        for device_id in decision.participants:
            device = self._env.fleet[device_id]
            target = decision.target_for(device_id, device.default_target())
            try:
                condition = conditions[device_id]
            except KeyError:
                raise SimulationError(
                    f"no round conditions for selected device {device_id}"
                ) from None
            outcome = self.estimate_device(device, target, condition)
            fault = fault_of.get(device_id)
            if fault is not None and fault.compute_slowdown > 1.0:
                outcome = DeviceRoundOutcome(
                    device_id=device_id,
                    target=outcome.target,
                    compute_time_s=outcome.compute_time_s * fault.compute_slowdown,
                    communication_time_s=outcome.communication_time_s,
                    energy=DeviceEnergy(
                        compute_j=outcome.energy.compute_j * fault.compute_slowdown,
                        communication_j=outcome.energy.communication_j,
                        idle_j=outcome.energy.idle_j,
                    ),
                )
            outcomes[device_id] = outcome

        times = np.array([outcome.total_time_s for outcome in outcomes.values()])
        deadline = straggler_deadline(times, self._straggler_cutoff)

        final_outcomes: dict[int, DeviceRoundOutcome] = {}
        retained_times: list[float] = []
        for device_id, outcome in outcomes.items():
            fault = fault_of.get(device_id)
            failed = bool(fault.upload_failure) if fault is not None else False
            dropped = outcome.total_time_s > deadline
            if failed:
                # Dropout before upload: local training ran (capped at the deadline)
                # but the update never reached the server.
                capped = min(outcome.compute_time_s, deadline)
                frac = capped / outcome.compute_time_s if outcome.compute_time_s > 0 else 1.0
                final_outcomes[device_id] = DeviceRoundOutcome(
                    device_id=device_id,
                    target=outcome.target,
                    compute_time_s=capped,
                    communication_time_s=0.0,
                    energy=DeviceEnergy(
                        compute_j=outcome.energy.compute_j * frac,
                        communication_j=0.0,
                        idle_j=outcome.energy.idle_j,
                    ),
                    dropped=dropped,
                    failed=True,
                )
            elif dropped:
                # The server closes the round at the deadline; the straggler aborts, so it
                # only spends energy up to the deadline (scaled proportionally).
                truncation = deadline / outcome.total_time_s
                final_outcomes[device_id] = DeviceRoundOutcome(
                    device_id=device_id,
                    target=outcome.target,
                    compute_time_s=outcome.compute_time_s * truncation,
                    communication_time_s=outcome.communication_time_s * truncation,
                    energy=DeviceEnergy(
                        compute_j=outcome.energy.compute_j * truncation,
                        communication_j=outcome.energy.communication_j * truncation,
                        idle_j=outcome.energy.idle_j,
                    ),
                    dropped=True,
                )
            else:
                final_outcomes[device_id] = outcome
                retained_times.append(outcome.total_time_s)

        if retained_times:
            round_time = max(retained_times)
        elif math.isfinite(deadline):
            round_time = deadline
        else:  # Every participant failed with zero-time outcomes: nothing to wait for.
            round_time = max(outcome.total_time_s for outcome in final_outcomes.values())

        energy_account = RoundEnergyAccount()
        selected_ids = set(decision.participants)
        online = (
            None if online_mask is None else np.asarray(online_mask, dtype=bool)
        )
        for row, device in enumerate(self._env.fleet):
            if device.device_id in selected_ids:
                outcome = final_outcomes[device.device_id]
                # Participants that finish before the round closes stay awake (wakelock,
                # radio connected) waiting for the aggregated model, at awake power.
                # Mid-round failures are dead — they wait for nothing.
                waiting_time = (
                    0.0
                    if outcome.failed
                    else max(0.0, round_time - min(outcome.total_time_s, round_time))
                )
                energy_with_wait = DeviceEnergy(
                    compute_j=outcome.energy.compute_j,
                    communication_j=outcome.energy.communication_j,
                    idle_j=device.awake_power() * waiting_time,
                )
                final_outcomes[device.device_id] = DeviceRoundOutcome(
                    device_id=outcome.device_id,
                    target=outcome.target,
                    compute_time_s=outcome.compute_time_s,
                    communication_time_s=outcome.communication_time_s,
                    energy=energy_with_wait,
                    dropped=outcome.dropped,
                    failed=outcome.failed,
                )
                energy_account.record(device.device_id, energy_with_wait)
            else:
                idle_j = (
                    0.0
                    if online is not None and not online[row]
                    else device.idle_power() * round_time
                )
                energy_account.record(device.device_id, DeviceEnergy(idle_j=idle_j))
        return RoundExecution(
            outcomes=final_outcomes, round_time_s=round_time, energy=energy_account
        )
