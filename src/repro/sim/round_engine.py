"""Round execution engine: per-device compute/communication time, energy and stragglers.

The engine evaluates a whole selection as numpy array expressions over the environment's
:class:`~repro.devices.fleet_arrays.FleetArrays` snapshot, which is what makes
thousand-device fleets simulate in constant Python time.
:meth:`RoundEngine.execute_batch` runs one round; :func:`execute_batch_replicated` runs
one round of several seed replicates, stacking same-size selections into
``[replicates, K]`` arrays.  Both share one preparation and one result assembly per
replicate.

The readable per-device reference implementation (the scalar oracle,
``tests/scalar_engine.py``) lives with the tests, which pin this engine to it within
1e-9.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro import telemetry
from repro.devices.fleet_arrays import (
    PROC_CPU,
    PROC_GPU,
    PROCESSOR_CODES,
    RoundConditionsArrays,
)
from repro.devices.performance import (
    ACHIEVABLE_BANDWIDTH_FRACTION,
    ACHIEVABLE_COMPUTE_FRACTION,
)
from repro.devices.power import DVFS_POWER_EXPONENT, STATIC_POWER_FRACTION
from repro.dynamics.faults import FaultDraw
from repro.exceptions import SimulationError
from repro.sim.context import SelectionDecision
from repro.sim.environment import EdgeCloudEnvironment
from repro.sim.results import BatchRoundExecution

#: A selected device whose round time exceeds this multiple of the median participant's
#: round time is treated as a severe straggler and excluded from the aggregation, mirroring
#: the FedAvg deployment behaviour the paper describes (Sections 2.2 and 6.2).
STRAGGLER_CUTOFF_FACTOR = 2.5

#: Additional sustained power (W) contributed by a fully busy co-runner, fed into the
#: thermal throttling model alongside the training power draw.
CO_RUNNER_POWER_WATT = 1.5

#: Histogram buckets for selection sizes (device counts, up to the 1M stretch goal).
SELECTION_SIZE_BUCKETS: tuple[float, ...] = (
    1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000,
    10000, 20000, 50000, 100000, 200000, 500000, 1000000,
)


@dataclass(frozen=True)
class BatchEstimates:
    """Vectorised per-participant round estimates (aligned on the selection order)."""

    compute_time_s: np.ndarray
    communication_time_s: np.ndarray
    compute_j: np.ndarray
    communication_j: np.ndarray
    utilization: np.ndarray

    @property
    def total_time_s(self) -> np.ndarray:
        """Compute plus communication time per participant."""
        return self.compute_time_s + self.communication_time_s


class _StaticInputs(NamedTuple):
    """Condition-independent per-participant gathers for one selection.

    Everything the estimate math needs from a :class:`FleetArrays` snapshot, gathered
    once per selection.  All fields are aligned on the selection order; stacking several
    replicates' gathers along a leading axis (:meth:`stack`) yields the
    ``[replicates, devices]`` layout the replicated executor feeds through the exact
    same math, so per-replicate results are bitwise identical to solo execution.
    """

    gpu_mask: np.ndarray
    num_samples: np.ndarray
    capability: np.ndarray
    peak_gflops: np.ndarray
    mem_bandwidth: np.ndarray
    saturation: np.ndarray
    rel_f: np.ndarray
    peak_power: np.ndarray
    power_scale: np.ndarray
    awake_power: np.ndarray

    @classmethod
    def gather(
        cls, arrays, rows: np.ndarray, processors: np.ndarray, vf_steps: np.ndarray
    ) -> "_StaticInputs":
        return cls(
            gpu_mask=processors == PROC_GPU,
            num_samples=arrays.num_samples[rows],
            capability=arrays.cpu_capability_gflops[rows],
            peak_gflops=arrays.peak_gflops[processors, rows],
            mem_bandwidth=arrays.mem_bandwidth_gbs[processors, rows],
            saturation=arrays.saturation_batch[processors, rows],
            rel_f=arrays.relative_frequency(processors, vf_steps, rows),
            peak_power=arrays.peak_power_watt[processors, rows],
            power_scale=arrays.training_power_scale[rows],
            awake_power=arrays.awake_power_watt[rows],
        )

    @classmethod
    def stack(cls, inputs: Sequence["_StaticInputs"]) -> "_StaticInputs":
        return cls(*(np.stack(column) for column in zip(*inputs)))


class _ResolvedRound(NamedTuple):
    """Straggler/fault/waiting resolution of one (or a stack of) executed round(s).

    Per-participant arrays have the shape of the estimates they came from (``[K]`` or
    ``[replicates, K]``); ``round_time`` keeps a trailing length-1 axis so it broadcasts
    against them.
    """

    compute_time_s: np.ndarray
    communication_time_s: np.ndarray
    compute_j: np.ndarray
    communication_j: np.ndarray
    waiting_j: np.ndarray
    dropped: np.ndarray
    round_time: np.ndarray

    def row(self, index: int) -> "_ResolvedRound":
        """The ``[K]`` resolution of one replicate of a stacked resolution."""
        return _ResolvedRound(*(array[index] for array in self))


class _PreparedRound(NamedTuple):
    """One replicate's checked selection, gathered for the estimate math (``None`` masks
    for a round without slow faults / upload failures keep that dataflow bit-exact)."""

    rows: np.ndarray
    processors: np.ndarray
    vf_steps: np.ndarray
    static: _StaticInputs
    conditions: RoundConditionsArrays
    fault_slowdown: np.ndarray | None
    failed: np.ndarray | None


class RoundEngine:
    """Executes the system side of one aggregation round for a given selection decision."""

    def __init__(
        self, environment: EdgeCloudEnvironment, straggler_cutoff: float = STRAGGLER_CUTOFF_FACTOR
    ) -> None:
        if straggler_cutoff <= 1.0:
            raise SimulationError("straggler_cutoff must be > 1.0")
        self._env = environment
        self._straggler_cutoff = straggler_cutoff

    # ------------------------------------------------------------------ estimation
    def estimate_batch(
        self,
        rows: np.ndarray,
        processors: np.ndarray,
        vf_steps: np.ndarray,
        conditions: RoundConditionsArrays,
    ) -> BatchEstimates:
        """Per-participant round time and energy estimates for one device subset.

        Parameters
        ----------
        rows:
            Fleet rows (indices into the environment's ``fleet_arrays``) to evaluate.
        processors / vf_steps:
            Per-row execution target as processor codes (:data:`PROC_CPU` /
            :data:`PROC_GPU`) and V-F step indices.
        conditions:
            Runtime conditions aligned on ``rows``.
        """
        static = _StaticInputs.gather(self._env.fleet_arrays, rows, processors, vf_steps)
        return self._estimate_math(static, conditions)

    def _estimate_math(
        self, static: _StaticInputs, conditions: RoundConditionsArrays
    ) -> BatchEstimates:
        """The shape-agnostic math half of :meth:`estimate_batch`.

        Operates purely on pre-gathered arrays, so the same expressions evaluate a
        ``[K]`` selection or a stacked ``[replicates, K]`` batch.  Everything is
        elementwise, which keeps each stacked row bitwise identical to evaluating that
        replicate alone.
        """
        workload = self._env.workload
        params = self._env.global_params
        batch_size = params.batch_size

        # Workload aggregation (ComputeWorkload.for_round, vectorised over shard sizes).
        batches_per_epoch = (static.num_samples + batch_size - 1) // batch_size
        processed = batches_per_epoch * batch_size * params.local_epochs
        flops = workload.flops_per_sample * processed
        memory_bytes = workload.bytes_per_sample * processed

        # Interference slowdowns for the selected targets.
        gpu_mask = static.gpu_mask
        compute_slowdown = self._env.slowdown.compute_slowdown_batch(
            conditions.co_cpu_util, conditions.co_mem_util, gpu_mask, static.capability
        )
        memory_slowdown = self._env.slowdown.memory_slowdown_batch(
            conditions.co_cpu_util, conditions.co_mem_util, gpu_mask, static.capability
        )

        # Roofline time model (TrainingTimeModel, vectorised).
        peak_gflops = static.peak_gflops
        mem_bandwidth = static.mem_bandwidth
        saturation = static.saturation
        rel_f = static.rel_f
        efficiency = np.where(
            batch_size >= saturation, 1.0, (batch_size / saturation) ** 0.75
        )
        gflops = (
            ACHIEVABLE_COMPUTE_FRACTION * peak_gflops * rel_f * efficiency / compute_slowdown
        )
        bandwidth = ACHIEVABLE_BANDWIDTH_FRACTION * mem_bandwidth / memory_slowdown
        compute_time = flops / (gflops * 1e9)
        memory_time = memory_bytes / (bandwidth * 1e9)
        time_s = compute_time + memory_time

        # Utilisation and busy power are computed without interference slowdowns,
        # mirroring TrainingTimeModel.utilization and busy_power_at_frequency.
        clean_gflops = ACHIEVABLE_COMPUTE_FRACTION * peak_gflops * rel_f * efficiency
        clean_bandwidth = ACHIEVABLE_BANDWIDTH_FRACTION * mem_bandwidth
        clean_compute_time = flops / (clean_gflops * 1e9)
        clean_memory_time = memory_bytes / (clean_bandwidth * 1e9)
        clean_total = clean_compute_time + clean_memory_time
        utilization = np.where(
            clean_total > 0,
            np.minimum(
                1.0,
                (clean_compute_time + 0.5 * clean_memory_time)
                / np.where(clean_total > 0, clean_total, 1.0),
            ),
            0.0,
        )
        peak_power = static.peak_power
        static_power = STATIC_POWER_FRACTION * peak_power
        dynamic_power = (peak_power - static_power) * rel_f**DVFS_POWER_EXPONENT * utilization
        power_scale = static.power_scale
        power = power_scale * (static_power + dynamic_power)

        # Thermal throttling stretches the compute term of CPU targets whose sustained
        # power (training plus co-runner) exceeds the chassis budget.
        sustained_power = power + CO_RUNNER_POWER_WATT * conditions.co_cpu_util
        throttle = self._env.thermal.throttle_slowdown_batch(sustained_power)
        throttled = (~gpu_mask) & (time_s > 0) & (throttle > 1.0)
        final_compute_slowdown = np.where(throttled, compute_slowdown * throttle, compute_slowdown)
        final_gflops = (
            ACHIEVABLE_COMPUTE_FRACTION * peak_gflops * rel_f * efficiency
            / final_compute_slowdown
        )
        final_compute_time = flops / (final_gflops * 1e9)
        final_time_s = final_compute_time + memory_time
        compute_j = power * final_time_s

        # Communication time and radio energy, scaled by the tier power calibration.
        upload_time, download_time, radio_energy = self._env.communication.estimate_batch(
            model_size_mb=workload.model_size_mb, bandwidth_mbps=conditions.bandwidth_mbps
        )
        communication_time = upload_time + download_time
        communication_j = radio_energy * power_scale

        return BatchEstimates(
            compute_time_s=final_time_s,
            communication_time_s=communication_time,
            compute_j=compute_j,
            communication_j=communication_j,
            utilization=utilization,
        )

    # ------------------------------------------------------------------ execution
    def _decision_targets(
        self, decision: SelectionDecision, rows: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        arrays = self._env.fleet_arrays
        if decision.target_processors is not None and decision.target_vf_steps is not None:
            # Policies that already scored targets as arrays hand them over directly,
            # skipping the per-participant dict walk below.
            return (
                np.asarray(decision.target_processors, dtype=np.int64),
                np.asarray(decision.target_vf_steps, dtype=np.int64),
            )
        processors = np.full(len(rows), PROC_CPU, dtype=np.int64)
        vf_steps = arrays.default_vf_steps()[rows]
        if decision.targets:
            for i, device_id in enumerate(decision.participants):
                target = decision.targets.get(device_id)
                if target is not None:
                    processors[i] = PROCESSOR_CODES[target.processor]
                    vf_steps[i] = target.vf_step
        return processors, vf_steps

    def _check_selection_online(self, rows: np.ndarray, online_mask: np.ndarray) -> None:
        if len(online_mask) != len(self._env.fleet_arrays):
            raise SimulationError("online_mask must cover every device in the fleet")
        offline = ~np.asarray(online_mask, dtype=bool)[rows]
        if offline.any():
            arrays = self._env.fleet_arrays
            offline_ids = [int(arrays.device_ids[row]) for row in rows[offline]]
            raise SimulationError(
                f"selected devices {offline_ids[:5]} are offline this round; policies "
                "must select from the online candidates only"
            )

    def execute_batch(
        self,
        decision: SelectionDecision,
        conditions: RoundConditionsArrays,
        faults: FaultDraw | None = None,
        online_mask: np.ndarray | None = None,
    ) -> BatchRoundExecution:
        """Execute the round as array operations over the whole selection.

        Applies the straggler cutoff, truncation, waiting and idle accounting, and
        returns a :class:`BatchRoundExecution` whose per-device quantities stay in
        numpy arrays.  ``conditions`` are every device's round conditions, in fleet order.

        ``faults`` (aligned on the selection order) injects mid-round failures:
        slow-fail stragglers stretch a participant's compute time and energy before the
        straggler cutoff is applied, and upload failures waste the device's compute
        (capped at the deadline) without ever transmitting — the update is lost, marked
        in ``BatchRoundExecution.failed``.  ``online_mask`` (fleet order) rejects
        selections of offline devices and zeroes the idle energy of devices that are
        out of the population this round.  Both default to the static, fault-free
        behaviour bit-exactly.
        """
        prepared = self._prepare(decision, conditions, faults, online_mask)
        estimates = self._estimate_math(prepared.static, prepared.conditions)
        resolved = self._resolve_round(
            estimates, prepared.static, prepared.fault_slowdown, prepared.failed
        )
        return self._assemble(decision, prepared, resolved, online_mask)

    def _prepare(
        self,
        decision: SelectionDecision,
        conditions: RoundConditionsArrays,
        faults: FaultDraw | None,
        online_mask: np.ndarray | None,
    ) -> _PreparedRound:
        """Check one selection and gather its targets, conditions, faults and inputs."""
        if not decision.participants:
            raise SimulationError("a round needs at least one selected participant")
        arrays = self._env.fleet_arrays
        if len(conditions) != len(arrays):
            raise SimulationError("round condition arrays must cover every device in the fleet")
        rows = arrays.rows_for(decision.participants)
        if online_mask is not None:
            self._check_selection_online(rows, online_mask)
        processors, vf_steps = self._decision_targets(decision, rows)
        fault_slowdown = None
        failed = None
        if faults is not None:
            if len(faults) != len(rows):
                raise SimulationError("fault draw must align with the selection")
            if (faults.compute_slowdown > 1.0).any():
                fault_slowdown = faults.compute_slowdown
            if faults.upload_failure.any():
                failed = faults.upload_failure
        return _PreparedRound(
            rows=rows,
            processors=processors,
            vf_steps=vf_steps,
            static=_StaticInputs.gather(arrays, rows, processors, vf_steps),
            conditions=conditions.take(rows),
            fault_slowdown=fault_slowdown,
            failed=failed,
        )

    def _assemble(
        self,
        decision: SelectionDecision,
        prepared: _PreparedRound,
        resolved: _ResolvedRound,
        online_mask: np.ndarray | None,
    ) -> BatchRoundExecution:
        """The round's result from one replicate's ``[K]`` resolution, idle energy added."""
        arrays = self._env.fleet_arrays
        round_time = float(resolved.round_time[0])
        idle_j = arrays.idle_power_watt * round_time
        idle_j[prepared.rows] = 0.0
        if online_mask is not None:
            # Offline devices are unreachable (or churned away) — they are not idling
            # on behalf of this training job, so the global account excludes them.
            idle_j = np.where(np.asarray(online_mask, dtype=bool), idle_j, 0.0)
        registry = telemetry.get_registry()
        if registry.enabled:
            registry.counter(
                "repro_engine_batch_rounds_total", help="Vectorised engine round executions."
            ).inc()
            registry.histogram(
                "repro_engine_selection_size",
                help="Participants per executed round.",
                buckets=SELECTION_SIZE_BUCKETS,
            ).observe(float(len(prepared.rows)))
        return BatchRoundExecution(
            selected_ids=np.array(decision.participants, dtype=np.int64),
            processors=prepared.processors,
            vf_steps=prepared.vf_steps,
            compute_time_s=resolved.compute_time_s,
            communication_time_s=resolved.communication_time_s,
            compute_j=resolved.compute_j,
            communication_j=resolved.communication_j,
            waiting_j=resolved.waiting_j,
            dropped=resolved.dropped,
            round_time_s=round_time,
            fleet_device_ids=arrays.device_ids,
            idle_j=idle_j,
            failed=prepared.failed,  # BatchRoundExecution defaults None to all-False.
            rows=prepared.rows,
        )

    def _resolve_round(
        self,
        estimates: BatchEstimates,
        static: _StaticInputs,
        fault_slowdown: np.ndarray | None,
        failed: np.ndarray | None,
    ) -> _ResolvedRound:
        """Straggler cutoff, fault truncation and waiting energy for executed estimates.

        Shape-agnostic: reductions run over the trailing (participant) axis with
        ``keepdims``, so a stacked ``[replicates, K]`` batch resolves each replicate row
        exactly as the 1-D solo path would — including the per-replicate deadline,
        retained-set maximum and waiting-time accounting.
        """
        compute_time_est = estimates.compute_time_s
        compute_j_est = estimates.compute_j
        if fault_slowdown is not None:
            # Slow-fail stragglers: the transient condition stretches compute time
            # at unchanged power, so wasted energy grows with the slowdown.
            compute_time_est = compute_time_est * fault_slowdown
            compute_j_est = compute_j_est * fault_slowdown

        times = compute_time_est + estimates.communication_time_s
        # The straggler deadline: cutoff times the median participant time, falling
        # back to the slowest participant and then to +inf (all-zero times) per row.
        median_time = np.median(times, axis=-1, keepdims=True)
        max_time = np.max(times, axis=-1, keepdims=True)
        deadline = np.where(
            median_time > 0,
            self._straggler_cutoff * median_time,
            np.where(max_time > 0, max_time, np.inf),
        )
        dropped = times > deadline
        # The server closes the round at the deadline; stragglers abort, so they only
        # spend time and energy up to the deadline (scaled proportionally).
        truncation = np.where(dropped, deadline / np.where(dropped, times, 1.0), 1.0)
        compute_time = compute_time_est * truncation
        communication_time = estimates.communication_time_s * truncation
        compute_j = compute_j_est * truncation
        communication_j = estimates.communication_j * truncation
        if failed is not None:
            # Dropout before upload: local training ran (capped at the deadline) but
            # the update never reached the server — compute is wasted, radio unused.
            capped = np.minimum(compute_time_est, deadline)
            frac = np.divide(
                capped,
                compute_time_est,
                out=np.ones_like(capped),
                where=compute_time_est > 0,
            )
            compute_time = np.where(failed, capped, compute_time)
            compute_j = np.where(failed, compute_j_est * frac, compute_j)
            communication_time = np.where(failed, 0.0, communication_time)
            communication_j = np.where(failed, 0.0, communication_j)
        final_times = compute_time + communication_time

        excluded = dropped if failed is None else dropped | failed
        retained = ~excluded
        has_retained = retained.any(axis=-1, keepdims=True)
        retained_max = np.max(np.where(retained, final_times, -np.inf), axis=-1, keepdims=True)
        round_time = np.where(
            has_retained,
            retained_max,
            np.where(
                np.isfinite(deadline),
                deadline,
                # Every participant failed with zero-time outcomes: nothing to wait for.
                np.max(final_times, axis=-1, keepdims=True),
            ),
        )

        # Participants that finish before the round closes stay awake (wakelock, radio
        # connected) waiting for the aggregated model, at awake power.
        waiting_time = np.maximum(0.0, round_time - np.minimum(final_times, round_time))
        waiting_j = static.awake_power * waiting_time
        if failed is not None:
            waiting_j = np.where(failed, 0.0, waiting_j)
        return _ResolvedRound(
            compute_time_s=compute_time,
            communication_time_s=communication_time,
            compute_j=compute_j,
            communication_j=communication_j,
            waiting_j=waiting_j,
            dropped=dropped,
            round_time=round_time,
        )


def execute_batch_replicated(
    engines: Sequence[RoundEngine],
    decisions: Sequence[SelectionDecision],
    conditions: Sequence[RoundConditionsArrays],
    faults: Sequence[FaultDraw | None] | None = None,
    online_masks: Sequence[np.ndarray | None] | None = None,
) -> list[BatchRoundExecution]:
    """Execute one round of N seed-replicates of the same scenario in one pass.

    Each replicate ``i`` is described by its own engine (over its own seed's
    environment), selection decision, conditions and optional fault draw / online mask.
    Replicates whose selections have the same size are stacked into ``[replicates, K]``
    arrays and resolved by a single :meth:`RoundEngine._estimate_math` /
    :meth:`RoundEngine._resolve_round` evaluation, so the per-round Python cost is paid
    once per selection size instead of once per replicate.  A replicate alone in its
    size group runs :meth:`RoundEngine.execute_batch` itself.

    Every per-replicate result is **bitwise identical** to calling
    ``engines[i].execute_batch(...)`` alone: the math is elementwise, reductions run per
    stacked row, fault-free replicates ride along under identity masks (slowdown 1.0,
    ``failed`` all-False), and idle accounting uses each replicate's own fleet arrays.

    Replicates must come from the same scenario (same workload, interference, network
    and straggler models) — only the seed may differ.  A light compatibility check
    rejects mixed workloads; mixing scenarios with different physics constants is
    undefined.
    """
    n = len(engines)
    faults = faults if faults is not None else [None] * n
    online_masks = online_masks if online_masks is not None else [None] * n
    if not (len(decisions) == len(conditions) == len(faults) == len(online_masks) == n):
        raise SimulationError("replicated execution requires aligned per-replicate inputs")
    if n == 0:
        return []
    first = engines[0]
    for engine in engines[1:]:
        workload, first_workload = engine._env.workload, first._env.workload
        params, first_params = engine._env.global_params, first._env.global_params
        if (
            engine._straggler_cutoff != first._straggler_cutoff
            or workload.flops_per_sample != first_workload.flops_per_sample
            or workload.bytes_per_sample != first_workload.bytes_per_sample
            or workload.model_size_mb != first_workload.model_size_mb
            or params.batch_size != first_params.batch_size
            or params.local_epochs != first_params.local_epochs
        ):
            raise SimulationError(
                "replicated execution requires same-scenario replicates (only the seed "
                "may differ between replicates)"
            )

    # Selections of different sizes cannot share one rectangular stack (padding would
    # change each row's median/max reductions), so replicates group by selection size.
    groups: dict[int, list[int]] = {}
    for i, decision in enumerate(decisions):
        groups.setdefault(len(decision.participants), []).append(i)

    results: list[BatchRoundExecution | None] = [None] * n
    for members in groups.values():
        if len(members) == 1:
            # A lone replicate runs the solo path: stacking would only copy its arrays.
            (i,) = members
            results[i] = engines[i].execute_batch(
                decisions[i], conditions[i], faults=faults[i], online_mask=online_masks[i]
            )
            continue
        group = [
            engines[i]._prepare(decisions[i], conditions[i], faults[i], online_masks[i])
            for i in members
        ]
        static = _StaticInputs.stack([item.static for item in group])
        stacked_conditions = RoundConditionsArrays(
            co_cpu_util=np.stack([item.conditions.co_cpu_util for item in group]),
            co_mem_util=np.stack([item.conditions.co_mem_util for item in group]),
            bandwidth_mbps=np.stack([item.conditions.bandwidth_mbps for item in group]),
        )
        # Fault-free replicates ride along under identity masks: multiplying by an
        # all-1.0 slowdown and masking with an all-False ``failed`` row reproduce the
        # fault-less dataflow bit-for-bit.
        fault_slowdown = _stack_masks([item.fault_slowdown for item in group], 1.0)
        failed = _stack_masks([item.failed for item in group], False)
        estimates = first._estimate_math(static, stacked_conditions)
        resolved = first._resolve_round(estimates, static, fault_slowdown, failed)
        for g, (i, item) in enumerate(zip(members, group)):
            results[i] = engines[i]._assemble(
                decisions[i], item, resolved.row(g), online_masks[i]
            )
        registry = telemetry.get_registry()
        if registry.enabled:
            registry.counter(
                "repro_engine_replicated_rounds_total",
                help="Replicate-rounds executed through the stacked batch path.",
            ).inc(len(group))
    return [result for result in results if result is not None]


def _stack_masks(masks: list[np.ndarray | None], identity: float | bool) -> np.ndarray | None:
    """Stack per-replicate masks, an absent one as all ``identity`` (None if all absent)."""
    present = [mask for mask in masks if mask is not None]
    if not present:
        return None
    fill = np.full_like(present[0], identity)
    return np.stack([fill if mask is None else mask for mask in masks])

