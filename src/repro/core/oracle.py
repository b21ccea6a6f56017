"""Oracle selection policies ``Oparticipant`` and ``OFL`` (paper Section 5.1).

``Oparticipant`` picks, with full knowledge of the round's true conditions and of every
device's data profile, the cluster of K participants that maximises a performance-per-watt
proxy (expected convergence progress divided by the round's global energy).  ``OFL``
additionally chooses each selected device's execution target, exploiting straggler slack
with lower DVFS steps or the GPU.  AutoFL's prediction accuracy (Figure 12) is measured
against ``OFL``'s decisions.

Both oracles score every candidate cluster template with the round engine's *batched*
estimator: device goodness, template realisation and plan energies are computed as array
expressions over the fleet snapshot, so oracle rounds stay fast on thousand-device fleets
(the nested per-device/per-action loops of the scalar reference would dominate otherwise).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.actions import ActionCatalog
from repro.core.selection import (
    CLUSTER_TEMPLATES,
    Policy,
    effective_num_participants,
    scale_template,
)
from repro.devices.device import ExecutionTarget, execution_target
from repro.devices.fleet_arrays import (
    PROC_CPU,
    PROCESSOR_CODES,
    PROCESSOR_NAMES,
    TIER_ORDER,
    FleetArrays,
    RoundConditionsArrays,
)
from repro.devices.specs import DeviceTier
from repro.exceptions import PolicyError
from repro.registry import POLICIES
from repro.fl.surrogate import STALL_QUALITY_THRESHOLD
from repro.sim.context import RoundContext, SelectionDecision
from repro.sim.round_engine import RoundEngine


@dataclass(frozen=True)
class _RoundCache:
    """Per-round precomputation shared by every candidate plan evaluation."""

    arrays: FleetArrays
    conditions: RoundConditionsArrays
    data_quality: np.ndarray
    data_samples: np.ndarray
    goodness: np.ndarray
    #: Device ids per tier, ranked by descending goodness (stable on fleet order).
    ranked_by_tier: dict[DeviceTier, list[int]]
    #: All device ids ranked by descending goodness.
    ranked_all: list[int]


@dataclass(frozen=True)
class _CandidatePlan:
    """One evaluated candidate selection."""

    template_name: str
    participants: list[int]
    processors: np.ndarray
    vf_steps: np.ndarray
    round_time_s: float
    global_energy_j: float
    expected_gain: float

    @property
    def score(self) -> float:
        """PPW proxy: expected convergence progress per Joule of global energy."""
        if self.global_energy_j <= 0:
            return 0.0
        return (0.05 + self.expected_gain) / self.global_energy_j

    def targets(self) -> dict[int, ExecutionTarget]:
        """Materialise the per-device execution targets of this plan."""
        return {
            device_id: execution_target(
                PROCESSOR_NAMES[int(self.processors[i])], int(self.vf_steps[i])
            )
            for i, device_id in enumerate(self.participants)
        }


@POLICIES.register("oparticipant", aliases=("o-participant", "oracle-participant"))
class OracleParticipantPolicy(Policy):
    """``Oparticipant``: oracle participant selection with default execution targets."""

    name = "oparticipant"

    #: Composite device-ranking weights used to realise a template into concrete devices.
    DATA_WEIGHT = 3.0
    INTERFERENCE_WEIGHT = 1.0
    NETWORK_WEIGHT = 0.5

    def __init__(self, rng: np.random.Generator | None = None) -> None:
        super().__init__(rng)
        self._catalog = ActionCatalog()
        self._engine: RoundEngine | None = None
        self._engine_env: object | None = None

    def _engine_for(self, ctx: RoundContext) -> RoundEngine:
        """The plan-scoring engine, cached across rounds of the same environment."""
        if self._engine is None or self._engine_env is not ctx.environment:
            self._engine = RoundEngine(ctx.environment)
            self._engine_env = ctx.environment
        return self._engine

    # ------------------------------------------------------------------ device ranking
    def _build_cache(self, ctx: RoundContext) -> _RoundCache:
        environment = ctx.environment
        arrays = environment.fleet_arrays
        conditions = ctx.conditions
        network_score = np.minimum(1.0, conditions.bandwidth_mbps / 100.0)
        goodness = (
            self.DATA_WEIGHT * environment.data_profiles.data_quality
            - self.INTERFERENCE_WEIGHT
            * (conditions.co_cpu_util + 0.5 * conditions.co_mem_util)
            + self.NETWORK_WEIGHT * network_score
        )
        # Oracles are still bound by physical reachability: offline devices are
        # invisible to the ranking, so every realised template is selectable.
        online = ctx.online_mask
        ranked_by_tier: dict[DeviceTier, list[int]] = {}
        for code, tier in enumerate(TIER_ORDER):
            rows = np.flatnonzero(arrays.tier_codes == code)
            if online is not None:
                rows = rows[online[rows]]
            order = rows[np.argsort(-goodness[rows], kind="stable")]
            ranked_by_tier[tier] = [int(arrays.device_ids[row]) for row in order]
        all_rows = np.argsort(-goodness, kind="stable")
        if online is not None:
            all_rows = all_rows[online[all_rows]]
        ranked_all = [int(arrays.device_ids[row]) for row in all_rows]
        return _RoundCache(
            arrays=arrays,
            conditions=conditions,
            data_quality=environment.data_profiles.data_quality,
            data_samples=environment.data_profiles.num_samples,
            goodness=goodness,
            ranked_by_tier=ranked_by_tier,
            ranked_all=ranked_all,
        )

    def _realize_template(
        self, ctx: RoundContext, cache: _RoundCache, template: dict[DeviceTier, int]
    ) -> list[int]:
        num_participants = effective_num_participants(ctx)
        counts = scale_template(template, num_participants)
        chosen: list[int] = []
        for tier in (DeviceTier.HIGH, DeviceTier.MID, DeviceTier.LOW):
            wanted = counts.get(tier, 0)
            if wanted == 0:
                continue
            chosen.extend(cache.ranked_by_tier[tier][:wanted])
        if len(chosen) < num_participants:
            taken = set(chosen)
            remaining = [
                device_id for device_id in cache.ranked_all if device_id not in taken
            ]
            chosen.extend(remaining[: num_participants - len(chosen)])
        return chosen[:num_participants]

    # ------------------------------------------------------------------ plan evaluation
    def _expected_gain(self, cache: _RoundCache, rows: np.ndarray) -> float:
        total_samples = int(np.sum(cache.data_samples[rows]))
        if total_samples == 0:
            return 0.0
        quality = float(
            np.sum(cache.data_quality[rows] * cache.data_samples[rows]) / total_samples
        )
        if quality <= STALL_QUALITY_THRESHOLD:
            return 0.0
        return (quality - STALL_QUALITY_THRESHOLD) / (1.0 - STALL_QUALITY_THRESHOLD)

    def _target_arrays(
        self,
        ctx: RoundContext,
        engine: RoundEngine,
        cache: _RoundCache,
        rows: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-participant execution targets used when evaluating a plan.

        The base oracle keeps every participant on its default target (CPU at the highest
        V-F step); :class:`OracleFLPolicy` overrides this with batched target search.
        """
        processors = np.full(len(rows), PROC_CPU, dtype=np.int64)
        vf_steps = cache.arrays.default_vf_steps()[rows]
        return processors, vf_steps

    def _evaluate_plan(
        self,
        ctx: RoundContext,
        engine: RoundEngine,
        cache: _RoundCache,
        name: str,
        participants: list[int],
    ) -> _CandidatePlan:
        rows = cache.arrays.rows_for(participants)
        processors, vf_steps = self._target_arrays(ctx, engine, cache, rows)
        estimates = engine.estimate_batch(
            rows, processors, vf_steps, cache.conditions.take(rows)
        )
        total_times = estimates.total_time_s
        round_time = float(total_times.max())
        active_energy = float(np.sum(estimates.compute_j + estimates.communication_j))
        idle_mask = np.ones(len(cache.arrays), dtype=bool)
        idle_mask[rows] = False
        if ctx.online_mask is not None:
            # Offline devices draw no idle energy on behalf of this job.
            idle_mask &= ctx.online_mask
        idle_energy = float(np.sum(cache.arrays.idle_power_watt[idle_mask] * round_time))
        return _CandidatePlan(
            template_name=name,
            participants=participants,
            processors=processors,
            vf_steps=vf_steps,
            round_time_s=round_time,
            global_energy_j=active_energy + idle_energy,
            expected_gain=self._expected_gain(cache, rows),
        )

    def select(self, ctx: RoundContext) -> SelectionDecision:
        engine = self._engine_for(ctx)
        cache = self._build_cache(ctx)
        plans = [
            self._evaluate_plan(
                ctx, engine, cache, name, self._realize_template(ctx, cache, template)
            )
            for name, template in CLUSTER_TEMPLATES.items()
        ]
        if not plans:
            raise PolicyError("no candidate plans could be evaluated")
        best = max(plans, key=lambda plan: plan.score)
        # The array form of the winning plan's targets lets the round engine skip its
        # per-participant dict walk; the dict form stays for scalar consumers.
        return SelectionDecision(
            participants=best.participants,
            targets=best.targets(),
            target_processors=best.processors,
            target_vf_steps=best.vf_steps,
        )


@POLICIES.register("ofl", aliases=("o-fl", "oracle-fl", "oracle"))
class OracleFLPolicy(OracleParticipantPolicy):
    """``OFL``: oracle participant selection plus per-device execution-target selection."""

    name = "ofl"

    def _target_arrays(
        self,
        ctx: RoundContext,
        engine: RoundEngine,
        cache: _RoundCache,
        rows: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        conditions = cache.conditions.take(rows)
        # First pass with default (highest-performance CPU) targets establishes the round
        # deadline set by the slowest participant.
        best_processors, best_steps = super()._target_arrays(ctx, engine, cache, rows)
        defaults = engine.estimate_batch(rows, best_processors, best_steps, conditions)
        default_times = defaults.total_time_s
        deadline = float(default_times.max())
        best_energy = defaults.compute_j + defaults.communication_j
        best_time = default_times
        for action_id in self._catalog.action_ids:
            action = self._catalog.spec(action_id)
            code = PROCESSOR_CODES[action.processor]
            processors = np.full(len(rows), code, dtype=np.int64)
            num_steps = cache.arrays.num_vf_steps[code, rows]
            vf_steps = np.round(action.frequency_fraction * (num_steps - 1)).astype(np.int64)
            estimate = engine.estimate_batch(rows, processors, vf_steps, conditions)
            times = estimate.total_time_s
            energies = estimate.compute_j + estimate.communication_j
            meets_deadline = times <= deadline * 1.001
            # A target that meets the deadline wins on energy; a device that is a
            # straggler either way instead minimises its time.
            improves = meets_deadline & (energies < best_energy)
            unstalls = (~meets_deadline) & (best_time > deadline) & (times < best_time)
            update = improves | unstalls
            best_processors = np.where(update, processors, best_processors)
            best_steps = np.where(update, vf_steps, best_steps)
            best_energy = np.where(update, energies, best_energy)
            best_time = np.where(update, times, best_time)
        return best_processors, best_steps
