"""The AutoFL policy: the Q-learning agent plugged into the FL aggregation server."""

from __future__ import annotations

import numpy as np

from repro.core.actions import ActionCatalog
from repro.core.agent import QLearningConfig, VectorAutoFLAgent
from repro.core.qtable import PER_TIER
from repro.core.reward import RewardCalculator, RewardWeights
from repro.core.selection import Policy, effective_num_participants
from repro.core.state import StateEncoder
from repro.exceptions import PolicyError
from repro.registry import POLICIES
from repro.fl.server import RoundTrainingResult
from repro.sim.context import RoundContext, SelectionDecision
from repro.sim.results import BatchRoundExecution


@POLICIES.register("autofl")
class AutoFLPolicy(Policy):
    """AutoFL: heterogeneity-aware, energy-efficient participant and target selection.

    Every round the policy (1) observes the global configuration and each device's runtime
    conditions and data coverage, (2) asks the Q-learning agent for the K participants and
    their execution targets, and (3) after aggregation converts the measured energies and
    accuracy into per-device rewards that update the Q-tables (paper Figure 7).

    ``vectorized=True`` (registered as ``autofl-fast``) swaps the agent's sequential
    Q-update for its batch-synchronous one; everything else is shared.
    """

    name = "autofl"

    def __init__(
        self,
        rng: np.random.Generator | None = None,
        config: QLearningConfig | None = None,
        reward_weights: RewardWeights | None = None,
        qtable_sharing: str = PER_TIER,
        catalog: ActionCatalog | None = None,
        vectorized: bool = False,
        init_scale: float = 0.01,
    ) -> None:
        super().__init__(rng)
        self._config = config or QLearningConfig()
        self._reward = RewardCalculator(reward_weights)
        self._qtable_sharing = qtable_sharing
        self._catalog = catalog or ActionCatalog()
        self._encoder = StateEncoder()
        self._vectorized = vectorized
        self._init_scale = init_scale
        self._agent: VectorAutoFLAgent | None = None
        if vectorized:
            self.name = "autofl-fast"

    @property
    def vectorized(self) -> bool:
        """Whether the agent runs the batch-synchronous Q-update (``autofl-fast``)."""
        return self._vectorized

    @property
    def agent(self) -> VectorAutoFLAgent:
        """The underlying Q-learning agent (created on first use)."""
        if self._agent is None:
            raise PolicyError("the AutoFL agent is created on the first select() call")
        return self._agent

    def _ensure_agent(self, ctx: RoundContext) -> VectorAutoFLAgent:
        if self._agent is None:
            arrays = ctx.environment.fleet_arrays
            self._agent = VectorAutoFLAgent(
                tier_codes=arrays.tier_codes,
                device_ids=arrays.device_ids,
                catalog=self._catalog,
                config=self._config,
                qtable_sharing=self._qtable_sharing,
                rng=self._rng,
                init_scale=self._init_scale,
                batch_synchronous=self._vectorized,
            )
        return self._agent

    def _candidate_rows(self, ctx: RoundContext) -> np.ndarray:
        # Only online candidates are observable: the FL protocol cannot collect runtime
        # state from an unreachable device, so offline devices get no transition (and no
        # Q-update) this round.
        if ctx.online_mask is None:
            return np.arange(len(ctx.environment.fleet_arrays), dtype=np.int64)
        return np.flatnonzero(ctx.online_mask)

    def select(self, ctx: RoundContext) -> SelectionDecision:
        agent = self._ensure_agent(ctx)
        environment = ctx.environment
        global_state = self._encoder.encode_global(environment.workload, environment.global_params)
        rows = self._candidate_rows(ctx)
        local_codes = self._encoder.encode_local_codes(
            ctx.conditions.take(rows), environment.data_profiles.class_fraction[rows]
        )
        selection = agent.select(global_state, rows, local_codes, effective_num_participants(ctx))
        targets = {
            device_id: self._catalog.to_target(action_id, environment.fleet.spec_of(device_id))
            for device_id, action_id in selection.actions.items()
        }
        return SelectionDecision(participants=selection.participant_ids, targets=targets)

    def feedback(
        self,
        ctx: RoundContext,
        decision: SelectionDecision,
        batch: BatchRoundExecution,
        training: RoundTrainingResult,
    ) -> None:
        fleet_energy = batch.fleet_energy_j
        selected_mask = np.zeros(len(fleet_energy), dtype=bool)
        selected_mask[batch.rows] = True
        failed_mask = np.zeros(len(fleet_energy), dtype=bool)
        failed_mask[batch.rows] = batch.failed
        self._learn(
            ctx, decision, fleet_energy, selected_mask, failed_mask,
            batch.global_energy_j, training,
        )

    def _learn(
        self,
        ctx: RoundContext,
        decision: SelectionDecision,
        fleet_energy: np.ndarray,
        selected_mask: np.ndarray,
        failed_mask: np.ndarray,
        global_energy: float,
        training: RoundTrainingResult,
    ) -> None:
        """Turn one round's measured energies and accuracy into Q-learning rewards.

        ``fleet_energy`` is every device's local energy (paper Eq. 5) in fleet order and
        ``global_energy`` their sum (Eq. 6); the masks mark the selected and the failed
        devices, also in fleet order.
        """
        agent = self._ensure_agent(ctx)
        # The participant mean is taken in set iteration order (the bits the goldens pin).
        rows = ctx.environment.fleet_arrays.rows_for(list(set(decision.participants)))
        participant_energy = fleet_energy[rows]
        mean_participant = (
            float(np.mean(participant_energy)) if len(participant_energy) else 0.0
        )
        self._reward.observe_round(global_energy, mean_participant)
        # Rewards land on the round's observable candidates — the devices the agent
        # holds pending transitions for (offline devices got no transition).  Mid-round
        # failures take the penalty branch, so the Q-tables learn to avoid re-selecting
        # unreliable devices in that (state, action).  With every device online the
        # candidates are the whole fleet, so the fleet-order arrays pass through as they are.
        if ctx.online_mask is not None:
            candidate_rows = self._candidate_rows(ctx)
            fleet_energy = fleet_energy[candidate_rows]
            selected_mask = selected_mask[candidate_rows]
            failed_mask = failed_mask[candidate_rows]
        rewards = self._reward.rewards_batch(
            global_energy_j=global_energy,
            local_energy_j=fleet_energy,
            accuracy=training.accuracy,
            previous_accuracy=training.previous_accuracy,
            selected=selected_mask,
            failed=failed_mask,
        )
        agent.record_rewards(rewards)

    def reward_history(self) -> list[float]:
        """Mean per-round reward trajectory (Figure 15 convergence analysis)."""
        if self._agent is None:
            return []
        return self._agent.reward_history


POLICIES.add(
    "autofl-fast",
    lambda rng=None, **kwargs: AutoFLPolicy(rng=rng, vectorized=True, **kwargs),
    summary="AutoFL with the batch-synchronous Q-update.",
)
