"""The scalar AutoFL agent: a readable oracle for the array agent in ``repro.core``.

This is Algorithm 1 written one device and one Q-entry at a time — sparse dict-of-tuples
Q-tables (:class:`QTable` / :class:`QTableStore`) that initialise each entry on first
read from the shared RNG stream, and an agent (:class:`AutoFLAgent`) that applies the
Q-update transition by transition in candidate order.  ``VectorAutoFLAgent`` must match
it bit for bit under ``autofl``'s sequential update; :class:`ScalarAutoFLPolicy` drives
it through a simulation the way ``AutoFLPolicy`` drives the array agent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.actions import ActionCatalog, IDLE_ACTION
from repro.core.agent import QLearningConfig
from repro.core.controller import AutoFLPolicy
from repro.core.selection import effective_num_participants
from repro.core.state import GlobalState, LocalState
from repro.devices.fleet import Fleet
from repro.devices.specs import DeviceTier
from repro.exceptions import PolicyError
from repro.sim.context import RoundContext, SelectionDecision

QKey = tuple[tuple[int, ...], tuple[int, ...], int]


class QTable:
    """A sparse Q(S_global, S_local, A) lookup table."""

    def __init__(self, rng: np.random.Generator | None = None, init_scale: float = 0.01) -> None:
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._init_scale = init_scale
        self._values: dict[QKey, float] = {}

    def __len__(self) -> int:
        return len(self._values)

    @staticmethod
    def _key(global_state: GlobalState, local_state: LocalState, action_id: int) -> QKey:
        return (global_state.as_tuple(), local_state.as_tuple(), action_id)

    def get(self, global_state: GlobalState, local_state: LocalState, action_id: int) -> float:
        """Q-value of a (state, action) pair, lazily initialised to a small random value.

        At ``init_scale=0.0`` entries initialise to exact zero *without consuming the RNG
        stream*.
        """
        key = self._key(global_state, local_state, action_id)
        if key not in self._values:
            if self._init_scale == 0.0:
                self._values[key] = 0.0
            else:
                self._values[key] = float(self._rng.normal(0.0, self._init_scale))
        return self._values[key]

    def set(
        self, global_state: GlobalState, local_state: LocalState, action_id: int, value: float
    ) -> None:
        """Overwrite the Q-value of a (state, action) pair."""
        self._values[self._key(global_state, local_state, action_id)] = float(value)

    def best_action(
        self, global_state: GlobalState, local_state: LocalState, action_ids: list[int]
    ) -> tuple[int, float]:
        """The action (among ``action_ids``) with the highest Q-value, and that value."""
        if not action_ids:
            raise PolicyError("action_ids must not be empty")
        best_id = action_ids[0]
        best_value = self.get(global_state, local_state, best_id)
        for action_id in action_ids[1:]:
            value = self.get(global_state, local_state, action_id)
            if value > best_value:
                best_id, best_value = action_id, value
        return best_id, best_value

    def memory_entries(self) -> int:
        """Number of materialised table entries (a proxy for memory footprint)."""
        return len(self._values)


class QTableStore:
    """Holds the Q-tables of a fleet, either one per device or one per performance tier."""

    PER_DEVICE = "per-device"
    PER_TIER = "per-tier"

    def __init__(
        self,
        sharing: str = PER_TIER,
        rng: np.random.Generator | None = None,
        init_scale: float = 0.01,
    ) -> None:
        if sharing not in (self.PER_DEVICE, self.PER_TIER):
            raise PolicyError(
                f"sharing must be {self.PER_DEVICE!r} or {self.PER_TIER!r}, got {sharing!r}"
            )
        self._sharing = sharing
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._init_scale = init_scale
        self._tables: dict[object, QTable] = {}

    @property
    def sharing(self) -> str:
        """The sharing mode (``"per-device"`` or ``"per-tier"``)."""
        return self._sharing

    def table_for(self, device_id: int, tier: DeviceTier) -> QTable:
        """The Q-table responsible for a device."""
        key: object = device_id if self._sharing == self.PER_DEVICE else tier
        if key not in self._tables:
            self._tables[key] = QTable(rng=self._rng, init_scale=self._init_scale)
        return self._tables[key]

    @property
    def num_tables(self) -> int:
        """Number of distinct tables materialised so far."""
        return len(self._tables)

    def total_entries(self) -> int:
        """Total number of Q-table entries across all tables."""
        return sum(table.memory_entries() for table in self._tables.values())


@dataclass
class PendingTransition:
    """A (state, action, reward) tuple awaiting its next-state bootstrap."""

    global_state: GlobalState
    local_state: LocalState
    action_id: int
    reward: float = 0.0
    reward_ready: bool = False


@dataclass
class AgentSelection:
    """Result of one agent decision: ranked participants and their chosen actions."""

    participant_ids: list[int]
    actions: dict[int, int]
    explored: bool = False
    pending: dict[int, PendingTransition] = field(default_factory=dict)


class AutoFLAgent:
    """Per-fleet Q-learning agent selecting participants and execution targets."""

    def __init__(
        self,
        fleet: Fleet,
        catalog: ActionCatalog | None = None,
        config: QLearningConfig | None = None,
        qtable_sharing: str = QTableStore.PER_TIER,
        rng: np.random.Generator | None = None,
        init_scale: float = 0.01,
    ) -> None:
        self._fleet = fleet
        self._catalog = catalog or ActionCatalog()
        self._config = config or QLearningConfig()
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._store = QTableStore(sharing=qtable_sharing, rng=self._rng, init_scale=init_scale)
        self._pending: dict[int, PendingTransition] = {}
        self._reward_history: list[float] = []

    @property
    def catalog(self) -> ActionCatalog:
        """The per-device execution-target action catalog."""
        return self._catalog

    @property
    def config(self) -> QLearningConfig:
        """The Q-learning hyperparameters."""
        return self._config

    @property
    def qtable_store(self) -> QTableStore:
        """The underlying Q-table store."""
        return self._store

    @property
    def reward_history(self) -> list[float]:
        """Mean per-round reward over time (used for convergence analysis, Figure 15)."""
        return list(self._reward_history)

    # ------------------------------------------------------------------ selection
    def _device_value(
        self, device_id: int, global_state: GlobalState, local_state: LocalState
    ) -> tuple[int, float]:
        device = self._fleet[device_id]
        table = self._store.table_for(device_id, device.tier)
        return table.best_action(global_state, local_state, self._catalog.action_ids)

    def select(
        self,
        global_state: GlobalState,
        local_states: dict[int, LocalState],
        num_participants: int,
    ) -> AgentSelection:
        """Epsilon-greedy selection of participants and their execution-target actions.

        Before ranking, any pending Q-updates from the previous round are completed using
        the newly observed states (the ``S'`` of Algorithm 1).
        """
        if num_participants <= 0:
            raise PolicyError("num_participants must be positive")
        if len(local_states) < num_participants:
            raise PolicyError("not enough devices with observed local states")
        self._complete_pending_updates(global_state, local_states)

        device_ids = list(local_states)
        explored = bool(self._rng.random() < self._config.epsilon)
        if explored:
            chosen = [
                int(device_id)
                for device_id in self._rng.choice(device_ids, size=num_participants, replace=False)
            ]
            actions = {
                device_id: int(self._rng.choice(self._catalog.action_ids))
                for device_id in chosen
            }
        else:
            # Ties (devices sharing a Q-table entry) are broken randomly to avoid a biased
            # selection among equivalent devices (paper Section 4.2).
            scored = [
                (
                    device_id,
                    *self._device_value(device_id, global_state, local_states[device_id]),
                )
                for device_id in device_ids
            ]
            jitter = {device_id: self._rng.random() * 1e-6 for device_id in device_ids}
            scored.sort(key=lambda item: item[2] + jitter[item[0]], reverse=True)
            top = scored[:num_participants]
            chosen = [device_id for device_id, _action, _value in top]
            actions = {device_id: action for device_id, action, _value in top}

        pending: dict[int, PendingTransition] = {}
        for device_id in device_ids:
            action_id = actions.get(device_id, IDLE_ACTION)
            pending[device_id] = PendingTransition(
                global_state=global_state,
                local_state=local_states[device_id],
                action_id=action_id,
            )
        self._pending = pending
        return AgentSelection(
            participant_ids=chosen, actions=actions, explored=explored, pending=pending
        )

    # ------------------------------------------------------------------ learning
    def record_rewards(self, rewards: dict[int, float]) -> None:
        """Attach the computed per-device rewards to the round's pending transitions."""
        if not self._pending:
            raise PolicyError("record_rewards called with no pending transitions")
        for device_id, reward in rewards.items():
            transition = self._pending.get(device_id)
            if transition is None:
                continue
            transition.reward = reward
            transition.reward_ready = True
        ready = [t.reward for t in self._pending.values() if t.reward_ready]
        if ready:
            self._reward_history.append(float(np.mean(ready)))

    def _complete_pending_updates(
        self, new_global_state: GlobalState, new_local_states: dict[int, LocalState]
    ) -> None:
        """Apply the Q-learning update of Algorithm 1 for the previous round's transitions."""
        if not self._pending:
            return
        lr = self._config.learning_rate
        discount = self._config.discount_factor
        for device_id, transition in self._pending.items():
            if not transition.reward_ready:
                continue
            new_local = new_local_states.get(device_id)
            if new_local is None:
                # The device is unobservable this round (offline or churned away under
                # fleet dynamics).  Bootstrap from the stored state instead of dropping
                # the update — exact for a zero discount factor, a close approximation
                # for the paper's 0.1 — so rewards for unreliable picks (which are
                # exactly the devices likely to be offline next round) always land.
                new_local = transition.local_state
            device = self._fleet[device_id]
            table = self._store.table_for(device_id, device.tier)
            action_ids = self._catalog.action_ids
            if transition.action_id == IDLE_ACTION:
                # Track a dedicated idle entry so non-participation also accumulates value.
                current = table.get(transition.global_state, transition.local_state, IDLE_ACTION)
                lookup_ids = action_ids + [IDLE_ACTION]
            else:
                current = table.get(
                    transition.global_state, transition.local_state, transition.action_id
                )
                lookup_ids = action_ids
            _best_next_action, best_next_value = table.best_action(
                new_global_state, new_local, lookup_ids
            )
            updated = current + lr * (
                transition.reward + discount * best_next_value - current
            )
            table.set(
                transition.global_state, transition.local_state, transition.action_id, updated
            )
        self._pending = {}

    def flush(self, fallback_local_states: dict[int, LocalState] | None = None) -> None:
        """Finalise any pending updates without a next state (end of a training job).

        Uses the stored transition's own state as the bootstrap state, which is exact when
        the discount factor is zero and a close approximation for the paper's 0.1.
        """
        if not self._pending:
            return
        states = {
            device_id: transition.local_state for device_id, transition in self._pending.items()
        }
        if fallback_local_states:
            states.update(fallback_local_states)
        any_transition = next(iter(self._pending.values()))
        self._complete_pending_updates(any_transition.global_state, states)


class ScalarAutoFLPolicy(AutoFLPolicy):
    """``autofl`` driven by the scalar agent: per-device ``LocalState``s in, dict
    rewards out.  Feedback reaches :meth:`_learn` through ``AutoFLPolicy.feedback``."""

    def _ensure_agent(self, ctx: RoundContext) -> AutoFLAgent:
        if self._agent is None:
            self._agent = AutoFLAgent(
                fleet=ctx.environment.fleet,
                catalog=self._catalog,
                config=self._config,
                qtable_sharing=self._qtable_sharing,
                rng=self._rng,
                init_scale=self._init_scale,
            )
        return self._agent

    def select(self, ctx: RoundContext) -> SelectionDecision:
        agent = self._ensure_agent(ctx)
        environment = ctx.environment
        global_state = self._encoder.encode_global(environment.workload, environment.global_params)
        # Only online candidates are observable, so offline devices get no transition.
        conditions = ctx.conditions.lazy_mapping(environment.fleet_arrays.device_ids)
        local_states = {
            device_id: self._encoder.encode_local(
                conditions[device_id], environment.data_profile(device_id)
            )
            for device_id in ctx.candidate_id_array().tolist()
        }
        selection = agent.select(global_state, local_states, effective_num_participants(ctx))
        targets = {
            device_id: self._catalog.to_target(action_id, environment.fleet[device_id].spec)
            for device_id, action_id in selection.actions.items()
        }
        return SelectionDecision(participants=selection.participant_ids, targets=targets)

    def _learn(
        self, ctx, decision, fleet_energy, selected_mask, failed_mask, global_energy, training
    ) -> None:
        agent = self._ensure_agent(ctx)
        # The participant mean is taken in set iteration order.
        rows = ctx.environment.fleet_arrays.rows_for(list(set(decision.participants)))
        participant_energy = fleet_energy[rows]
        mean_participant = (
            float(np.mean(participant_energy)) if len(participant_energy) else 0.0
        )
        self._reward.observe_round(global_energy, mean_participant)
        candidate_rows = self._candidate_rows(ctx)
        rewards = self._reward.rewards_batch(
            global_energy_j=global_energy,
            local_energy_j=fleet_energy[candidate_rows],
            accuracy=training.accuracy,
            previous_accuracy=training.previous_accuracy,
            selected=selected_mask[candidate_rows],
            failed=failed_mask[candidate_rows],
        )
        candidate_ids = ctx.environment.fleet_arrays.device_ids[candidate_rows]
        agent.record_rewards(dict(zip(candidate_ids.tolist(), rewards.tolist())))
