"""The AutoFL Q-learning agent (paper Algorithm 1).

The agent maintains the Q-tables, performs epsilon-greedy participant/target selection and
applies the Q-learning update once the next round's state is observed (the bootstrap term
``max_a' Q(S', a')`` of Algorithm 1 needs the *new* state, so updates for round *t* are
completed at the start of round *t + 1*).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.actions import ActionCatalog, IDLE_ACTION
from repro.core.qtable import QTableStore, VectorQTableStore
from repro.core.state import GlobalState, LocalState, StateEncoder
from repro.devices.fleet import Fleet
from repro.devices.fleet_arrays import TIER_ORDER
from repro.exceptions import PolicyError


@dataclass(frozen=True)
class QLearningConfig:
    """Hyperparameters of the Q-learning agent (paper Section 5.3)."""

    learning_rate: float = 0.9
    discount_factor: float = 0.1
    epsilon: float = 0.1

    def __post_init__(self) -> None:
        if not 0.0 < self.learning_rate <= 1.0:
            raise PolicyError("learning_rate must be in (0, 1]")
        if not 0.0 <= self.discount_factor < 1.0:
            raise PolicyError("discount_factor must be in [0, 1)")
        if not 0.0 <= self.epsilon <= 1.0:
            raise PolicyError("epsilon must be in [0, 1]")


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


def stable_top_k(keys: np.ndarray, k: int) -> np.ndarray:
    """``np.argsort(keys, kind="stable")[:k]`` without sorting all of ``keys``.

    A partition finds the k-th smallest key; every smaller key is in, and ties at that
    key are taken lowest index first, exactly as the stable sort would.  Only the k
    chosen keys are then sorted, by key and then by index.
    """
    if k >= len(keys):
        return np.argsort(keys, kind="stable")
    if k <= 0:
        return np.empty(0, dtype=np.intp)
    kth = np.partition(keys, k - 1)[k - 1]
    if np.isnan(kth):  # Fewer than k non-NaN keys: NaNs sort last, in index order.
        return np.argsort(keys, kind="stable")[:k]
    below = np.flatnonzero(keys < kth)
    tied = np.flatnonzero(keys == kth)[: k - len(below)]
    chosen = np.concatenate([below, tied])
    return chosen[np.lexsort((chosen, keys[chosen]))]


def runs_of_sorted(sorted_values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First index and length of every run of equal values in an already sorted array.

    The ``return_index`` / ``return_counts`` of ``np.unique`` on that array, without
    the second sort ``np.unique`` would make.
    """
    starts = np.ones(len(sorted_values), dtype=bool)
    np.not_equal(sorted_values[1:], sorted_values[:-1], out=starts[1:])
    first_index = np.flatnonzero(starts)
    return first_index, np.diff(first_index, append=len(sorted_values))


@dataclass
class _VectorPending:
    """One round's pending transitions of :class:`VectorAutoFLAgent` as arrays."""

    global_tuple: tuple[int, ...]
    rows: np.ndarray
    local_codes: np.ndarray
    action_cols: np.ndarray
    rewards: np.ndarray | None = None


@dataclass
class VectorAgentSelection:
    """Result of one vectorised agent decision."""

    participant_ids: list[int]
    actions: dict[int, int]
    explored: bool = False


class VectorAutoFLAgent:
    """Array-native Q-learning agent: the AutoFL hot path without per-device Python.

    State binning happens upstream as packed local codes
    (:meth:`~repro.core.state.StateEncoder.encode_local_codes`); lookup/argmax and the
    Q-update run as fancy indexing into :class:`VectorQTableStore` blocks.

    Semantics relative to :class:`AutoFLAgent`: selection draws consume the *same* RNG
    stream (one epsilon draw, then either the explore choices or one jitter draw per
    candidate), and the Q-update is **batch-synchronous** — every bootstrap reads the
    pre-round table, and duplicate writes to one shared cell fold with the exact
    sequential recurrence.  With per-device table sharing no two candidates share a cell,
    so batch-synchronous equals the scalar agent's sequential update exactly; with
    per-tier sharing the scalar agent's intra-round read-after-write ordering is
    intentionally not reproduced (that ordering is an artefact of its Python loop).
    """

    def __init__(
        self,
        tier_codes: np.ndarray,
        device_ids: np.ndarray,
        catalog: ActionCatalog | None = None,
        config: QLearningConfig | None = None,
        qtable_sharing: str = QTableStore.PER_TIER,
        rng: np.random.Generator | None = None,
        init_scale: float = 0.01,
    ) -> None:
        if qtable_sharing not in (QTableStore.PER_DEVICE, QTableStore.PER_TIER):
            raise PolicyError(f"unknown qtable sharing mode {qtable_sharing!r}")
        self._tier_codes = np.asarray(tier_codes, dtype=np.int64)
        self._device_ids = np.asarray(device_ids, dtype=np.int64)
        self._catalog = catalog or ActionCatalog()
        self._config = config or QLearningConfig()
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._sharing = qtable_sharing
        self._action_ids = self._catalog.action_ids
        self._action_id_array = np.array(self._action_ids, dtype=np.int64)
        num_keys = (
            len(self._tier_codes) if qtable_sharing == QTableStore.PER_DEVICE else len(TIER_ORDER)
        )
        self._store = VectorQTableStore(
            num_keys=num_keys,
            num_local_codes=StateEncoder.NUM_LOCAL_CODES,
            num_actions=len(self._action_ids),
            rng=self._rng,
            init_scale=init_scale,
        )
        self._pending: _VectorPending | None = None
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
    def qtable_store(self) -> VectorQTableStore:
        """The underlying dense Q-block store."""
        return self._store

    @property
    def reward_history(self) -> list[float]:
        """Mean per-round reward over time (used for convergence analysis, Figure 15)."""
        return list(self._reward_history)

    def _key_indices(self, rows: np.ndarray) -> np.ndarray:
        if self._sharing == QTableStore.PER_DEVICE:
            return rows
        return self._tier_codes[rows]

    # ------------------------------------------------------------------ selection
    def select(
        self,
        global_state: GlobalState,
        candidate_rows: np.ndarray,
        local_codes: np.ndarray,
        num_participants: int,
    ) -> VectorAgentSelection:
        """Epsilon-greedy selection over the observable candidates (fleet rows).

        ``candidate_rows`` / ``local_codes`` are aligned, in fleet order.  Pending
        Q-updates from the previous round complete first, exactly like the scalar agent.
        """
        if num_participants <= 0:
            raise PolicyError("num_participants must be positive")
        if len(candidate_rows) < num_participants:
            raise PolicyError("not enough devices with observed local states")
        global_tuple = global_state.as_tuple()
        self._complete_pending_updates(global_tuple, candidate_rows, local_codes)

        candidate_ids = self._device_ids[candidate_rows]
        num_actions = len(self._action_ids)
        idle_col = self._store.idle_column
        explored = bool(self._rng.random() < self._config.epsilon)
        action_cols = np.full(len(candidate_rows), idle_col, dtype=np.int64)
        if explored:
            chosen_ids = self._rng.choice(
                candidate_ids, size=num_participants, replace=False
            ).astype(np.int64)
            sorter = np.argsort(candidate_ids, kind="stable")
            positions = sorter[np.searchsorted(candidate_ids, chosen_ids, sorter=sorter)]
            actions: dict[int, int] = {}
            for position, device_id in zip(positions, chosen_ids):
                action_id = int(self._rng.choice(self._action_ids))
                actions[int(device_id)] = action_id
                action_cols[position] = self._action_ids.index(action_id)
            chosen = [int(device_id) for device_id in chosen_ids]
        else:
            block = self._store.block(global_tuple)
            key_idx = self._key_indices(candidate_rows)
            values = block[key_idx, local_codes, :num_actions]
            # First-max-wins argmax matches the scalar best_action's strict-> scan.
            best_cols = np.argmax(values, axis=1)
            best_values = values[np.arange(len(values)), best_cols]
            # Ties (devices sharing a Q-table entry) are broken randomly to avoid a
            # biased selection among equivalent devices (paper Section 4.2).
            jitter = self._rng.random(len(candidate_rows)) * 1e-6
            top = stable_top_k(-(best_values + jitter), num_participants)
            action_cols[top] = best_cols[top]
            chosen = [int(device_id) for device_id in candidate_ids[top]]
            actions = {
                int(candidate_ids[position]): self._action_ids[int(best_cols[position])]
                for position in top
            }
        self._pending = _VectorPending(
            global_tuple=global_tuple,
            rows=np.asarray(candidate_rows, dtype=np.int64),
            local_codes=np.asarray(local_codes, dtype=np.int64),
            action_cols=action_cols,
        )
        return VectorAgentSelection(participant_ids=chosen, actions=actions, explored=explored)

    # ------------------------------------------------------------------ learning
    def record_rewards(self, rewards: np.ndarray) -> None:
        """Attach per-candidate rewards (aligned on the pending candidate rows)."""
        if self._pending is None:
            raise PolicyError("record_rewards called with no pending transitions")
        if len(rewards) != len(self._pending.rows):
            raise PolicyError("rewards must align with the pending candidate rows")
        self._pending.rewards = np.asarray(rewards, dtype=np.float64)
        self._reward_history.append(float(np.mean(self._pending.rewards)))

    def _complete_pending_updates(
        self,
        new_global_tuple: tuple[int, ...],
        new_candidate_rows: np.ndarray,
        new_local_codes: np.ndarray,
    ) -> None:
        """Batch-synchronous Q-update of Algorithm 1 for the previous round."""
        pending = self._pending
        self._pending = None
        if pending is None or pending.rewards is None:
            return
        lr = self._config.learning_rate
        discount = self._config.discount_factor
        num_actions = len(self._action_ids)
        idle_col = self._store.idle_column

        # Bootstrap state: the newly observed local code where the device is still
        # observable, otherwise the stored transition's own code (offline fallback).
        new_code_of = np.full(len(self._device_ids), -1, dtype=np.int64)
        new_code_of[new_candidate_rows] = new_local_codes
        observed = new_code_of[pending.rows]
        bootstrap_codes = np.where(observed >= 0, observed, pending.local_codes)

        block_old = self._store.block(pending.global_tuple)
        block_new = self._store.block(new_global_tuple)
        key_idx = self._key_indices(pending.rows)
        current = block_old[key_idx, pending.local_codes, pending.action_cols]
        next_values = block_new[key_idx, bootstrap_codes, :]
        # Idle transitions bootstrap over actions plus the dedicated idle entry, so
        # non-participation also accumulates value (mirrors the scalar agent).
        best_next_actions = np.max(next_values[:, :num_actions], axis=1)
        best_next_all = np.maximum(best_next_actions, next_values[:, idle_col])
        best_next = np.where(
            pending.action_cols == idle_col, best_next_all, best_next_actions
        )
        targets = pending.rewards + discount * best_next

        # Scatter with duplicate folding: candidates sharing one (key, state, action)
        # cell apply the exact sequential recurrence
        #   c_{i+1} = (1 - lr) * c_i + lr * t_i
        # in candidate order.  Cells hit once use the scalar agent's literal
        # ``c + lr * (t - c)`` expression so per-device sharing matches it bit-for-bit.
        flat = (
            key_idx * block_old.shape[1] + pending.local_codes
        ) * (num_actions + 1) + pending.action_cols
        order = np.argsort(flat, kind="stable")
        sorted_flat = flat[order]
        sorted_targets = targets[order]
        first_index, counts = runs_of_sorted(sorted_flat)
        unique_cells = sorted_flat[first_index]
        first_current = current[order][first_index]
        first_targets = sorted_targets[first_index]
        position = np.arange(len(sorted_flat)) - np.repeat(first_index, counts)
        group_size = np.repeat(counts, counts)
        weights = lr * (1.0 - lr) ** (group_size - 1 - position)
        folded = (1.0 - lr) ** counts * first_current + np.add.reduceat(
            weights * sorted_targets, first_index
        )
        final = np.where(
            counts == 1,
            first_current + lr * (first_targets - first_current),
            folded,
        )
        block_old.reshape(-1)[unique_cells] = final

    def flush(self) -> None:
        """Finalise pending updates without a next state (end of a training job).

        Bootstraps from each transition's own stored state, which is exact for a zero
        discount factor and a close approximation for the paper's 0.1.
        """
        pending = self._pending
        if pending is None:
            return
        self._complete_pending_updates(
            pending.global_tuple, pending.rows, pending.local_codes
        )
