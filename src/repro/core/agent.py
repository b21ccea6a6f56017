"""The AutoFL Q-learning agent (paper Algorithm 1).

The agent maintains the Q-tables, performs epsilon-greedy participant/target selection and
applies the Q-learning update once the next round's state is observed (the bootstrap term
``max_a' Q(S', a')`` of Algorithm 1 needs the *new* state, so updates for round *t* are
completed at the start of round *t + 1*).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from repro.core.actions import ActionCatalog
from repro.core.qtable import PER_DEVICE, PER_TIER, VectorQTableStore, group_cells
from repro.core.state import GlobalState, StateEncoder
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


def row_max(values: np.ndarray) -> np.ndarray:
    """Each row's max, column by column: far faster than a row-wise reduction over a
    handful of columns."""
    best = values[:, 0]
    for column in range(1, values.shape[1]):
        best = np.maximum(best, values[:, column])
    return best


def first_max(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.argmax(values, axis=1)`` and the values it picks, for NaN-free ``values``.

    The first column reaching a row's max is the count of leading columns strictly
    below it, taken column by column.  The values are read back at those columns, so
    a ``-0.0`` / ``0.0`` tie keeps the chosen cell's sign bit.
    """
    best = row_max(values)
    below = values[:, 0] < best
    columns = below.astype(np.intp)
    for column in range(1, values.shape[1] - 1):
        below &= values[:, column] < best
        columns += below
    return columns, values[np.arange(len(values)), columns]


def _skip_idle_slot(matrix: np.ndarray, idle: np.ndarray) -> np.ndarray:
    """Point the last (idle) column of each non-idle transition's row at column 0.

    Non-idle transitions bootstrap over the actions alone; re-reading action 0 in the
    idle slot leaves their max unchanged.  Works on values and on cell indices alike.
    """
    matrix[:, -1] = np.where(idle, matrix[:, -1], matrix[:, 0])
    return matrix


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
    """Array-native Q-learning agent: Algorithm 1 over the whole candidate set.

    State binning happens upstream as packed local codes
    (:meth:`~repro.core.state.StateEncoder.encode_local_codes`); lookup/argmax and the
    Q-update run as fancy indexing into :class:`VectorQTableStore` blocks.

    Every random draw follows Algorithm 1 run one device at a time: one epsilon draw,
    then either the explore choices or one jitter draw per candidate, and each Q-cell's
    initial value drawn when that cell is first read (:meth:`VectorQTableStore.initialise`).
    Two update rules complete the previous round's transitions:

    * **sequential** (the default, ``autofl``): the transitions apply in candidate order,
      so a later transition reads an earlier one's write to a shared per-tier cell.
    * **batch-synchronous** (``batch_synchronous=True``, ``autofl-fast``): every
      bootstrap reads the pre-round table, and duplicate writes to one shared cell fold
      with the exact sequential recurrence.  With per-device sharing no two candidates
      share a cell and the two rules agree; with per-tier sharing they differ.
    """

    def __init__(
        self,
        tier_codes: np.ndarray,
        device_ids: np.ndarray,
        catalog: ActionCatalog | None = None,
        config: QLearningConfig | None = None,
        qtable_sharing: str = PER_TIER,
        rng: np.random.Generator | None = None,
        init_scale: float = 0.01,
        batch_synchronous: bool = False,
    ) -> None:
        self._tier_codes = np.asarray(tier_codes, dtype=np.int64)
        self._device_ids = np.asarray(device_ids, dtype=np.int64)
        # Selections hand out these ints, so every round's records share them.
        self._device_id_list: list[int] = self._device_ids.tolist()
        self._catalog = catalog or ActionCatalog()
        self._config = config or QLearningConfig()
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._sharing = qtable_sharing
        self._batch_synchronous = batch_synchronous
        self._action_ids = self._catalog.action_ids
        num_keys = len(self._tier_codes) if qtable_sharing == PER_DEVICE else len(TIER_ORDER)
        self._store = VectorQTableStore(
            num_keys=num_keys,
            num_local_codes=StateEncoder.NUM_LOCAL_CODES,
            num_actions=len(self._action_ids),
            rng=self._rng,
            init_scale=init_scale,
            sharing=qtable_sharing,
        )
        # Powers of ``1 - lr`` for the batch-synchronous fold, up to the fleet size, the
        # longest run of transitions one cell can take.  numpy's array power, whose last
        # bit can differ from Python's float power, is the arithmetic the fold pins.
        self._decay = (1.0 - self._config.learning_rate) ** np.arange(
            len(self._device_ids) + 1
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
        if self._sharing == PER_DEVICE:
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
        Q-updates from the previous round complete first, with these as ``S'``.
        """
        if num_participants <= 0:
            raise PolicyError("num_participants must be positive")
        if len(candidate_rows) < num_participants:
            raise PolicyError("not enough devices with observed local states")
        candidate_rows = np.asarray(candidate_rows, dtype=np.int64)
        local_codes = np.asarray(local_codes, dtype=np.int64)
        global_tuple = global_state.as_tuple()
        self._complete_pending_updates(global_tuple, candidate_rows, local_codes)

        num_actions = len(self._action_ids)
        action_cols = np.full(len(candidate_rows), num_actions, dtype=np.int64)
        explored = bool(self._rng.random() < self._config.epsilon)
        if explored:
            # Drawing positions consumes the stream exactly as drawing the ids would.
            top = self._rng.choice(len(candidate_rows), size=num_participants, replace=False)
            for position in top:
                action_cols[position] = self._action_ids.index(
                    int(self._rng.choice(self._action_ids))
                )
        else:
            table = self._store.table(global_tuple)
            rows = self._store.row_index(self._key_indices(candidate_rows), local_codes)
            values = table.take(rows, axis=0)[:, :num_actions]
            unread = np.isnan(values)
            if unread.any():
                # Read order: candidate by candidate, action by action.
                cells = rows[:, None] * (num_actions + 1) + np.arange(num_actions)
                self._store.initialise([table], cells[unread])
                values = table.take(rows, axis=0)[:, :num_actions]
            # First-max-wins argmax, like a strict ``>`` scan over the actions.  Every
            # cell read is initialised above, so ``values`` holds no NaN.
            best_cols, best_values = first_max(values)
            # Ties (devices sharing a Q-table entry) are broken randomly to avoid a
            # biased selection among equivalent devices (paper Section 4.2).
            jitter = self._rng.random(len(candidate_rows)) * 1e-6
            top = stable_top_k(-(best_values + jitter), num_participants)
            action_cols[top] = best_cols[top]
        ids = self._device_id_list
        chosen_rows = candidate_rows[top].tolist()
        chosen = [ids[row] for row in chosen_rows]
        actions = {
            ids[row]: self._action_ids[col]
            for row, col in zip(chosen_rows, action_cols[top].tolist())
        }
        self._pending = _VectorPending(
            global_tuple=global_tuple,
            rows=candidate_rows,
            local_codes=local_codes,
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
        """The Q-update of Algorithm 1 for the previous round's transitions."""
        pending = self._pending
        self._pending = None
        if pending is None or pending.rewards is None:
            return
        store = self._store
        num_actions = len(self._action_ids)

        # Bootstrap state: the newly observed local code where the device is still
        # observable, otherwise the stored transition's own code (offline fallback).
        new_code_of = np.full(len(self._device_ids), -1, dtype=np.int64)
        new_code_of[new_candidate_rows] = new_local_codes
        observed = new_code_of[pending.rows]
        bootstrap_codes = np.where(observed >= 0, observed, pending.local_codes)

        old_table = store.table(pending.global_tuple)
        new_table = store.table(new_global_tuple)
        # Cells of the two blocks are numbered old block first, then the new one.
        offset = 0 if new_global_tuple == pending.global_tuple else old_table.size
        keys = self._key_indices(pending.rows)
        width = num_actions + 1
        current_cells = store.row_index(keys, pending.local_codes) * width + pending.action_cols
        next_rows = store.row_index(keys, bootstrap_codes)
        # Idle transitions bootstrap over the actions plus the dedicated idle entry, so
        # non-participation also accumulates value; the others over the actions alone.
        idle = pending.action_cols == num_actions
        current = old_table.take(current_cells)
        next_values = _skip_idle_slot(new_table.take(next_rows, axis=0), idle)
        unread_current, unread_next = np.isnan(current), np.isnan(next_values)
        if unread_current.any() or unread_next.any():
            # Read order: per transition, the current cell, then the bootstrap row.
            tables = [old_table, new_table] if offset else [old_table]
            next_cells = next_rows[:, None] * width + np.arange(width) + offset
            cells = np.column_stack([current_cells, _skip_idle_slot(next_cells, idle)])
            store.initialise(tables, cells[np.column_stack([unread_current, unread_next])])
            current = old_table.take(current_cells)
            next_values = _skip_idle_slot(new_table.take(next_rows, axis=0), idle)
        if self._batch_synchronous:
            self._fold_update(old_table, current_cells, current, next_values, pending.rewards)
        else:
            self._sequential_update(
                old_table, new_table, offset, current_cells, next_rows, idle, pending.rewards
            )

    def _sequential_update(
        self,
        old_table: np.ndarray,
        new_table: np.ndarray,
        offset: int,
        current_cells: np.ndarray,
        next_rows: np.ndarray,
        idle: np.ndarray,
        rewards: np.ndarray,
    ) -> None:
        """Apply the transitions one by one, in candidate order.

        Only this round's cells take part: they are gathered into one short list, the
        loop reads and writes that list, and the list is scattered back.  Transitions
        that bootstrap from the same row share one getter over it.
        """
        lr = self._config.learning_rate
        discount = self._config.discount_factor
        width = old_table.shape[1]
        _, first, row_of = np.unique(
            next_rows * 2 + idle, return_index=True, return_inverse=True
        )
        row_cells = _skip_idle_slot(
            next_rows[first, None] * width + np.arange(width) + offset, idle[first]
        )
        cells = np.unique(np.concatenate([row_cells.ravel(), current_cells]))
        getters = [
            itemgetter(*slots) for slots in np.searchsorted(cells, row_cells).tolist()
        ]
        split = np.searchsorted(cells, old_table.size)
        old_cells, new_cells = cells[:split], cells[split:] - offset
        values = np.concatenate([old_table.take(old_cells), new_table.take(new_cells)]).tolist()
        for slot, next_values, reward in zip(
            np.searchsorted(cells, current_cells).tolist(),
            map(getters.__getitem__, row_of.tolist()),
            rewards.tolist(),
        ):
            current = values[slot]
            values[slot] = current + lr * (reward + discount * max(next_values(values)) - current)
        updated = np.array(values)
        old_table.reshape(-1)[old_cells] = updated[:split]
        new_table.reshape(-1)[new_cells] = updated[split:]

    def _fold_update(
        self,
        old_table: np.ndarray,
        current_cells: np.ndarray,
        current: np.ndarray,
        next_values: np.ndarray,
        rewards: np.ndarray,
    ) -> None:
        """Batch-synchronous update: every bootstrap reads the pre-round table.

        Candidates sharing one (key, state, action) cell apply the exact sequential
        recurrence ``c_{i+1} = (1 - lr) * c_i + lr * t_i`` in candidate order, unrolled
        as ``(1 - lr)^n * c_0 + sum_i lr * (1 - lr)^(n - 1 - i) * t_i`` over the ``n``
        transitions of each cell; :func:`group_cells` groups them and the powers come
        from the agent's table.  Cells hit once use the literal ``c + lr * (t - c)``, so
        per-device sharing matches the sequential update bit for bit.
        """
        lr = self._config.learning_rate
        targets = rewards + self._config.discount_factor * row_max(next_values)
        order, first_index, counts = group_cells(current_cells, old_table.size)
        first = order[first_index]
        first_current = current[first]
        first_targets = targets[first]
        # A transition's power is the number of later transitions on its cell.
        exponents = np.repeat(first_index + counts - 1, counts) - np.arange(len(order))
        folded = self._decay[counts] * first_current + np.add.reduceat(
            lr * self._decay[exponents] * targets[order], first_index
        )
        final = np.where(
            counts == 1,
            first_current + lr * (first_targets - first_current),
            folded,
        )
        old_table.reshape(-1)[current_cells[first]] = final

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
