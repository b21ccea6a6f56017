"""Q-value storage: dense Q-blocks with per-device or per-tier table sharing.

Paper Section 4: AutoFL keeps a Q-table per device; to scale to large populations (and to
speed up early training), devices of the same performance category can share one table at
the cost of a small prediction-accuracy loss (Section 6.4, Figure 15).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.exceptions import PolicyError

#: One Q-table per device.
PER_DEVICE = "per-device"
#: One Q-table per performance tier, shared by every device of that tier.
PER_TIER = "per-tier"
SHARING_MODES = (PER_DEVICE, PER_TIER)


def runs_of_sorted(sorted_values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First index and length of every run of equal values in an already sorted array.

    The ``return_index`` / ``return_counts`` of ``np.unique`` on that array, without
    the second sort ``np.unique`` would make.
    """
    size = len(sorted_values)
    # The start of every run, then ``size``: the end of the last one.
    starts = np.ones(size + 1, dtype=bool)
    np.not_equal(sorted_values[1:], sorted_values[:-1], out=starts[1:size])
    bounds = np.flatnonzero(starts)
    return bounds[:-1], bounds[1:] - bounds[:-1]


def group_cells(
    cells: np.ndarray, bound: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group cell ids in ``[0, bound)``: their stable order, then each run's first index
    and length in that order.

    ``order`` is ``np.argsort(cells, kind="stable")`` and the runs are
    :func:`runs_of_sorted` of ``cells[order]``.  The sort key is the narrowest unsigned
    type that holds ``bound - 1``, because numpy's stable sort is a linear radix sort
    for integers of at most 16 bits: per-tier Q-blocks have a few thousand cells.
    Wider keys (per-device blocks) take timsort, which is fast on the nearly sorted
    cells a fleet-order read path hands it.
    """
    key = cells.astype(np.min_scalar_type(bound - 1))
    order = np.argsort(key, kind="stable")
    first_index, counts = runs_of_sorted(key[order])
    return order, first_index, counts


class VectorQTableStore:
    """Dense Q-value blocks, one per global state, with lazy per-cell initialisation.

    Each global-state tuple owns an array of shape ``[num_keys, num_local_codes,
    num_actions + 1]``: ``num_keys`` is the number of sharing groups (fleet size for
    per-device sharing, number of tiers for per-tier), local states are addressed by
    their packed code (:meth:`repro.core.state.StateEncoder.local_code`) and the final
    action column is the reserved idle action.  Lookup, argmax and the Q-update for a
    whole candidate set then collapse into fancy indexing.

    A cell holds NaN until it is first read.  The agent's read paths hand the unread
    cells they touch to :meth:`initialise`, in the order Algorithm 1 reads them one by
    one, and each gets its own ``rng.normal(0, init_scale)`` draw in that order — the
    RNG stream of a table that initialises every entry lazily on first read.  At
    ``init_scale=0`` cells initialise to 0.0 and draw nothing.
    """

    def __init__(
        self,
        num_keys: int,
        num_local_codes: int,
        num_actions: int,
        rng: np.random.Generator | None = None,
        init_scale: float = 0.01,
        sharing: str = PER_TIER,
    ) -> None:
        if num_keys <= 0 or num_local_codes <= 0 or num_actions <= 0:
            raise PolicyError("VectorQTableStore dimensions must be positive")
        if sharing not in SHARING_MODES:
            raise PolicyError(
                f"sharing must be {PER_DEVICE!r} or {PER_TIER!r}, got {sharing!r}"
            )
        self._shape = (num_keys, num_local_codes, num_actions + 1)
        self._num_actions = num_actions
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._init_scale = init_scale
        self._sharing = sharing
        self._blocks: dict[tuple[int, ...], np.ndarray] = {}

    @property
    def sharing(self) -> str:
        """The sharing mode (``"per-device"`` or ``"per-tier"``)."""
        return self._sharing

    @property
    def num_actions(self) -> int:
        """Number of selectable actions (the idle column is extra)."""
        return self._num_actions

    @property
    def idle_column(self) -> int:
        """Column index of the reserved idle action."""
        return self._num_actions

    def block(self, global_tuple: tuple[int, ...]) -> np.ndarray:
        """The dense Q-block of one global state, all unread (NaN) when first created."""
        existing = self._blocks.get(global_tuple)
        if existing is None:
            existing = self._blocks[global_tuple] = np.full(self._shape, np.nan)
        return existing

    def table(self, global_tuple: tuple[int, ...]) -> np.ndarray:
        """The same block as a ``[num_keys * num_local_codes, num_actions + 1]`` view."""
        return self.block(global_tuple).reshape(-1, self._shape[2])

    def row_index(self, key_indices: np.ndarray, local_codes: np.ndarray) -> np.ndarray:
        """The :meth:`table` row of each (sharing key, local code) pair."""
        return key_indices * self._shape[1] + local_codes

    def initialise(self, tables: Sequence[np.ndarray], cells: np.ndarray) -> None:
        """Give unread cells their initial values, in the order they are first read.

        ``tables`` are blocks or their :meth:`table` views.  ``cells`` lists, in read
        order, the unread cells a read path touches, as ``position * size + flat_index``
        into ``tables`` (the flat index of row ``r``, column ``c`` is
        ``r * (num_actions + 1) + c``); a cell read twice is initialised at its first read.
        The first reads are found by :func:`group_cells`: the first of each run in its
        stable order is the cell's first read.
        """
        order, first_index, _ = group_cells(cells, len(tables) * tables[0].size)
        first_read = np.zeros(len(cells), dtype=bool)
        first_read[order[first_index]] = True
        ordered = cells[first_read]
        if self._init_scale == 0.0:
            values = np.zeros(len(ordered))
        else:
            values = self._rng.normal(0.0, self._init_scale, size=len(ordered))
        positions, flat = np.divmod(ordered, tables[0].size)
        for position, table in enumerate(tables):
            mine = positions == position
            table.reshape(-1)[flat[mine]] = values[mine]

    @property
    def num_tables(self) -> int:
        """Number of sharing groups (devices or tiers) holding any initialised cell."""
        groups = np.zeros(self._shape[0], dtype=bool)
        for block in self._blocks.values():
            groups |= ~np.isnan(block).all(axis=(1, 2))
        return int(np.count_nonzero(groups))

    def total_entries(self) -> int:
        """Number of initialised Q-cells (a proxy for memory footprint)."""
        return sum(int(np.count_nonzero(~np.isnan(block))) for block in self._blocks.values())
