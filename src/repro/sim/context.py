"""Round context and selection decision: the interface between simulator and policies."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from repro.devices.device import ExecutionTarget
from repro.devices.fleet_arrays import RoundConditionsArrays
from repro.exceptions import PolicyError

if TYPE_CHECKING:  # pragma: no cover - import only used for typing
    from repro.sim.environment import EdgeCloudEnvironment


@dataclass(frozen=True)
class RoundContext:
    """Everything a selection policy may observe at the start of an aggregation round.

    This mirrors the information AutoFL's server-side agent observes (paper Figure 7): the
    FL global configuration and workload (through ``environment``), every device's runtime
    conditions collected by the FL protocol, and the current global-model accuracy.
    """

    round_index: int
    environment: "EdgeCloudEnvironment"
    #: Every device's runtime conditions this round, as arrays in fleet order.
    conditions: RoundConditionsArrays
    accuracy: float
    #: Fleet-order boolean mask of the devices reachable this round, populated when the
    #: environment has fleet dynamics.  ``None`` means a static fleet (everyone online).
    #: Policies must select participants from the online candidates only.
    online_mask: np.ndarray | None = None

    @cached_property
    def _candidate_id_array(self) -> np.ndarray:
        device_ids = self.environment.fleet_arrays.device_ids
        if self.online_mask is None:
            return device_ids
        return device_ids[np.asarray(self.online_mask, dtype=bool)]

    def candidate_id_array(self) -> np.ndarray:
        """Device ids a policy may select this round, in fleet order.

        Cached per round and shared — callers must treat it as read-only.
        """
        return self._candidate_id_array

    @property
    def num_candidates(self) -> int:
        """Number of selectable (online) devices this round."""
        if self.online_mask is None:
            return len(self.environment.fleet)
        return int(np.count_nonzero(self.online_mask))


@dataclass
class SelectionDecision:
    """A policy's decision for one round: which devices participate and on which targets."""

    participants: list[int]
    targets: dict[int, ExecutionTarget] = field(default_factory=dict)
    #: Optional array form of ``targets`` aligned on ``participants`` (processor codes
    #: and V-F step indices).  Policies that score targets as arrays populate both
    #: representations; the round engine then skips the per-participant dict walk.
    target_processors: np.ndarray | None = None
    target_vf_steps: np.ndarray | None = None

    def __post_init__(self) -> None:
        if len(set(self.participants)) != len(self.participants):
            raise PolicyError("participant ids must be unique")
        unknown = set(self.targets) - set(self.participants)
        if unknown:
            raise PolicyError(f"targets specified for non-participants: {sorted(unknown)}")
        if (self.target_processors is None) != (self.target_vf_steps is None):
            raise PolicyError("target_processors and target_vf_steps must be set together")
        if self.target_processors is not None and (
            len(self.target_processors) != len(self.participants)
            or len(self.target_vf_steps) != len(self.participants)
        ):
            raise PolicyError("target arrays must align with the participant list")

    def target_for(self, device_id: int, default: ExecutionTarget) -> ExecutionTarget:
        """The execution target for a participant, falling back to ``default``."""
        return self.targets.get(device_id, default)
