"""The AutoFL action space (paper Section 4.1, "Action").

Two levels of actions exist: the global-level selection of K participants (realised by
ranking devices by their Q-values) and, for each selected device, the choice of execution
target — CPU at one of several DVFS steps, or the GPU.  The catalog below enumerates a
small, fixed set of per-device target actions (shared across devices of the same tier) so
the Q-tables stay compact.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.devices.device import ExecutionTarget, execution_target
from repro.devices.specs import DeviceSpec
from repro.exceptions import PolicyError

#: Reserved action id used when a device is not selected for a round (it idles).
IDLE_ACTION = -1


@dataclass(frozen=True)
class ActionSpec:
    """One entry of the per-device action catalog."""

    action_id: int
    label: str
    processor: str
    #: Relative position of the DVFS step within the processor's range (1.0 = highest).
    frequency_fraction: float

    def to_target(self, spec: DeviceSpec) -> ExecutionTarget:
        """Concretise the action into an execution target for a device of ``spec``."""
        processor = spec.processor(self.processor)
        step = round(self.frequency_fraction * (processor.num_vf_steps - 1))
        return execution_target(self.processor, int(step))


class ActionCatalog:
    """Fixed catalog of execution-target actions shared by all devices.

    The default catalog contains the CPU at its top, 70 % and 40 % DVFS positions plus the
    GPU at its top step — enough to express the paper's "exploit straggler slack via DVFS"
    and "shift to the GPU under interference" behaviours while keeping |A| small.
    """

    def __init__(self, actions: list[ActionSpec] | None = None) -> None:
        if actions is None:
            actions = [
                ActionSpec(0, "cpu-high", "cpu", 1.0),
                ActionSpec(1, "cpu-mid", "cpu", 0.7),
                ActionSpec(2, "cpu-low", "cpu", 0.4),
                ActionSpec(3, "gpu-high", "gpu", 1.0),
            ]
        if not actions:
            raise PolicyError("action catalog must not be empty")
        ids = [action.action_id for action in actions]
        if len(set(ids)) != len(ids) or IDLE_ACTION in ids:
            raise PolicyError("action ids must be unique and must not use the idle id")
        self._actions = {action.action_id: action for action in actions}

    def __len__(self) -> int:
        return len(self._actions)

    @property
    def action_ids(self) -> list[int]:
        """All selectable action ids (idle excluded)."""
        return sorted(self._actions)

    def spec(self, action_id: int) -> ActionSpec:
        """The :class:`ActionSpec` for an action id."""
        try:
            return self._actions[action_id]
        except KeyError as exc:
            raise PolicyError(f"unknown action id {action_id}") from exc

    def to_target(self, action_id: int, spec: DeviceSpec) -> ExecutionTarget:
        """Concretise an action id into an execution target for a device of ``spec``."""
        return self.spec(action_id).to_target(spec)

    def default_action_id(self) -> int:
        """The baseline action: CPU at the highest frequency."""
        return self.action_ids[0]
