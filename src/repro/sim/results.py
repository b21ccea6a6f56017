"""Result containers for round execution and full simulations."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from repro.devices.device import ExecutionTarget, execution_target
from repro.devices.energy import DeviceEnergy, RoundEnergyAccount, sequential_sum
from repro.devices.fleet_arrays import PROCESSOR_NAMES
from repro.exceptions import SimulationError
from repro.fl.metrics import EfficiencySummary

if TYPE_CHECKING:  # pragma: no cover - imports only used for typing
    from repro.fl.server import RoundTrainingResult
    from repro.sim.context import SelectionDecision


@dataclass(frozen=True)
class DeviceRoundOutcome:
    """What one selected device did during one aggregation round."""

    device_id: int
    target: ExecutionTarget
    compute_time_s: float
    communication_time_s: float
    energy: DeviceEnergy
    dropped: bool = False
    #: True when the device failed mid-round (fault injection) rather than merely
    #: exceeding the straggler deadline; its compute energy was spent for nothing.
    failed: bool = False

    @property
    def total_time_s(self) -> float:
        """Compute plus communication time of the device."""
        return self.compute_time_s + self.communication_time_s


@dataclass
class RoundExecution:
    """System-level outcome of one aggregation round (before model aggregation)."""

    outcomes: dict[int, DeviceRoundOutcome]
    round_time_s: float
    energy: RoundEnergyAccount

    @property
    def participant_ids(self) -> list[int]:
        """Devices whose updates made it into the aggregation (stragglers and
        mid-round failures excluded)."""
        return sorted(
            device_id
            for device_id, outcome in self.outcomes.items()
            if not outcome.dropped and not outcome.failed
        )

    @property
    def dropped_ids(self) -> list[int]:
        """Selected devices whose updates were dropped as stragglers (failures aside)."""
        return sorted(
            device_id
            for device_id, outcome in self.outcomes.items()
            if outcome.dropped and not outcome.failed
        )

    @property
    def failed_ids(self) -> list[int]:
        """Selected devices that failed mid-round (dropout before upload)."""
        return sorted(
            device_id for device_id, outcome in self.outcomes.items() if outcome.failed
        )

    @property
    def participant_energy_j(self) -> float:
        """Energy drawn by the selected devices this round (compute, radio and waiting)."""
        return sequential_sum(outcome.energy.total_j for outcome in self.outcomes.values())


@dataclass
class BatchRoundExecution:
    """Array-based outcome of one aggregation round from the vectorised engine.

    Every per-participant array is aligned on the selection order of the decision that
    produced it; ``idle_j`` is fleet-length (fleet order) and zero at participant rows.
    The container exposes the same aggregate quantities as :class:`RoundExecution`
    without materialising per-device Python objects — :meth:`to_execution` converts to
    the scalar representation for a consumer that wants per-device outcomes (the
    scalar test oracles, an ad-hoc round observer); the simulator, its policies and
    the invariant auditor read the arrays.
    """

    selected_ids: np.ndarray
    processors: np.ndarray
    vf_steps: np.ndarray
    compute_time_s: np.ndarray
    communication_time_s: np.ndarray
    compute_j: np.ndarray
    communication_j: np.ndarray
    waiting_j: np.ndarray
    dropped: np.ndarray
    round_time_s: float
    fleet_device_ids: np.ndarray
    idle_j: np.ndarray
    #: Mid-round failures (fault injection); defaults to all-False for static fleets.
    failed: np.ndarray | None = None
    #: Fleet rows of ``selected_ids`` (the engine passes the rows it gathered with);
    #: looked up from ``fleet_device_ids`` when omitted.
    rows: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.failed is None:
            self.failed = np.zeros(len(self.selected_ids), dtype=bool)
        if self.rows is None:
            sorter = np.argsort(self.fleet_device_ids, kind="stable")
            self.rows = sorter[
                np.searchsorted(self.fleet_device_ids, self.selected_ids, sorter=sorter)
            ]

    @property
    def total_time_s(self) -> np.ndarray:
        """Per-participant compute plus communication time (truncated for stragglers)."""
        return self.compute_time_s + self.communication_time_s

    @property
    def participant_ids(self) -> list[int]:
        """Devices whose updates made it into the aggregation (stragglers and
        mid-round failures excluded)."""
        return sorted(self.selected_ids[~(self.dropped | self.failed)].tolist())

    @property
    def dropped_ids(self) -> list[int]:
        """Selected devices whose updates were dropped as stragglers (failures aside)."""
        return sorted(self.selected_ids[self.dropped & ~self.failed].tolist())

    @property
    def failed_ids(self) -> list[int]:
        """Selected devices that failed mid-round (dropout before upload)."""
        return sorted(self.selected_ids[self.failed].tolist())

    @property
    def participant_energies_j(self) -> np.ndarray:
        """Per-participant round energy (compute, radio and waiting), selection order."""
        return (self.compute_j + self.communication_j) + self.waiting_j

    @cached_property
    def fleet_energy_j(self) -> np.ndarray:
        """Every device's energy this round, fleet order; built once, on first use.

        Participants hold :attr:`participant_energies_j`, everyone else their idle draw:
        the per-device local energies of AutoFL's reward (paper Eq. 5), which add up to
        the global energy (Eq. 6).  Policy feedback and the round record share this one
        array, so treat it as read-only.
        """
        energy = self.idle_j.copy()
        energy[self.rows] = self.participant_energies_j
        return energy

    @property
    def participant_energy_j(self) -> float:
        """Energy drawn by the selected devices this round, summed in selection order."""
        return sequential_sum(self.participant_energies_j)

    @property
    def idle_energy_j(self) -> float:
        """Total idle energy of the non-selected devices."""
        return sequential_sum(self.idle_j)

    @cached_property
    def global_energy_j(self) -> float:
        """Population-wide energy of the round, summed in fleet order; summed once.

        Bit-identical to the per-device account of :meth:`to_execution`.
        """
        return sequential_sum(self.fleet_energy_j)

    def to_execution(self) -> "RoundExecution":
        """Materialise the scalar :class:`RoundExecution` equivalent of this round."""
        outcomes: dict[int, DeviceRoundOutcome] = {}
        for i, device_id in enumerate(self.selected_ids):
            device_id = int(device_id)
            energy = DeviceEnergy(
                compute_j=float(self.compute_j[i]),
                communication_j=float(self.communication_j[i]),
                idle_j=float(self.waiting_j[i]),
            )
            outcomes[device_id] = DeviceRoundOutcome(
                device_id=device_id,
                target=execution_target(
                    PROCESSOR_NAMES[int(self.processors[i])], int(self.vf_steps[i])
                ),
                compute_time_s=float(self.compute_time_s[i]),
                communication_time_s=float(self.communication_time_s[i]),
                energy=energy,
                dropped=bool(self.dropped[i]),
                failed=bool(self.failed[i]),
            )
        account = RoundEnergyAccount()
        for row, device_id in enumerate(self.fleet_device_ids):
            device_id = int(device_id)
            if device_id in outcomes:
                account.record(device_id, outcomes[device_id].energy)
            else:
                account.record(device_id, DeviceEnergy(idle_j=float(self.idle_j[row])))
        return RoundExecution(
            outcomes=outcomes, round_time_s=self.round_time_s, energy=account
        )


@dataclass(frozen=True)
class RoundRecord:
    """Full record of one aggregation round: selection, execution and training outcome."""

    round_index: int
    selected_ids: tuple[int, ...]
    dropped_ids: tuple[int, ...]
    targets: dict[int, ExecutionTarget]
    round_time_s: float
    participant_energy_j: float
    global_energy_j: float
    accuracy: float
    accuracy_improvement: float
    #: Selected devices that failed mid-round (fault injection; disjoint from
    #: ``dropped_ids``, which holds the straggler drops).
    failed_ids: tuple[int, ...] = ()
    #: Devices online when the round started (``None`` for a static fleet).
    num_online: int | None = None

    @property
    def num_aggregated(self) -> int:
        """Updates that made it into the aggregation this round."""
        return len(self.selected_ids) - len(self.dropped_ids) - len(self.failed_ids)

    def to_dict(self) -> dict:
        """JSON-serialisable payload of the record (execution targets flattened)."""
        payload = asdict(self)
        payload["targets"] = {
            str(device_id): asdict(target) for device_id, target in self.targets.items()
        }
        return payload


def record_from_batch(
    round_index: int,
    decision: SelectionDecision,
    batch: BatchRoundExecution,
    training: RoundTrainingResult,
    online_mask: np.ndarray | None,
) -> RoundRecord:
    """Assemble one round's record straight from the batch arrays.

    The energy totals are the batch's sequential sums, bit-identical to those of the
    per-device account :meth:`BatchRoundExecution.to_execution` would build.
    """
    return RoundRecord(
        round_index=round_index,
        selected_ids=tuple(sorted(decision.participants)),
        dropped_ids=tuple(batch.dropped_ids),
        targets=dict(decision.targets),
        round_time_s=batch.round_time_s,
        participant_energy_j=batch.participant_energy_j,
        global_energy_j=batch.global_energy_j,
        accuracy=training.accuracy,
        accuracy_improvement=training.accuracy_improvement,
        failed_ids=tuple(batch.failed_ids),
        num_online=None if online_mask is None else int(online_mask.sum()),
    )


@dataclass
class SimulationResult:
    """Outcome of a complete simulated FL training job."""

    policy_name: str
    workload_name: str
    target_accuracy: float
    records: list[RoundRecord] = field(default_factory=list)
    converged_round: int | None = None

    def append(self, record: RoundRecord) -> None:
        """Append one round's record."""
        self.records.append(record)

    @property
    def num_rounds(self) -> int:
        """Number of executed rounds."""
        return len(self.records)

    @property
    def final_accuracy(self) -> float:
        """Accuracy after the last executed round."""
        if not self.records:
            raise SimulationError("simulation produced no rounds")
        return self.records[-1].accuracy

    @property
    def accuracy_history(self) -> list[float]:
        """Accuracy after every round."""
        return [record.accuracy for record in self.records]

    @property
    def total_time_s(self) -> float:
        """Wall-clock time of all executed rounds."""
        return sequential_sum(record.round_time_s for record in self.records)

    @property
    def total_participant_energy_j(self) -> float:
        """Total active energy of participants over all executed rounds."""
        return sequential_sum(record.participant_energy_j for record in self.records)

    @property
    def total_global_energy_j(self) -> float:
        """Total population-wide energy over all executed rounds."""
        return sequential_sum(record.global_energy_j for record in self.records)

    @property
    def mean_round_time_s(self) -> float:
        """Mean per-round time."""
        if not self.records:
            raise SimulationError("simulation produced no rounds")
        return float(np.mean([record.round_time_s for record in self.records]))

    # ------------------------------------------------------------------ fleet dynamics
    @property
    def total_straggler_drops(self) -> int:
        """Selected devices dropped at the straggler deadline, over all rounds."""
        return sum(len(record.dropped_ids) for record in self.records)

    @property
    def total_fault_failures(self) -> int:
        """Selected devices lost to mid-round failure injection, over all rounds."""
        return sum(len(record.failed_ids) for record in self.records)

    @property
    def online_history(self) -> list[int | None]:
        """Per-round online-device counts (``None`` entries for static-fleet rounds)."""
        return [record.num_online for record in self.records]

    @property
    def mean_num_online(self) -> float | None:
        """Mean online-device count over the rounds that recorded one."""
        counts = [record.num_online for record in self.records if record.num_online is not None]
        if not counts:
            return None
        return float(np.mean(counts))

    def _until_convergence(self) -> list[RoundRecord]:
        if self.converged_round is None:
            return self.records
        return [record for record in self.records if record.round_index <= self.converged_round]

    def summary(self) -> EfficiencySummary:
        """Aggregate efficiency metrics, computed up to the convergence round when reached."""
        if not self.records:
            raise SimulationError("simulation produced no rounds")
        effective = self._until_convergence()
        convergence_time = sequential_sum(record.round_time_s for record in effective)
        return EfficiencySummary(
            converged=self.converged_round is not None,
            rounds_executed=self.num_rounds,
            convergence_round=self.converged_round,
            convergence_time_s=convergence_time,
            total_time_s=self.total_time_s,
            final_accuracy=self.final_accuracy,
            participant_energy_j=sequential_sum(
                record.participant_energy_j for record in effective
            ),
            global_energy_j=sequential_sum(record.global_energy_j for record in effective),
        )

    def selection_history(self) -> list[tuple[int, ...]]:
        """The selected device ids of every round (used for prediction-accuracy analysis)."""
        return [record.selected_ids for record in self.records]

    # ------------------------------------------------------------------ serialisation
    def to_dict(self) -> dict:
        """JSON-serialisable payload of the full trajectory (every round record)."""
        return {
            "policy_name": self.policy_name,
            "workload_name": self.workload_name,
            "target_accuracy": self.target_accuracy,
            "converged_round": self.converged_round,
            "records": [record.to_dict() for record in self.records],
        }

    def to_json(self) -> str:
        """Canonical JSON serialisation: key-sorted and whitespace-free, so two runs of
        the same seeded scenario are byte-identical exactly when their trajectories are."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
