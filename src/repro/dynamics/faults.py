"""Seeded mid-round failure injection for selected participants.

A device that is online at selection time can still fail *during* the round.  Two
failure modes are injected, mirroring the dominant dropout causes in deployed FL
(FLASH/FedScale-style system traces):

* **dropout before upload** — the device finishes (some of) its local training but dies
  before its gradient reaches the server (app evicted, network gone, battery pulled).
  Its compute time and energy are wasted, nothing is aggregated.
* **slow-fail straggler** — a transient condition (background compaction, thermal panic)
  stretches the device's compute by a constant factor; if that pushes it past the
  straggler deadline the ordinary FedAvg cutoff drops it.

Rates are configurable per device tier: low-end devices fail more in practice, and
per-tier rates let scenarios express exactly that.  Draws come from the fleet-dynamics
RNG, so fault streams are deterministic per seed and never perturb the environment's
condition sampling.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from repro.devices.fleet_arrays import TIER_ORDER
from repro.exceptions import ConfigurationError, SimulationError

#: Tier names in tier-code order (matches ``FleetArrays.tier_codes``).
TIER_NAMES: tuple[str, ...] = tuple(tier.value for tier in TIER_ORDER)


@dataclass(frozen=True)
class DeviceFault:
    """The fault drawn for one selected participant this round."""

    upload_failure: bool = False
    compute_slowdown: float = 1.0

    def __post_init__(self) -> None:
        if self.compute_slowdown < 1.0:
            raise ConfigurationError(
                f"compute_slowdown must be >= 1, got {self.compute_slowdown}"
            )


@dataclass(frozen=True)
class FaultDraw:
    """One round's fault assignment for a selection, aligned on the selection order."""

    upload_failure: np.ndarray  # bool per participant
    compute_slowdown: np.ndarray  # float >= 1 per participant

    def __post_init__(self) -> None:
        upload = np.asarray(self.upload_failure, dtype=bool)
        slowdown = np.asarray(self.compute_slowdown, dtype=np.float64)
        if upload.shape != slowdown.shape or upload.ndim != 1:
            raise SimulationError("fault arrays must be 1-D and equally sized")
        if np.any(slowdown < 1.0):
            raise SimulationError("compute_slowdown must be >= 1 everywhere")
        object.__setattr__(self, "upload_failure", upload)
        object.__setattr__(self, "compute_slowdown", slowdown)

    def __len__(self) -> int:
        return len(self.upload_failure)

    @property
    def has_faults(self) -> bool:
        """True when any participant is affected this round."""
        return bool(self.upload_failure.any() or (self.compute_slowdown > 1.0).any())

    @classmethod
    def none(cls, num_participants: int) -> "FaultDraw":
        """A draw with no faults, for ``num_participants`` devices."""
        return cls(
            upload_failure=np.zeros(num_participants, dtype=bool),
            compute_slowdown=np.ones(num_participants, dtype=np.float64),
        )

    def to_mapping(self, participants: Sequence[int]) -> dict[int, DeviceFault]:
        """Per-device view used by the scalar round-engine path."""
        if len(participants) != len(self):
            raise SimulationError("participants length does not match the fault draw")
        return {
            int(device_id): DeviceFault(
                upload_failure=bool(self.upload_failure[i]),
                compute_slowdown=float(self.compute_slowdown[i]),
            )
            for i, device_id in enumerate(participants)
        }

    @classmethod
    def from_mapping(
        cls, participants: Sequence[int], faults: Mapping[int, DeviceFault]
    ) -> "FaultDraw":
        """Gather a per-device fault mapping into selection-order arrays."""
        gathered = [faults.get(device_id, DeviceFault()) for device_id in participants]
        return cls(
            upload_failure=np.array([f.upload_failure for f in gathered], dtype=bool),
            compute_slowdown=np.array([f.compute_slowdown for f in gathered], dtype=np.float64),
        )


def _validate_tier_rates(label: str, rates: Mapping[str, float] | None) -> None:
    if rates is None:
        return
    unknown = set(rates) - set(TIER_NAMES)
    if unknown:
        raise ConfigurationError(f"{label} names unknown tiers: {sorted(unknown)}")
    for tier, value in rates.items():
        if not 0.0 <= value <= 1.0:
            raise ConfigurationError(f"{label}[{tier!r}] must be in [0, 1], got {value}")


@dataclass(frozen=True)
class FaultConfig:
    """Failure-injection rates; per-tier overrides win over the scalar baselines."""

    dropout_rate: float = 0.0
    slow_fault_rate: float = 0.0
    slow_fault_factor: float = 4.0
    tier_dropout_rates: Mapping[str, float] | None = None
    tier_slow_rates: Mapping[str, float] | None = None

    def __post_init__(self) -> None:
        for label, value in (
            ("dropout_rate", self.dropout_rate),
            ("slow_fault_rate", self.slow_fault_rate),
        ):
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{label} must be in [0, 1], got {value}")
        if self.slow_fault_factor <= 1.0:
            raise ConfigurationError(
                f"slow_fault_factor must be > 1, got {self.slow_fault_factor}"
            )
        _validate_tier_rates("tier_dropout_rates", self.tier_dropout_rates)
        _validate_tier_rates("tier_slow_rates", self.tier_slow_rates)

    @property
    def is_trivial(self) -> bool:
        """True when no configured rate can ever produce a fault."""
        rates = [self.dropout_rate, self.slow_fault_rate]
        rates.extend((self.tier_dropout_rates or {}).values())
        rates.extend((self.tier_slow_rates or {}).values())
        return all(rate == 0.0 for rate in rates)

    def _by_tier_code(self, base: float, overrides: Mapping[str, float] | None) -> np.ndarray:
        rates = np.full(len(TIER_NAMES), base, dtype=np.float64)
        for tier, value in (overrides or {}).items():
            rates[TIER_NAMES.index(tier)] = value
        return rates

    @property
    def dropout_by_tier_code(self) -> np.ndarray:
        """Upload-failure probability per tier code (:data:`TIER_NAMES` order)."""
        return self._by_tier_code(self.dropout_rate, self.tier_dropout_rates)

    @property
    def slow_by_tier_code(self) -> np.ndarray:
        """Slow-fail probability per tier code (:data:`TIER_NAMES` order)."""
        return self._by_tier_code(self.slow_fault_rate, self.tier_slow_rates)


class FaultInjector:
    """Draws per-participant faults from a :class:`FaultConfig`."""

    def __init__(self, config: FaultConfig | None = None) -> None:
        self.config = config or FaultConfig()
        self._dropout = self.config.dropout_by_tier_code
        self._slow = self.config.slow_by_tier_code

    def sample(self, tier_codes: np.ndarray, rng: np.random.Generator) -> FaultDraw:
        """Draw faults for one selection (``tier_codes`` aligned on selection order)."""
        tier_codes = np.asarray(tier_codes, dtype=np.int64)
        if tier_codes.ndim != 1:
            raise SimulationError("tier_codes must be a 1-D array")
        num = len(tier_codes)
        upload_failure = rng.random(num) < self._dropout[tier_codes]
        slow = rng.random(num) < self._slow[tier_codes]
        slowdown = np.where(slow, self.config.slow_fault_factor, 1.0)
        return FaultDraw(upload_failure=upload_failure, compute_slowdown=slowdown)
