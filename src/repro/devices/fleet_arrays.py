"""Struct-of-arrays views of the fleet for the vectorised simulation path.

Walking :class:`~repro.devices.device.MobileDevice` objects one at a time would make a
simulated round cost ``O(N)`` Python-interpreter work.  The batched round engine instead
operates on :class:`FleetArrays` — one numpy array per device attribute,
aligned on fleet order — so that compute/communication time, thermal throttling and energy
accounting for thousands of devices collapse into a handful of array expressions.

Two containers live here:

* :class:`FleetArrays` — every per-device hardware quantity the round engine needs
  (tier, per-processor peak GFLOPS / bandwidth / V-F steps / power, tier power scales,
  shard sizes, idle and awake power), gathered from a fleet's per-spec tables.
* :class:`RoundConditionsArrays` — one aggregation round's sampled runtime conditions
  (co-runner CPU/memory utilisation and uplink bandwidth) for the whole fleet in one
  array per quantity.

All formulas mirror the scalar models in :mod:`repro.devices` exactly, so the batched
engine is pinned to the scalar oracle of the test suite by equivalence tests.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.devices.device import RoundConditions
from repro.devices.power import awake_power
from repro.devices.specs import DeviceTier
from repro.exceptions import DeviceError, SimulationError

if TYPE_CHECKING:  # pragma: no cover - import only used for typing
    from repro.devices.fleet import Fleet

#: Processor codes used to index the ``(2, N)`` per-processor arrays.
PROC_CPU = 0
PROC_GPU = 1

#: Processor name -> code (the batched counterpart of ``DeviceSpec.processor``).
PROCESSOR_CODES: dict[str, int] = {"cpu": PROC_CPU, "gpu": PROC_GPU}

#: Code -> processor name, for converting batch results back into scalar objects.
PROCESSOR_NAMES: dict[int, str] = {code: name for name, code in PROCESSOR_CODES.items()}

#: Tier order backing ``FleetArrays.tier_codes``.
TIER_ORDER: tuple[DeviceTier, ...] = (DeviceTier.HIGH, DeviceTier.MID, DeviceTier.LOW)


def read_only_array(values: Sequence | np.ndarray, dtype: type) -> np.ndarray:
    """A read-only copy of ``values`` as an array of ``dtype``."""
    array = np.array(values, dtype=dtype)
    array.setflags(write=False)
    return array


class DeviceIndex:
    """Device id -> row lookup, raising :class:`KeyError` for an unknown id.

    Built fleets number their devices 0..N-1 in row order: then an id is its own row and
    nothing is built.  Any other numbering keeps one id -> row dict.
    """

    def __init__(self, device_ids: np.ndarray) -> None:
        self._n = n = len(device_ids)
        contiguous = n > 0 and int(device_ids[-1]) == n - 1 and np.array_equal(
            device_ids, np.arange(n)
        )
        self._row_of = None if contiguous else dict(zip(device_ids.tolist(), range(n)))
        #: Whether no id repeats.
        self.unique = self._row_of is None or len(self._row_of) == n

    def row(self, device_id: int) -> int:
        """The row of one device id."""
        if self._row_of is not None:
            return self._row_of[device_id]
        if isinstance(device_id, (int, np.integer)) and 0 <= device_id < self._n:
            return int(device_id)
        raise KeyError(device_id)

    def rows(self, device_ids: Sequence[int]) -> np.ndarray:
        """The rows of several device ids, in their order."""
        if self._row_of is not None:
            return np.array([self._row_of[device_id] for device_id in device_ids], dtype=np.int64)
        rows = np.array(device_ids, dtype=np.int64)
        bad = (rows < 0) | (rows >= self._n)
        if bad.any():
            raise KeyError(int(rows[bad][0]))
        return rows


@dataclass(frozen=True)
class FleetArrays:
    """Immutable struct-of-arrays view of a :class:`~repro.devices.fleet.Fleet`.

    Every array is aligned on fleet order (row ``i`` describes the fleet's ``i``-th
    device).  The per-processor arrays have shape ``(2, N)`` and are indexed by the
    processor codes :data:`PROC_CPU` / :data:`PROC_GPU`, so a per-device processor choice
    selects its row with fancy indexing: ``peak_gflops[processors, rows]``.
    """

    device_ids: np.ndarray
    tier_codes: np.ndarray
    num_samples: np.ndarray
    training_power_scale: np.ndarray
    idle_power_watt: np.ndarray
    awake_power_watt: np.ndarray
    # ------------------------------------------------------------------ (2, N) arrays
    peak_gflops: np.ndarray
    mem_bandwidth_gbs: np.ndarray
    peak_power_watt: np.ndarray
    max_frequency_ghz: np.ndarray
    num_vf_steps: np.ndarray
    saturation_batch: np.ndarray

    @classmethod
    def from_fleet(cls, fleet: "Fleet") -> "FleetArrays":
        """Gather ``fleet``'s hardware tables, one row per distinct spec, by spec code."""
        specs, codes = fleet.specs, fleet.spec_codes
        tier_index = {tier: code for code, tier in enumerate(TIER_ORDER)}
        scales = [spec.training_power_scale for spec in specs]

        def per_spec(values: list, dtype: type = np.float64) -> np.ndarray:
            return np.array(values, dtype=dtype)[codes]

        def processor_array(attr: str, dtype: type = np.float64) -> np.ndarray:
            table = np.array(
                [
                    [getattr(spec.cpu, attr) for spec in specs],
                    [getattr(spec.gpu, attr) for spec in specs],
                ],
                dtype=dtype,
            )
            return np.take(table, codes, axis=1)

        return cls(
            device_ids=fleet.id_array,
            tier_codes=per_spec([tier_index[spec.tier] for spec in specs], dtype=np.int8),
            num_samples=fleet.num_samples,
            training_power_scale=per_spec(scales),
            idle_power_watt=per_spec([spec.cpu.idle_power_watt for spec in specs]),
            awake_power_watt=per_spec(
                [
                    awake_power(spec.cpu.peak_power_watt, spec.cpu.idle_power_watt, scale)
                    for spec, scale in zip(specs, scales)
                ]
            ),
            peak_gflops=processor_array("peak_gflops"),
            mem_bandwidth_gbs=processor_array("mem_bandwidth_gbs"),
            peak_power_watt=processor_array("peak_power_watt"),
            max_frequency_ghz=processor_array("max_frequency_ghz"),
            num_vf_steps=processor_array("num_vf_steps", dtype=np.int64),
            saturation_batch=processor_array("saturation_batch", dtype=np.int64),
        )

    def __post_init__(self) -> None:
        object.__setattr__(self, "_index", DeviceIndex(self.device_ids))
        object.__setattr__(self, "_default_vf_steps", self.num_vf_steps[PROC_CPU] - 1)

    def __len__(self) -> int:
        return len(self.device_ids)

    def rows_for(self, device_ids: Sequence[int]) -> np.ndarray:
        """Map device ids to fleet rows, raising on unknown ids."""
        try:
            return self._index.rows(device_ids)  # type: ignore[attr-defined]
        except KeyError as exc:
            raise DeviceError(f"no device with id {exc.args[0]} in fleet") from None

    @property
    def cpu_capability_gflops(self) -> np.ndarray:
        """Per-device CPU peak GFLOPS — the capability the interference model scales by."""
        return self.peak_gflops[PROC_CPU]

    def default_vf_steps(self) -> np.ndarray:
        """Per-device default V-F step (highest CPU step), mirroring ``default_target``.

        The array is computed once per snapshot and shared — callers must treat it as
        read-only (per-selection gathers like ``default_vf_steps()[rows]`` copy anyway).
        """
        return self._default_vf_steps  # type: ignore[attr-defined]

    def relative_frequency(self, processors: np.ndarray, vf_steps: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Vectorised ``ProcessorSpec.relative_frequency`` for per-device targets.

        Mirrors the scalar model: steps are spaced linearly between 40 % and 100 % of the
        maximum frequency, and a single-step processor always runs at its maximum.
        """
        num_steps = self.num_vf_steps[processors, rows]
        if (vf_steps < 0).any() or (vf_steps >= num_steps).any():
            raise DeviceError("V-F step out of range for selected processor")
        max_frequency = self.max_frequency_ghz[processors, rows]
        lowest = 0.4 * max_frequency
        span = max_frequency - lowest
        frequency = lowest + span * (vf_steps / np.maximum(num_steps - 1, 1))
        return np.where(num_steps > 1, frequency / max_frequency, 1.0)


@dataclass(frozen=True)
class RoundConditionsArrays:
    """One round's sampled runtime conditions for every device, in fleet order."""

    co_cpu_util: np.ndarray
    co_mem_util: np.ndarray
    bandwidth_mbps: np.ndarray

    def __post_init__(self) -> None:
        lengths = {
            len(self.co_cpu_util),
            len(self.co_mem_util),
            len(self.bandwidth_mbps),
        }
        if len(lengths) != 1:
            raise SimulationError("condition arrays must have equal lengths")

    def __len__(self) -> int:
        return len(self.co_cpu_util)

    def take(self, rows: np.ndarray) -> "RoundConditionsArrays":
        """Condition arrays restricted to the given fleet rows."""
        return RoundConditionsArrays(
            co_cpu_util=self.co_cpu_util[rows],
            co_mem_util=self.co_mem_util[rows],
            bandwidth_mbps=self.bandwidth_mbps[rows],
        )

    @classmethod
    def from_mapping(
        cls, device_ids: Sequence[int], conditions: Mapping[int, RoundConditions]
    ) -> "RoundConditionsArrays":
        """Gather a per-id conditions mapping into arrays aligned on ``device_ids``.

        A missing device id raises :class:`~repro.exceptions.SimulationError` — silently
        substituting default conditions would let a selection bug masquerade as a round
        with a pristine, interference-free device.
        """
        missing = [device_id for device_id in device_ids if device_id not in conditions]
        if missing:
            raise SimulationError(
                f"no round conditions for selected device {missing[0]}"
                + (f" (and {len(missing) - 1} more)" if len(missing) > 1 else "")
            )
        gathered = [conditions[device_id] for device_id in device_ids]
        return cls(
            co_cpu_util=np.array([c.co_cpu_util for c in gathered], dtype=np.float64),
            co_mem_util=np.array([c.co_mem_util for c in gathered], dtype=np.float64),
            bandwidth_mbps=np.array([c.bandwidth_mbps for c in gathered], dtype=np.float64),
        )

    def to_mapping(self, device_ids: Sequence[int]) -> dict[int, RoundConditions]:
        """Expand the arrays into a per-device mapping of scalar conditions."""
        return dict(self.lazy_mapping(device_ids))

    def lazy_mapping(self, device_ids: Sequence[int]) -> "LazyConditionMapping":
        """A mapping view over the arrays that builds scalar objects only on access.

        A consumer that reads a few devices skips the O(N) object construction of
        :meth:`to_mapping`, and sees the same values.
        """
        return LazyConditionMapping(self, device_ids)


class LazyConditionMapping(Mapping[int, RoundConditions]):
    """Read-only per-device view of :class:`RoundConditionsArrays`.

    Each :class:`RoundConditions` is materialised (and cached) on first access.
    """

    def __init__(self, arrays: RoundConditionsArrays, device_ids: Sequence[int]) -> None:
        if len(device_ids) != len(arrays):
            raise SimulationError("device_ids length does not match condition arrays")
        self._arrays = arrays
        self._ids = device_ids
        # The row index is built on first scalar access, so a view that is never opened
        # costs no O(N) work.
        self._index: DeviceIndex | None = None
        self._cache: dict[int, RoundConditions] = {}

    def __getitem__(self, device_id: int) -> RoundConditions:
        cached = self._cache.get(device_id)
        if cached is not None:
            return cached
        if self._index is None:
            self._index = DeviceIndex(np.asarray(self._ids, dtype=np.int64))
        row = self._index.row(device_id)  # Raises KeyError for unknown ids, like a dict.
        conditions = RoundConditions(
            co_cpu_util=float(self._arrays.co_cpu_util[row]),
            co_mem_util=float(self._arrays.co_mem_util[row]),
            bandwidth_mbps=float(self._arrays.bandwidth_mbps[row]),
        )
        self._cache[device_id] = conditions
        return conditions

    def __iter__(self) -> Iterator[int]:
        return iter(np.asarray(self._ids, dtype=np.int64).tolist())

    def __len__(self) -> int:
        return len(self._ids)
