"""Fleet construction: building the heterogeneous 200-device FL population."""

from __future__ import annotations

from collections.abc import Iterator, Sequence

import numpy as np

from repro.config import SimulationConfig
from repro.devices.device import MobileDevice
from repro.devices.fleet_arrays import DeviceIndex, read_only_array
from repro.devices.specs import DeviceSpec, DeviceTier, TIER_SPECS
from repro.exceptions import DeviceError


class Fleet:
    """An ordered device fleet held as arrays.

    Row ``i`` is one device: its id, its code into the fleet's few distinct ``specs``
    and its shard size.  The simulator reads them through
    :class:`~repro.devices.fleet_arrays.FleetArrays`; lookup and iteration build
    :class:`MobileDevice` views on demand.
    """

    def __init__(
        self,
        specs: Sequence[DeviceSpec],
        spec_codes: Sequence[int] | np.ndarray,
        device_ids: Sequence[int] | np.ndarray | None = None,
        num_samples: Sequence[int] | np.ndarray | None = None,
    ) -> None:
        n = len(spec_codes)
        if n == 0:
            raise DeviceError("a fleet must contain at least one device")
        self.specs: tuple[DeviceSpec, ...] = tuple(specs)
        self.spec_codes = read_only_array(spec_codes, np.intp)
        ids = np.arange(n) if device_ids is None else device_ids
        self.id_array = read_only_array(ids, np.int64)
        samples = np.zeros(n) if num_samples is None else num_samples
        self.num_samples = read_only_array(samples, np.int64)
        if self.id_array.shape != (n,) or self.num_samples.shape != (n,):
            raise DeviceError("device ids and shard sizes need one entry per device")
        if self.spec_codes.min() < 0 or self.spec_codes.max() >= len(self.specs):
            raise DeviceError(f"spec codes must index the fleet's {len(self.specs)} specs")
        self._index = DeviceIndex(self.id_array)
        if not self._index.unique:
            raise DeviceError("fleet device ids must be unique")

    def __len__(self) -> int:
        return len(self.spec_codes)

    def __iter__(self) -> Iterator[MobileDevice]:
        rows = zip(self.id_array.tolist(), self.spec_codes.tolist(), self.num_samples.tolist())
        return (MobileDevice(device_id, self.specs[code], size) for device_id, code, size in rows)

    def _row(self, device_id: int) -> int:
        try:
            return self._index.row(device_id)
        except KeyError:
            raise DeviceError(f"no device with id {device_id} in fleet") from None

    def __getitem__(self, device_id: int) -> MobileDevice:
        row = self._row(device_id)
        spec = self.specs[self.spec_codes[row]]
        return MobileDevice(int(self.id_array[row]), spec, int(self.num_samples[row]))

    def spec_of(self, device_id: int) -> DeviceSpec:
        """Hardware specification of a device id."""
        return self.specs[self.spec_codes[self._row(device_id)]]

    @property
    def device_ids(self) -> list[int]:
        """All device ids in fleet order (a copy)."""
        return self.id_array.tolist()

    @property
    def devices(self) -> list[MobileDevice]:
        """All devices in fleet order (fresh views)."""
        return list(self)

    def by_tier(self, tier: DeviceTier | str) -> list[MobileDevice]:
        """All devices of the requested tier."""
        tier = DeviceTier.from_name(tier)
        return [device for device in self if device.tier is tier]

    def tier_counts(self) -> dict[DeviceTier, int]:
        """Number of devices per tier."""
        counts = {tier: 0 for tier in DeviceTier}
        per_spec = np.bincount(self.spec_codes, minlength=len(self.specs)).tolist()
        for spec, count in zip(self.specs, per_spec):
            counts[spec.tier] += count
        return counts

    def tier_of(self, device_id: int) -> DeviceTier:
        """Tier of a device id."""
        return self.spec_of(device_id).tier


def build_fleet(config: SimulationConfig, rng: np.random.Generator | None = None) -> Fleet:
    """Build a fleet matching ``config.tier_counts`` with shuffled device-id assignment.

    Device ids are assigned randomly across tiers (seeded by ``config.seed`` unless an
    explicit generator is provided) so that id ordering carries no tier information — the
    random-selection baseline must not accidentally benefit from id structure.
    """
    rng = rng if rng is not None else np.random.default_rng(config.seed)
    specs = [TIER_SPECS[DeviceTier.from_name(name)] for name in config.tier_counts]
    codes = np.repeat(np.arange(len(specs)), list(config.tier_counts.values()))
    order = rng.permutation(len(codes))
    return Fleet(specs, codes[order])
