"""Per-device data profiles: the statistical view of local data used by the simulator.

Running 200-device, 1000-round experiments does not require materialising every device's
raw samples — what the simulator, the surrogate convergence model and the AutoFL state
features need per device is (a) how many local samples it holds, (b) how many of the global
classes it covers and (c) how balanced its local class mix is.  :class:`DataProfileArrays`
holds that as arrays, read as a mapping of :class:`DeviceDataProfile` views, derived either
from a real :class:`~repro.data.federated.FederatedDataset` or synthesised directly from a
heterogeneity scenario (the paper's Ideal IID / Non-IID(M%) settings).
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from repro.data.federated import FederatedDataset
from repro.data.partition import DIRICHLET_CONCENTRATION, DataDistribution
from repro.devices.fleet_arrays import DeviceIndex, read_only_array
from repro.exceptions import DataError

#: Dirichlet concentration of an IID device's class mix: near-uniform with mild noise.
_IID_CONCENTRATION = 50.0

#: Smallest concentration at which ``Generator.dirichlet`` normalises Gamma draws.
_GAMMA_DIRICHLET_MIN = 0.1


@dataclass(frozen=True)
class DeviceDataProfile:
    """Statistical summary of one device's local training data."""

    device_id: int
    num_samples: int
    class_fraction: float
    balance_score: float
    is_non_iid: bool

    def __post_init__(self) -> None:
        if self.num_samples < 0:
            raise DataError("num_samples must be non-negative")
        if not 0.0 <= self.class_fraction <= 1.0:
            raise DataError("class_fraction must be in [0, 1]")
        if not 0.0 <= self.balance_score <= 1.0:
            raise DataError("balance_score must be in [0, 1]")

    @property
    def data_quality(self) -> float:
        """Scalar "usefulness" of this device's data for global convergence, in ``[0, 1]``.

        Combines label-space coverage and balance; IID devices score close to 1.0 while
        Dirichlet(0.1)-concentrated devices score far lower.  This is the per-device signal
        the surrogate convergence model aggregates each round.
        """
        return 0.5 * self.class_fraction + 0.5 * self.balance_score


class DataProfileArrays(Mapping[int, DeviceDataProfile]):
    """Every device's data profile as arrays in device order, read as a mapping.

    The arrays are validated once, with :class:`DeviceDataProfile`'s rules, and are
    read-only.  Looking up a device id builds its :class:`DeviceDataProfile` view, so
    consumers that read the arrays never pay for per-device objects.
    """

    def __init__(
        self,
        device_ids: Sequence[int] | np.ndarray,
        num_samples: Sequence[int] | np.ndarray,
        class_fraction: Sequence[float] | np.ndarray,
        balance_score: Sequence[float] | np.ndarray,
        is_non_iid: Sequence[bool] | np.ndarray,
    ) -> None:
        self.device_ids = read_only_array(device_ids, np.int64)
        self.num_samples = read_only_array(num_samples, np.int64)
        self.class_fraction = read_only_array(class_fraction, np.float64)
        self.balance_score = read_only_array(balance_score, np.float64)
        self.is_non_iid = read_only_array(is_non_iid, bool)
        n = len(self.device_ids)
        if n == 0:
            raise DataError("device_ids must be non-empty")
        columns = (self.num_samples, self.class_fraction, self.balance_score, self.is_non_iid)
        if any(column.shape != (n,) for column in (self.device_ids, *columns)):
            raise DataError("profile arrays need one entry per device")
        self._index = DeviceIndex(self.device_ids)
        if not self._index.unique:
            raise DataError("device_ids must be unique")
        if self.num_samples.min() < 0:
            raise DataError("num_samples must be non-negative")
        for name in ("class_fraction", "balance_score"):
            scores = getattr(self, name)
            if not ((scores >= 0.0) & (scores <= 1.0)).all():
                raise DataError(f"{name} must be in [0, 1]")
        #: Per-device :attr:`DeviceDataProfile.data_quality`, the same bits.
        self.data_quality = 0.5 * self.class_fraction + 0.5 * self.balance_score
        self.data_quality.setflags(write=False)

    def __getitem__(self, device_id: int) -> DeviceDataProfile:
        row = self._index.row(device_id)  # Raises KeyError for unknown ids, like a dict.
        return DeviceDataProfile(
            device_id=int(self.device_ids[row]),
            num_samples=int(self.num_samples[row]),
            class_fraction=float(self.class_fraction[row]),
            balance_score=float(self.balance_score[row]),
            is_non_iid=bool(self.is_non_iid[row]),
        )

    def __iter__(self) -> Iterator[int]:
        return iter(self.device_ids.tolist())

    def __len__(self) -> int:
        return len(self.device_ids)

    def rows_for(self, device_ids: Sequence[int]) -> np.ndarray:
        """Rows of the given device ids; raises :class:`KeyError` naming an unknown id."""
        return self._index.rows(device_ids)


def profiles_from_federated_dataset(dataset: FederatedDataset) -> DataProfileArrays:
    """Derive per-device profiles from a materialised federated dataset."""
    shards = [dataset.shard(device_id) for device_id in dataset.device_ids]
    return DataProfileArrays(
        device_ids=dataset.device_ids,
        num_samples=[shard.num_samples for shard in shards],
        class_fraction=[shard.class_fraction for shard in shards],
        balance_score=[shard.balance_score() for shard in shards],
        is_non_iid=[shard.is_non_iid for shard in shards],
    )


def synthesize_data_profiles(
    device_ids: Sequence[int] | np.ndarray,
    distribution: DataDistribution | str,
    num_classes: int,
    samples_per_device: int,
    rng: np.random.Generator,
    concentration: float = DIRICHLET_CONCENTRATION,
) -> DataProfileArrays:
    """Synthesise per-device profiles for a heterogeneity scenario without raw data.

    Non-IID devices draw their class mix from ``Dirichlet(concentration)`` over the global
    label space (exactly the paper's construction) and the profile statistics are computed
    from that mix; IID devices cover the full label space with a near-uniform mix.

    Each device, in ``device_ids`` order, draws its shard size, its class mix and its
    per-class counts from ``rng``; the coverage and balance statistics are then computed
    for the whole fleet with array operations.  The draws, and every statistic's bits,
    are those of drawing and summarising one device at a time.  Empty or duplicate ids
    are rejected once the arrays are built, by :class:`DataProfileArrays`.
    """
    if num_classes < 2:
        raise DataError("num_classes must be >= 2")
    if samples_per_device < 1:
        raise DataError("samples_per_device must be >= 1")
    if not (math.isfinite(concentration) and concentration > 0):
        raise DataError(f"concentration must be a finite positive number, got {concentration}")
    distribution = DataDistribution.from_name(distribution)
    num_devices = len(device_ids)
    num_non_iid = int(round(distribution.non_iid_fraction * num_devices))
    non_iid = np.zeros(num_devices, dtype=bool)
    if num_non_iid > 0:
        non_iid[rng.choice(num_devices, size=num_non_iid, replace=False)] = True

    num_samples, counts = _draw_class_counts(
        non_iid, num_classes, samples_per_device, rng, concentration
    )
    present = counts > 0
    num_present = present.sum(axis=1)
    class_fraction = num_present / num_classes
    # Entropy of each device's present-class proportions, summed in class order.  Devices
    # holding the same number of classes form one (devices, classes) block whose rows
    # reduce exactly as one device's 1-D array does; a device with no samples keeps 0.0.
    entropy = np.zeros(num_devices)
    for width in np.unique(num_present[num_present > 0]).tolist():
        rows = np.flatnonzero(num_present == width)
        present_counts = counts[rows][present[rows]].reshape(len(rows), width)
        probabilities = present_counts / num_samples[rows, None]
        entropy[rows] = -(probabilities * np.log(probabilities)).sum(axis=1)
    balance = np.minimum(1.0, entropy / np.log(num_classes))
    return DataProfileArrays(device_ids, num_samples, class_fraction, balance, non_iid)


def _draw_class_counts(
    non_iid: np.ndarray,
    num_classes: int,
    samples_per_device: int,
    rng: np.random.Generator,
    concentration: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Each device's shard size and per-class sample counts, drawn in device order.

    Per device: the shard size, then the class mix, then a multinomial split of the shard
    over the classes.
    """
    low = int(samples_per_device * 0.7)
    high = int(samples_per_device * 1.3) + 1
    integers, multinomial = rng.integers, rng.multinomial
    sizes = []
    counts = np.empty((len(non_iid), num_classes), dtype=np.int64)
    for row, is_non_iid in enumerate(non_iid.tolist()):
        size = integers(low, high)
        alpha = concentration if is_non_iid else _IID_CONCENTRATION
        counts[row] = multinomial(size, _dirichlet(rng, alpha, num_classes))
        sizes.append(size)
    return np.array(sizes, dtype=np.int64), counts


def _dirichlet(rng: np.random.Generator, alpha: float, num_classes: int) -> np.ndarray:
    """``rng.dirichlet(np.full(num_classes, alpha))``: the same bits, the same stream.

    At ``alpha >= _GAMMA_DIRICHLET_MIN`` numpy draws one Gamma(alpha) per class and
    scales them by the reciprocal of their left-to-right sum; doing that here skips its
    per-call overhead.  Below that it breaks sticks instead, so it is called as is.
    """
    if alpha < _GAMMA_DIRICHLET_MIN:
        return rng.dirichlet(np.full(num_classes, alpha))
    draws = rng.standard_gamma(alpha, size=num_classes)
    return draws * (1.0 / np.add.accumulate(draws)[-1])
