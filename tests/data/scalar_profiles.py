"""The per-device profile synthesiser: a readable oracle for ``synthesize_data_profiles``.

This is the paper's heterogeneity construction written one device at a time — an
integer shard size, a ``Dirichlet`` class mix and a multinomial draw per device, then the
coverage and entropy statistics of that one device.  The array-native
:func:`repro.data.profiles.synthesize_data_profiles` must return the same profiles, bit
for bit, and leave the generator in the same state.
"""

from __future__ import annotations

import numpy as np

from repro.data.partition import DIRICHLET_CONCENTRATION, DataDistribution
from repro.data.profiles import DeviceDataProfile
from repro.exceptions import DataError


def scalar_synthesize_data_profiles(
    device_ids: list[int],
    distribution: DataDistribution | str,
    num_classes: int,
    samples_per_device: int,
    rng: np.random.Generator,
    concentration: float = DIRICHLET_CONCENTRATION,
) -> dict[int, DeviceDataProfile]:
    """Synthesise per-device profiles for a heterogeneity scenario without raw data.

    Non-IID devices draw their class mix from ``Dirichlet(concentration)`` over the global
    label space (exactly the paper's construction) and the profile statistics are computed
    from that mix; IID devices cover the full label space with a near-uniform mix.
    """
    if num_classes < 2:
        raise DataError("num_classes must be >= 2")
    if samples_per_device < 1:
        raise DataError("samples_per_device must be >= 1")
    distribution = DataDistribution.from_name(distribution)
    num_devices = len(device_ids)
    if num_devices == 0:
        raise DataError("device_ids must be non-empty")
    num_non_iid = int(round(distribution.non_iid_fraction * num_devices))
    non_iid_ids: set[int] = set()
    if num_non_iid > 0:
        chosen = rng.choice(num_devices, size=num_non_iid, replace=False)
        non_iid_ids = {device_ids[int(index)] for index in chosen}

    profiles: dict[int, DeviceDataProfile] = {}
    for device_id in device_ids:
        num_samples = int(rng.integers(int(samples_per_device * 0.7), int(samples_per_device * 1.3) + 1))
        if device_id in non_iid_ids:
            mix = rng.dirichlet(np.full(num_classes, concentration))
        else:
            # IID devices: a near-uniform mix with mild sampling noise.
            mix = rng.dirichlet(np.full(num_classes, 50.0))
        counts = rng.multinomial(num_samples, mix)
        present = counts > 0
        class_fraction = float(present.sum() / num_classes)
        probabilities = counts[present] / num_samples
        entropy = float(-(probabilities * np.log(probabilities)).sum()) if present.any() else 0.0
        max_entropy = float(np.log(num_classes))
        balance = entropy / max_entropy if max_entropy > 0 else 1.0
        profiles[device_id] = DeviceDataProfile(
            device_id=device_id,
            num_samples=num_samples,
            class_fraction=class_fraction,
            balance_score=min(1.0, balance),
            is_non_iid=device_id in non_iid_ids,
        )
    return profiles
