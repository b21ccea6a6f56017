"""Tests for per-round energy accounting."""

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from repro.devices.energy import DeviceEnergy, RoundEnergyAccount, sequential_sum
from repro.exceptions import SimulationError


class TestDeviceEnergy:
    def test_totals(self):
        energy = DeviceEnergy(compute_j=2.0, communication_j=1.0, idle_j=0.5)
        assert energy.total_j == pytest.approx(3.5)
        assert energy.active_j == pytest.approx(3.0)

    def test_negative_rejected(self):
        with pytest.raises(SimulationError):
            DeviceEnergy(compute_j=-1.0)

    @given(
        compute=st.floats(0, 1e6),
        comm=st.floats(0, 1e6),
        idle=st.floats(0, 1e6),
    )
    def test_total_is_sum_of_parts(self, compute, comm, idle):
        energy = DeviceEnergy(compute, comm, idle)
        assert energy.total_j == pytest.approx(compute + comm + idle)
        assert energy.active_j <= energy.total_j


class TestRoundEnergyAccount:
    def test_global_sums_all_devices(self):
        account = RoundEnergyAccount()
        account.record(0, DeviceEnergy(compute_j=1.0, communication_j=0.5))
        account.record(1, DeviceEnergy(idle_j=0.2))
        assert account.global_j == pytest.approx(1.7)
        assert account.participant_j == pytest.approx(1.5)
        assert account.idle_total_j == pytest.approx(0.2)

    def test_device_lookup_error(self):
        account = RoundEnergyAccount()
        with pytest.raises(SimulationError):
            account.device(42)

    def test_record_overwrites(self):
        account = RoundEnergyAccount()
        account.record(0, DeviceEnergy(compute_j=1.0))
        account.record(0, DeviceEnergy(compute_j=2.0))
        assert account.global_j == pytest.approx(2.0)

    def test_merge_sums_overlapping_devices(self):
        left = RoundEnergyAccount()
        left.record(0, DeviceEnergy(compute_j=1.0))
        left.record(1, DeviceEnergy(idle_j=0.5))
        right = RoundEnergyAccount()
        right.record(0, DeviceEnergy(communication_j=2.0))
        right.record(2, DeviceEnergy(compute_j=3.0))
        merged = left.merge(right)
        assert merged.device(0).total_j == pytest.approx(3.0)
        assert merged.device(1).idle_j == pytest.approx(0.5)
        assert merged.device(2).compute_j == pytest.approx(3.0)
        # Originals unchanged.
        assert left.device(0).total_j == pytest.approx(1.0)


class TestSequentialSum:
    @given(values=st.lists(st.floats(0, 1e6), max_size=50))
    def test_array_and_iterable_sum_strictly_left_to_right(self, values):
        expected = 0.0
        for value in values:
            expected += value
        assert sequential_sum(np.array(values, dtype=np.float64)) == expected
        assert sequential_sum(iter(values)) == expected

    @given(values=st.lists(st.floats(-1e6, 1e6), max_size=50))
    @example(values=[-0.0])
    @example(values=[-0.0, -0.0])
    def test_iterable_sum_has_the_array_sum_bits(self, values):
        # Signed zeros included: the loop starts from the first value, as accumulate does.
        array_sum = sequential_sum(np.array(values, dtype=np.float64))
        assert sequential_sum(iter(values)).hex() == array_sum.hex()
        assert sequential_sum(values).hex() == array_sum.hex()
