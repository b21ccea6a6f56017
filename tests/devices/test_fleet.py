"""Tests for fleet construction."""

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.devices.fleet import Fleet, build_fleet
from repro.devices.specs import DeviceTier, MI8_PRO
from repro.exceptions import DeviceError


class TestBuildFleet:
    def test_default_fleet_matches_paper_composition(self):
        fleet = build_fleet(SimulationConfig())
        assert len(fleet) == 200
        counts = fleet.tier_counts()
        assert counts[DeviceTier.HIGH] == 30
        assert counts[DeviceTier.MID] == 70
        assert counts[DeviceTier.LOW] == 100

    def test_device_ids_are_contiguous(self, small_config):
        fleet = build_fleet(small_config)
        assert sorted(fleet.device_ids) == list(range(small_config.num_devices))

    def test_seed_determinism(self, small_config):
        first = build_fleet(small_config, np.random.default_rng(5))
        second = build_fleet(small_config, np.random.default_rng(5))
        assert [d.tier for d in first] == [d.tier for d in second]

    def test_tier_assignment_is_shuffled(self):
        config = SimulationConfig()
        fleet = build_fleet(config, np.random.default_rng(0))
        # The first 30 device ids must not all be high-end (ids would then leak tier).
        first_30 = {fleet[device_id].tier for device_id in range(30)}
        assert len(first_30) > 1


class TestFleet:
    def test_lookup_and_errors(self, small_fleet):
        device_id = small_fleet.device_ids[0]
        assert small_fleet[device_id].device_id == device_id
        with pytest.raises(DeviceError):
            small_fleet[99999]

    def test_by_tier_accepts_strings(self, small_fleet):
        high = small_fleet.by_tier("high")
        assert all(device.tier is DeviceTier.HIGH for device in high)
        assert len(high) == small_fleet.tier_counts()[DeviceTier.HIGH]

    def test_tier_of(self, small_fleet):
        for device in small_fleet:
            assert small_fleet.tier_of(device.device_id) is device.tier

    def test_duplicate_ids_rejected(self):
        with pytest.raises(DeviceError, match="unique"):
            Fleet([MI8_PRO], [0, 0], device_ids=[1, 1])

    def test_empty_fleet_rejected(self):
        with pytest.raises(DeviceError):
            Fleet([MI8_PRO], [])

    def test_devices_returns_copy(self, small_fleet):
        devices = small_fleet.devices
        devices.clear()
        assert len(small_fleet) > 0
