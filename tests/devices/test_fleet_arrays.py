"""Tests for the struct-of-arrays fleet snapshot and condition arrays."""

from dataclasses import fields, replace

import numpy as np
import pytest

from repro.devices.device import ExecutionTarget, RoundConditions
from repro.devices.fleet import Fleet
from repro.devices.fleet_arrays import (
    PROC_CPU,
    PROC_GPU,
    TIER_ORDER,
    FleetArrays,
    RoundConditionsArrays,
)
from repro.devices.specs import GALAXY_S10E, MI8_PRO, MOTO_X_FORCE
from repro.exceptions import DeviceError, SimulationError


@pytest.fixture
def arrays(small_fleet):
    return FleetArrays.from_fleet(small_fleet)


class TestFleetArrays:
    def test_snapshot_matches_devices(self):
        # The tier specs plus two distinct custom specs of one tier: the snapshot
        # tabulates per spec object, so equal tiers must not share a table row.
        custom_a = replace(
            MI8_PRO,
            name="custom-a",
            training_power_scale=0.9,
            cpu=replace(MI8_PRO.cpu, peak_gflops=31.5, idle_power_watt=0.21, num_vf_steps=7),
        )
        custom_b = replace(
            MI8_PRO,
            name="custom-b",
            gpu=replace(MI8_PRO.gpu, mem_bandwidth_gbs=9.5, saturation_batch=48),
        )
        specs = [MI8_PRO, custom_a, GALAXY_S10E, custom_b, MOTO_X_FORCE]
        ids = list(range(40))[::-1]
        fleet = Fleet(
            specs,
            [(device_id * 7) % len(specs) for device_id in ids],
            device_ids=ids,
            num_samples=[device_id % 13 for device_id in ids],
        )
        arrays = FleetArrays.from_fleet(fleet)
        order = fleet.devices
        tier_index = {tier: code for code, tier in enumerate(TIER_ORDER)}

        def per_processor(attr, dtype=np.float64):
            return np.array(
                [
                    [getattr(device.spec.cpu, attr) for device in order],
                    [getattr(device.spec.gpu, attr) for device in order],
                ],
                dtype=dtype,
            )

        reference = {
            "device_ids": np.array([d.device_id for d in order], dtype=np.int64),
            "tier_codes": np.array([tier_index[d.tier] for d in order], dtype=np.int8),
            "num_samples": np.array([d.num_local_samples for d in order], dtype=np.int64),
            "training_power_scale": np.array([d.spec.training_power_scale for d in order]),
            "idle_power_watt": np.array([d.idle_power() for d in order]),
            "awake_power_watt": np.array([d.awake_power() for d in order]),
            "peak_gflops": per_processor("peak_gflops"),
            "mem_bandwidth_gbs": per_processor("mem_bandwidth_gbs"),
            "peak_power_watt": per_processor("peak_power_watt"),
            "max_frequency_ghz": per_processor("max_frequency_ghz"),
            "num_vf_steps": per_processor("num_vf_steps", np.int64),
            "saturation_batch": per_processor("saturation_batch", np.int64),
        }
        assert set(reference) == {f.name for f in fields(FleetArrays)}
        for name, expected in reference.items():
            actual = getattr(arrays, name)
            assert actual.dtype == expected.dtype, name
            assert actual.shape == expected.shape, name
            assert actual.flags.c_contiguous, name
            assert actual.tobytes() == expected.tobytes(), name

    def test_snapshot_reflects_assigned_samples(self, small_fleet):
        fleet = Fleet(
            small_fleet.specs,
            small_fleet.spec_codes,
            small_fleet.id_array,
            num_samples=np.full(len(small_fleet), 17),
        )
        arrays = FleetArrays.from_fleet(fleet)
        assert np.all(arrays.num_samples == 17)
        assert all(device.num_local_samples == 17 for device in fleet)

    def test_rows_for_maps_ids(self, small_fleet, arrays):
        ids = small_fleet.device_ids[::3]
        rows = arrays.rows_for(ids)
        assert [int(arrays.device_ids[row]) for row in rows] == ids

    def test_rows_for_unknown_id_rejected(self, arrays):
        with pytest.raises(DeviceError):
            arrays.rows_for([10_000])

    def test_default_vf_steps_match_default_targets(self, small_fleet, arrays):
        defaults = arrays.default_vf_steps()
        for row, device in enumerate(small_fleet.devices):
            assert int(defaults[row]) == device.default_target().vf_step

    def test_relative_frequency_matches_scalar(self, small_fleet, arrays):
        rows, processors, steps = [], [], []
        expected = []
        for row, device in enumerate(small_fleet.devices):
            for code, spec in ((PROC_CPU, device.spec.cpu), (PROC_GPU, device.spec.gpu)):
                for step in (0, spec.num_vf_steps // 2, spec.num_vf_steps - 1):
                    rows.append(row)
                    processors.append(code)
                    steps.append(step)
                    expected.append(spec.relative_frequency(step))
        result = arrays.relative_frequency(
            np.array(processors), np.array(steps), np.array(rows)
        )
        assert result == pytest.approx(expected, rel=1e-12)

    def test_out_of_range_step_rejected(self, small_fleet, arrays):
        cpu_steps = small_fleet.devices[0].spec.cpu.num_vf_steps
        with pytest.raises(DeviceError):
            arrays.relative_frequency(
                np.array([PROC_CPU]), np.array([cpu_steps]), np.array([0])
            )


class TestRoundConditionsArrays:
    def test_mapping_roundtrip(self, small_fleet, rng):
        ids = small_fleet.device_ids
        mapping = {
            device_id: RoundConditions(
                co_cpu_util=float(rng.random()),
                co_mem_util=float(rng.random()),
                bandwidth_mbps=float(10 + 90 * rng.random()),
            )
            for device_id in ids
        }
        arrays = RoundConditionsArrays.from_mapping(ids, mapping)
        restored = arrays.to_mapping(ids)
        assert restored == mapping

    def test_missing_device_raises_simulation_error(self, small_fleet):
        ids = small_fleet.device_ids
        mapping = {device_id: RoundConditions() for device_id in ids[:-1]}
        with pytest.raises(SimulationError, match=str(ids[-1])):
            RoundConditionsArrays.from_mapping(ids, mapping)

    def test_take_selects_rows(self, small_fleet):
        ids = small_fleet.device_ids
        mapping = {
            device_id: RoundConditions(bandwidth_mbps=float(10 + device_id))
            for device_id in ids
        }
        arrays = RoundConditionsArrays.from_mapping(ids, mapping)
        subset = arrays.take(np.array([0, 2]))
        assert subset.bandwidth_mbps[0] == 10 + ids[0]
        assert subset.bandwidth_mbps[1] == 10 + ids[2]

    def test_lazy_mapping_matches_eager_mapping(self, small_fleet, rng):
        ids = small_fleet.device_ids
        mapping = {
            device_id: RoundConditions(bandwidth_mbps=float(10 + 90 * rng.random()))
            for device_id in ids
        }
        arrays = RoundConditionsArrays.from_mapping(ids, mapping)
        lazy = arrays.lazy_mapping(ids)
        assert len(lazy) == len(ids)
        assert list(lazy) == ids
        assert dict(lazy) == arrays.to_mapping(ids)
        # Cached objects are reused across accesses.
        assert lazy[ids[0]] is lazy[ids[0]]
        with pytest.raises(KeyError):
            lazy[10_000]

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(SimulationError):
            RoundConditionsArrays(
                co_cpu_util=np.zeros(3),
                co_mem_util=np.zeros(3),
                bandwidth_mbps=np.ones(2),
            )


def test_execution_target_codes_cover_processors():
    # The code tables must stay in sync with the ExecutionTarget processor names.
    ExecutionTarget(processor="cpu", vf_step=0)
    ExecutionTarget(processor="gpu", vf_step=0)
    from repro.devices.fleet_arrays import PROCESSOR_CODES, PROCESSOR_NAMES

    assert set(PROCESSOR_CODES) == {"cpu", "gpu"}
    assert PROCESSOR_NAMES[PROCESSOR_CODES["cpu"]] == "cpu"
    assert PROCESSOR_NAMES[PROCESSOR_CODES["gpu"]] == "gpu"
