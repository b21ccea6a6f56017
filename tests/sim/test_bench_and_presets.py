"""Tests for benchmark provenance and the large-fleet scenario presets."""

import platform

import numpy as np

from repro.registry import SCENARIOS
from repro.sim.bench import bench_provenance
from repro.sim.scenarios import ScenarioSpec, build_environment, get_scenario_preset


class TestBenchProvenance:
    def test_records_interpreter_library_and_commit(self):
        # Provenance makes benchmark numbers comparable across machines.
        provenance = bench_provenance()
        assert provenance["python"] == platform.python_version()
        assert provenance["numpy"] == np.__version__
        assert provenance["platform"]
        assert provenance["machine"] == platform.machine()
        assert "git_sha" in provenance


class TestScenarioPresets:
    def test_registry_lists_presets(self):
        names = SCENARIOS.names()
        assert "paper-200" in names
        assert "fleet-1k" in names
        assert "fleet-10k" in names

    def test_presets_resolve_to_specs(self):
        assert get_scenario_preset("paper-200") == ScenarioSpec()
        fleet_1k = get_scenario_preset("1k")
        assert fleet_1k.num_devices == 1_000
        assert fleet_1k.vectorized_sampling
        assert get_scenario_preset("fleet-10k").num_devices == 10_000

    def test_large_fleet_environment_builds_and_samples(self):
        environment = build_environment(get_scenario_preset("fleet-1k"))
        assert len(environment.fleet) == 1_000
        conditions = environment.sample_condition_arrays()
        assert len(conditions) == 1_000
        assert np.all(conditions.bandwidth_mbps > 0)
        assert np.all((conditions.co_cpu_util >= 0) & (conditions.co_cpu_util <= 1))

    def test_vectorized_sampling_is_deterministic_per_seed(self):
        spec = get_scenario_preset("fleet-1k")
        first = build_environment(spec).sample_condition_arrays()
        second = build_environment(spec).sample_condition_arrays()
        assert np.array_equal(first.co_cpu_util, second.co_cpu_util)
        assert np.array_equal(first.bandwidth_mbps, second.bandwidth_mbps)
