"""Tests for the round-engine benchmark and the large-fleet scenario presets."""

import json

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.registry import SCENARIOS
from repro.sim.bench import bench_fleet_size, run_roundengine_bench
from repro.sim.scenarios import ScenarioSpec, build_environment, get_scenario_preset


class TestBench:
    def test_writes_record_and_reports_speedup(self, tmp_path):
        output = tmp_path / "bench.json"
        record = run_roundengine_bench(
            sizes=(30,), repeats=2, seed=0, output=output
        )
        assert output.exists()
        on_disk = json.loads(output.read_text())
        assert on_disk["benchmark"] == "roundengine"
        assert on_disk["results"] == record["results"]
        # Provenance makes trajectories comparable across machines.
        provenance = on_disk["provenance"]
        import numpy
        import platform as platform_module

        assert provenance["python"] == platform_module.python_version()
        assert provenance["numpy"] == numpy.__version__
        assert provenance["platform"]
        assert "git_sha" in provenance
        (row,) = record["results"]
        assert row["num_devices"] == 30
        assert row["batch_rounds_per_s"] > 0
        assert "scalar_rounds_per_s" not in row  # The scalar engine is a test oracle.
        # The speedup reported is seed replication's: serial seed runs vs one loop.
        replication = record["replication"]
        assert replication["speedup"] == pytest.approx(
            replication["serial_wall_s"] / replication["replicated_wall_s"], rel=1e-6
        )

    def test_no_output_file_when_disabled(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        record = run_roundengine_bench(sizes=(30,), repeats=1, output=None)
        assert not list(tmp_path.iterdir())
        assert record["results"]

    def test_rejects_tiny_fleets_and_empty_sizes(self):
        with pytest.raises(ConfigurationError):
            bench_fleet_size(num_devices=10)
        with pytest.raises(ConfigurationError):
            run_roundengine_bench(sizes=(), output=None)

    def test_rejects_non_positive_repeats(self):
        with pytest.raises(ConfigurationError):
            bench_fleet_size(num_devices=30, repeats=0)


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
