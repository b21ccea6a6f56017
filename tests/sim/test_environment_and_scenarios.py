"""Tests for the edge-cloud environment and scenario builders."""

import numpy as np
import pytest

from repro.config import GlobalParams, SimulationConfig
from repro.data.partition import DataDistribution
from repro.data.profiles import synthesize_data_profiles
from repro.exceptions import ConfigurationError, SimulationError
from repro.interference.corunner import InterferenceScenario
from repro.network.bandwidth import NetworkScenario
from repro.sim.environment import EdgeCloudEnvironment
from repro.sim.scenarios import ScenarioSpec, build_environment, build_surrogate_backend


class TestEdgeCloudEnvironment:
    def test_default_construction(self, small_environment):
        env = small_environment
        assert len(env.fleet) == env.config.num_devices
        assert set(env.data_profiles) == set(env.fleet.device_ids)
        # Fleet devices received their shard sizes.
        assert all(device.num_local_samples > 0 for device in env.fleet)

    def test_round_conditions_cover_every_device(self, small_environment):
        conditions = small_environment.sample_condition_arrays()
        assert len(conditions) == len(small_environment.fleet)
        assert (conditions.bandwidth_mbps > 0).all()

    def test_conditions_resampled_every_round(self, small_environment):
        first = small_environment.sample_condition_arrays()
        second = small_environment.sample_condition_arrays()
        assert (first.bandwidth_mbps != second.bandwidth_mbps).any()

    def test_missing_data_profile_rejected(self):
        config = SimulationConfig.small(num_devices=12, seed=0)
        profiles = synthesize_data_profiles(
            list(range(11)), "iid", 10, 300, np.random.default_rng(0)
        )
        with pytest.raises(SimulationError, match=r"devices 0\.\.11 in order"):
            EdgeCloudEnvironment(
                config=config,
                global_params=GlobalParams.from_setting("S4"),
                workload="cnn-mnist",
                data_profiles=profiles,
            )

    def test_data_profiles_must_be_profile_arrays(self):
        config = SimulationConfig.small(num_devices=12, seed=0)
        with pytest.raises(SimulationError, match="DataProfileArrays"):
            EdgeCloudEnvironment(
                config=config,
                global_params=GlobalParams.from_setting("S4"),
                workload="cnn-mnist",
                data_profiles={0: None},  # type: ignore[arg-type]
            )

    def test_k_larger_than_fleet_rejected(self):
        config = SimulationConfig.small(num_devices=8, seed=0)
        with pytest.raises(SimulationError):
            EdgeCloudEnvironment(
                config=config,
                global_params=GlobalParams(num_participants=50),
                workload="cnn-mnist",
            )

    def test_unknown_device_profile_lookup(self, small_environment):
        with pytest.raises(SimulationError):
            small_environment.data_profile(10_000)

    def test_workload_without_num_classes_rejected(self, small_environment):
        # Synthesising data profiles needs the workload's label-space size; profiles
        # that leave it unset fail with a clear error instead of a silent default.
        workload = small_environment.workload.with_overrides(
            name="custom", num_classes=None
        )
        config = SimulationConfig.small(num_devices=12, seed=0)
        with pytest.raises(SimulationError, match="num_classes"):
            EdgeCloudEnvironment(
                config=config,
                global_params=GlobalParams.from_setting("S4"),
                workload=workload,
            )

    def test_builtin_workloads_declare_num_classes(self):
        from repro.nn.workloads import WORKLOAD_PROFILES

        assert {p.num_classes for p in WORKLOAD_PROFILES.values()} == {10, 40, 100}


class TestScenarioSpec:
    def test_default_spec_matches_paper_deployment(self):
        spec = ScenarioSpec()
        config = spec.simulation_config()
        assert config.num_devices == 200
        assert spec.global_params() == GlobalParams.from_setting("S3")

    def test_small_spec_scales_tiers(self):
        spec = ScenarioSpec(num_devices=40, seed=3)
        config = spec.simulation_config()
        assert config.num_devices == 40
        assert sum(config.tier_counts.values()) == 40

    def test_explicit_tier_counts(self):
        spec = ScenarioSpec(num_devices=6, tier_counts={"high": 2, "mid": 2, "low": 2})
        assert spec.simulation_config().tier_counts == {"high": 2, "mid": 2, "low": 2}

    def test_build_environment_honours_scenarios(self):
        spec = ScenarioSpec(
            workload="lstm-shakespeare",
            setting="S1",
            interference="heavy",
            network="weak",
            data_distribution="non_iid_75",
            num_devices=30,
            seed=1,
        )
        env = build_environment(spec)
        assert env.workload.name == "lstm-shakespeare"
        assert env.global_params == GlobalParams.from_setting("S1")
        assert env.interference.scenario is InterferenceScenario.HEAVY
        assert env.bandwidth.scenario is NetworkScenario.WEAK
        assert env.data_distribution is DataDistribution.NON_IID_75
        non_iid = sum(profile.is_non_iid for profile in env.data_profiles.values())
        assert non_iid == pytest.approx(0.75 * 30, abs=1)

    def test_invalid_setting_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(setting="S8").global_params()

    def test_backend_builder_uses_aggregator(self):
        spec = ScenarioSpec(num_devices=30, seed=0)
        env = build_environment(spec)
        backend = build_surrogate_backend(env, aggregator="fednova")
        assert 0.0 <= backend.accuracy <= 1.0

    def test_environment_determinism(self):
        spec = ScenarioSpec(num_devices=30, seed=42)
        first = build_environment(spec)
        second = build_environment(spec)
        assert [d.tier for d in first.fleet] == [d.tier for d in second.fleet]
        first_conditions = first.sample_condition_arrays()
        second_conditions = second.sample_condition_arrays()
        assert first_conditions.bandwidth_mbps == pytest.approx(second_conditions.bandwidth_mbps)
