"""Tests for the baseline selection policies and the policy factory."""

import numpy as np
import pytest

from repro.core.selection import (
    CLUSTER_TEMPLATES,
    PerformancePolicy,
    PowerPolicy,
    RandomPolicy,
    StaticClusterPolicy,
    TEMPLATE_REFERENCE_K,
    make_policy,
    scale_template,
)
from repro.core.controller import AutoFLPolicy
from repro.core.oracle import OracleFLPolicy, OracleParticipantPolicy
from repro.devices.specs import DeviceTier
from repro.exceptions import PolicyError
from repro.sim.context import RoundContext


@pytest.fixture
def context(small_environment):
    conditions = small_environment.sample_condition_arrays()
    return RoundContext(
        round_index=0, environment=small_environment, conditions=conditions, accuracy=0.1
    )


def _tier_counts(environment, participants):
    counts = {tier: 0 for tier in DeviceTier}
    for device_id in participants:
        counts[environment.fleet.tier_of(device_id)] += 1
    return counts


class TestClusterTemplates:
    def test_table4_templates_sum_to_reference_k(self):
        for name, template in CLUSTER_TEMPLATES.items():
            assert sum(template.values()) == TEMPLATE_REFERENCE_K, name

    def test_c1_and_c7_are_pure_tiers(self):
        assert CLUSTER_TEMPLATES["C1"][DeviceTier.HIGH] == 20
        assert CLUSTER_TEMPLATES["C7"][DeviceTier.LOW] == 20

    def test_scale_template_preserves_total(self):
        for k in (5, 10, 17, 20, 40):
            scaled = scale_template(CLUSTER_TEMPLATES["C3"], k)
            assert sum(scaled.values()) == k

    def test_scale_template_invalid_k(self):
        with pytest.raises(PolicyError):
            scale_template(CLUSTER_TEMPLATES["C3"], 0)


class TestRandomPolicy:
    def test_selects_k_unique_devices(self, context):
        policy = RandomPolicy(rng=np.random.default_rng(0))
        decision = policy.select(context)
        expected = context.environment.global_params.num_participants
        assert len(decision.participants) == expected
        assert len(set(decision.participants)) == expected

    def test_selection_varies_between_rounds(self, context):
        policy = RandomPolicy(rng=np.random.default_rng(0))
        first = policy.select(context).participants
        second = policy.select(context).participants
        assert set(first) != set(second)


class TestStaticClusterPolicies:
    def test_performance_policy_prefers_high_end(self, context):
        decision = PerformancePolicy(rng=np.random.default_rng(0)).select(context)
        counts = _tier_counts(context.environment, decision.participants)
        available_high = len(context.environment.fleet.by_tier(DeviceTier.HIGH))
        assert counts[DeviceTier.HIGH] == min(
            available_high, context.environment.global_params.num_participants
        )

    def test_power_policy_prefers_low_end(self, context):
        decision = PowerPolicy(rng=np.random.default_rng(0)).select(context)
        counts = _tier_counts(context.environment, decision.participants)
        assert counts[DeviceTier.LOW] >= counts[DeviceTier.HIGH]
        assert counts[DeviceTier.LOW] >= counts[DeviceTier.MID]

    def test_named_template_policy(self, context):
        policy = StaticClusterPolicy("C3", rng=np.random.default_rng(0))
        assert policy.name == "cluster-c3"
        decision = policy.select(context)
        assert len(decision.participants) == context.environment.global_params.num_participants

    def test_shortfall_filled_from_other_tiers(self, context):
        # Request far more high-end devices than exist in the small fleet.
        policy = StaticClusterPolicy({DeviceTier.HIGH: 20}, rng=np.random.default_rng(0))
        decision = policy.select(context)
        assert len(decision.participants) == context.environment.global_params.num_participants

    def test_unknown_template_rejected(self):
        with pytest.raises(PolicyError):
            StaticClusterPolicy("C9")


class TestMakePolicy:
    @pytest.mark.parametrize(
        "name, expected_type",
        [
            ("fedavg-random", RandomPolicy),
            ("random", RandomPolicy),
            ("power", PowerPolicy),
            ("performance", PerformancePolicy),
            ("cluster-c4", StaticClusterPolicy),
            ("oparticipant", OracleParticipantPolicy),
            ("ofl", OracleFLPolicy),
            ("autofl", AutoFLPolicy),
        ],
    )
    def test_factory_names(self, name, expected_type):
        assert isinstance(make_policy(name), expected_type)

    def test_unknown_policy(self):
        with pytest.raises(PolicyError):
            make_policy("best-effort")
