"""Tests for the decorator-based registries and their validation errors."""

import pytest

from repro.exceptions import ConfigurationError, DataError, PolicyError
from repro.registry import (
    AGGREGATORS,
    DATA_DISTRIBUTIONS,
    INTERFERENCE,
    NETWORKS,
    POLICIES,
    REGISTRIES,
    Registry,
    SETTINGS,
    WORKLOADS,
    canonical_key,
    get_registry,
)


class TestCanonicalKey:
    def test_normalises_case_and_separators(self):
        assert canonical_key("Non_IID_50") == "non-iid-50"
        assert canonical_key("  FedAvg-Random ") == "fedavg-random"


class TestRegistryBasics:
    def test_register_and_create(self):
        registry = Registry("thing")
        registry.add("alpha", lambda: "a", aliases=("first",), summary="The letter a.")
        assert registry.create("alpha") == "a"
        assert registry.create("first") == "a"
        assert registry.canonical_name("first") == "alpha"
        assert "alpha" in registry and "first" in registry
        assert registry.names() == ["alpha"]

    def test_decorator_returns_object_unchanged(self):
        registry = Registry("thing")

        @registry.register("beta")
        def factory():
            """Docstring summary."""
            return "b"

        assert factory() == "b"
        assert registry.entries()[0].summary == "Docstring summary."

    def test_duplicate_name_rejected(self):
        registry = Registry("thing")
        registry.add("alpha", lambda: "a")
        with pytest.raises(ConfigurationError, match="duplicate"):
            registry.add("Alpha", lambda: "a2")

    def test_duplicate_alias_rejected(self):
        registry = Registry("thing")
        registry.add("alpha", lambda: "a")
        with pytest.raises(ConfigurationError, match="duplicate"):
            registry.add("beta", lambda: "b", aliases=("first", "alpha"))
        # A rejected registration must not leave the name or earlier aliases behind.
        assert "beta" not in registry
        assert "first" not in registry
        registry.add("beta", lambda: "b2", aliases=("first",))
        assert registry.create("first") == "b2"

    def test_unknown_name_suggests_close_match(self):
        registry = Registry("thing")
        registry.add("gradient", lambda: "g")
        with pytest.raises(ConfigurationError, match="did you mean 'gradient'"):
            registry.get("gradiant")

    def test_custom_error_class(self):
        registry = Registry("thing", error_cls=PolicyError)
        with pytest.raises(PolicyError):
            registry.get("missing")


class TestBuiltinRegistries:
    def test_all_policies_registered(self):
        names = set(POLICIES.names())
        assert {"fedavg-random", "power", "performance", "autofl", "ofl", "oparticipant"} <= names
        assert {f"cluster-c{i}" for i in range(1, 8)} <= names

    def test_policy_aliases(self):
        assert POLICIES.canonical_name("random") == "fedavg-random"
        assert POLICIES.canonical_name("oracle") == "ofl"

    def test_unknown_policy_raises_policy_error(self):
        with pytest.raises(PolicyError, match="did you mean 'autofl'"):
            POLICIES.entry("autofk")

    def test_workloads(self):
        assert set(WORKLOADS.names()) == {"cnn-mnist", "lstm-shakespeare", "mobilenet-imagenet"}
        assert WORKLOADS.create("mnist").name == "cnn-mnist"
        with pytest.raises(ConfigurationError, match="unknown workload"):
            WORKLOADS.entry("resnet")

    def test_aggregators(self):
        assert set(AGGREGATORS.names()) == {"fedavg", "fedprox", "fednova", "fedl"}
        with pytest.raises(PolicyError, match="unknown aggregator"):
            AGGREGATORS.entry("fedsgd")

    def test_scenario_axes(self):
        assert set(INTERFERENCE.names()) == {"none", "moderate", "heavy"}
        assert set(NETWORKS.names()) == {"stable", "variable", "weak"}
        assert set(SETTINGS.names()) == {"S1", "S2", "S3", "S4"}
        assert SETTINGS.create("s2").local_epochs == 5
        with pytest.raises(ConfigurationError, match="unknown interference"):
            INTERFERENCE.entry("mild")
        with pytest.raises(ConfigurationError, match="unknown network"):
            NETWORKS.entry("flaky")

    def test_data_distributions_raise_data_error(self):
        assert DATA_DISTRIBUTIONS.create("non-iid-50").non_iid_fraction == 0.5
        with pytest.raises(DataError, match="unknown data distribution"):
            DATA_DISTRIBUTIONS.entry("non_iid_25")


class TestGetRegistry:
    def test_lookup_by_axis_name(self):
        assert get_registry("policies") is POLICIES
        assert set(REGISTRIES) == {
            "policies",
            "workloads",
            "aggregators",
            "interference",
            "networks",
            "data-distributions",
            "settings",
            "scenarios",
            "availability",
        }

    def test_unknown_axis_suggests(self):
        with pytest.raises(ConfigurationError, match="did you mean 'settings'"):
            get_registry("settigns")


class TestThirdPartyExtension:
    def test_new_policy_is_one_decorator(self):
        from repro.core.selection import Policy, make_policy

        @POLICIES.register("test-noop-policy", summary="Registered by the test suite.")
        class NoopPolicy(Policy):
            name = "test-noop-policy"

        try:
            assert isinstance(make_policy("test-noop-policy"), NoopPolicy)
        finally:
            # Keep the shared registry pristine for the other tests.
            POLICIES._entries.pop("test-noop-policy")

    def test_policy_contract_holds_through_both_loops(self):
        # A third-party policy reads the round's conditions as fleet-order arrays and
        # learns from the batch outcome, in a solo run and in a multi-seed experiment.
        from dataclasses import replace

        import numpy as np

        from repro.core.selection import Policy, effective_num_participants
        from repro.experiments.runner import build_simulation, run_experiment
        from repro.experiments.spec import ExperimentSpec
        from repro.sim.context import SelectionDecision
        from repro.sim.results import BatchRoundExecution
        from repro.sim.scenarios import ScenarioSpec

        feedback_seen = []

        @POLICIES.register("test-bandwidth-policy", summary="Registered by the test suite.")
        class BandwidthPolicy(Policy):
            """Picks the online devices with the most bandwidth this round."""

            name = "test-bandwidth-policy"

            def select(self, ctx):
                bandwidth = ctx.conditions.bandwidth_mbps
                if ctx.online_mask is not None:
                    bandwidth = bandwidth[ctx.online_mask]
                order = np.argsort(-bandwidth, kind="stable")
                chosen = ctx.candidate_id_array()[order[: effective_num_participants(ctx)]]
                return SelectionDecision(participants=chosen.tolist())

            def feedback(self, ctx, decision, batch, training):
                feedback_seen.append((ctx.round_index, type(batch)))

        try:
            scenario = ScenarioSpec(num_devices=30, max_rounds=3, seed=0)
            spec = ExperimentSpec(
                scenario=scenario, policy="test-bandwidth-policy", stop_at_convergence=False
            )
            assert build_simulation(spec).run().num_rounds == 3
            assert feedback_seen == [(index, BatchRoundExecution) for index in range(3)]
            feedback_seen.clear()
            assert len(run_experiment(replace(spec, n_seeds=2)).summaries) == 2
            # One batch outcome per replica-round: both replicas learn every round.
            assert feedback_seen == [
                (index, BatchRoundExecution) for index in range(3) for _replica in range(2)
            ]
        finally:
            POLICIES._entries.pop("test-bandwidth-policy")
