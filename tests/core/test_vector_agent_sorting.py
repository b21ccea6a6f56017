"""The vectorised agent's partial top-K and one-sort pending fold are exact stand-ins
for the full stable argsort and the ``np.unique`` call they replace."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core import agent as agent_module
from repro.core.agent import runs_of_sorted, stable_top_k
from repro.experiments.runner import build_simulation
from repro.experiments.spec import ExperimentSpec
from repro.sim.scenarios import get_scenario_preset

#: A handful of values, so that ties (including at the k-th key) are common.
TIED_KEYS = st.lists(st.sampled_from([-2.0, -0.5, -0.0, 0.0, 0.25, 1.0]), max_size=40)
ANY_KEYS = st.lists(st.floats(allow_infinity=True, allow_nan=True), max_size=40)


def _full_sort_top_k(keys, k):
    return np.argsort(keys, kind="stable")[:k]


def _unique_runs(sorted_values):
    _, first_index, counts = np.unique(sorted_values, return_index=True, return_counts=True)
    return first_index, counts


@given(keys=TIED_KEYS | ANY_KEYS, k=st.integers(0, 50))
def test_stable_top_k_equals_the_stable_argsort_prefix(keys, k):
    keys = np.array(keys, dtype=np.float64)
    assert np.array_equal(stable_top_k(keys, k), _full_sort_top_k(keys, k))


@given(keys=TIED_KEYS)
def test_stable_top_k_with_k_at_least_n_is_the_full_stable_order(keys):
    keys = np.array(keys, dtype=np.float64)
    for k in (len(keys), len(keys) + 3):
        assert np.array_equal(stable_top_k(keys, k), np.argsort(keys, kind="stable"))


@given(values=st.lists(st.integers(0, 5), max_size=60))
def test_runs_of_sorted_equals_the_unique_fold(values):
    sorted_values = np.sort(np.array(values, dtype=np.int64))
    first_index, counts = runs_of_sorted(sorted_values)
    expected_index, expected_counts = _unique_runs(sorted_values)
    assert np.array_equal(first_index, expected_index)
    assert np.array_equal(counts, expected_counts)
    assert first_index.dtype == expected_index.dtype
    assert counts.dtype == expected_counts.dtype


@pytest.mark.parametrize("preset", ["flaky-fleet", "fleet-10k"])
def test_autofl_fast_matches_the_full_sort_oracle(monkeypatch, preset):
    # No golden pins autofl-fast (per-tier sharing, init_scale 0.01), so pin it here
    # against the same agent running the full argsort and np.unique.
    scenario = replace(get_scenario_preset(preset), max_rounds=20, seed=0)
    spec = ExperimentSpec(scenario=scenario, policy="autofl-fast", stop_at_convergence=False)

    def run():
        simulation = build_simulation(spec.validate())
        return simulation.run().to_json(), simulation.policy.reward_history()

    fast = run()
    monkeypatch.setattr(agent_module, "stable_top_k", _full_sort_top_k)
    monkeypatch.setattr(agent_module, "runs_of_sorted", _unique_runs)
    assert run() == fast
