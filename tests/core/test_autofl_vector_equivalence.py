"""Pin ``autofl-fast`` (the batch-synchronous Q-update) to ``autofl`` (the sequential one).

Both policies run the same array agent: the same state encoding, the same lazily
initialised Q-cells and the same random draws.  They differ only in how a round's
transitions update the tables.  With per-device Q-table sharing no two candidates share a
cell, so the two update rules coincide and the policies must produce identical records,
rewards and Q-tables at any ``init_scale``.  Under per-tier sharing they do not: the
sequential update lets a later transition read an earlier one's write to a shared cell,
the batch-synchronous one reads the pre-round table, and the runs diverge, mostly
within the first 40 rounds.  ``autofl`` itself is pinned to the scalar oracle in
``test_autofl_oracle.py``.
"""

from dataclasses import asdict, replace

import numpy as np
import pytest

from repro.core.controller import AutoFLPolicy
from repro.core.qtable import PER_DEVICE
from repro.core.reward import RewardCalculator
from repro.core.state import StateEncoder
from repro.experiments.runner import POLICY_SEED_OFFSET
from repro.sim.runner import FLSimulation
from repro.sim.scenarios import (
    ScenarioSpec,
    build_environment,
    build_surrogate_backend,
    get_scenario_preset,
)

STATIC_SPEC = dict(workload="cnn-mnist", num_devices=60, max_rounds=8)
DYNAMIC_SPEC = dict(
    workload="cnn-mnist",
    num_devices=80,
    max_rounds=8,
    interference="heavy",
    network="variable",
    data_distribution="non_iid_50",
    availability="diurnal",
    churn_rate=0.02,
    dropout_rate=0.05,
    slow_fault_rate=0.05,
)


def _run(spec_kwargs, vectorized, seed=0, init_scale=0.0):
    spec = ScenarioSpec(seed=seed, **spec_kwargs)
    environment = build_environment(spec)
    backend = build_surrogate_backend(environment, aggregator=spec.aggregator)
    policy = AutoFLPolicy(
        rng=np.random.default_rng(seed + POLICY_SEED_OFFSET),
        qtable_sharing=PER_DEVICE,
        vectorized=vectorized,
        init_scale=init_scale,
    )
    result = FLSimulation(
        environment, policy, backend, stop_at_convergence=False
    ).run()
    return result, policy


def _assert_same_run(sequential_run, batch_run):
    (sequential_result, sequential_policy), (batch_result, batch_policy) = (
        sequential_run,
        batch_run,
    )
    assert batch_result.records == sequential_result.records
    assert batch_policy.reward_history() == sequential_policy.reward_history()
    sequential_blocks = sequential_policy.agent.qtable_store._blocks
    batch_blocks = batch_policy.agent.qtable_store._blocks
    assert sequential_blocks.keys() == batch_blocks.keys()
    for key, block in sequential_blocks.items():
        assert np.array_equal(block, batch_blocks[key], equal_nan=True)


@pytest.mark.parametrize("spec_kwargs", [STATIC_SPEC, DYNAMIC_SPEC], ids=["static", "dynamics"])
def test_vectorized_autofl_matches_scalar(spec_kwargs):
    _assert_same_run(_run(spec_kwargs, vectorized=False), _run(spec_kwargs, vectorized=True))


@pytest.mark.parametrize("preset", ["flaky-fleet", "churn-heavy", "diurnal-1k"])
def test_update_rules_agree_under_per_device_sharing_at_paper_init_scale(preset):
    spec_kwargs = asdict(replace(get_scenario_preset(preset), max_rounds=40))
    spec_kwargs.pop("seed")
    _assert_same_run(
        _run(spec_kwargs, vectorized=False, seed=2, init_scale=0.01),
        _run(spec_kwargs, vectorized=True, seed=2, init_scale=0.01),
    )


def test_autofl_fast_is_registered():
    from repro.registry import POLICIES

    policy = POLICIES.create("autofl-fast", rng=np.random.default_rng(0))
    assert isinstance(policy, AutoFLPolicy)
    assert policy.vectorized
    assert policy.name == "autofl-fast"


def test_rewards_batch_matches_scalar_reward():
    calculator_scalar = RewardCalculator()
    calculator_batch = RewardCalculator()
    rng = np.random.default_rng(42)
    num_devices = 64
    for round_index in range(5):
        global_energy = float(rng.uniform(50.0, 150.0))
        local = rng.uniform(0.0, 5.0, size=num_devices)
        selected = rng.random(num_devices) < 0.3
        failed = selected & (rng.random(num_devices) < 0.2)
        accuracy = 0.1 + 0.05 * round_index
        previous = accuracy - 0.05
        mean_local = float(np.mean(local[selected])) if selected.any() else 0.0
        calculator_scalar.observe_round(global_energy, mean_local)
        calculator_batch.observe_round(global_energy, mean_local)
        expected = np.array(
            [
                calculator_scalar.reward(
                    global_energy_j=global_energy,
                    local_energy_j=float(local[i]),
                    accuracy=accuracy,
                    previous_accuracy=previous,
                    selected=bool(selected[i]),
                    failed=bool(failed[i]),
                )
                for i in range(num_devices)
            ]
        )
        batched = calculator_batch.rewards_batch(
            global_energy_j=global_energy,
            local_energy_j=local,
            accuracy=accuracy,
            previous_accuracy=previous,
            selected=selected,
            failed=failed,
        )
        assert np.array_equal(batched, expected)


def test_encode_local_codes_matches_scalar_encoding():
    encoder = StateEncoder()
    spec = ScenarioSpec(seed=3, **STATIC_SPEC)
    environment = build_environment(spec)
    arrays = environment.sample_condition_arrays()
    fleet_ids = environment.fleet.device_ids
    codes = encoder.encode_local_codes(arrays, environment.data_profiles.class_fraction)
    mapping = arrays.to_mapping(fleet_ids)
    for row, device_id in enumerate(fleet_ids):
        state = encoder.encode_local(
            mapping[device_id], environment.data_profile(device_id)
        )
        assert int(codes[row]) == StateEncoder.local_code(state)


def test_encode_local_codes_threshold_ties_match():
    # On-threshold values must land in the same bin on both paths.
    from repro.devices.fleet_arrays import RoundConditionsArrays

    encoder = StateEncoder()
    thresholds = np.array(encoder.UTILIZATION_THRESHOLDS, dtype=np.float64)
    values = np.concatenate([thresholds, thresholds - 1e-12, thresholds + 1e-12, [0.0, 1.0]])
    n = len(values)
    arrays = RoundConditionsArrays(
        co_cpu_util=values,
        co_mem_util=np.zeros(n),
        bandwidth_mbps=np.full(n, 100.0),
    )
    data_thresholds = np.array(encoder.DATA_THRESHOLDS, dtype=np.float64)
    fractions = np.resize(
        np.concatenate([data_thresholds, data_thresholds + 1e-12, [0.0, 1.0]]), n
    )
    codes = encoder.encode_local_codes(arrays, fractions)
    mapping = arrays.to_mapping(list(range(n)))

    class _Profile:
        def __init__(self, class_fraction):
            self.class_fraction = class_fraction

    for row in range(n):
        state = encoder.encode_local(mapping[row], _Profile(float(fractions[row])))
        assert int(codes[row]) == StateEncoder.local_code(state)
