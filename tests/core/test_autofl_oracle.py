"""``autofl`` on the array agent is bit-identical to the scalar oracle it replaced.

The oracle (``scalar_autofl.py``) initialises each Q-entry from the shared RNG stream
when it is first read and applies Algorithm 1's update one transition at a time.  The
array agent must reproduce both — the records, the reward trajectory and every Q-cell,
including which cells were never read.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.actions import IDLE_ACTION
from repro.core.agent import QLearningConfig
from repro.core.controller import AutoFLPolicy
from repro.core.qtable import PER_DEVICE, PER_TIER, VectorQTableStore
from repro.core.state import LocalState, StateEncoder
from repro.devices.fleet_arrays import TIER_ORDER
from repro.exceptions import PolicyError
from repro.experiments.runner import POLICY_SEED_OFFSET
from repro.sim.runner import FLSimulation
from repro.sim.scenarios import build_environment, build_surrogate_backend, get_scenario_preset
from scalar_autofl import ScalarAutoFLPolicy

ROUNDS = 60


def _simulation(policy_class, preset, seed, **policy_kwargs):
    scenario = replace(get_scenario_preset(preset), max_rounds=ROUNDS, seed=seed)
    environment = build_environment(scenario)
    backend = build_surrogate_backend(environment, aggregator=scenario.aggregator)
    policy = policy_class(rng=np.random.default_rng(seed + POLICY_SEED_OFFSET), **policy_kwargs)
    return FLSimulation(
        environment, policy, backend, max_rounds=ROUNDS, stop_at_convergence=False
    )


def _assert_same_q_tables(oracle_agent, agent, fleet_arrays):
    """Every oracle entry equals its array cell, and every other cell is unread (NaN)."""
    store = agent.qtable_store
    action_ids = oracle_agent.catalog.action_ids
    tables = oracle_agent.qtable_store._tables
    global_tuples = {key[0] for table in tables.values() for key in table._values}
    assert global_tuples == store._blocks.keys()
    expected = {g: np.full_like(block, np.nan) for g, block in store._blocks.items()}
    for sharing_key, table in tables.items():
        if store.sharing == PER_TIER:
            index = TIER_ORDER.index(sharing_key)
        else:
            index = int(fleet_arrays.rows_for([sharing_key])[0])
        for (global_tuple, local_tuple, action_id), value in table._values.items():
            column = store.idle_column if action_id == IDLE_ACTION else action_ids.index(action_id)
            code = StateEncoder.local_code(LocalState(*local_tuple))
            expected[global_tuple][index, code, column] = value
    for global_tuple, block in store._blocks.items():
        assert np.array_equal(block, expected[global_tuple], equal_nan=True)
    assert store.total_entries() == oracle_agent.qtable_store.total_entries()
    assert store.num_tables == oracle_agent.qtable_store.num_tables


def _assert_matches_oracle(preset, seed, **policy_kwargs):
    simulation = _simulation(AutoFLPolicy, preset, seed, **policy_kwargs)
    oracle = _simulation(ScalarAutoFLPolicy, preset, seed, **policy_kwargs)
    assert simulation.run().to_json() == oracle.run().to_json()
    assert simulation.policy.reward_history() == oracle.policy.reward_history()
    _assert_same_q_tables(
        oracle.policy.agent, simulation.policy.agent, simulation.environment.fleet_arrays
    )


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("preset", ["fleet-1k", "flaky-fleet", "churn-heavy", "diurnal-1k"])
def test_autofl_matches_the_scalar_oracle(preset, seed):
    _assert_matches_oracle(preset, seed)


@pytest.mark.parametrize("epsilon", [0.1, 1.0])
@pytest.mark.parametrize("init_scale", [0.0, 0.01])
@pytest.mark.parametrize("sharing", [PER_DEVICE, PER_TIER])
def test_autofl_matches_the_scalar_oracle_across_configurations(sharing, init_scale, epsilon):
    _assert_matches_oracle(
        "flaky-fleet",
        1,
        qtable_sharing=sharing,
        init_scale=init_scale,
        config=QLearningConfig(epsilon=epsilon),
    )


def test_autofl_matches_the_scalar_oracle_per_device_at_1k():
    _assert_matches_oracle("fleet-1k", 2, qtable_sharing=PER_DEVICE)


def _run_with_a_global_state_change(simulation):
    # K=60 and 12 epochs from round 20 to 39 move every device into a second global
    # state, so rounds 20 and 40 complete the previous round's updates across two blocks.
    environment = simulation.environment
    params = environment.global_params
    records = []
    for round_index in range(ROUNDS):
        if round_index == 20:
            environment.global_params = replace(params, num_participants=60, local_epochs=12)
        elif round_index == 40:
            environment.global_params = params
        records.append(simulation.run_round(round_index))
    return records


@pytest.mark.parametrize("preset", ["flaky-fleet", "fleet-1k"])
def test_autofl_matches_the_scalar_oracle_across_a_global_state_change(preset):
    simulation = _simulation(AutoFLPolicy, preset, seed=0)
    oracle = _simulation(ScalarAutoFLPolicy, preset, seed=0)
    records = _run_with_a_global_state_change(simulation)
    assert records == _run_with_a_global_state_change(oracle)
    assert len(simulation.policy.agent.qtable_store._blocks) == 2
    assert simulation.policy.reward_history() == oracle.policy.reward_history()
    _assert_same_q_tables(
        oracle.policy.agent, simulation.policy.agent, simulation.environment.fleet_arrays
    )


# ---------------------------------------------------------------------- the Q-store
def test_batched_draws_equal_scalar_draws():
    # The store and the agent draw a whole read path at once; the oracle draws one by one.
    for seed in range(50):
        batched, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
        for size in (1, 3, 40):
            normals = batched.normal(0.0, 0.01, size=size)
            assert normals.tolist() == [float(scalar.normal(0.0, 0.01)) for _ in range(size)]
            uniforms = batched.random(size)
            assert uniforms.tolist() == [scalar.random() for _ in range(size)]


#: Store shapes (num_keys, num_local_codes, num_actions).  One or two blocks of 18, 1,440
#: and 72,000 cells give ``initialise`` 8-, 16- and 32-bit sort keys.
STORE_SHAPES = [(2, 3, 2), (3, 96, 4), (150, 96, 4)]


@settings(max_examples=150, deadline=None)
@given(
    shape=st.sampled_from(STORE_SHAPES),
    # The few cells an example reads (-1 is a block's last), so reads repeat in any store.
    cells=st.lists(st.integers(-1, 2**20), min_size=1, max_size=18),
    touches=st.lists(
        st.tuples(st.integers(0, 1), st.integers(0, 35)), min_size=1, max_size=50
    ),
    cuts=st.lists(st.integers(0, 50), max_size=3),
    two_blocks=st.booleans(),
    init_scale=st.sampled_from([0.0, 0.01]),
    seed=st.integers(0, 2**32 - 1),
)
def test_first_touch_initialisation_matches_a_lazy_dict(
    shape, cells, touches, cuts, two_blocks, init_scale, seed
):
    num_keys, num_local_codes, num_actions = shape
    num_cells = num_keys * num_local_codes * (num_actions + 1)
    # Each cell comes with the one 2**16 further on: the same low 16 bits, another cell.
    cells = [(cell + shift) % num_cells for cell in cells for shift in (0, 2**16)]
    touches = [
        (position if two_blocks else 0, cells[pick % len(cells)]) for position, pick in touches
    ]
    rng = np.random.default_rng(seed)
    store = VectorQTableStore(
        num_keys=num_keys,
        num_local_codes=num_local_codes,
        num_actions=num_actions,
        rng=rng,
        init_scale=init_scale,
    )
    blocks = [store.block((0,)), store.block((1,))][: 2 if two_blocks else 1]
    # The lazy reference: a dict entry is drawn the first time its cell is read.
    reference_rng = np.random.default_rng(seed)
    reference = {}
    for cell in touches:
        if cell not in reference:
            reference[cell] = (
                float(reference_rng.normal(0.0, init_scale)) if init_scale else 0.0
            )
    # Several read paths, each handing over only the cells still unread, like the agent.
    bounds = [0, *sorted(min(cut, len(touches)) for cut in cuts), len(touches)]
    for start, stop in zip(bounds, bounds[1:]):
        path = [
            position * num_cells + flat
            for position, flat in touches[start:stop]
            if np.isnan(blocks[position].reshape(-1)[flat])
        ]
        if path:
            store.initialise(blocks, np.array(path))
    for position, block in enumerate(blocks):
        expected = np.full(num_cells, np.nan)
        for (cell_position, flat), value in reference.items():
            if cell_position == position:
                expected[flat] = value
        assert np.array_equal(block.reshape(-1), expected, equal_nan=True)
    assert store.total_entries() == len(reference)
    # Both streams stand at the same point afterwards.
    assert rng.random() == reference_rng.random()


@pytest.mark.parametrize("init_scale", [0.0, 0.01])
def test_store_sizes_count_read_cells_and_groups(init_scale):
    store = VectorQTableStore(
        num_keys=4, num_local_codes=3, num_actions=2, init_scale=init_scale, sharing=PER_DEVICE
    )
    assert store.sharing == PER_DEVICE
    assert (store.num_tables, store.total_entries()) == (0, 0)
    first, second = store.block((0,)), store.block((1,))
    assert (store.num_tables, store.total_entries()) == (0, 0)
    store.initialise([first], np.array([0, 1, 0]))  # key 0
    store.initialise([first, second], np.array([first.size + 9, 2 * 9 + 4]))  # keys 1, 2
    assert store.num_tables == 3
    assert store.total_entries() == 4


def test_store_rejects_an_unknown_sharing_mode():
    with pytest.raises(PolicyError):
        VectorQTableStore(num_keys=1, num_local_codes=1, num_actions=1, sharing="global")
