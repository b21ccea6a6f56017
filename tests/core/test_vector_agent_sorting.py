"""The vectorised agent's array shortcuts are exact stand-ins for the numpy calls and the
arithmetic they replace: the partial top-K for the full stable argsort, the narrow-key
cell grouping for the int64 argsort and ``np.unique``, the fold's power table for one
power per transition, the column-by-column first max for ``np.argmax`` and the comparison
binning for ``np.searchsorted``."""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import agent as agent_module, state as state_module
from repro.core.agent import QLearningConfig, VectorAutoFLAgent, first_max, stable_top_k
from repro.core.qtable import group_cells, runs_of_sorted
from repro.core.state import StateEncoder, bin_values
from repro.devices.fleet_arrays import RoundConditionsArrays
from repro.experiments.runner import build_simulation
from repro.experiments.spec import ExperimentSpec
from repro.network.bandwidth import BAD_NETWORK_THRESHOLD_MBPS
from repro.sim.scenarios import get_scenario_preset
from fold_reference import reference_fold_update

#: A handful of values, so that ties (including at the k-th key) are common.
TIED_KEYS = st.lists(st.sampled_from([-2.0, -0.5, -0.0, 0.0, 0.25, 1.0]), max_size=40)
ANY_KEYS = st.lists(st.floats(allow_infinity=True, allow_nan=True), max_size=40)


def _full_sort_top_k(keys, k):
    return np.argsort(keys, kind="stable")[:k]


def _unique_runs(sorted_values):
    _, first_index, counts = np.unique(sorted_values, return_index=True, return_counts=True)
    return first_index, counts


def _argmax_gather(values):
    columns = np.argmax(values, axis=1)
    return columns, values[np.arange(len(values)), columns]


def _searchsorted_bins(values, thresholds):
    return np.searchsorted(np.asarray(thresholds, dtype=np.float64), values, side="right")


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


#: Cell bounds on both sides of the 16-bit radix sort's reach (65,536 ids).
BOUNDS = st.sampled_from([1, 256, 257, 1_440, 65_536, 65_537, 480_000])


@settings(deadline=None)
@given(
    bound=BOUNDS,
    picks=st.lists(st.integers(0, 2**20), min_size=1, max_size=12),
    size=st.integers(0, 3_000),
    seed=st.integers(0, 2**32 - 1),
)
def test_group_cells_equals_the_int64_stable_sort_and_its_runs(bound, picks, size, seed):
    # A few distinct ids, the top one among them, drawn into long runs.
    palette = np.array([pick % bound for pick in picks] + [bound - 1], dtype=np.int64)
    cells = np.random.default_rng(seed).choice(palette, size=size)
    order, first_index, counts = group_cells(cells, bound)
    expected_order = np.argsort(cells, kind="stable")
    assert np.array_equal(order, expected_order)
    expected_index, expected_counts = _unique_runs(cells[expected_order])
    assert np.array_equal(first_index, expected_index)
    assert np.array_equal(counts, expected_counts)


#: Q-tables as (rows, columns): cell counts on both sides of 65,536.
TABLE_SHAPES = [(288, 5), (13_107, 5), (16_384, 4), (13_108, 5), (96_000, 5)]
LEARNING_RATES = st.sampled_from([1.0, 0.9, 0.5]) | st.floats(
    0.0, 1.0, exclude_min=True, allow_subnormal=False
)


@settings(max_examples=60, deadline=None)
@given(
    shape=st.sampled_from(TABLE_SHAPES),
    transitions=st.integers(1, 6_000),
    distinct=st.sampled_from([1, 3, 49]) | st.integers(1, 6_000),
    learning_rate=LEARNING_RATES,
    discount=st.sampled_from([0.0, 0.1]) | st.floats(0.0, 1.0, exclude_max=True),
    seed=st.integers(0, 2**32 - 1),
)
# Always runs over a thousand long: 6,000 transitions on two cells of a 16-bit-key
# table, and 5,000 on four cells of a 32-bit-key one.
@example(shape=(288, 5), transitions=6_000, distinct=1, learning_rate=0.9, discount=0.1, seed=0)
@example(shape=(96_000, 5), transitions=5_000, distinct=3, learning_rate=0.5, discount=0.1, seed=1)
def test_fold_writes_the_bytes_of_the_reference_arithmetic(
    shape, transitions, distinct, learning_rate, discount, seed
):
    rng = np.random.default_rng(seed)
    table = rng.normal(0.0, 0.01, size=shape)
    # Few distinct cells give runs thousands long; many give mostly single hits.  The
    # table's last cell is always among them.
    palette = np.append(rng.integers(0, table.size, size=distinct), table.size - 1)
    cells = rng.choice(palette, size=transitions)
    next_values = rng.normal(0.0, 0.01, size=(transitions, shape[1]))
    rewards = rng.normal(0.0, 1.0, size=transitions)
    agent = VectorAutoFLAgent(
        tier_codes=np.zeros(transitions, dtype=np.int64),
        device_ids=np.arange(transitions),
        config=QLearningConfig(learning_rate=learning_rate, discount_factor=discount),
        batch_synchronous=True,
    )
    folded, expected = table.copy(), table.copy()
    agent._fold_update(folded, cells, folded.take(cells), next_values, rewards)
    reference_fold_update(agent, expected, cells, expected.take(cells), next_values, rewards)
    assert folded.tobytes() == expected.tobytes()


#: Tie-heavy Q-values, signed zeros and infinities included; no NaN, as in ``select``.
TIED_VALUES = st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0, np.inf, -np.inf]) | st.floats(
    allow_nan=False
)


@given(
    columns=st.integers(1, 6),
    rows=st.lists(st.lists(TIED_VALUES, min_size=7, max_size=7), max_size=30),
    sliced=st.booleans(),
)
def test_first_max_equals_argmax_and_its_gather(columns, rows, sliced):
    values = np.array(rows, dtype=np.float64).reshape(len(rows), 7)
    # ``select`` hands over a column slice of the gathered rows: a strided view.
    values = values[:, :columns] if sliced else np.ascontiguousarray(values[:, :columns])
    best_columns, best_values = first_max(values)
    expected_columns, expected_values = _argmax_gather(values)
    assert np.array_equal(best_columns, expected_columns)
    assert best_columns.dtype == expected_columns.dtype
    assert best_values.tobytes() == expected_values.tobytes()


def _floats_near(thresholds):
    # Each threshold, its neighbours, the signed zeros, NaN and the infinities, or any float.
    edges = [np.nextafter(t, side) for t in thresholds for side in (-np.inf, np.inf)]
    special = [*thresholds, *edges, -0.0, 0.0, np.nan, np.inf, -np.inf]
    return st.sampled_from(special) | st.floats()


@pytest.mark.parametrize(
    "thresholds",
    [StateEncoder.UTILIZATION_THRESHOLDS, StateEncoder.DATA_THRESHOLDS],
    ids=["utilization", "data"],
)
@given(data=st.data())
def test_bin_values_equals_searchsorted_right(thresholds, data):
    values = np.array(data.draw(st.lists(_floats_near(thresholds), max_size=40)))
    assert np.array_equal(bin_values(values, thresholds), _searchsorted_bins(values, thresholds))


@given(
    rows=st.lists(
        st.tuples(
            _floats_near(StateEncoder.UTILIZATION_THRESHOLDS),
            _floats_near(StateEncoder.UTILIZATION_THRESHOLDS),
            _floats_near([BAD_NETWORK_THRESHOLD_MBPS]),
            _floats_near(StateEncoder.DATA_THRESHOLDS),
        ),
        max_size=30,
    )
)
def test_encode_local_codes_equals_the_scalar_encoding(rows):
    encoder = StateEncoder()
    cpu, mem, bandwidth, fractions = np.array(rows, dtype=np.float64).reshape(-1, 4).T
    codes = encoder.encode_local_codes(RoundConditionsArrays(cpu, mem, bandwidth), fractions)
    expected = [
        StateEncoder.local_code(
            encoder.encode_local(
                SimpleNamespace(co_cpu_util=c, co_mem_util=m, bandwidth_mbps=b),
                SimpleNamespace(class_fraction=f),
            )
        )
        for c, m, b, f in rows
    ]
    assert codes.dtype == np.int64
    assert codes.tolist() == expected


@pytest.mark.parametrize("preset", ["flaky-fleet", "fleet-10k"])
def test_autofl_fast_matches_the_full_sort_oracle(monkeypatch, preset):
    # The goldens pin autofl-fast (per-tier sharing, init_scale 0.01) on fleet-1k and
    # flaky-fleet.  Pin it on fleet-10k as well, against the same agent running the
    # numpy calls and the arithmetic the shortcuts replace.
    scenario = replace(get_scenario_preset(preset), max_rounds=20, seed=0)
    spec = ExperimentSpec(scenario=scenario, policy="autofl-fast", stop_at_convergence=False)

    def run():
        simulation = build_simulation(spec.validate())
        return simulation.run().to_json(), simulation.policy.reward_history()

    fast = run()
    folds = []

    def counted_reference_fold(*args):
        folds.append(None)
        reference_fold_update(*args)

    monkeypatch.setattr(agent_module, "stable_top_k", _full_sort_top_k)
    monkeypatch.setattr(agent_module, "first_max", _argmax_gather)
    monkeypatch.setattr(state_module, "bin_values", _searchsorted_bins)
    monkeypatch.setattr(VectorAutoFLAgent, "_fold_update", counted_reference_fold)
    assert run() == fast
    assert len(folds) == 19  # rounds 1-19 each complete the previous round's update
