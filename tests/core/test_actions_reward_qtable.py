"""Tests for the action catalog, the reward calculator and the scalar oracle's Q-tables."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.actions import ActionCatalog, ActionSpec, IDLE_ACTION
from repro.core.reward import RewardCalculator, RewardWeights
from repro.core.state import GlobalState, LocalState
from repro.devices.device import MobileDevice
from repro.devices.specs import DeviceTier, MI8_PRO, MOTO_X_FORCE
from repro.exceptions import PolicyError
from scalar_autofl import QTable, QTableStore


@pytest.fixture
def device():
    return MobileDevice(0, MI8_PRO, 300)


GLOBAL_STATE = GlobalState(0, 0, 0, 1, 1, 1)
LOCAL_STATE = LocalState(0, 0, 0, 2)
OTHER_LOCAL = LocalState(3, 2, 1, 0)


class TestActionCatalog:
    def test_default_catalog_covers_cpu_dvfs_and_gpu(self, device):
        catalog = ActionCatalog()
        assert len(catalog) == 4
        processors = {catalog.spec(action).processor for action in catalog.action_ids}
        assert processors == {"cpu", "gpu"}

    def test_default_action_is_top_cpu(self, device):
        catalog = ActionCatalog()
        target = catalog.to_target(catalog.default_action_id(), device.spec)
        assert target.processor == "cpu"
        assert target.vf_step == MI8_PRO.cpu.num_vf_steps - 1

    def test_frequency_fraction_maps_to_steps(self, device):
        catalog = ActionCatalog()
        low_action = [a for a in catalog.action_ids if catalog.spec(a).label == "cpu-low"][0]
        target = catalog.to_target(low_action, device.spec)
        assert target.vf_step < MI8_PRO.cpu.num_vf_steps - 1

    def test_same_action_adapts_to_device(self):
        catalog = ActionCatalog()
        high = catalog.to_target(0, MI8_PRO)
        low = catalog.to_target(0, MOTO_X_FORCE)
        assert high.vf_step == MI8_PRO.cpu.num_vf_steps - 1
        assert low.vf_step == MOTO_X_FORCE.cpu.num_vf_steps - 1

    def test_invalid_catalogs(self):
        with pytest.raises(PolicyError):
            ActionCatalog([])
        with pytest.raises(PolicyError):
            ActionCatalog([ActionSpec(IDLE_ACTION, "idle", "cpu", 1.0)])
        with pytest.raises(PolicyError):
            ActionCatalog(
                [ActionSpec(0, "a", "cpu", 1.0), ActionSpec(0, "b", "cpu", 0.5)]
            )

    def test_unknown_action_lookup(self):
        with pytest.raises(PolicyError):
            ActionCatalog().spec(99)


class TestRewardCalculator:
    def test_failed_round_penalty_branch(self):
        calculator = RewardCalculator()
        reward = calculator.reward(100.0, 10.0, accuracy=0.60, previous_accuracy=0.65)
        assert reward == pytest.approx(60.0 - 100.0)

    def test_successful_round_rewards_improvement(self):
        calculator = RewardCalculator()
        calculator.observe_round(100.0, 10.0)
        small = calculator.reward(100.0, 10.0, 0.70, 0.69)
        large = calculator.reward(100.0, 10.0, 0.75, 0.69)
        assert large > small

    def test_lower_energy_gives_higher_reward(self):
        calculator = RewardCalculator()
        calculator.observe_round(100.0, 10.0)
        cheap = calculator.reward(50.0, 5.0, 0.70, 0.69)
        expensive = calculator.reward(200.0, 20.0, 0.70, 0.69)
        assert cheap > expensive

    def test_non_selected_devices_never_hit_penalty_branch(self):
        calculator = RewardCalculator()
        calculator.observe_round(100.0, 10.0)
        reward = calculator.reward(100.0, 0.5, 0.60, 0.65, selected=False)
        assert reward > 0.60 * 100 - 100

    def test_weights_validation(self):
        with pytest.raises(PolicyError):
            RewardWeights(alpha=-1.0)
        with pytest.raises(PolicyError):
            RewardCalculator().reward(1.0, 1.0, 1.5, 0.5)
        with pytest.raises(PolicyError):
            RewardCalculator().observe_round(-1.0, 0.0)

    @given(
        energy=st.floats(min_value=1.0, max_value=1e5),
        accuracy=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_reward_is_finite(self, energy, accuracy):
        calculator = RewardCalculator()
        calculator.observe_round(energy, energy / 10)
        value = calculator.reward(energy, energy / 10, accuracy, accuracy / 2 + 1e-6)
        assert np.isfinite(value)


class TestQTable:
    def test_lazy_random_initialisation_is_stable(self):
        table = QTable(rng=np.random.default_rng(0))
        first = table.get(GLOBAL_STATE, LOCAL_STATE, 0)
        assert table.get(GLOBAL_STATE, LOCAL_STATE, 0) == first
        assert abs(first) < 0.1

    def test_set_and_get(self):
        table = QTable()
        table.set(GLOBAL_STATE, LOCAL_STATE, 1, 5.0)
        assert table.get(GLOBAL_STATE, LOCAL_STATE, 1) == 5.0

    def test_best_action(self):
        table = QTable(rng=np.random.default_rng(0))
        table.set(GLOBAL_STATE, LOCAL_STATE, 0, 1.0)
        table.set(GLOBAL_STATE, LOCAL_STATE, 1, 3.0)
        table.set(GLOBAL_STATE, LOCAL_STATE, 2, -2.0)
        action, value = table.best_action(GLOBAL_STATE, LOCAL_STATE, [0, 1, 2])
        assert action == 1 and value == 3.0

    def test_best_action_requires_candidates(self):
        with pytest.raises(PolicyError):
            QTable().best_action(GLOBAL_STATE, LOCAL_STATE, [])

    def test_states_are_independent(self):
        table = QTable()
        table.set(GLOBAL_STATE, LOCAL_STATE, 0, 9.0)
        assert table.get(GLOBAL_STATE, OTHER_LOCAL, 0) != 9.0

    def test_memory_entries_counts_materialised_pairs(self):
        table = QTable()
        table.get(GLOBAL_STATE, LOCAL_STATE, 0)
        table.get(GLOBAL_STATE, OTHER_LOCAL, 1)
        assert table.memory_entries() == 2


class TestQTableStore:
    def test_per_device_mode_isolates_devices(self):
        store = QTableStore(sharing=QTableStore.PER_DEVICE)
        table_a = store.table_for(0, DeviceTier.HIGH)
        table_b = store.table_for(1, DeviceTier.HIGH)
        assert table_a is not table_b
        assert store.num_tables == 2

    def test_per_tier_mode_shares_within_tier(self):
        store = QTableStore(sharing=QTableStore.PER_TIER)
        assert store.table_for(0, DeviceTier.HIGH) is store.table_for(1, DeviceTier.HIGH)
        assert store.table_for(0, DeviceTier.HIGH) is not store.table_for(2, DeviceTier.LOW)
        assert store.num_tables == 2

    def test_total_entries(self):
        store = QTableStore(sharing=QTableStore.PER_TIER)
        store.table_for(0, DeviceTier.HIGH).get(GLOBAL_STATE, LOCAL_STATE, 0)
        assert store.total_entries() == 1

    def test_invalid_sharing_mode(self):
        with pytest.raises(PolicyError):
            QTableStore(sharing="global")
