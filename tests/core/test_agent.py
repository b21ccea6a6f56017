"""Tests for the Q-learning agent (Algorithm 1)."""

import numpy as np
import pytest

from repro.core.agent import QLearningConfig, VectorAutoFLAgent
from repro.core.qtable import PER_DEVICE, PER_TIER
from repro.core.state import GlobalState, LocalState, StateEncoder
from repro.devices.fleet_arrays import TIER_ORDER, FleetArrays
from repro.exceptions import PolicyError

GLOBAL_STATE = GlobalState(0, 0, 0, 1, 1, 1)
GOOD_LOCAL = StateEncoder.local_code(LocalState(0, 0, 0, 2))
BAD_LOCAL = StateEncoder.local_code(LocalState(3, 3, 1, 0))


def _make_agent(small_fleet, epsilon=0.0, sharing=PER_TIER, seed=0):
    arrays = FleetArrays.from_fleet(small_fleet)
    return VectorAutoFLAgent(
        tier_codes=arrays.tier_codes,
        device_ids=arrays.device_ids,
        config=QLearningConfig(epsilon=epsilon),
        qtable_sharing=sharing,
        rng=np.random.default_rng(seed),
    )


def _rows(small_fleet, exclude=()):
    return np.array(
        [row for row, device in enumerate(small_fleet) if device.device_id not in exclude]
    )


def _local_codes(small_fleet, bad_ids=()):
    return np.array(
        [BAD_LOCAL if device.device_id in bad_ids else GOOD_LOCAL for device in small_fleet]
    )


def _rewards(small_fleet, reward_of):
    return np.array([reward_of(device.device_id) for device in small_fleet], dtype=float)


def _q(agent, small_fleet, device_id, action_id, local_code=GOOD_LOCAL):
    """Q(GLOBAL_STATE, local_code, action) of the table responsible for a device."""
    row = small_fleet.device_ids.index(device_id)
    if agent.qtable_store.sharing == PER_DEVICE:
        key = row
    else:
        key = TIER_ORDER.index(small_fleet[device_id].tier)
    column = (
        agent.qtable_store.idle_column
        if action_id is None
        else agent.catalog.action_ids.index(action_id)
    )
    return agent.qtable_store.block(GLOBAL_STATE.as_tuple())[key, local_code, column]


class TestQLearningConfig:
    def test_paper_defaults(self):
        config = QLearningConfig()
        assert config.learning_rate == pytest.approx(0.9)
        assert config.discount_factor == pytest.approx(0.1)
        assert config.epsilon == pytest.approx(0.1)

    def test_validation(self):
        with pytest.raises(PolicyError):
            QLearningConfig(learning_rate=0.0)
        with pytest.raises(PolicyError):
            QLearningConfig(discount_factor=1.0)
        with pytest.raises(PolicyError):
            QLearningConfig(epsilon=1.5)


class TestAgentSelection:
    def test_selects_requested_number_of_participants(self, small_fleet):
        agent = _make_agent(small_fleet)
        selection = agent.select(GLOBAL_STATE, _rows(small_fleet), _local_codes(small_fleet), 5)
        assert len(selection.participant_ids) == 5
        assert set(selection.actions) == set(selection.participant_ids)
        assert all(
            action in agent.catalog.action_ids for action in selection.actions.values()
        )

    def test_exploration_round_is_random(self, small_fleet):
        agent = _make_agent(small_fleet, epsilon=1.0)
        selection = agent.select(GLOBAL_STATE, _rows(small_fleet), _local_codes(small_fleet), 5)
        assert selection.explored

    def test_too_few_devices_rejected(self, small_fleet):
        agent = _make_agent(small_fleet)
        with pytest.raises(PolicyError):
            agent.select(GLOBAL_STATE, np.array([0]), np.array([GOOD_LOCAL]), 5)
        with pytest.raises(PolicyError):
            agent.select(GLOBAL_STATE, _rows(small_fleet), _local_codes(small_fleet), 0)

    def test_record_rewards_requires_pending(self, small_fleet):
        agent = _make_agent(small_fleet)
        with pytest.raises(PolicyError):
            agent.record_rewards(np.array([1.0]))


class TestAgentLearning:
    def test_rewarded_devices_get_reselected(self, small_fleet):
        """Devices whose participation earned high rewards should dominate later rounds."""
        agent = _make_agent(small_fleet, epsilon=0.0, sharing=PER_DEVICE)
        rows, codes = _rows(small_fleet), _local_codes(small_fleet)
        first = agent.select(GLOBAL_STATE, rows, codes, 5)
        agent.record_rewards(
            _rewards(small_fleet, lambda d: 50.0 if d in first.participant_ids else 0.0)
        )
        second = agent.select(GLOBAL_STATE, rows, codes, 5)
        assert set(second.participant_ids) == set(first.participant_ids)

    def test_penalised_state_gets_avoided(self, small_fleet):
        """With tier-shared tables, a penalised (tier, local-state) pair is avoided."""
        agent = _make_agent(small_fleet, epsilon=0.0)
        bad_ids = set(small_fleet.device_ids[:10])
        rows, codes = _rows(small_fleet), _local_codes(small_fleet, bad_ids=bad_ids)
        for _ in range(6):
            selection = agent.select(GLOBAL_STATE, rows, codes, 5)

            def reward_of(device_id):
                if device_id in selection.participant_ids:
                    return -90.0 if device_id in bad_ids else 40.0
                return 5.0

            agent.record_rewards(_rewards(small_fleet, reward_of))
        final = agent.select(GLOBAL_STATE, rows, codes, 5)
        assert not (set(final.participant_ids) & bad_ids)

    def test_q_update_moves_toward_reward(self, small_fleet):
        agent = _make_agent(small_fleet, epsilon=0.0)
        rows, codes = _rows(small_fleet), _local_codes(small_fleet)
        selection = agent.select(GLOBAL_STATE, rows, codes, 3)
        chosen = selection.participant_ids[0]
        action = selection.actions[chosen]
        agent.record_rewards(_rewards(small_fleet, lambda d: 10.0))
        # The update is applied lazily at the next select() when S' is observed.
        agent.select(GLOBAL_STATE, rows, codes, 3)
        assert _q(agent, small_fleet, chosen, action) > 5.0

    def test_q_update_survives_device_going_offline(self, small_fleet):
        # Under fleet dynamics a device that failed mid-round is often also offline the
        # next round; its (penalty) reward must still reach the Q-table, bootstrapped
        # from the stored state instead of being dropped.
        agent = _make_agent(small_fleet, epsilon=0.0, sharing=PER_DEVICE)
        rows, codes = _rows(small_fleet), _local_codes(small_fleet)
        selection = agent.select(GLOBAL_STATE, rows, codes, 3)
        chosen = selection.participant_ids[0]
        action = selection.actions[chosen]
        agent.record_rewards(_rewards(small_fleet, lambda d: -50.0))
        # Next round the chosen device is unobservable (offline/churned).
        next_rows = _rows(small_fleet, exclude={chosen})
        agent.select(GLOBAL_STATE, next_rows, codes[next_rows], 3)
        assert _q(agent, small_fleet, chosen, action) < -20.0

    def test_reward_history_tracks_rounds(self, small_fleet):
        agent = _make_agent(small_fleet, epsilon=0.0)
        rows, codes = _rows(small_fleet), _local_codes(small_fleet)
        for value in (1.0, 2.0, 3.0):
            agent.select(GLOBAL_STATE, rows, codes, 4)
            agent.record_rewards(_rewards(small_fleet, lambda d: value))
        assert agent.reward_history == [1.0, 2.0, 3.0]

    def test_flush_completes_pending_updates(self, small_fleet):
        agent = _make_agent(small_fleet, epsilon=0.0)
        rows, codes = _rows(small_fleet), _local_codes(small_fleet)
        selection = agent.select(GLOBAL_STATE, rows, codes, 3)
        agent.record_rewards(_rewards(small_fleet, lambda d: 20.0))
        agent.flush()
        chosen = selection.participant_ids[0]
        assert _q(agent, small_fleet, chosen, selection.actions[chosen]) > 10.0

    def test_idle_action_tracked_separately(self, small_fleet):
        agent = _make_agent(small_fleet, epsilon=0.0)
        rows, codes = _rows(small_fleet), _local_codes(small_fleet)
        selection = agent.select(GLOBAL_STATE, rows, codes, 3)
        agent.record_rewards(_rewards(small_fleet, lambda d: 15.0))
        agent.select(GLOBAL_STATE, rows, codes, 3)
        idle_device = next(
            device_id
            for device_id in small_fleet.device_ids
            if device_id not in selection.participant_ids
        )
        assert _q(agent, small_fleet, idle_device, None) > 5.0

    def test_per_device_sharing_keeps_tables_separate(self, small_fleet):
        agent = _make_agent(small_fleet, sharing=PER_DEVICE)
        rows, codes = _rows(small_fleet), _local_codes(small_fleet)
        agent.select(GLOBAL_STATE, rows, codes, 3)
        agent.record_rewards(_rewards(small_fleet, lambda d: 1.0))
        agent.select(GLOBAL_STATE, rows, codes, 3)
        assert agent.qtable_store.num_tables == len(small_fleet)

    def test_both_update_rules_learn_the_same_per_device_tables(self, small_fleet):
        # Per-device tables share no cell between candidates, so the sequential and the
        # batch-synchronous rule are the same update.
        def run(batch_synchronous):
            arrays = FleetArrays.from_fleet(small_fleet)
            agent = VectorAutoFLAgent(
                tier_codes=arrays.tier_codes,
                device_ids=arrays.device_ids,
                qtable_sharing=PER_DEVICE,
                rng=np.random.default_rng(3),
                batch_synchronous=batch_synchronous,
            )
            rows, codes = _rows(small_fleet), _local_codes(small_fleet, bad_ids={0, 1, 2})
            for round_index in range(5):
                agent.select(GLOBAL_STATE, rows, codes, 4)
                agent.record_rewards(np.linspace(-1.0, 1.0, len(rows)) * (round_index + 1))
            agent.flush()
            return agent.qtable_store.block(GLOBAL_STATE.as_tuple())

        assert np.array_equal(run(True), run(False), equal_nan=True)
