"""Tests for the oracle policies and the AutoFL controller policy."""

import numpy as np
import pytest

from repro.core.controller import AutoFLPolicy
from repro.core.oracle import OracleFLPolicy, OracleParticipantPolicy
from repro.core.qtable import PER_DEVICE
from repro.devices.device import RoundConditions
from repro.devices.fleet_arrays import RoundConditionsArrays
from repro.exceptions import PolicyError
from repro.sim.context import RoundContext
from repro.sim.round_engine import RoundEngine
from repro.sim.scenarios import ScenarioSpec, build_environment, build_surrogate_backend
from scalar_engine import ScalarRoundEngine


def _context(environment, accuracy=0.1, conditions=None):
    conditions = conditions if conditions is not None else environment.sample_condition_arrays()
    return RoundContext(
        round_index=0, environment=environment, conditions=conditions, accuracy=accuracy
    )


def _reward_inputs(environment, backend, monkeypatch, online_mask=None):
    """One AutoFL round; returns what ``feedback`` handed ``rewards_batch``, and the batch."""
    policy = AutoFLPolicy(rng=np.random.default_rng(0))
    rewarded = []
    rewards_batch = policy._reward.rewards_batch

    def spy(**kwargs):
        rewarded.append(kwargs)
        return rewards_batch(**kwargs)

    monkeypatch.setattr(policy._reward, "rewards_batch", spy)
    conditions = environment.sample_condition_arrays()
    ctx = RoundContext(0, environment, conditions, backend.accuracy, online_mask=online_mask)
    decision = policy.select(ctx)
    batch = RoundEngine(environment).execute_batch(decision, conditions)
    policy.feedback(ctx, decision, batch, backend.run_round(batch.participant_ids))
    (kwargs,) = rewarded
    return kwargs, batch


@pytest.fixture
def heterogeneous_environment():
    spec = ScenarioSpec(
        workload="cnn-mnist",
        setting="S4",
        num_devices=40,
        data_distribution="non_iid_50",
        seed=5,
    )
    return build_environment(spec)


class TestOracleParticipantPolicy:
    def test_selects_k_participants_with_targets(self, small_environment):
        policy = OracleParticipantPolicy(rng=np.random.default_rng(0))
        decision = policy.select(_context(small_environment))
        assert len(decision.participants) == small_environment.global_params.num_participants
        assert set(decision.targets) == set(decision.participants)

    def test_prefers_iid_devices(self, heterogeneous_environment):
        policy = OracleParticipantPolicy(rng=np.random.default_rng(0))
        decision = policy.select(_context(heterogeneous_environment))
        qualities = [
            heterogeneous_environment.data_profile(device_id).data_quality
            for device_id in decision.participants
        ]
        population = [
            profile.data_quality
            for profile in heterogeneous_environment.data_profiles.values()
        ]
        assert np.mean(qualities) > np.mean(population) + 0.1

    def test_avoids_interference_heavy_devices(self, small_environment):
        conditions = {
            device_id: RoundConditions() for device_id in small_environment.fleet.device_ids
        }
        # Make half the devices heavily interfered.
        loaded = small_environment.fleet.device_ids[::2]
        for device_id in loaded:
            conditions[device_id] = RoundConditions(co_cpu_util=0.95, co_mem_util=0.9)
        policy = OracleParticipantPolicy(rng=np.random.default_rng(0))
        arrays = RoundConditionsArrays.from_mapping(small_environment.fleet.device_ids, conditions)
        decision = policy.select(_context(small_environment, conditions=arrays))
        selected_loaded = len(set(decision.participants) & set(loaded))
        assert selected_loaded < len(decision.participants) / 2


class TestOracleFLPolicy:
    def test_targets_never_slower_than_round_deadline(self, small_environment):
        ctx = _context(small_environment)
        conditions = ctx.conditions.to_mapping(small_environment.fleet.device_ids)
        policy = OracleFLPolicy(rng=np.random.default_rng(0))
        decision = policy.select(ctx)
        engine = ScalarRoundEngine(small_environment)
        default_times = [
            engine.estimate_device(
                small_environment.fleet[device_id],
                small_environment.fleet[device_id].default_target(),
                conditions[device_id],
            ).total_time_s
            for device_id in decision.participants
        ]
        chosen_times = [
            engine.estimate_device(
                small_environment.fleet[device_id],
                decision.targets[device_id],
                conditions[device_id],
            ).total_time_s
            for device_id in decision.participants
        ]
        assert max(chosen_times) <= max(default_times) * 1.01

    def test_saves_energy_compared_to_default_targets(self, small_environment):
        ctx = _context(small_environment)
        conditions = ctx.conditions.to_mapping(small_environment.fleet.device_ids)
        ofl = OracleFLPolicy(rng=np.random.default_rng(0)).select(ctx)
        engine = ScalarRoundEngine(small_environment)

        def active_energy(decision, use_targets):
            total = 0.0
            for device_id in decision.participants:
                device = small_environment.fleet[device_id]
                target = decision.targets[device_id] if use_targets else device.default_target()
                total += engine.estimate_device(device, target, conditions[device_id]).energy.active_j
            return total

        assert active_energy(ofl, True) <= active_energy(ofl, False) + 1e-9


class TestAutoFLPolicy:
    def test_agent_created_lazily(self):
        policy = AutoFLPolicy(rng=np.random.default_rng(0))
        with pytest.raises(PolicyError):
            _ = policy.agent

    def test_select_and_feedback_cycle(self, small_environment, small_backend):
        policy = AutoFLPolicy(rng=np.random.default_rng(0))
        engine = RoundEngine(small_environment)
        for round_index in range(5):
            conditions = small_environment.sample_condition_arrays()
            ctx = RoundContext(round_index, small_environment, conditions, small_backend.accuracy)
            decision = policy.select(ctx)
            assert (
                len(decision.participants)
                == small_environment.global_params.num_participants
            )
            assert set(decision.targets) == set(decision.participants)
            batch = engine.execute_batch(decision, conditions)
            training = small_backend.run_round(batch.participant_ids)
            policy.feedback(ctx, decision, batch, training)
        assert len(policy.reward_history()) == 5
        assert policy.agent.qtable_store.total_entries() > 0

    def test_all_online_feedback_rewards_the_fleet_arrays_uncopied(
        self, small_environment, small_backend, monkeypatch
    ):
        # With no online mask every device is a candidate, in fleet order, so the reward
        # reads the round's own energies rather than a copy gathered by np.arange(N).
        kwargs, batch = _reward_inputs(small_environment, small_backend, monkeypatch)
        assert kwargs["local_energy_j"] is batch.fleet_energy_j
        assert len(kwargs["selected"]) == len(kwargs["failed"]) == len(small_environment.fleet)

    def test_online_mask_restricts_the_rewards_to_the_candidates(
        self, small_environment, small_backend, monkeypatch
    ):
        online = np.ones(len(small_environment.fleet), dtype=bool)
        online[::3] = False
        rows = np.flatnonzero(online)
        kwargs, batch = _reward_inputs(small_environment, small_backend, monkeypatch, online)
        np.testing.assert_array_equal(kwargs["local_energy_j"], batch.fleet_energy_j[rows])
        selected = np.isin(small_environment.fleet_arrays.device_ids, batch.participant_ids)
        np.testing.assert_array_equal(kwargs["selected"], selected[rows])
        assert len(kwargs["failed"]) == len(rows)

    def test_qtable_sharing_mode_respected(self, small_environment, small_backend):
        policy = AutoFLPolicy(rng=np.random.default_rng(0), qtable_sharing=PER_DEVICE)
        conditions = small_environment.sample_condition_arrays()
        ctx = RoundContext(0, small_environment, conditions, small_backend.accuracy)
        policy.select(ctx)
        assert policy.agent.qtable_store.sharing == PER_DEVICE

    def test_learns_to_avoid_non_iid_devices(self):
        """After enough rounds AutoFL should select mostly IID devices (paper Figure 11)."""
        spec = ScenarioSpec(
            workload="cnn-mnist",
            setting="S4",
            num_devices=60,
            data_distribution="non_iid_50",
            seed=3,
            max_rounds=60,
        )
        environment = build_environment(spec)
        backend = build_surrogate_backend(environment)
        policy = AutoFLPolicy(rng=np.random.default_rng(1))
        engine = RoundEngine(environment)
        last_selections = []
        for round_index in range(60):
            conditions = environment.sample_condition_arrays()
            ctx = RoundContext(round_index, environment, conditions, backend.accuracy)
            decision = policy.select(ctx)
            batch = engine.execute_batch(decision, conditions)
            training = backend.run_round(batch.participant_ids)
            policy.feedback(ctx, decision, batch, training)
            if round_index >= 40:
                last_selections.append(decision.participants)
        non_iid_ids = {
            device_id
            for device_id, profile in environment.data_profiles.items()
            if profile.is_non_iid
        }
        fractions = [
            len(set(selection) & non_iid_ids) / len(selection) for selection in last_selections
        ]
        # The population is 50 % non-IID; the learned selection should be well below that.
        assert np.mean(fractions) < 0.35

    def test_reward_history_empty_before_first_round(self):
        assert AutoFLPolicy().reward_history() == []
