"""Array-native round records: ``FLSimulation.run_round`` builds every record, and AutoFL
learns, straight from the batch arrays; the per-device scalar view is never built."""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.experiments.runner import build_simulation
from repro.experiments.spec import ExperimentSpec
from repro.sim.results import BatchRoundExecution
from repro.sim.scenarios import get_scenario_preset


def _simulation(preset, policy, rounds, round_observer=None):
    scenario = replace(get_scenario_preset(preset), max_rounds=rounds, seed=0)
    spec = ExperimentSpec(scenario=scenario, policy=policy, stop_at_convergence=False)
    return build_simulation(spec.validate(), round_observer=round_observer)


def _assert_same_q_tables(agent, other):
    # NaN marks cells never read, so unread cells must line up too.
    blocks, other_blocks = agent.qtable_store._blocks, other.qtable_store._blocks
    assert blocks.keys() == other_blocks.keys()
    for key, block in blocks.items():
        assert np.array_equal(block, other_blocks[key], equal_nan=True)


@pytest.mark.parametrize(
    "policy", ["autofl", "autofl-fast", "fedavg-random", "ofl", "cluster-c3"]
)
def test_run_round_never_materialises_the_scalar_view(monkeypatch, policy):
    def refuse(self):
        raise AssertionError("run_round materialised the scalar RoundExecution")

    monkeypatch.setattr(BatchRoundExecution, "to_execution", refuse)
    result = _simulation("flaky-fleet", policy, rounds=4).run()
    assert result.num_rounds == 4


def _left_to_right(values):
    total = 0.0
    for value in values:
        total += value
    return total


def test_records_equal_the_scalar_account_bit_for_bit():
    checked = []

    def observe(round_index, batch, record, online_mask):
        execution = batch.to_execution()
        outcomes = execution.outcomes.values()
        per_device = execution.energy.per_device.values()
        assert record.participant_energy_j == execution.participant_energy_j
        assert record.participant_energy_j == _left_to_right(o.energy.total_j for o in outcomes)
        assert record.global_energy_j == execution.energy.global_j
        assert record.global_energy_j == _left_to_right(e.total_j for e in per_device)
        assert list(record.dropped_ids) == execution.dropped_ids
        assert list(record.failed_ids) == execution.failed_ids
        assert record.round_time_s == execution.round_time_s
        checked.append(round_index)

    _simulation("flaky-fleet", "autofl", rounds=6, round_observer=observe).run()
    assert checked == list(range(6))


def _per_device_feedback(policy, ctx, decision, execution, training):
    """A per-device feedback loop over the scalar view: the reference."""
    selected = set(decision.participants)
    failed = set(execution.failed_ids)
    global_energy = execution.energy.global_j
    participant_energies = [execution.energy.device(device_id).total_j for device_id in selected]
    policy._reward.observe_round(global_energy, float(np.mean(participant_energies)))
    rewards = []
    # One reward per observable candidate, in fleet order: the agent's pending rows.
    for device_id in ctx.candidate_id_array().tolist():
        energy = execution.energy.device(device_id)
        rewards.append(
            policy._reward.reward(
                global_energy_j=global_energy,
                local_energy_j=energy.total_j if device_id in selected else energy.idle_j,
                accuracy=training.accuracy,
                previous_accuracy=training.previous_accuracy,
                selected=device_id in selected,
                failed=device_id in failed,
            )
        )
    policy.agent.record_rewards(np.array(rewards))


@pytest.mark.parametrize("policy", ["autofl", "autofl-fast"])
@pytest.mark.parametrize("preset", ["flaky-fleet", "churn-heavy"])
def test_array_feedback_learns_what_the_scalar_view_teaches(preset, policy):
    array_sim = _simulation(preset, policy, rounds=6)
    scalar_sim = _simulation(preset, policy, rounds=6)
    scalar_policy = scalar_sim.policy
    reference_rounds = []

    def through_scalar_view(ctx, decision, batch, training):
        _per_device_feedback(scalar_policy, ctx, decision, batch.to_execution(), training)
        reference_rounds.append(ctx.round_index)

    # The runner looks the hook up on the instance each round, so this replaces it.
    scalar_policy.feedback = through_scalar_view
    array_result = array_sim.run()
    scalar_result = scalar_sim.run()
    assert reference_rounds == list(range(6))
    assert array_result.to_json() == scalar_result.to_json()
    assert array_sim.policy.reward_history() == scalar_policy.reward_history()
    _assert_same_q_tables(array_sim.policy.agent, scalar_policy.agent)


def test_records_share_interned_execution_targets():
    result = _simulation("fleet-1k", "autofl", rounds=3).run()
    targets = [target for record in result.records for target in record.targets.values()]
    assert targets
    assert len({id(target) for target in targets}) == len(set(targets))


def test_exploring_scalar_agent_records_serialise():
    # Seed 0 on flaky-fleet takes epsilon-greedy exploration rounds within 20 rounds;
    # their picks must land in the record as plain ints, or to_json cannot encode them.
    result = _simulation("flaky-fleet", "autofl", rounds=20).run()
    ids = [device_id for record in result.records for device_id in record.selected_ids]
    assert all(type(device_id) is int for device_id in ids)
    assert json.loads(result.to_json())["records"][-1]["round_index"] == 19
