"""Pin the batched oracle implementation to a scalar reference reimplementation.

The oracles score candidate templates with ``RoundEngine.estimate_batch``; these tests
re-derive the same decisions with nothing but the scalar ``estimate_device`` loop (the
pre-vectorisation algorithm) and require identical selections and targets.
"""

import numpy as np
import pytest

from repro.core.actions import ActionCatalog
from repro.core.oracle import OracleFLPolicy, OracleParticipantPolicy
from repro.core.selection import CLUSTER_TEMPLATES, scale_template
from repro.devices.specs import DeviceTier
from repro.fl.surrogate import STALL_QUALITY_THRESHOLD
from repro.sim.context import RoundContext
from repro.sim.scenarios import ScenarioSpec, build_environment
from scalar_engine import ScalarRoundEngine


def _context(environment):
    return RoundContext(
        round_index=0,
        environment=environment,
        conditions=environment.sample_condition_arrays(),
        accuracy=0.1,
    )


def _condition(ctx, device_id):
    """One device's round conditions, read through the per-device scalar view."""
    return ctx.conditions.lazy_mapping(ctx.environment.fleet_arrays.device_ids)[device_id]


def _goodness(policy, ctx, device_id):
    profile = ctx.environment.data_profile(device_id)
    condition = _condition(ctx, device_id)
    network_score = min(1.0, condition.bandwidth_mbps / 100.0)
    return (
        policy.DATA_WEIGHT * profile.data_quality
        - policy.INTERFERENCE_WEIGHT * (condition.co_cpu_util + 0.5 * condition.co_mem_util)
        + policy.NETWORK_WEIGHT * network_score
    )


def _realize_template_scalar(policy, ctx, template):
    fleet = ctx.environment.fleet
    num_participants = ctx.environment.global_params.num_participants
    counts = scale_template(template, num_participants)
    chosen = []
    for tier in (DeviceTier.HIGH, DeviceTier.MID, DeviceTier.LOW):
        wanted = counts.get(tier, 0)
        if wanted == 0:
            continue
        candidates = [device.device_id for device in fleet.by_tier(tier)]
        candidates.sort(key=lambda device_id: _goodness(policy, ctx, device_id), reverse=True)
        chosen.extend(candidates[:wanted])
    if len(chosen) < num_participants:
        remaining = [
            device_id
            for device_id in sorted(
                fleet.device_ids,
                key=lambda device_id: _goodness(policy, ctx, device_id),
                reverse=True,
            )
            if device_id not in set(chosen)
        ]
        chosen.extend(remaining[: num_participants - len(chosen)])
    return chosen[:num_participants]


def _expected_gain_scalar(ctx, participants):
    profiles = [ctx.environment.data_profile(device_id) for device_id in participants]
    total_samples = sum(profile.num_samples for profile in profiles)
    if total_samples == 0:
        return 0.0
    quality = (
        sum(profile.data_quality * profile.num_samples for profile in profiles) / total_samples
    )
    if quality <= STALL_QUALITY_THRESHOLD:
        return 0.0
    return (quality - STALL_QUALITY_THRESHOLD) / (1.0 - STALL_QUALITY_THRESHOLD)


def _ofl_targets_scalar(ctx, engine, participants):
    fleet = ctx.environment.fleet
    catalog = ActionCatalog()
    default_outcomes = {
        device_id: engine.estimate_device(
            fleet[device_id], fleet[device_id].default_target(), _condition(ctx, device_id)
        )
        for device_id in participants
    }
    deadline = max(outcome.total_time_s for outcome in default_outcomes.values())
    targets = {}
    for device_id in participants:
        device = fleet[device_id]
        condition = _condition(ctx, device_id)
        best_target = device.default_target()
        best_energy = default_outcomes[device_id].energy.active_j
        best_time = default_outcomes[device_id].total_time_s
        for action_id in catalog.action_ids:
            target = catalog.to_target(action_id, device.spec)
            outcome = engine.estimate_device(device, target, condition)
            meets_deadline = outcome.total_time_s <= deadline * 1.001
            if meets_deadline and outcome.energy.active_j < best_energy:
                best_target = target
                best_energy = outcome.energy.active_j
                best_time = outcome.total_time_s
            elif not meets_deadline and best_time > deadline and outcome.total_time_s < best_time:
                best_target = target
                best_energy = outcome.energy.active_j
                best_time = outcome.total_time_s
        targets[device_id] = best_target
    return targets


def _score_scalar(ctx, engine, participants, targets):
    outcomes = {
        device_id: engine.estimate_device(
            ctx.environment.fleet[device_id], targets[device_id], _condition(ctx, device_id)
        )
        for device_id in participants
    }
    round_time = max(outcome.total_time_s for outcome in outcomes.values())
    active = sum(outcome.energy.active_j for outcome in outcomes.values())
    idle = sum(
        device.idle_power() * round_time
        for device in ctx.environment.fleet
        if device.device_id not in outcomes
    )
    energy = active + idle
    gain = _expected_gain_scalar(ctx, participants)
    return (0.05 + gain) / energy if energy > 0 else 0.0


@pytest.mark.parametrize("seed", [0, 7, 23])
@pytest.mark.parametrize("interference", ["none", "moderate"])
def test_oparticipant_matches_scalar_reference(seed, interference):
    environment = build_environment(
        ScenarioSpec(
            num_devices=40,
            setting="S4",
            interference=interference,
            network="variable",
            data_distribution="non_iid_50",
            seed=seed,
        )
    )
    ctx = _context(environment)
    policy = OracleParticipantPolicy(rng=np.random.default_rng(0))
    decision = policy.select(ctx)

    engine = ScalarRoundEngine(environment)
    plans = {}
    for name, template in CLUSTER_TEMPLATES.items():
        participants = _realize_template_scalar(policy, ctx, template)
        targets = {
            device_id: environment.fleet[device_id].default_target()
            for device_id in participants
        }
        plans[name] = (participants, _score_scalar(ctx, engine, participants, targets))
    expected_participants = max(plans.values(), key=lambda plan: plan[1])[0]
    assert decision.participants == expected_participants
    for device_id in decision.participants:
        assert decision.targets[device_id] == environment.fleet[device_id].default_target()


@pytest.mark.parametrize("seed", [1, 11])
def test_ofl_targets_match_scalar_reference(seed):
    environment = build_environment(
        ScenarioSpec(
            num_devices=40,
            setting="S4",
            interference="moderate",
            network="variable",
            seed=seed,
        )
    )
    ctx = _context(environment)
    decision = OracleFLPolicy(rng=np.random.default_rng(0)).select(ctx)
    engine = ScalarRoundEngine(environment)
    expected = _ofl_targets_scalar(ctx, engine, decision.participants)
    assert decision.targets == expected
