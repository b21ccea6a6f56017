"""Pin the replicate axis to the solo runner: byte identity, grouping, routing.

The replicated loop must be a pure wall-clock optimisation: every seed's
``SimulationResult`` serialises to the exact bytes the solo run of that seed produces,
for every shipped policy (learning ones included) across static scenarios and ones with
full fleet dynamics (availability, churn, dropouts, slow faults).
"""

from collections import defaultdict

import numpy as np
import pytest

from repro.core.selection import RandomPolicy, StaticClusterPolicy, make_policy
from repro.exceptions import SimulationError
from repro.experiments.runner import POLICY_SEED_OFFSET, run_experiment
from repro.experiments.spec import ExperimentSpec
from repro.sim.context import SelectionDecision
from repro.sim.replicated import ReplicatedSimulation
from repro.sim.round_engine import RoundEngine, execute_batch_replicated
from repro.sim.runner import FLSimulation
from repro.sim.scenarios import ScenarioSpec, build_environment, build_surrogate_backend
from repro.validation.invariants import InvariantAuditor

STATIC_SPEC = dict(workload="cnn-mnist", num_devices=60, max_rounds=6)
DYNAMIC_SPEC = dict(
    workload="cnn-mnist",
    num_devices=80,
    max_rounds=6,
    interference="heavy",
    network="variable",
    data_distribution="non_iid_50",
    availability="diurnal",
    churn_rate=0.02,
    dropout_rate=0.05,
    slow_fault_rate=0.05,
)


#: Every shipped policy the replicate axis serves, learning ones included.
SHIPPED_POLICIES = ("fedavg-random", "autofl", "autofl-fast", "ofl")


def _simulation(
    spec_kwargs,
    seed,
    policy_cls=RandomPolicy,
    stop_at_convergence=False,
    round_observer=None,
):
    spec = ScenarioSpec(seed=seed, **spec_kwargs)
    environment = build_environment(spec)
    backend = build_surrogate_backend(environment, aggregator=spec.aggregator)
    policy = policy_cls(rng=np.random.default_rng(seed + POLICY_SEED_OFFSET))
    return FLSimulation(
        environment,
        policy,
        backend,
        stop_at_convergence=stop_at_convergence,
        round_observer=round_observer,
    )


def _named(policy_name):
    return lambda rng: make_policy(policy_name, rng=rng)


@pytest.mark.parametrize("policy_name", SHIPPED_POLICIES)
@pytest.mark.parametrize("spec_kwargs", [STATIC_SPEC, DYNAMIC_SPEC], ids=["static", "dynamics"])
def test_replicated_results_are_byte_identical_to_solo(spec_kwargs, policy_name):
    seeds = [3, 4, 5, 6]
    policy_cls = _named(policy_name)
    solo = [_simulation(spec_kwargs, seed, policy_cls).run().to_json() for seed in seeds]
    replicated = ReplicatedSimulation(
        [_simulation(spec_kwargs, seed, policy_cls) for seed in seeds]
    ).run()
    assert [result.to_json() for result in replicated] == solo


def test_replicated_respects_convergence_stopping():
    # With stop_at_convergence=True replicates may stop at different rounds; each must
    # still match its solo trajectory exactly.
    spec_kwargs = dict(STATIC_SPEC, max_rounds=30)
    seeds = [0, 1, 2]
    solo = [
        _simulation(spec_kwargs, seed, stop_at_convergence=True).run().to_json()
        for seed in seeds
    ]
    replicated = ReplicatedSimulation(
        [_simulation(spec_kwargs, seed, stop_at_convergence=True) for seed in seeds]
    ).run()
    assert [result.to_json() for result in replicated] == solo


class _RoundLog:
    """A round observer that remembers the rounds it saw."""

    def __init__(self):
        self.rounds = []

    def __call__(self, round_index, batch, record, online_mask):
        assert record.round_index == round_index
        self.rounds.append(round_index)


def test_replicated_loop_feeds_back_and_observes_every_replicate():
    # A learning policy learns per replicate, and each replicate's observer sees every
    # one of its rounds, also when replicates leave the loop at different rounds.
    budgets = (4, 6, 8)
    logs = [_RoundLog() for _ in budgets]
    simulations = [
        _simulation(
            dict(DYNAMIC_SPEC, max_rounds=rounds), seed, _named("autofl"), round_observer=log
        )
        for seed, rounds, log in zip((0, 1, 2), budgets, logs)
    ]
    results = ReplicatedSimulation(simulations).run()
    for simulation, rounds, log, result in zip(simulations, budgets, logs, results):
        assert result.num_rounds == rounds
        assert log.rounds == list(range(rounds))
        assert len(simulation.policy.reward_history()) == rounds


def test_replicated_rejects_empty():
    with pytest.raises(SimulationError, match="at least one"):
        ReplicatedSimulation([])


def test_execute_batch_replicated_groups_mixed_selection_sizes():
    # Replicates whose selections differ in size are stacked per size group; every
    # result must still be bitwise identical to its solo execute_batch call.
    environments = [
        build_environment(ScenarioSpec(seed=seed, **STATIC_SPEC)) for seed in range(4)
    ]
    engines = [RoundEngine(environment) for environment in environments]
    sizes = [10, 14, 10, 14]
    decisions = [
        SelectionDecision(participants=environment.fleet.device_ids[:size])
        for environment, size in zip(environments, sizes)
    ]
    conditions = [environment.sample_condition_arrays() for environment in environments]
    stacked = execute_batch_replicated(engines, decisions, conditions)
    for engine, decision, arrays, batch in zip(
        engines, decisions, conditions, stacked
    ):
        solo = engine.execute_batch(decision, arrays)
        assert np.array_equal(batch.compute_j, solo.compute_j)
        assert np.array_equal(batch.communication_j, solo.communication_j)
        assert np.array_equal(batch.waiting_j, solo.waiting_j)
        assert np.array_equal(batch.idle_j, solo.idle_j)
        assert batch.round_time_s == solo.round_time_s
        assert batch.participant_ids == solo.participant_ids


def test_run_experiment_routes_seed_replicas_through_replicate_axis():
    scenario = ScenarioSpec(**STATIC_SPEC)
    replicated = run_experiment(
        ExperimentSpec(
            scenario=scenario, policy="fedavg-random", n_seeds=3, stop_at_convergence=False
        )
    )
    # The serial reference: each seed run alone.
    serial = [
        _simulation(STATIC_SPEC, seed).run().summary() for seed in range(3)
    ]
    assert list(replicated.summaries) == serial


def test_validated_learning_run_experiment_rides_the_replicate_axis(monkeypatch):
    runs = []
    original_run = ReplicatedSimulation.run

    def counting_run(self):
        runs.append(self)
        return original_run(self)

    rounds_seen = defaultdict(list)
    original_audit = InvariantAuditor.__call__

    def logging_audit(self, round_index, batch, record, online_mask):
        rounds_seen[id(self)].append(round_index)
        return original_audit(self, round_index, batch, record, online_mask)

    monkeypatch.setattr(ReplicatedSimulation, "run", counting_run)
    monkeypatch.setattr(InvariantAuditor, "__call__", logging_audit)
    scenario = ScenarioSpec(**STATIC_SPEC)
    result = run_experiment(
        ExperimentSpec(
            scenario=scenario, policy="autofl", n_seeds=3, stop_at_convergence=False
        ),
        validate=True,
    )
    assert len(runs) == 1
    rounds = list(range(STATIC_SPEC["max_rounds"]))
    assert sorted(rounds_seen.values()) == [rounds] * 3
    monkeypatch.undo()
    solo = [
        _simulation(STATIC_SPEC, seed, _named("autofl")).run().summary() for seed in range(3)
    ]
    assert list(result.summaries) == solo


def test_static_cluster_policy_rides_the_replicate_axis():
    seeds = [7, 8]
    solo = [
        _simulation(STATIC_SPEC, seed, policy_cls=lambda rng: StaticClusterPolicy("C3", rng=rng))
        .run()
        .to_json()
        for seed in seeds
    ]
    replicated = ReplicatedSimulation(
        [
            _simulation(
                STATIC_SPEC, seed, policy_cls=lambda rng: StaticClusterPolicy("C3", rng=rng)
            )
            for seed in seeds
        ]
    ).run()
    assert [result.to_json() for result in replicated] == solo
