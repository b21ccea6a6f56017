"""Figure 15 and Section 6.4: AutoFL's learning convergence and runtime/memory overhead.

Paper claims: (1) the Q-learning reward converges within ~50-80 aggregation rounds, well
before FL itself converges; (2) sharing Q-tables across devices of the same performance
category speeds up learning at a small accuracy cost; (3) the per-round controller overhead
(state observation, selection, reward calculation, table update) is a negligible fraction of
an aggregation round, and the total Q-table memory footprint is tiny.
"""

import time

import numpy as np

from _helpers import print_series, realistic_spec

from repro.core.controller import AutoFLPolicy
from repro.core.qtable import PER_DEVICE, PER_TIER
from repro.sim.runner import FLSimulation
from repro.sim.scenarios import build_environment, build_surrogate_backend

ROUNDS = 90


class _TimedPolicy:
    """Forwards to a policy, timing its controller work: selection plus feedback."""

    def __init__(self, policy):
        self.name = policy.name
        self._policy = policy
        self._select_s = 0.0
        self.overhead_s = []

    def select(self, ctx):
        started = time.perf_counter()
        decision = self._policy.select(ctx)
        self._select_s = time.perf_counter() - started
        return decision

    def feedback(self, ctx, decision, batch, training):
        started = time.perf_counter()
        self._policy.feedback(ctx, decision, batch, training)
        self.overhead_s.append(self._select_s + (time.perf_counter() - started))


def _train_policy(sharing: str, vectorized: bool, seed: int = 3):
    spec = realistic_spec("cnn-mnist", num_devices=100, seed=seed)
    environment = build_environment(spec)
    backend = build_surrogate_backend(environment)
    policy = AutoFLPolicy(
        rng=np.random.default_rng(seed), qtable_sharing=sharing, vectorized=vectorized
    )
    timed = _TimedPolicy(policy)
    FLSimulation(
        environment, timed, backend, max_rounds=ROUNDS, stop_at_convergence=False
    ).run()
    rewards = policy.reward_history()
    return {
        "rewards": rewards,
        "mean_overhead_s": float(np.mean(timed.overhead_s)),
        "qtable_entries": policy.agent.qtable_store.total_entries(),
        "num_tables": policy.agent.qtable_store.num_tables,
        "final_accuracy": backend.accuracy,
    }


def _run():
    # autofl applies Algorithm 1's update sequentially, autofl-fast batch-synchronously.
    return {
        name: {
            "per-tier": _train_policy(PER_TIER, vectorized),
            "per-device": _train_policy(PER_DEVICE, vectorized),
        }
        for name, vectorized in (("autofl", False), ("autofl-fast", True))
    }


def _reward_convergence_round(rewards, window=10, tolerance=5.0):
    """First round after which the windowed mean reward stops improving by > tolerance."""
    means = [np.mean(rewards[i : i + window]) for i in range(0, len(rewards) - window)]
    final = means[-1]
    for index, value in enumerate(means):
        if final - value < tolerance:
            return index
    return len(rewards)


def test_figure15_learning_convergence_and_overhead(benchmark):
    results = benchmark.pedantic(_run, rounds=1, iterations=1)
    for name, result in results.items():
        _check_figure15(name, result["per-tier"], result["per-device"])


def _check_figure15(name, shared, per_device):
    shared_convergence = _reward_convergence_round(shared["rewards"])
    per_device_convergence = _reward_convergence_round(per_device["rewards"])
    print_series(
        f"Figure 15 — reward convergence round ({name})",
        {"shared Q-tables": shared_convergence, "per-device Q-tables": per_device_convergence},
    )
    print_series(
        f"Section 6.4 — per-round controller overhead (ms, {name})",
        {
            "shared": shared["mean_overhead_s"] * 1e3,
            "per-device": per_device["mean_overhead_s"] * 1e3,
        },
    )
    print_series(
        f"Section 6.4 — Q-table entries ({name})",
        {"shared": shared["qtable_entries"], "per-device": per_device["qtable_entries"]},
    )

    # The reward improves over training and stabilises well within the round budget.
    for result in (shared, per_device):
        rewards = result["rewards"]
        assert len(rewards) == ROUNDS
        assert np.mean(rewards[-15:]) > np.mean(rewards[:15])
    assert shared_convergence <= ROUNDS - 10

    # Sharing Q-tables across a performance category shrinks the learned state (paper: the
    # shared mode trades a little accuracy for faster convergence and less memory).
    assert shared["num_tables"] < per_device["num_tables"]
    assert shared["qtable_entries"] <= per_device["qtable_entries"]

    # The controller overhead per round is far below any realistic round duration, and the
    # lookup tables are small (paper: ~0.5 ms and tens of MB for 200 devices).
    assert shared["mean_overhead_s"] < 0.25
    assert shared["qtable_entries"] < 1_000_000
