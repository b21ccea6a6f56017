"""Replicated simulation driver: N seeds of one scenario through one engine call.

Seed replication re-runs the *same* scenario under different RNG seeds to average out
run-to-run noise.  The physics of the replicates is embarrassingly parallel, so instead of
N serial :meth:`~repro.sim.runner.FLSimulation.run` loops this driver advances all
replicates round by round and executes each round's device physics as a single stacked
``[replicates, participants]`` engine call
(:func:`~repro.sim.round_engine.execute_batch_replicated`).

The control plane stays per-replicate and follows the exact per-round call order of the
solo runner — online mask, condition sampling, selection, fault draw — on each replicate's
own RNG streams, and the round records come from the solo runner's ``record_from_batch``.
Every replicate's :class:`SimulationResult` is therefore byte-identical (``to_json``) to
running that seed alone.

The path applies only to non-learning policies (``uses_feedback`` False) without a round
observer, because it skips the per-round feedback call and the observer hook.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro import telemetry
from repro.exceptions import SimulationError
from repro.sim.context import RoundContext
from repro.sim.results import SimulationResult, record_from_batch
from repro.sim.round_engine import execute_batch_replicated
from repro.sim.runner import FLSimulation

#: Record assembly, shared with the solo runner.  The loop below calls it through this
#: module global, so a profiler can wrap the replicated record path on its own.
_record_from_batch = record_from_batch


class ReplicatedSimulation:
    """Drives same-scenario, different-seed simulations through the replicate axis."""

    def __init__(self, simulations: Sequence[FLSimulation]) -> None:
        if not simulations:
            raise SimulationError("replicated execution needs at least one simulation")
        for sim in simulations:
            if not sim.replication_supported:
                raise SimulationError(
                    f"policy {sim.policy.name!r} (or a round observer) requires per-round "
                    "feedback; run its seeds serially instead of replicated"
                )
        self._sims = list(simulations)

    def run(self) -> list[SimulationResult]:
        """Run every replicate to convergence (or its round budget) and return results."""
        sims = self._sims
        results = [
            SimulationResult(
                policy_name=sim.policy.name,
                workload_name=sim.environment.workload.name,
                target_accuracy=sim.target_accuracy,
            )
            for sim in sims
        ]
        done = [False] * len(sims)
        round_index = 0
        while True:
            active = [
                i
                for i, sim in enumerate(sims)
                if not done[i] and round_index < sim._max_rounds
            ]
            if not active:
                break
            # Control plane per replicate, in the solo runner's exact call order so each
            # replicate consumes its RNG streams identically to a standalone run.
            contexts, decisions, faults, masks = [], [], [], []
            for i in active:
                env = sims[i].environment
                online_mask = env.round_online_mask(round_index)
                condition_arrays = env.sample_condition_arrays()
                ctx = RoundContext(
                    round_index=round_index,
                    environment=env,
                    conditions=condition_arrays.lazy_mapping(env.device_ids),
                    accuracy=sims[i].backend.accuracy,
                    condition_arrays=condition_arrays,
                    online_mask=online_mask,
                )
                decision = sims[i].policy.select(ctx)
                if not decision.participants:
                    raise SimulationError(
                        f"policy {sims[i].policy.name!r} selected no participants"
                    )
                contexts.append(ctx)
                decisions.append(decision)
                faults.append(env.sample_faults(decision.participants, round_index))
                masks.append(online_mask)
            # One stacked engine call for the whole round's physics.
            with telemetry.get_tracer().span(
                "replicated_round",
                category="engine",
                round=round_index,
                replicates=len(active),
            ):
                batches = execute_batch_replicated(
                    [sims[i]._engine for i in active],
                    decisions,
                    [ctx.condition_arrays for ctx in contexts],
                    faults=faults,
                    online_masks=masks,
                )
            for pos, i in enumerate(active):
                batch = batches[pos]
                training = sims[i].backend.run_round(batch.participant_ids)
                record = _record_from_batch(
                    round_index, decisions[pos], batch, training, masks[pos]
                )
                results[i].append(record)
                if sims[i]._tracker.update(round_index, record.accuracy):
                    results[i].converged_round = sims[i]._tracker.converged_round
                    if sims[i]._stop_at_convergence:
                        done[i] = True
            round_index += 1
        return results
