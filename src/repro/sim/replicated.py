"""The round loop: R >= 1 seed replicates of one scenario, one engine call per round.

It is the only multi-round loop; a solo :meth:`~repro.sim.runner.FLSimulation.run` is
its one-replicate case.  Each round's device physics runs as one stacked
``[replicates, participants]`` call
(:func:`~repro.sim.round_engine.execute_batch_replicated`), while every replicate runs
the solo runner's own round steps in the solo call order on its own RNG streams.  So
learning policies learn per replicate, and every replicate's :class:`SimulationResult`
is byte-identical (``to_json``) to running that seed alone.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

from repro import telemetry
from repro.exceptions import SimulationError
from repro.sim.results import RoundRecord, SimulationResult, record_from_batch
from repro.sim.round_engine import execute_batch_replicated

if TYPE_CHECKING:  # pragma: no cover - import only used for typing
    from repro.sim.runner import FLSimulation

#: Record assembly, shared with the solo runner.  The loop below calls it through this
#: module global, so a profiler can wrap the replicated record path on its own.
_record_from_batch = record_from_batch


class ReplicatedSimulation:
    """Drives same-scenario, different-seed simulations through the replicate axis."""

    def __init__(self, simulations: Sequence[FLSimulation]) -> None:
        if not simulations:
            raise SimulationError("replicated execution needs at least one simulation")
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
        active = list(range(len(sims)))
        round_index = 0
        with telemetry.get_tracer().span(
            "simulation",
            category="engine",
            policy=sims[0].policy.name,
            workload=sims[0].environment.workload.name,
        ):
            while active:
                records = self._run_round(round_index, active)
                still_active = []
                for i, record in zip(active, records):
                    sim = sims[i]
                    results[i].append(record)
                    if sim._tracker.update(round_index, record.accuracy):
                        results[i].converged_round = sim._tracker.converged_round
                        if sim._stop_at_convergence:
                            continue
                    if round_index + 1 < sim._max_rounds:
                        still_active.append(i)
                active = still_active
                round_index += 1
        return results

    def _run_round(self, round_index: int, active: list[int]) -> list[RoundRecord]:
        """One round of the active replicates; its arrays are freed when it returns.

        Each phase span opens once for all replicates, named like ``run_round``'s.
        """
        sims = [self._sims[i] for i in active]
        tracer = telemetry.get_tracer()
        with tracer.span("control_plane", category="engine", round=round_index):
            opened = [sim._open_round(round_index) for sim in sims]
        with tracer.span("energy_math", category="engine", round=round_index):
            # Faults are drawn after selection, as in run_round.
            faults = [
                sim.environment.sample_faults(decision.participants, round_index)
                for sim, (_, decision) in zip(sims, opened)
            ]
            batches = execute_batch_replicated(
                [sim._engine for sim in sims],
                [decision for _, decision in opened],
                [ctx.conditions for ctx, _ in opened],
                faults=faults,
                online_masks=[ctx.online_mask for ctx, _ in opened],
            )
        registry = telemetry.get_registry()
        with tracer.span("feedback", category="engine", round=round_index):
            return [
                sim._close_round(ctx, decision, batch, registry, _record_from_batch)
                for sim, (ctx, decision), batch in zip(sims, opened, batches)
            ]
