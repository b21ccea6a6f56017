"""Simulation runner: drives complete FL training jobs end to end."""

from __future__ import annotations

from collections.abc import Callable
from typing import Protocol

import numpy as np

from repro import telemetry
from repro.exceptions import SimulationError
from repro.fl.metrics import ConvergenceTracker
from repro.fl.server import RoundTrainingResult, TrainingBackend
from repro.sim.context import RoundContext, SelectionDecision
from repro.sim.environment import EdgeCloudEnvironment
from repro.sim.results import (
    BatchRoundExecution,
    RoundRecord,
    SimulationResult,
    record_from_batch,
)
from repro.sim.replicated import ReplicatedSimulation
from repro.sim.round_engine import RoundEngine


class SelectionPolicy(Protocol):
    """Structural interface every participant-selection policy implements.

    Policies live in :mod:`repro.core`; the simulator only relies on this protocol so that
    the simulator layer stays free of any dependency on the AutoFL implementation.
    """

    name: str

    def select(self, ctx: RoundContext) -> SelectionDecision:
        """Choose the round's participants and their execution targets."""
        ...

    def feedback(
        self,
        ctx: RoundContext,
        decision: SelectionDecision,
        batch: BatchRoundExecution,
        training: RoundTrainingResult,
    ) -> None:
        """Receive the round's measured outcome as arrays (used by learning policies)."""
        ...


class RoundObserver(Protocol):
    """Structural interface of a per-round observer hook.

    Observers receive every executed round *after* its record is assembled but before
    the simulation moves on — :mod:`repro.validation` plugs its invariant auditors in
    here, so any consumer (fuzzer, ``BatchRunner`` self-checks, ad-hoc debugging) can
    audit the raw :class:`BatchRoundExecution` without re-running the engine.  An
    observer that wants the per-device scalar view calls ``batch.to_execution()``.
    """

    def __call__(
        self,
        round_index: int,
        batch: BatchRoundExecution,
        record: RoundRecord,
        online_mask: np.ndarray | None,
    ) -> None:
        """Observe one executed round."""
        ...


class FLSimulation:
    """One federated-learning training job under a given selection policy."""

    def __init__(
        self,
        environment: EdgeCloudEnvironment,
        policy: SelectionPolicy,
        backend: TrainingBackend,
        max_rounds: int | None = None,
        target_accuracy: float | None = None,
        stop_at_convergence: bool = True,
        round_observer: RoundObserver | None = None,
    ) -> None:
        self._env = environment
        self._policy = policy
        self._backend = backend
        self._round_observer = round_observer
        self._engine = RoundEngine(environment)
        self._max_rounds = max_rounds if max_rounds is not None else environment.config.max_rounds
        if self._max_rounds <= 0:
            raise SimulationError("max_rounds must be positive")
        target = (
            target_accuracy
            if target_accuracy is not None
            else min(environment.workload.target_accuracy, environment.config.target_accuracy)
        )
        self._tracker = ConvergenceTracker(target)
        self._stop_at_convergence = stop_at_convergence

    @property
    def environment(self) -> EdgeCloudEnvironment:
        """The environment this simulation runs in."""
        return self._env

    @property
    def policy(self) -> SelectionPolicy:
        """The participant-selection policy driving this simulation."""
        return self._policy

    @property
    def backend(self) -> TrainingBackend:
        """The training backend providing per-round accuracy."""
        return self._backend

    @property
    def target_accuracy(self) -> float:
        """The accuracy threshold used to declare convergence."""
        return self._tracker.target_accuracy

    def run_round(self, round_index: int) -> RoundRecord:
        """Execute a single aggregation round and return its record."""
        # The three spans name the round's phases (control_plane / energy_math /
        # feedback); perfbench scores its own layer sums against them (phase.*.ratio).
        tracer = telemetry.get_tracer()
        with tracer.span("control_plane", category="engine", round=round_index):
            ctx, decision = self._open_round(round_index)
        with tracer.span("energy_math", category="engine", round=round_index):
            # Mid-round faults are drawn after selection (the failure of a device that
            # was never picked is unobservable) from the dedicated dynamics RNG stream.
            faults = self._env.sample_faults(decision.participants, round_index)
            batch = self._engine.execute_batch(
                decision, ctx.conditions, faults=faults, online_mask=ctx.online_mask
            )
        with tracer.span("feedback", category="engine", round=round_index):
            return self._close_round(
                ctx, decision, batch, telemetry.get_registry(), record_from_batch
            )

    def run(self) -> SimulationResult:
        """Run rounds until convergence (or the round budget) and return the full result.

        A solo run is the one-replicate case of
        :class:`~repro.sim.replicated.ReplicatedSimulation`, the only multi-round loop.
        """
        return ReplicatedSimulation([self]).run()[0]

    # ------------------------------------------------------------------ round body
    # run_round and the replicated loop share these steps, so every replicate makes
    # a solo run's calls in a solo run's order and consumes its RNG streams alike.
    def _open_round(self, round_index: int) -> tuple[RoundContext, SelectionDecision]:
        """Online mask, conditions, context and selection of one round."""
        env = self._env
        # Fleet dynamics first: who is reachable this round (None = static fleet).
        online_mask = env.round_online_mask(round_index)
        conditions = env.sample_condition_arrays()
        # Positional arguments: matching five keywords costs more than building the
        # frozen context itself, once per replicate and round.
        ctx = RoundContext(round_index, env, conditions, self._backend.accuracy, online_mask)
        decision = self._policy.select(ctx)
        if not decision.participants:
            raise SimulationError(f"policy {self._policy.name!r} selected no participants")
        return ctx, decision

    def _close_round(
        self,
        ctx: RoundContext,
        decision: SelectionDecision,
        batch: BatchRoundExecution,
        registry: telemetry.MetricsRegistry,
        build_record: Callable[..., RoundRecord],
    ) -> RoundRecord:
        """Train, give the policy its feedback, then record, count and observe the round.

        ``build_record`` assembles the record; callers look it up once.
        """
        training = self._backend.run_round(batch.participant_ids)
        self._policy.feedback(ctx, decision, batch, training)
        record = build_record(ctx.round_index, decision, batch, training, ctx.online_mask)
        if registry.enabled:
            policy_name = self._policy.name
            registry.counter(
                "repro_rounds_total", help="Aggregation rounds executed."
            ).inc(policy=policy_name)
            registry.counter(
                "repro_selected_devices_total", help="Devices selected across rounds."
            ).inc(len(record.selected_ids))
            registry.counter(
                "repro_straggler_drops_total", help="Devices dropped as stragglers."
            ).inc(len(record.dropped_ids))
            registry.counter(
                "repro_fault_failures_total", help="Mid-round device failures."
            ).inc(len(record.failed_ids))
            registry.histogram(
                "repro_round_time_s", help="Simulated wall-clock time per round."
            ).observe(record.round_time_s, policy=policy_name)
            registry.histogram(
                "repro_round_energy_j", help="Simulated global energy per round."
            ).observe(record.global_energy_j, policy=policy_name)
        if self._round_observer is not None:
            self._round_observer(
                round_index=ctx.round_index, batch=batch, record=record, online_mask=ctx.online_mask
            )
        return record
