"""Simulator workloads: solo rounds through ``FLSimulation.run_round`` and 8-seed
experiments through ``run_experiment`` (the replicate axis).

Each workload builds its simulation from the benchmark seed, runs operations on demand,
checks every output it produced, and — in the traced run — wraps the public calls into
each layer so an operation's time splits into named layers that add up to it.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from repro.core.selection import make_policy
from repro.experiments import runner as experiments_runner
from repro.experiments.runner import build_simulation, run_experiment
from repro.experiments.spec import ExperimentSpec
from repro.fl.server import SurrogateTrainingBackend
from repro.sim import replicated as sim_replicated
from repro.sim.environment import EdgeCloudEnvironment
from repro.sim.replicated import ReplicatedSimulation
from repro.devices.energy import RoundEnergyAccount
from repro.devices.fleet_arrays import FleetArrays, RoundConditionsArrays
from repro.sim.results import BatchRoundExecution, RoundExecution, SimulationResult
from repro.sim.round_engine import RoundEngine
from repro.sim.scenarios import get_scenario_preset
from repro.validation.golden import GoldenStore, trajectory_rows
from repro.validation.invariants import check_simulation_result

from tracing import ATTRS, Tracer, op_budget, phase_ratios

#: Round budget of the solo-round workloads: far more rounds than any run reaches, so
#: the loop is bounded by time alone and never by convergence.
ROUND_BUDGET = 100_000

#: Rounds (warm-up included) whose trajectory rows feed the printed output digest.
DIGEST_ROUNDS = 20

#: Rounds per replica of one seeds-diurnal-1k experiment (no early stop, so every
#: operation does the same amount of work whatever the seed).
EXPERIMENT_ROUNDS = 80

#: Seed replicas per seeds-diurnal-1k experiment.
EXPERIMENT_REPLICAS = 8


def _spec(preset: str, policy: str, seed: int, rounds: int, n_seeds: int = 1) -> ExperimentSpec:
    scenario = replace(get_scenario_preset(preset), max_rounds=rounds, seed=seed)
    return ExperimentSpec(
        scenario=scenario, policy=policy, n_seeds=n_seeds, stop_at_convergence=False
    ).validate()


def _ms_per_op(seconds: float, ops: int) -> float:
    return seconds / ops * 1e3 if ops else 0.0


class RoundsWorkload:
    """Consecutive ``FLSimulation.run_round`` calls on one fleet; one op is one round."""

    op_name = "round"

    def __init__(self, name: str, preset: str, policy: str, golden: str | None) -> None:
        self.name = name
        self.preset = preset
        self.policy = policy
        self.golden = golden

    # ------------------------------------------------------------------ running
    def build(self, seed: int, root: Path, corrupt: bool) -> None:
        self.seed = seed
        self.root = root
        self.corrupt = corrupt
        spec = _spec(self.preset, self.policy, seed, ROUND_BUDGET)
        self.num_devices = spec.scenario.num_devices
        self.sim = build_simulation(spec)
        self.result = SimulationResult(
            policy_name=self.sim.policy.name,
            workload_name=self.sim.environment.workload.name,
            target_accuracy=self.sim.target_accuracy,
        )

    def warmup(self) -> float:
        return self.run_op()[1]

    def run_op(self) -> tuple[list[float], float]:
        """Run one round; returns its latency and the wall time it took, in seconds."""
        start = time.perf_counter()
        record = self.sim.run_round(self.result.num_rounds)
        elapsed = time.perf_counter() - start
        self.result.append(record)
        return [elapsed], elapsed

    def rounds_per_op(self) -> float:
        return 1.0

    def close(self) -> None:
        pass

    # ------------------------------------------------------------------ checks
    def check(self) -> tuple[int, int, list[str], list[str]]:
        """Audit every round run so far: (attempted, failed, problems, checks run)."""
        if self.corrupt:
            last = self.result.records[-1]
            self.result.records[-1] = replace(last, accuracy=last.accuracy + 2.0)
        records = self.result.records
        failed: set[int] = set()
        problems: list[str] = []
        for violation in check_simulation_result(self.result, num_devices=self.num_devices):
            problems.append(f"invariant: {violation}")
            if violation.round_index is None:
                failed.update(range(len(records)))
            else:
                failed.add(violation.round_index)
        checks = [f"invariants: {len(records)} rounds audited"]
        if self.golden is not None and self.seed == 0:
            store = GoldenStore(self.root / "goldens")
            golden = store.load(self.golden)
            prefix = SimulationResult(
                policy_name=self.result.policy_name,
                workload_name=self.result.workload_name,
                target_accuracy=self.result.target_accuracy,
                records=records[: golden.num_rounds],
            )
            report = store.diff(golden, prefix)
            for divergence in report.divergences:
                problems.append(f"golden {self.golden}: {divergence}")
                if divergence.round_index is None:
                    failed.update(range(len(records)))
                else:
                    failed.add(divergence.round_index)
            checks.append(report.format().splitlines()[0])
        return len(records), len(failed), problems, checks

    def digest(self) -> tuple[str, int]:
        rows = trajectory_rows(self.result)[:DIGEST_ROUNDS]
        payload = json.dumps(rows, sort_keys=True).encode("utf-8")
        return hashlib.sha256(payload).hexdigest(), len(rows)

    # ------------------------------------------------------------------ tracing
    def instrument(self, tracer) -> None:
        """Wrap the public calls a round makes into each layer."""
        tracer.wrap(self.sim, "run_round", "op")
        policy = self.sim.policy
        tracer.wrap(policy, "select", "core.select")
        tracer.wrap(policy, "feedback", "core.feedback")
        if getattr(policy, "feedback_batch", None) is not None:
            tracer.wrap(policy, "feedback_batch", "core.feedback")
        tracer.wrap(self.sim.backend, "run_round", "fl.train")
        tracer.wrap(EdgeCloudEnvironment, "round_online_mask", "sim.environment.sample")
        tracer.wrap(EdgeCloudEnvironment, "sample_condition_arrays", "sim.environment.sample")
        tracer.wrap(EdgeCloudEnvironment, "sample_faults", "sim.environment.faults")
        tracer.wrap(RoundConditionsArrays, "lazy_mapping", "sim.environment.sample")
        tracer.wrap(RoundEngine, "execute_batch", "sim.round_engine.execute")
        tracer.wrap(
            BatchRoundExecution,
            "to_execution",
            "sim.results.materialise",
            on_result=_count_device_objects,
        )
        # Record assembly: the scalar views the runner reads off the materialised round.
        for prop in ("participant_ids", "dropped_ids", "failed_ids", "participant_energy_j"):
            tracer.wrap(RoundExecution, prop, "sim.results.record")
        tracer.wrap(RoundEnergyAccount, "global_j", "sim.results.record")

    def layers(self, tracer) -> tuple[dict[str, float], float]:
        """Per-op layer metrics of the traced pass and the children's coverage."""
        ops, op_s, totals, attrs = op_budget(tracer.spans, "op")
        children = sum(totals.values())
        metrics = {
            "core.select_ms": _ms_per_op(totals.get("core.select", 0.0), ops),
            "core.feedback_ms": _ms_per_op(totals.get("core.feedback", 0.0), ops),
            "sim.environment.sample_ms": _ms_per_op(
                totals.get("sim.environment.sample", 0.0)
                + totals.get("sim.environment.faults", 0.0),
                ops,
            ),
            "sim.round_engine.execute_ms": _ms_per_op(
                totals.get("sim.round_engine.execute", 0.0), ops
            ),
            "sim.results.materialise_ms": _ms_per_op(
                totals.get("sim.results.materialise", 0.0), ops
            ),
            "sim.results.device_objects": (
                attrs.get("sim.results.materialise", {}).get("device_objects", 0.0) / ops
                if ops
                else 0.0
            ),
            "sim.results.record_ms": _ms_per_op(totals.get("sim.results.record", 0.0), ops),
            "fl.train_ms": _ms_per_op(totals.get("fl.train", 0.0), ops),
            "sim.runner.self_ms": _ms_per_op(op_s - children, ops),
        }
        return metrics, (children / op_s if op_s else 0.0)

    def phase_ratios(self, tracer) -> dict[str, float]:
        """Benchmark layer sums over the program's own phase spans of the same rounds."""
        _, _, totals, _ = op_budget(tracer.spans, "op")
        mine = {
            "control_plane": totals.get("sim.environment.sample", 0.0)
            + totals.get("core.select", 0.0),
            "energy_math": totals.get("sim.environment.faults", 0.0)
            + totals.get("sim.round_engine.execute", 0.0)
            + totals.get("sim.results.materialise", 0.0),
            "feedback": totals.get("fl.train", 0.0) + totals.get("core.feedback", 0.0),
        }
        return phase_ratios(mine)


def _count_device_objects(span, args, execution) -> None:
    span[ATTRS] = {"device_objects": len(execution.energy.per_device)}


class SeedsWorkload:
    """8-replica ``run_experiment`` calls on the replicate axis; one op is one experiment."""

    op_name = "experiment"

    def __init__(self, name: str, preset: str, policy: str) -> None:
        self.name = name
        self.preset = preset
        self.policy = policy

    def build(self, seed: int, root: Path, corrupt: bool) -> None:
        self.seed = seed
        self.corrupt = corrupt
        self.ops = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._digest = hashlib.sha256()
        self._digest_ops = 0
        self._captured: list = []
        # Keeps each experiment's replica trajectories for the identity check; the
        # capture is one extra span per experiment, in every run.
        self._capture = Tracer()
        self._capture.wrap(
            ReplicatedSimulation,
            "run",
            "replicated.run",
            on_result=lambda span, args, results: self._captured.append(results),
        )

    def _experiment_spec(self, index: int) -> ExperimentSpec:
        base = self.seed * 100_000 + index * EXPERIMENT_REPLICAS
        return _spec(self.preset, self.policy, base, EXPERIMENT_ROUNDS, EXPERIMENT_REPLICAS)

    def warmup(self) -> float:
        return self.run_op()[1]

    def _timed_experiment(self, spec: ExperimentSpec):
        """One experiment; the traced run wraps this call as the operation's span."""
        return run_experiment(spec)

    def run_op(self) -> tuple[list[float], float]:
        """Run one 8-replica experiment (timed), then check it (untimed)."""
        spec = self._experiment_spec(self.ops)
        self._captured.clear()
        start = time.perf_counter()
        result = self._timed_experiment(spec)
        elapsed = time.perf_counter() - start
        self._check_experiment(spec, result, self.ops)
        self.ops += 1
        return [elapsed], elapsed

    def rounds_per_op(self) -> float:
        return float(EXPERIMENT_ROUNDS * EXPERIMENT_REPLICAS)

    def _check_experiment(self, spec: ExperimentSpec, result, index: int) -> None:
        self.attempted += 1
        problems: list[str] = []
        if len(self._captured) != 1:
            problems.append(
                f"expected one replicated run, saw {len(self._captured)} "
                "(the replicate axis was bypassed)"
            )
        else:
            trajectories = self._captured[0]
            # One replica per experiment, rotating, must equal its solo run byte for byte.
            replica = index % EXPERIMENT_REPLICAS
            if self.corrupt:
                first = trajectories[replica].records[0]
                trajectories[replica].records[0] = replace(
                    first, round_time_s=first.round_time_s * 2
                )
            for position, trajectory in enumerate(trajectories):
                for violation in check_simulation_result(
                    trajectory, num_devices=spec.scenario.num_devices
                ):
                    problems.append(f"replica {position} invariant: {violation}")
            solo = build_simulation(spec.seed_specs()[replica]).run()
            if solo.to_json() != trajectories[replica].to_json():
                problems.append(f"replica {replica} differs from its solo run")
            if asdict(solo.summary()) != asdict(result.summaries[replica]):
                problems.append(f"replica {replica} summary differs from its solo run")
        if problems:
            self.failed += 1
            self.problems.extend(f"experiment {index}: {problem}" for problem in problems)
        if self._digest_ops < 1:
            summaries = [asdict(summary) for summary in result.summaries]
            self._digest.update(json.dumps(summaries, sort_keys=True).encode("utf-8"))
            self._digest_ops += 1
        self._captured.clear()

    def check(self) -> tuple[int, int, list[str], list[str]]:
        # Experiments are checked as they finish, because their trajectories are large.
        checks = [
            f"invariants: {self.attempted} experiments x {EXPERIMENT_REPLICAS} replica "
            "trajectories audited",
            f"replica identity: {self.attempted} replicas equal their solo run (to_json)",
        ]
        return self.attempted, self.failed, self.problems, checks

    def digest(self) -> tuple[str, int]:
        return self._digest.hexdigest(), self._digest_ops

    def close(self) -> None:
        if hasattr(self, "_capture"):
            self._capture.restore()

    # ------------------------------------------------------------------ tracing
    def instrument(self, tracer) -> None:
        tracer.wrap(self, "_timed_experiment", "op")
        # Every experiment builds fresh policies and backends, so trace their classes.
        policy_class = type(make_policy(self.policy, rng=np.random.default_rng(0)))
        tracer.wrap(policy_class, "select", "core.select")
        tracer.wrap(SurrogateTrainingBackend, "run_round", "fl.train")
        tracer.wrap(experiments_runner, "build_simulation", "experiments.build")
        tracer.wrap(EdgeCloudEnvironment, "round_online_mask", "sim.environment.sample")
        tracer.wrap(EdgeCloudEnvironment, "sample_condition_arrays", "sim.environment.sample")
        tracer.wrap(EdgeCloudEnvironment, "sample_faults", "sim.environment.faults")
        tracer.wrap(RoundConditionsArrays, "lazy_mapping", "sim.environment.sample")
        tracer.wrap(sim_replicated, "execute_batch_replicated", "sim.round_engine.execute")
        # Record assembly straight from the batch arrays (the replicated record path).
        tracer.wrap(BatchRoundExecution, "participant_ids", "sim.results.record")
        tracer.wrap(FleetArrays, "rows_for", "sim.results.record")
        tracer.wrap(sim_replicated, "_record_from_batch", "sim.results.record")

    def layers(self, tracer) -> tuple[dict[str, float], float]:
        ops, op_s, totals, _ = op_budget(tracer.spans, "op")
        children = sum(totals.values())
        metrics = {
            "experiments.build_ms": _ms_per_op(totals.get("experiments.build", 0.0), ops),
            "core.select_ms": _ms_per_op(totals.get("core.select", 0.0), ops),
            "sim.environment.sample_ms": _ms_per_op(
                totals.get("sim.environment.sample", 0.0)
                + totals.get("sim.environment.faults", 0.0),
                ops,
            ),
            "sim.round_engine.execute_ms": _ms_per_op(
                totals.get("sim.round_engine.execute", 0.0), ops
            ),
            "sim.results.record_ms": _ms_per_op(totals.get("sim.results.record", 0.0), ops),
            "fl.train_ms": _ms_per_op(totals.get("fl.train", 0.0), ops),
            "sim.replicated.self_ms": _ms_per_op(op_s - children, ops),
        }
        return metrics, (children / op_s if op_s else 0.0)

    def phase_ratios(self, tracer) -> dict[str, float]:
        # The replicated runner records one program span per round, around the stacked
        # engine call, so that is the phase the two tools can be compared on.
        _, _, totals, _ = op_budget(tracer.spans, "op")
        mine = {"replicated_round": totals.get("sim.round_engine.execute", 0.0)}
        return phase_ratios(mine)
