"""Round-engine throughput benchmark backing ``python -m repro bench``.

The benchmark times the engine (:meth:`RoundEngine.execute_batch`) and the control plane
on identical selections and conditions at several fleet sizes, reports rounds/sec, times
N serial seed runs against one replicated run, and writes the measurements to a JSON
file so every perf change lands in the recorded trajectory of the repository.
"""

from __future__ import annotations

import json
import math
import platform
import subprocess
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from repro.config import GlobalParams, SimulationConfig
from repro.core.selection import RandomPolicy
from repro.exceptions import ConfigurationError
from repro.interference.corunner import InterferenceGenerator, InterferenceScenario
from repro.network.bandwidth import BandwidthModel, NetworkScenario
from repro.sim.context import RoundContext, SelectionDecision
from repro.sim.environment import EdgeCloudEnvironment
from repro.sim.round_engine import RoundEngine

#: Default fleet sizes timed by ``python -m repro bench``.
DEFAULT_BENCH_SIZES: tuple[int, ...] = (200, 1_000, 10_000, 50_000, 100_000)

#: Default replicate count of the seed-replication benchmark (0 disables it).
DEFAULT_BENCH_REPLICATES = 8

#: Default rounds each replicate runs in the seed-replication benchmark.
DEFAULT_REPLICATION_ROUNDS = 40

#: Default fleet size of the seed-replication benchmark.
DEFAULT_REPLICATION_DEVICES = 1_000

#: Default output path of the benchmark record.
DEFAULT_BENCH_OUTPUT = "BENCH_roundengine.json"


@dataclass(frozen=True)
class BenchSizeResult:
    """Timed engine throughput at one fleet size.

    ``control_plane_round_s`` is the per-round cost of the control plane (condition
    sampling plus participant selection) and ``energy_math_round_s`` the per-round cost
    of the batched energy/latency math, so regressions are attributable to a phase
    instead of just a total.
    """

    num_devices: int
    num_participants: int
    batch_rounds_per_s: float
    batch_repeats: int
    control_plane_round_s: float
    energy_math_round_s: float


@dataclass(frozen=True)
class ReplicationBenchResult:
    """Wall-clock comparison of N serial seed runs vs one replicated run."""

    num_devices: int
    num_participants: int
    replicates: int
    rounds: int
    serial_wall_s: float
    replicated_wall_s: float
    speedup: float


def _git(*args: str) -> str | None:
    try:
        result = subprocess.run(
            ["git", "-C", str(Path(__file__).resolve().parent), *args],
            capture_output=True,
            text=True,
            timeout=5,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return result.stdout.strip() if result.returncode == 0 else None


def _git_sha() -> str | None:
    """The repository HEAD commit (``-dirty`` suffixed when the tree has local
    changes, so bench numbers are never attributed to code that did not run), or
    ``None`` outside a git checkout."""
    sha = _git("rev-parse", "HEAD")
    if not sha:
        return None
    status = _git("status", "--porcelain")
    return f"{sha}-dirty" if status else sha


def bench_provenance() -> dict:
    """Interpreter, library and machine provenance recorded with every bench run.

    Throughput numbers are only comparable between records whose provenance matches;
    the trajectory file keeps it so regressions are never chased across machines.
    """
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "git_sha": _git_sha(),
    }


def _participants_for(num_devices: int) -> int:
    """Selection size K used at a fleet size.

    10 % of the fleet, floored at the paper's 20 and capped at 100: deployed FL keeps K
    roughly constant while the population grows, so capping isolates how the engine
    scales with *fleet* size instead of conflating it with a growing selection.
    """
    return min(100, max(20, num_devices // 10))


def _build_environment(
    num_devices: int, seed: int, workload: str, interference: str, network: str
) -> EdgeCloudEnvironment:
    config = SimulationConfig.small(num_devices=num_devices, seed=seed)
    return EdgeCloudEnvironment(
        config=config,
        global_params=GlobalParams(
            batch_size=16, local_epochs=5, num_participants=_participants_for(num_devices)
        ),
        workload=workload,
        interference=InterferenceGenerator(InterferenceScenario.from_name(interference)),
        bandwidth=BandwidthModel(NetworkScenario.from_name(network)),
        rng=np.random.default_rng(seed),
        vectorized_sampling=True,
    )


def _time_rounds(
    run_round: Callable[[], object], repeats: int | None, target_seconds: float = 0.4
) -> tuple[float, int]:
    """Time ``run_round`` and return (rounds per second, rounds timed).

    Each round is timed individually and the *fastest* round is reported — the same
    convention as ``timeit`` — because the minimum is the measurement least polluted by
    scheduler preemption and cache eviction noise.  With ``repeats=None`` the round
    count is calibrated from one warm-up call so the whole measurement lasts roughly
    ``target_seconds`` regardless of fleet size.
    """
    if repeats is not None and repeats < 1:
        raise ConfigurationError("bench repeats must be >= 1")
    start = time.perf_counter()
    run_round()  # Warm-up: first call pays lazy snapshot/cache construction.
    warmup_elapsed = time.perf_counter() - start
    if repeats is None:
        repeats = int(np.clip(target_seconds / max(warmup_elapsed, 1e-6), 5, 1_000))
    best_elapsed = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        run_round()
        best_elapsed = min(best_elapsed, time.perf_counter() - start)
    return 1.0 / max(best_elapsed, 1e-9), repeats


def bench_fleet_size(
    num_devices: int,
    seed: int = 0,
    workload: str = "cnn-mnist",
    interference: str = "moderate",
    network: str = "variable",
    repeats: int | None = None,
) -> BenchSizeResult:
    """Time batched round execution and the control plane at one fleet size."""
    if num_devices < 20:
        raise ConfigurationError("bench fleet sizes below 20 devices are not meaningful")
    environment = _build_environment(num_devices, seed, workload, interference, network)
    engine = RoundEngine(environment)
    condition_arrays = environment.sample_condition_arrays()
    decision = SelectionDecision(
        participants=environment.fleet.device_ids[: _participants_for(num_devices)]
    )
    batch_rps, batch_repeats = _time_rounds(
        lambda: engine.execute_batch(decision, condition_arrays), repeats
    )
    # Phase profile: the control plane (condition sampling + selection) timed against
    # the batched energy math, so a regression names its phase.
    policy = RandomPolicy(rng=np.random.default_rng(seed + 10_000))

    def control_plane_round() -> None:
        arrays = environment.sample_condition_arrays()
        ctx = RoundContext(
            round_index=0,
            environment=environment,
            conditions=arrays.lazy_mapping(environment.device_ids),
            accuracy=0.5,
            condition_arrays=arrays,
            online_mask=None,
        )
        policy.select(ctx)

    control_rps, _ = _time_rounds(control_plane_round, repeats)
    return BenchSizeResult(
        num_devices=num_devices,
        num_participants=_participants_for(num_devices),
        batch_rounds_per_s=batch_rps,
        batch_repeats=batch_repeats,
        control_plane_round_s=1.0 / control_rps,
        energy_math_round_s=1.0 / batch_rps,
    )


def bench_replication(
    num_devices: int = DEFAULT_REPLICATION_DEVICES,
    replicates: int = DEFAULT_BENCH_REPLICATES,
    rounds: int = DEFAULT_REPLICATION_ROUNDS,
    seed: int = 0,
    workload: str = "cnn-mnist",
) -> ReplicationBenchResult:
    """Time N serial seed runs against one replicated run of the same scenario.

    Both paths produce byte-identical trajectories (that equivalence is pinned by the
    validation tests); this measures only the wall-clock win of executing the round
    physics as one stacked ``[replicates, participants]`` engine call.
    """
    if replicates < 2:
        raise ConfigurationError("replication bench needs at least 2 replicates")
    if rounds < 1:
        raise ConfigurationError("replication bench needs at least 1 round")
    # Local import: the scenario/runner layer sits above the engine this module times.
    from repro.sim.replicated import ReplicatedSimulation
    from repro.sim.runner import FLSimulation
    from repro.sim.scenarios import ScenarioSpec, build_environment, build_surrogate_backend

    def build(replica_seed: int) -> FLSimulation:
        spec = ScenarioSpec(
            workload=workload,
            num_devices=num_devices,
            max_rounds=rounds,
            seed=replica_seed,
            # Array-native condition draws on both paths, like the fleet-size bench;
            # the scalar per-device sampler would otherwise dominate both timings.
            vectorized_sampling=True,
        )
        env = build_environment(spec)
        # Materialise the environment's one-time array snapshot up front: it is part
        # of scenario construction (excluded from both timings), not round execution.
        env.fleet_arrays
        backend = build_surrogate_backend(env, aggregator=spec.aggregator)
        policy = RandomPolicy(rng=np.random.default_rng(replica_seed + 10_000))
        return FLSimulation(
            env, policy, backend, max_rounds=rounds, stop_at_convergence=False
        )

    # Environment construction is excluded from both timings: it is identical work on
    # both paths and is paid once per seed either way.
    serial_sims = [build(seed + index) for index in range(replicates)]
    start = time.perf_counter()
    for sim in serial_sims:
        sim.run()
    serial_wall = time.perf_counter() - start
    replicated_sims = [build(seed + index) for index in range(replicates)]
    start = time.perf_counter()
    ReplicatedSimulation(replicated_sims).run()
    replicated_wall = time.perf_counter() - start
    return ReplicationBenchResult(
        num_devices=num_devices,
        num_participants=serial_sims[0].environment.global_params.num_participants,
        replicates=replicates,
        rounds=rounds,
        serial_wall_s=serial_wall,
        replicated_wall_s=replicated_wall,
        speedup=serial_wall / max(replicated_wall, 1e-9),
    )


def run_roundengine_bench(
    sizes: tuple[int, ...] = DEFAULT_BENCH_SIZES,
    seed: int = 0,
    workload: str = "cnn-mnist",
    interference: str = "moderate",
    network: str = "variable",
    repeats: int | None = None,
    output: str | Path | None = DEFAULT_BENCH_OUTPUT,
    replicates: int = DEFAULT_BENCH_REPLICATES,
    replication_rounds: int = DEFAULT_REPLICATION_ROUNDS,
) -> dict:
    """Run the round-engine benchmark over ``sizes`` and write the JSON record.

    With ``replicates >= 2`` the record also carries the seed-replication measurement
    (N serial runs vs one replicated run); ``replicates=0`` skips it.
    """
    if not sizes:
        raise ConfigurationError("bench needs at least one fleet size")
    results = [
        bench_fleet_size(
            num_devices=size,
            seed=seed,
            workload=workload,
            interference=interference,
            network=network,
            repeats=repeats,
        )
        for size in sizes
    ]
    record = {
        "benchmark": "roundengine",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "provenance": bench_provenance(),
        "workload": workload,
        "interference": interference,
        "network": network,
        "seed": seed,
        "results": [asdict(result) for result in results],
    }
    if replicates:
        record["replication"] = asdict(
            bench_replication(
                replicates=replicates,
                rounds=replication_rounds,
                seed=seed,
                workload=workload,
            )
        )
    if output is not None:
        Path(output).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return record


def format_bench_record(record: dict) -> str:
    """Human-readable table of a benchmark record for the CLI."""
    header = (
        f"{'devices':>8}  {'K':>5}  {'batch r/s':>11}  {'ctrl ms/rd':>10}  {'math ms/rd':>10}"
    )
    lines = [header, "-" * len(header)]
    for row in record["results"]:
        control_ms = row.get("control_plane_round_s")
        math_ms = row.get("energy_math_round_s")
        lines.append(
            f"{row['num_devices']:>8}  {row['num_participants']:>5}  "
            f"{row['batch_rounds_per_s']:>11.2f}  "
            f"{'' if control_ms is None else format(control_ms * 1e3, '10.3f')}  "
            f"{'' if math_ms is None else format(math_ms * 1e3, '10.3f')}"
        )
    replication = record.get("replication")
    if replication:
        lines.append(
            f"\nreplication @ {replication['num_devices']} devices: "
            f"{replication['replicates']} seeds x {replication['rounds']} rounds — "
            f"serial {replication['serial_wall_s']:.2f}s, "
            f"replicated {replication['replicated_wall_s']:.2f}s "
            f"({replication['speedup']:.1f}x)"
        )
    return "\n".join(lines)
