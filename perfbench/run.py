"""End-to-end benchmark of the AutoFL reproduction: real rounds, the replicate axis and
the service job path, with a traced per-layer budget.

Run from the repository root::

    python3 perfbench/run.py --workload autofl-1k --seed 0 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seconds 12      # every workload, in turn

Each workload runs in a fresh process.  ``--trace 0`` measures the end-to-end metrics
with nothing wrapped.  ``--trace 1`` splits the time into an untraced pass, a traced pass
(public calls into each layer wrapped from this directory) and a pass with the program's
own telemetry switched on; it prints the per-layer metrics, the tracing overhead and how
the benchmark's phase sums agree with the program's spans.  Every run checks the
outputs it produced and counts each operation whose output is wrong as failed.  The last
line of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {value, unit}}}``.

A shared machine can run the same code up to 1.7 times slower for seconds or minutes
at a time.  So a fixed piece of pure-Python work (the probe: arithmetic, reads spread
over a list larger than the L2 cache, and building a dict) is timed before
set-up, after it and after every operation.  Each gated time is then divided by how
much slower than reference speed the adjacent probe samples ran, so the gated figures
are the times a machine would show on which one probe sample takes ``PROBE_REF_MS``.
Every figure as measured is printed beside them.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402 - the setup clock starts before any import
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Each workload with the reason it is in the benchmark.  ``kind`` selects the class.
WORKLOADS: dict[str, dict] = {
    # The paper default (scalar agent, per-tier Q-sharing): `core.select` is most of a
    # round, and the committed golden pins its leading rounds at seed 0.
    "autofl-1k": {"kind": "rounds", "preset": "fleet-1k", "policy": "autofl",
                  "golden": "fleet-1k"},
    # The array agent at 10k devices: `sim.results` materialisation dominates and the
    # scalar agent does nothing, so array-native round records show here.
    "autofl-fast-10k": {"kind": "rounds", "preset": "fleet-10k", "policy": "autofl-fast",
                        "golden": None},
    # 8 seed replicas through run_experiment: the only workload on the replicate axis,
    # per-experiment builds and availability masks; it never calls to_execution.
    "seeds-diurnal-1k": {"kind": "seeds", "preset": "diurnal-1k", "policy": "fedavg-random"},
    # Fresh jobs through submit/serve: every spec is a store miss run in a child
    # process, so spawn, child build and flush dominate.
    "service-drain": {"kind": "service", "cached": False},
    # The same specs resubmitted: every spec is a store hit, so only the queue files,
    # SQLite reads and event emits remain.
    "service-cached": {"kind": "service", "cached": True},
}

#: End-to-end metrics, gated by BENCHMARK.json; every workload reports all of them, so
#: an "op" is the unit a user of that workload waits for: a round (autofl-*), an
#: 8-replica experiment (seeds-diurnal-1k) or a job, claim to done (service-*).  The
#: workload-specific names (rounds_per_s, round_p50_ms, experiment_p50_ms, jobs_per_s,
#: cached_jobs_per_s, ...) are printed beside them, as measured, by ``named_views``.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
}

#: Per-layer metrics of the traced run (0 where a workload never enters the layer).
PER_LAYER = {
    "setup.import_s": "s",
    "setup.build_s": "s",
    "setup.warmup_s": "s",
    "core.select_ms": "ms",
    "core.feedback_ms": "ms",
    "sim.environment.sample_ms": "ms",
    "sim.round_engine.execute_ms": "ms",
    "sim.results.materialise_ms": "ms",
    "sim.results.device_objects": "count",
    "sim.results.record_ms": "ms",
    "fl.train_ms": "ms",
    "sim.runner.self_ms": "ms",
    "sim.replicated.self_ms": "ms",
    "experiments.build_ms": "ms",
    "cli.submit_ms": "ms",
    "service.queue.wait_ms": "ms",
    "service.queue.claim_ms": "ms",
    "service.queue.claim_hit_ratio": "ratio",
    "service.queue.write_ms": "ms",
    "service.store.get_ms": "ms",
    "service.store.put_ms": "ms",
    "service.store.hit_ratio": "ratio",
    "service.events.emit_ms": "ms",
    "service.events.per_job": "count",
    "experiments.run_ms": "ms",
    "service.scheduler.child_overhead_ms": "ms",
    "service.scheduler.self_ms": "ms",
    "service.eventbus.delivery_ms": "ms",
    "trace.overhead_pct": "%",
    "trace.coverage_pct": "%",
    "phase.control_plane.ratio": "ratio",
    "phase.energy_math.ratio": "ratio",
    "phase.feedback.ratio": "ratio",
    "phase.replicated_round.ratio": "ratio",
    "phase.claim.ratio": "ratio",
    "phase.execute.ratio": "ratio",
    "phase.flush.ratio": "ratio",
    "probe.sample_ms": "ms",
}

#: Extra processes that each repeat the set-up, so setup_s is a median of several.
SETUP_REPEATS = 4

#: One probe sample: PROBE_LOOPS steps of integer arithmetic, PROBE_READS reads
#: PROBE_STRIDE words apart in a PROBE_WORDS-word list (4 MB, twice a 2 MB L2 cache),
#: and a PROBE_ENTRIES-entry dict built from scratch.  Each part alone tracked the
#: rounds workloads' slowdowns only in part; together they tracked them to within a few
#: percent.  The reads go on where the last sample stopped, so no sample finds its lines
#: in the L2 cache and none depends on what the workload touched before it.
PROBE_LOOPS = 5_000
PROBE_WORDS = 1 << 19
PROBE_STRIDE = 40_503
PROBE_READS = 2_000
PROBE_ENTRIES = 2_000
_PROBE_DATA = [0] * PROBE_WORDS
_probe_next = 0

#: Milliseconds one probe sample takes at reference speed.
PROBE_REF_MS = 1.5

#: Probe samples taken just before and just after set-up.
SETUP_PROBES = 5

#: Probe samples taken after each operation call: about PROBE_SHARE of its wall time.
PROBE_SHARE = 0.05
MIN_OP_PROBES = 2
MAX_OP_PROBES = 10

#: Share of a traced run spent in the untraced, traced and telemetry passes.
TRACE_SPLIT = (0.4, 0.4, 0.2)

#: Shortest window over which one throughput sample is taken.
WINDOW_S = 0.5

#: Tail percentile reported beside the median once at least this many samples exist
#: (ten samples beyond the 95th percentile).
P95_MIN_SAMPLES = 200


def probe(samples: int) -> list[float]:
    """Milliseconds of ``samples`` runs of a fixed piece of pure-Python work."""
    global _probe_next
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        total = 0
        for value in range(PROBE_LOOPS):
            total += value * value % 7
        for step in range(_probe_next, _probe_next + PROBE_READS):
            total += _PROBE_DATA[step * PROBE_STRIDE % PROBE_WORDS]
        _probe_next += PROBE_READS
        table = {("key", entry): [entry, float(entry)] for entry in range(PROBE_ENTRIES)}
        times.append((time.perf_counter() - start) * 1e3)
        del table
    return times


def slowdown(samples: list[float]) -> float:
    """How many times slower than reference speed the machine ran ``samples``."""
    return statistics.median(samples) / PROBE_REF_MS


class Call(NamedTuple):
    """One ``run_op`` call: its operations' latencies and wall time, in seconds, and the
    slowdown of the probe samples taken just before and just after it."""

    latencies: list[float]
    wall: float
    slowdown: float


def make_workload(name: str):
    config = WORKLOADS[name]
    if config["kind"] == "rounds":
        from sim_workloads import RoundsWorkload

        return RoundsWorkload(name, config["preset"], config["policy"], config["golden"])
    if config["kind"] == "seeds":
        from sim_workloads import SeedsWorkload

        return SeedsWorkload(name, config["preset"], config["policy"])
    from service_workloads import ServiceWorkload

    return ServiceWorkload(name, cached=config["cached"])


def timed_pass(workload, seconds: float, failures: list[str], probes: list[float]):
    """Run operations until ``seconds`` pass, probing the machine after each call.

    Returns ``(calls, errors)``, one :class:`Call` per call of ``run_op`` (one round,
    one experiment or one service pass); every probe sample is appended to ``probes``.
    """
    calls: list[Call] = []
    errors = 0
    gc.collect()
    # Flush writes (and, on a discard-mounted disk, the trims of deleted files) left by
    # earlier runs and by set-up, so the service workloads' file I/O starts from the
    # same disk state in every run.
    os.sync()
    before = probe(MIN_OP_PROBES)
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        try:
            op_latencies, op_wall = workload.run_op()
        except Exception:  # An op that raises is a failed op, not a crashed run.
            errors += 1
            failures.append(traceback.format_exc().strip().splitlines()[-1])
            continue
        samples = round(op_wall * 1e3 * PROBE_SHARE / PROBE_REF_MS)
        after = probe(min(MAX_OP_PROBES, max(MIN_OP_PROBES, samples)))
        calls.append(Call(op_latencies, op_wall, slowdown(before + after)))
        probes.extend(after)
        before = after
    return calls, errors


def throughput(calls: list[Call], reference: bool) -> tuple[float, int]:
    """Median operations per second over consecutive windows of at least WINDOW_S.

    With ``reference`` each call's wall time is scaled to reference speed first.  A
    median over windows keeps a short stall from moving the figure, while a change
    that slows every operation still moves every window.
    """
    rates: list[float] = []
    ops = 0
    wall = 0.0
    scaled = 0.0
    for call in calls:
        ops += len(call.latencies)
        wall += call.wall
        scaled += call.wall / call.slowdown if reference else call.wall
        if wall >= WINDOW_S:
            rates.append(ops / scaled)
            ops, wall, scaled = 0, 0.0, 0.0
    if not rates and scaled > 0:
        rates.append(ops / scaled)
    return (statistics.median(rates) if rates else 0.0), len(rates)


def latencies_of(calls: list[Call], reference: bool) -> list[float]:
    """Every operation's latency in seconds, scaled to reference speed if asked."""
    return [
        latency / call.slowdown if reference else latency
        for call in calls
        for latency in call.latencies
    ]


def provenance() -> dict:
    from repro.sim.bench import bench_provenance

    record = bench_provenance()
    record["nproc"] = len(os.sched_getaffinity(0))
    return record


def repeat_setup(args) -> list[float]:
    """Set-up time, at reference speed, of fresh processes that import, build and warm
    up, then exit."""
    times = []
    for _ in range(SETUP_REPEATS):
        completed = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, timeout=150, check=False, cwd=ROOT,
        )
        if completed.returncode != 0:
            raise RuntimeError(f"set-up repeat failed: {completed.stderr.strip()[-400:]}")
        times.append(json.loads(completed.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def named_views(name: str, ops_per_s: float, latencies: list[float], rounds_per_op: float):
    """The end-to-end figures as measured, under the names a user of each workload knows
    them by (not scaled to reference speed, not gated)."""
    n = len(latencies)
    p50 = statistics.median(latencies) * 1e3
    p95 = statistics.quantiles(latencies, n=20)[18] * 1e3 if n >= P95_MIN_SAMPLES else None
    kind = WORKLOADS[name]["kind"]
    if kind == "rounds":
        views = [("rounds_per_s", ops_per_s, "1/s"), ("round_p50_ms", p50, "ms"),
                 ("round_p95_ms", p95, "ms")]
    elif kind == "seeds":
        views = [("rounds_per_s", ops_per_s * rounds_per_op, "1/s"),
                 ("experiment_p50_ms", p50, "ms")]
    elif WORKLOADS[name]["cached"]:
        views = [("cached_jobs_per_s", ops_per_s, "1/s"), ("job_p50_ms", p50, "ms"),
                 ("job_p95_ms", p95, "ms")]
    else:
        views = [("jobs_per_s", ops_per_s, "1/s"), ("job_p50_ms", p50, "ms"),
                 ("rounds_per_s", ops_per_s * rounds_per_op, "1/s")]
    lines = []
    for view, value, unit in views:
        shown = f"{value:.4f} {unit}" if value is not None else f"not reported (n<{P95_MIN_SAMPLES})"
        lines.append(f"  {view:<22} {shown}  (n={n})")
    return lines


def run(args) -> int:
    # The probe runs first and is left out of the set-up time.
    setup_probes = probe(SETUP_PROBES)
    probe_s = time.perf_counter() - _PROCESS_START
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro  # noqa: F401
        import repro.cli  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import repro from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    workload = make_workload(args.workload)
    import_s = time.perf_counter() - _PROCESS_START - probe_s
    try:
        start = time.perf_counter()
        workload.build(args.seed, ROOT, corrupt=args.corrupt_output)
        build_s = time.perf_counter() - start
        warmup_s = workload.warmup()
        setup_probes += probe(SETUP_PROBES)
        setup_s = (import_s + build_s + warmup_s) / slowdown(setup_probes)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        return measure(args, workload, setup_s, (import_s, build_s, warmup_s))
    finally:
        workload.close()


def measure(args, workload, setup_s: float, setup: tuple[float, float, float]) -> int:
    """Time the workload, check its outputs and print the report and result line.

    ``setup_s`` is this process's set-up time at reference speed and ``setup`` its
    parts as measured.
    """
    import_s, build_s, warmup_s = setup
    print(f"perfbench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    failures: list[str] = []
    probes: list[float] = []
    layer_metrics: dict[str, float] = {}
    if not args.trace:
        calls, errors = timed_pass(workload, args.seconds, failures, probes)
    else:
        calls, errors, layer_metrics = traced_run(workload, args, failures, probes)
    peak_rss_mb = max(
        resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF,
                                                       resource.RUSAGE_CHILDREN)
    ) / 1024.0
    attempted, failed, problems, checks = workload.check()
    digest, digest_ops = workload.digest()
    attempted += errors
    failed += errors
    problems = failures + problems

    print(f"provenance: {json.dumps(provenance(), sort_keys=True)}")
    for line in checks:
        print(f"check: {line}")
    for problem in problems[:20]:
        print(f"FAILED: {problem}")
    print(f"digest: {args.workload} seed={args.seed} {workload.op_name}s={digest_ops} "
          f"sha256={digest}")
    if not calls:
        print("perfbench: no operation completed", file=sys.stderr)
        return 1
    measured_rate, windows = throughput(calls, reference=False)
    print(f"as measured (throughput: median of {windows} windows of >= {WINDOW_S} s):")
    for line in named_views(args.workload, measured_rate, latencies_of(calls, reference=False),
                            workload.rounds_per_op()):
        print(line)
    print(f"probe: median sample {statistics.median(probes):.4f} ms over {len(probes)} "
          f"samples ({min(probes):.4f}-{max(probes):.4f}); reference {PROBE_REF_MS} ms")

    if args.trace:
        layer_metrics.update({
            "setup.import_s": import_s,
            "setup.build_s": build_s,
            "setup.warmup_s": warmup_s,
            "probe.sample_ms": statistics.median(probes),
        })
        metrics = {
            name: {"value": layer_metrics.get(name, 0.0), "unit": unit}
            for name, unit in PER_LAYER.items()
        }
    else:
        setups = [setup_s, *repeat_setup(args)]
        print(f"setup: import_s={import_s:.4f} build_s={build_s:.4f} warmup_s={warmup_s:.4f}"
              f" as measured; setup_s at reference speed over {len(setups)} processes: "
              + ", ".join(f"{value:.4f}" for value in setups))
        values = {
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
            "ops_per_s": throughput(calls, reference=True)[0],
            "op_p50_ms": statistics.median(latencies_of(calls, reference=True)) * 1e3,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    for name, entry in metrics.items():
        print(f"metric {name} = {entry['value']:.6g} {entry['unit']}")
    print(f"ops: attempted={attempted} failed={failed} ({workload.op_name}s)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def traced_run(workload, args, failures: list[str], probes: list[float]):
    """Untraced, traced and telemetry passes; returns the untraced pass and layers."""
    from repro import telemetry
    from tracing import Tracer

    untraced_s, traced_s, telemetry_s = (args.seconds * share for share in TRACE_SPLIT)
    calls, errors = timed_pass(workload, untraced_s, failures, probes)
    tracer = Tracer()
    workload.instrument(tracer)
    try:
        traced_calls, traced_errors = timed_pass(workload, traced_s, failures, probes)
        layers, coverage = workload.layers(tracer)
        tracer.reset()
        telemetry.reset(disable=False)
        telemetry.configure(enabled=True, propagate_env=False)
        try:
            _, telemetry_errors = timed_pass(workload, telemetry_s, failures, probes)
            ratios = workload.phase_ratios(tracer)
        finally:
            telemetry.reset()
    finally:
        tracer.restore()
    untraced_rate = throughput(calls, reference=True)[0]
    traced_rate = throughput(traced_calls, reference=True)[0]
    layers["trace.overhead_pct"] = (
        (untraced_rate / traced_rate - 1.0) * 100.0 if traced_rate else 0.0
    )
    layers["trace.coverage_pct"] = coverage * 100.0
    for phase, ratio in ratios.items():
        layers[f"phase.{phase}.ratio"] = ratio
    traced_ops = sum(len(call.latencies) for call in traced_calls)
    print(f"trace: {traced_ops} traced {workload.op_name}s, children cover "
          f"{coverage * 100:.2f}% of each op; overhead {layers['trace.overhead_pct']:.2f}%")
    print("phases (benchmark layer sums / program telemetry spans): "
          + (", ".join(f"{phase}={ratio:.4f}" for phase, ratio in sorted(ratios.items()))
             or "none recorded"))
    return calls, errors + traced_errors + telemetry_errors, layers


def run_all(args) -> int:
    """Run every workload, each in a fresh process, and echo their output."""
    code = 0
    for name in WORKLOADS:
        completed = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, check=False,
        )
        code = code or completed.returncode
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0, help="seed the inputs are made from")
    parser.add_argument("--seconds", type=float, default=12.0, help="measured seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: print the per-layer metrics of a traced run")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--corrupt-output", action="store_true",
                        help="self-test hook: corrupt an output before it is checked")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
