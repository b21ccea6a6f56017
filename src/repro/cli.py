"""Command-line interface: ``python -m repro {run,compare,sweep,serve,submit,…}``.

The CLI is a thin shell over the declarative experiment subsystem and the
orchestration service:

* ``run``      — one experiment spec (scenario + policy + seed replicas);
* ``compare``  — several policies on one scenario, normalised to a baseline;
* ``sweep``    — a cartesian grid over any axes, executed by the
  :class:`~repro.experiments.runner.BatchRunner` with spec-hash caching;
* ``submit``   — enqueue a spec, preset or sweep as a durable job for the service;
* ``serve``    — run a scheduler worker pool against the shared queue and store;
* ``status``   — job table (or one job's detail) from the queue directory;
* ``watch``    — tail the service's structured event stream (``-f`` to follow,
  ``--http`` to consume the ``/events`` long-poll of a ``serve --port`` server);
* ``events``   — ``events sub``: durable-cursor subscription printing JSON lines,
  from the local log or an ``/events`` endpoint;
* ``webhooks`` — register/list/remove/test signed HTTP event callbacks;
* ``cancel``   — cancel a queued job immediately, a running job cooperatively;
* ``validate`` — the validation subsystem: ``record`` golden trajectories for scenario
  presets and shipped paths, ``check`` them bit-exactly against a fresh run (exit 1 on
  drift, with a report naming the first diverging round and field), and ``fuzz``
  randomised scenarios across every registered axis with invariant auditing;
* ``metrics``  — dump a telemetry snapshot (scheduler-written ``metrics.json`` plus
  live queue gauges) in the shared ``--format {table,csv,json}``;
* ``trace``    — run one traced job end to end (engine → scheduler → warehouse) and
  write a Chrome-trace JSON openable in ``chrome://tracing`` or Perfetto;
* ``ingest``   — load result stores, golden trajectories, ``BENCH_*.json`` records
  and telemetry snapshots into the columnar analytics warehouse under an ingest label;
* ``query``    — filter + group-by aggregation (mean/p50/p95/…) over the warehouse;
* ``report``   — cross-run comparison report, policies normalised per scenario;
* ``eval``     — regression eval: diff a candidate ingest against a baseline label with
  per-metric thresholds (exit 1 on any breach — the CI contract);
* ``list``     — enumerate any registry (policies, workloads, aggregators, scenarios, …).

Tabular commands (``compare``, ``status``, ``query``, ``report``, ``eval``) share one
``--format {table,csv,json}`` flag via
:func:`~repro.experiments.reporting.render_rows`.

Importing this module loads only what the parser needs: the scenario specs, the
registries, the table renderer and the defaults in :mod:`repro.defaults`.  Each command
handler imports the layers it runs, so no command pays for a layer it does not use.

``run``/``compare``/``sweep``/``submit`` accept ``--scenario PRESET`` to start from a
registered scenario preset (``paper-200``, ``fleet-1k``, ``diurnal-1k``,
``flaky-fleet``, ``churn-heavy``, …); any explicitly passed scenario flag overrides the
preset field.  Result stores are indexed SQLite files (default
``.repro-results/results.sqlite``).  A ``--store`` path ending in ``.jsonl`` names a
retired flat-file store: it opens the ``.sqlite`` file beside it, and a ``.jsonl`` file
sitting next to a SQLite store is migrated in automatically on first use.

Examples
--------
::

    python -m repro list policies
    python -m repro run --policy autofl --network variable --seeds 3
    python -m repro run --scenario flaky-fleet --rounds 100
    python -m repro compare --policies fedavg-random,power,performance,autofl
    python -m repro sweep --axis policy=fedavg-random,autofl --axis dropout-rate=0,0.1
    python -m repro submit --scenario fleet-1k --priority 5 --retries 1
    python -m repro submit --scenario fleet-1k --lane team-a --weight 3
    python -m repro serve --workers 4
    python -m repro serve --workers 4 --port 9100 --telemetry
    python -m repro serve --workers 4 --store .repro-shards --store-shards 4
    python -m repro status --json
    python -m repro status --by-lane
    python -m repro metrics
    python -m repro trace --output trace.json
    python -m repro watch -f
    python -m repro validate check
    python -m repro validate fuzz --budget 60 --report fuzz-report.json
    python -m repro ingest --store --goldens --label baseline
    python -m repro query --where policy=autofl --group-by preset --agg mean,p95
    python -m repro query --bench --format json
    python -m repro report --baseline-policy fedavg-random
    python -m repro eval --baseline baseline --candidate candidate --report eval.json
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from collections.abc import Sequence
from dataclasses import replace
from functools import cache
from pathlib import Path
from typing import TYPE_CHECKING

from repro import telemetry
from repro.defaults import (
    AGGREGATIONS,
    DEFAULT_DRAIN_GRACE_S,
    DEFAULT_GOLDEN_DIR,
    DEFAULT_LEASE_S,
    DEFAULT_POLL_S,
    DEFAULT_SERVICE_ROOT,
    DEFAULT_SQLITE_STORE_PATH,
    DEFAULT_WAREHOUSE_ROOT,
    GOLDEN_MAX_ROUNDS,
    SHED_POLICIES,
)
from repro.exceptions import ConfigurationError, QueueSaturated, ReproError
from repro.experiments.reporting import (
    COMPARISON_HEADERS,
    OUTPUT_FORMATS,
    format_batch_footer,
    format_experiment_results,
    format_registry,
    render_rows,
)
from repro.registry import REGISTRIES, get_registry
from repro.sim.scenarios import ScenarioSpec, get_scenario_preset
from repro.telemetry import METRICS_FILENAME
from repro.version import __version__

if TYPE_CHECKING:
    from repro.analytics.warehouse import Warehouse
    from repro.experiments.runner import BatchRunner
    from repro.experiments.spec import ExperimentSpec
    from repro.service.queue import JobQueue

#: Default sweep grid: two axes, four points — small enough to demo caching quickly.
DEFAULT_SWEEP_AXES = ("policy=fedavg-random,autofl", "setting=S1,S3")

#: The scenario used when no ``--scenario`` preset is named: the historical CLI
#: defaults (a small, fast 50-device job).  Flags override individual fields.
CLI_DEFAULT_SCENARIO = ScenarioSpec(num_devices=50, max_rounds=40)

#: CLI flag destination -> ScenarioSpec field, for preset overriding.
_SCENARIO_FLAG_FIELDS: dict[str, str] = {
    "workload": "workload",
    "setting": "setting",
    "interference": "interference",
    "network": "network",
    "data_distribution": "data_distribution",
    "devices": "num_devices",
    "rounds": "max_rounds",
    "seed": "seed",
    "aggregator": "aggregator",
    "availability": "availability",
    "churn_rate": "churn_rate",
    "rejoin_rate": "rejoin_rate",
    "dropout_rate": "dropout_rate",
    "slow_fault_rate": "slow_fault_rate",
    "slow_fault_factor": "slow_fault_factor",
}


def _add_scenario_arguments(parser: argparse.ArgumentParser, replication: bool = True) -> None:
    # Scenario flags default to None so that, under --scenario, only explicitly passed
    # flags override the preset; the effective defaults live in CLI_DEFAULT_SCENARIO.
    group = parser.add_argument_group("scenario")
    group.add_argument(
        "--scenario",
        default=None,
        metavar="PRESET",
        help="start from a registered scenario preset (see: python -m repro list scenarios)",
    )
    group.add_argument("--workload", default=None, help="FL workload name (default: cnn-mnist)")
    group.add_argument(
        "--setting", default=None, help="global-parameter setting S1-S4 (default: S3)"
    )
    group.add_argument(
        "--interference",
        default=None,
        help="interference scenario (none/moderate/heavy; default: none)",
    )
    group.add_argument(
        "--network", default=None, help="network scenario (stable/variable/weak; default: stable)"
    )
    group.add_argument(
        "--data-distribution",
        default=None,
        help="data-heterogeneity scenario (iid/non_iid_50/75/100; default: iid)",
    )
    group.add_argument("--devices", type=int, default=None, help="fleet size N (default: 50)")
    group.add_argument(
        "--rounds", type=int, default=None, help="maximum aggregation rounds (default: 40)"
    )
    group.add_argument("--seed", type=int, default=None, help="base random seed (default: 0)")
    group.add_argument(
        "--aggregator", default=None, help="aggregation algorithm (default: fedavg)"
    )
    dynamics = parser.add_argument_group("fleet dynamics")
    dynamics.add_argument(
        "--availability",
        default=None,
        help="availability process (always-on/bernoulli/markov/diurnal/trace)",
    )
    dynamics.add_argument(
        "--churn-rate", type=float, default=None, help="per-round device leave probability"
    )
    dynamics.add_argument(
        "--rejoin-rate", type=float, default=None, help="per-round device rejoin probability"
    )
    dynamics.add_argument(
        "--dropout-rate",
        type=float,
        default=None,
        help="per-round probability a participant fails before upload",
    )
    dynamics.add_argument(
        "--slow-fault-rate",
        type=float,
        default=None,
        help="per-round probability a participant slow-fails (straggler fault)",
    )
    dynamics.add_argument(
        "--slow-fault-factor",
        type=float,
        default=None,
        help="compute-time stretch of slow-failing participants (default: 4.0)",
    )
    if replication:
        group.add_argument(
            "--seeds", type=int, default=1, help="seed replicas averaged per grid point"
        )
        group.add_argument(
            "--no-early-stop",
            action="store_true",
            help="always run the full round budget instead of stopping at convergence",
        )


def _add_store_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--store",
        default=str(DEFAULT_SQLITE_STORE_PATH),
        help=(
            "SQLite result store used as the spec-hash cache (a path ending in "
            ".jsonl opens the .sqlite file beside it, migrating the .jsonl in)"
        ),
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="run every grid point fresh, without reading or writing the store",
    )


def _add_format_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format",
        default="table",
        choices=OUTPUT_FORMATS,
        help="output format (default: human-readable table)",
    )


def _add_warehouse_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--warehouse",
        default=str(DEFAULT_WAREHOUSE_ROOT),
        help="warehouse directory (columnar tables + manifest)",
    )
    parser.add_argument(
        "--backend",
        default="auto",
        choices=("auto", "parquet", "numpy"),
        help="columnar backend (auto: Parquet when pyarrow is installed, else .npz)",
    )


def _warehouse(args: argparse.Namespace) -> Warehouse:
    from repro.analytics.warehouse import Warehouse

    return Warehouse(args.warehouse, backend=getattr(args, "backend", "auto"))


def _add_service_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--root",
        default=str(DEFAULT_SERVICE_ROOT),
        help="orchestration-service directory (job queue + event log)",
    )


def _queue(args: argparse.Namespace) -> JobQueue:
    from repro.service.queue import JobQueue

    return JobQueue(Path(args.root) / "queue")


def _events_path(args: argparse.Namespace) -> Path:
    from repro.service.events import EVENTS_FILENAME

    return Path(args.root) / EVENTS_FILENAME


def _store_p95(args: argparse.Namespace) -> float | None:
    """Worst ``repro_store_op_s`` p95 from the scheduler's metrics snapshot.

    ``None`` when no snapshot (or no store series) exists — admission's store-latency
    threshold then simply does not apply, rather than blocking all submissions.
    """
    try:
        payload = telemetry.read_snapshot(Path(args.root) / METRICS_FILENAME)
    except (FileNotFoundError, ReproError):
        return None
    worst = None
    for entry in payload.get("metrics", []):
        if entry.get("name") != "repro_store_op_s" or entry.get("kind") != "histogram":
            continue
        p95 = entry.get("p95")
        if isinstance(p95, (int, float)) and not math.isnan(p95):
            worst = p95 if worst is None else max(worst, p95)
    return worst


def _iter_http_events(
    url: str,
    cursor: int = 0,
    job: str | None = None,
    events: Sequence[str] | None = None,
    follow: bool = False,
    poll_timeout: float = 30.0,
):
    """Yield events from an ``/events`` long-poll endpoint, resuming by cursor.

    ``url`` may be the server base (``http://host:port``), the endpoint itself,
    or a bare ``host:port`` (http is assumed).  Without ``follow``, stops at the
    first empty batch (the backlog is drained).
    """
    import urllib.error
    import urllib.request
    from urllib.parse import urlencode, urlsplit

    if "//" not in url:
        url = "http://" + url
    parts = urlsplit(url)
    base = url if parts.path.rstrip("/").endswith("/events") else url.rstrip("/") + "/events"
    while True:
        query: list[tuple[str, str]] = [("cursor", str(cursor))]
        if job:
            query.append(("job", job))
        for name in events or ():
            query.append(("event", name))
        query.append(("timeout", str(poll_timeout if follow else 0)))
        try:
            with urllib.request.urlopen(f"{base}?{urlencode(query)}") as response:
                body = json.loads(response.read().decode("utf-8"))
        except (urllib.error.URLError, OSError, ValueError) as exc:
            raise ReproError(f"event endpoint {base} unreachable: {exc}") from exc
        batch = body.get("events", [])
        cursor = int(body.get("cursor", cursor))
        yield from batch
        if not follow and not batch:
            return


def _resolve_scenario(args: argparse.Namespace) -> ScenarioSpec:
    base = (
        get_scenario_preset(args.scenario)
        if getattr(args, "scenario", None)
        else CLI_DEFAULT_SCENARIO
    )
    overrides = {
        spec_field: getattr(args, flag)
        for flag, spec_field in _SCENARIO_FLAG_FIELDS.items()
        if getattr(args, flag, None) is not None
    }
    return replace(base, **overrides)


def _base_spec(args: argparse.Namespace, policy: str) -> ExperimentSpec:
    from repro.experiments.spec import ExperimentSpec

    return ExperimentSpec(
        scenario=_resolve_scenario(args),
        policy=policy,
        n_seeds=getattr(args, "seeds", 1),
        stop_at_convergence=not getattr(args, "no_early_stop", False),
    ).validate()


def _make_runner(args: argparse.Namespace, executor_name: str, jobs: int | None) -> BatchRunner:
    from repro.experiments.runner import BatchRunner, get_executor
    from repro.service.store import open_store

    store = None if args.no_cache else open_store(args.store)
    return BatchRunner(executor=get_executor(executor_name, jobs), store=store)


def _cmd_run(args: argparse.Namespace) -> int:
    spec = _base_spec(args, args.policy)
    report = _make_runner(args, "serial", None).run([spec])
    print(format_experiment_results(report.results))
    print(format_batch_footer(report))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.experiments.harness import run_policy_comparison

    policies = tuple(name.strip() for name in args.policies.split(",") if name.strip())
    # Validate the line-up (with did-you-mean errors) before running anything.
    for policy in policies:
        _base_spec(args, policy)
    spec = _base_spec(args, args.baseline).scenario
    _results, rows = run_policy_comparison(
        spec, policies=policies, baseline=args.baseline, max_rounds=spec.max_rounds
    )
    print(render_rows(COMPARISON_HEADERS, [row.as_tuple() for row in rows], args.format))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.spec import Sweep, parse_axis

    base = _base_spec(args, "autofl")
    axes: dict[str, tuple[object, ...]] = {}
    for name, values in (parse_axis(text) for text in (args.axis or list(DEFAULT_SWEEP_AXES))):
        if name in axes:
            raise ConfigurationError(f"sweep axis {name!r} given twice")
        axes[name] = values
    sweep = Sweep(base, axes)
    runner = _make_runner(args, args.executor, args.jobs)
    report = runner.run(sweep)
    print(format_experiment_results(report.results))
    print(format_batch_footer(report))
    return 0


# ---------------------------------------------------------------------- service commands
def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.experiments.spec import Sweep, parse_axis
    from repro.service.events import EventLog
    from repro.service.jobs import make_job

    base = _base_spec(args, args.policy)
    if args.axis:
        axes: dict[str, tuple[object, ...]] = {}
        for name, values in (parse_axis(text) for text in args.axis):
            if name in axes:
                raise ConfigurationError(f"sweep axis {name!r} given twice")
            axes[name] = values
        experiments: ExperimentSpec | Sweep = Sweep(base, axes)
    else:
        experiments = base
    label = args.label or (args.scenario if args.scenario else base.label)
    job = make_job(
        experiments,
        label=label,
        lane=args.lane or "",
        weight=args.weight,
        priority=args.priority,
        retry_budget=args.retries,
        validate=args.validate_results,
        timeout_s=args.timeout,
    )
    if args.scenario:
        job.provenance["preset"] = args.scenario
    queue = _queue(args)
    events = EventLog(_events_path(args))
    try:
        shed = queue.admit(job, store_p95_s=_store_p95(args))
    except QueueSaturated as exc:
        events.emit("queue_saturated", job_id=job.job_id, reason=str(exc))
        raise
    if shed is not None:
        events.emit(
            "job_shed",
            job_id=shed.job_id,
            priority=shed.priority,
            shed_for=job.job_id,
        )
        print(
            f"shed {shed.job_id} (priority {shed.priority}) to admit this submission",
            file=sys.stderr,
        )
    queue.submit(job)
    events.emit(
        "job_submitted",
        job_id=job.job_id,
        specs=len(job.specs),
        priority=job.priority,
        label=job.label,
        lane=job.lane,
        weight=job.weight,
    )
    print(
        f"submitted {job.job_id}: {len(job.specs)} spec(s), priority {job.priority}, "
        f"lane {job.lane!r} (weight {job.weight}), label {job.label!r}"
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.eventbus import ServiceHttpServer
    from repro.service.events import EventLog
    from repro.service.queue import AdmissionPolicy
    from repro.service.scheduler import Scheduler
    from repro.service.store import open_store
    from repro.service.webhooks import WebhookDispatcher

    queue = _queue(args)
    # Admission flags persist into the queue root so submitters (usually other
    # processes) enforce them too; --max-depth 0 clears a persisted policy.
    if args.max_depth is not None or args.max_store_p95 is not None:
        if args.max_depth == 0:
            queue.set_admission(None)
            print("admission control cleared", file=sys.stderr)
        else:
            policy = AdmissionPolicy(
                max_depth=args.max_depth,
                shed_policy=args.shed_policy,
                max_store_p95_s=args.max_store_p95,
            )
            queue.set_admission(policy)
    # --trace-file implies telemetry; --port does not.  The switch is process-wide, so
    # flipped here it would stay on for every later caller that runs serve in-process.
    telemetry_on = telemetry.enabled() or args.telemetry or args.trace_file is not None
    if telemetry_on:
        telemetry.configure(enabled=True)
        if args.trace_file is not None:
            telemetry.configure(trace_path=args.trace_file)
    events = EventLog(_events_path(args), echo=not args.quiet)
    scheduler = Scheduler(
        queue=queue,
        store=open_store(args.store, shards=args.store_shards),
        events=events,
        lease_s=args.lease,
        poll_s=args.poll,
        metrics_path=(Path(args.root) / METRICS_FILENAME) if telemetry_on else None,
        drain_grace_s=args.drain_grace,
    )
    server = None
    dispatcher = None
    if args.port is not None:
        # Bind before any thread starts, so a taken port leaves nothing running.
        server = ServiceHttpServer(
            _events_path(args),
            telemetry.get_registry(),
            port=args.port,
            refresh=queue.export_gauges,
        )
        server.start()
        print(f"http: {server.url}")
    if not args.no_webhooks:
        # The dispatcher re-reads the registry every pass, so it also picks up
        # hooks added while this serve runs; with none registered it is an idle
        # poll, so it always starts.
        dispatcher = WebhookDispatcher(args.root, events_path=_events_path(args)).start()
    try:
        scheduler.serve(workers=args.workers, drain=args.drain)
    except KeyboardInterrupt:
        # Only reachable when no signal handler could be installed (non-main
        # thread); the normal Ctrl-C / SIGTERM path is the graceful drain below.
        print("interrupted: in-flight jobs were requeued", file=sys.stderr)
        return 130
    finally:
        if dispatcher is not None:
            dispatcher.close()  # Flushes already-logged events one last time.
        if server is not None:
            server.close()
    if scheduler.signals_seen:
        print("drained on signal: in-flight work finished or was requeued", file=sys.stderr)
    return 0


#: Column headers of the ``status`` job table (shared by every output format).
STATUS_HEADERS: tuple[str, ...] = (
    "job",
    "state",
    "prio",
    "specs",
    "hits",
    "exec",
    "try",
    "age_s",
    "label/error",
)


def _status_row(job) -> tuple[object, ...]:
    age_s = max(0.0, time.time() - job.submitted_at)
    note = job.error.splitlines()[0][:40] if job.error else job.label[:40]
    return (
        job.job_id,
        job.state.value,
        job.priority,
        len(job.specs),
        job.cache_hits,
        job.executed,
        job.attempts,
        round(age_s, 1),
        note,
    )


def _queue_gauges(queue: JobQueue) -> dict[str, float]:
    """Live queue gauges as ``name{labels}`` → value, via a private registry (the
    process-wide one stays untouched — ``status`` is read-only introspection)."""
    registry = telemetry.MetricsRegistry(enabled=True)
    queue.export_gauges(registry)
    gauges: dict[str, float] = {}
    for entry in registry.snapshot():
        labels = ",".join(f"{k}={v}" for k, v in sorted(entry["labels"].items()))
        key = f"{entry['name']}{{{labels}}}" if labels else entry["name"]
        gauges[key] = entry["value"]
    return gauges


#: Column headers of the per-lane ``status --by-lane`` table.
LANE_HEADERS: tuple[str, ...] = (
    "lane",
    "weight",
    "queued",
    "running",
    "done",
    "failed",
    "oldest_wait_s",
)


def _lane_rows(queue: JobQueue, jobs) -> list[tuple[object, ...]]:
    depths = queue.lane_depths()
    by_lane: dict[str, dict[str, int]] = {}
    weights: dict[str, int] = {}
    for job in jobs:
        lane = job.lane or "lane-unknown"
        counts = by_lane.setdefault(lane, {})
        counts[job.state.value] = counts.get(job.state.value, 0) + 1
        weights[lane] = max(weights.get(lane, 1), job.weight)
    rows: list[tuple[object, ...]] = []
    for lane in sorted(set(depths) | set(by_lane)):
        info = depths.get(lane, {})
        counts = by_lane.get(lane, {})
        rows.append(
            (
                lane,
                int(info.get("weight", weights.get(lane, 1))),
                counts.get("queued", 0),
                counts.get("running", 0),
                counts.get("done", 0),
                counts.get("failed", 0),
                round(float(info.get("oldest_wait_s", 0.0)), 1),
            )
        )
    return rows


def _cmd_status(args: argparse.Namespace) -> int:
    from repro.service.jobs import JobState
    from repro.service.store import open_store

    queue = _queue(args)
    if args.job_id:
        job = queue.get(args.job_id)
        payload = job.to_dict()
        store = open_store(args.store)
        if hasattr(store, "get_artifacts"):
            payload["artifacts"] = store.get_artifacts(job.job_id)
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0 if job.state is not JobState.FAILED else 1
    jobs = queue.jobs()
    admission = queue.admission()
    if args.json:
        print(
            json.dumps(
                {
                    "admission": admission.to_dict() if admission is not None else None,
                    "counts": queue.counts(),
                    "gauges": _queue_gauges(queue),
                    "lanes": queue.lane_depths(),
                    "jobs": [job.to_dict() for job in jobs],
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    if args.by_lane:
        print(render_rows(LANE_HEADERS, _lane_rows(queue, jobs), args.format))
        return 0
    print(render_rows(STATUS_HEADERS, [_status_row(job) for job in jobs], args.format))
    if args.format == "table":
        counts = queue.counts()
        print(
            "\n"
            + "  ".join(f"{state}: {count}" for state, count in counts.items() if count)
            + (
                f"  (total: {sum(counts.values())})"
                if any(counts.values())
                else "queue is empty"
            )
        )
        gauges = _queue_gauges(queue)
        print("gauges: " + "  ".join(f"{key}={value:g}" for key, value in gauges.items()))
        if admission is not None:
            depth = queue.depth()
            saturated = admission.max_depth is not None and depth >= admission.max_depth
            limits = []
            if admission.max_depth is not None:
                limits.append(f"max_depth={admission.max_depth} ({admission.shed_policy})")
            if admission.max_store_p95_s is not None:
                limits.append(f"max_store_p95_s={admission.max_store_p95_s:g}")
            print(
                "admission: "
                + "  ".join(limits)
                + ("  ** SATURATED **" if saturated else f"  depth={depth}")
            )
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    from repro.service.events import format_event, tail_events

    try:
        if args.http:
            for payload in _iter_http_events(
                args.http, cursor=args.cursor, job=args.job, follow=args.follow
            ):
                print(format_event(payload))
            return 0
        path = _events_path(args)
        if not path.exists() and not args.follow:
            print(f"no events yet at {path}")
            return 0
        for payload in tail_events(path, follow=args.follow):
            if args.job and payload.get("job_id") != args.job:
                continue
            print(format_event(payload))
    except KeyboardInterrupt:
        # Ctrl-C is the normal way to leave a follow: exit cleanly, not with a
        # traceback or an error status.
        print("", flush=True)
        return 0
    return 0


def _cmd_events_sub(args: argparse.Namespace) -> int:
    """``repro events sub``: one JSON line per event, resumable by ``--cursor``."""
    from repro.service.events import event_matches, tail_events

    emitted = 0
    try:
        if args.http:
            source = _iter_http_events(
                args.http,
                cursor=args.cursor,
                job=args.job,
                events=args.event,
                follow=args.follow,
            )
        else:
            source = (
                payload
                for payload in tail_events(
                    _events_path(args), follow=args.follow, since_cursor=args.cursor
                )
                if event_matches(payload, job=args.job, events=args.event)
            )
        for payload in source:
            print(json.dumps(payload, sort_keys=True), flush=True)
            emitted += 1
            if args.limit is not None and emitted >= args.limit:
                return 0
    except KeyboardInterrupt:
        print("", flush=True)
    return 0


def _cmd_webhooks(args: argparse.Namespace) -> int:
    from repro.service.events import EventLog
    from repro.service.webhooks import WebhookRegistry, deliver_once

    registry = WebhookRegistry(args.root)
    if args.webhooks_action == "add":
        hook = registry.add(
            args.url,
            events=args.event,
            secret=args.secret,
            events_path=_events_path(args),
        )
        EventLog(_events_path(args)).emit(
            "webhook_added", hook=hook.hook_id, url=hook.url
        )
        print(f"registered {hook.hook_id} -> {hook.url}")
        print(f"secret: {hook.secret}")
        if hook.events:
            print(f"events: {','.join(hook.events)}")
        return 0
    if args.webhooks_action == "list":
        hooks = registry.load()
        if not hooks:
            print("no webhooks registered")
            return 0
        for hook in hooks:
            events = ",".join(hook.events) if hook.events else "*"
            print(
                f"{hook.hook_id}  {hook.url}  events={events}  "
                f"cursor={registry.cursor_of(hook)}"
            )
        return 0
    if args.webhooks_action == "rm":
        removed = registry.remove(args.hook_id)
        EventLog(_events_path(args)).emit(
            "webhook_removed", hook=removed.hook_id, url=removed.url
        )
        print(f"removed {removed.hook_id} ({removed.url})")
        return 0
    # test: one synthetic signed delivery, bypassing the dispatcher.
    hook = registry.get(args.hook_id)
    payload = {
        "event": "webhook_test",
        "ts": time.time(),
        "hook": hook.hook_id,
    }
    status = deliver_once(hook, payload)
    print(f"delivered test event to {hook.url}: HTTP {status}")
    return 0


def _cmd_cancel(args: argparse.Namespace) -> int:
    from repro.service.events import EventLog
    from repro.service.jobs import JobState

    job = _queue(args).cancel(args.job_id)
    EventLog(_events_path(args)).emit("cancel_requested", job_id=args.job_id)
    if job.state is JobState.CANCELLED:
        print(f"cancelled {job.job_id}")
    else:
        print(f"cancel requested for running job {job.job_id} (honoured between grid points)")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro.service.queue import JobQueue

    registry = telemetry.MetricsRegistry(enabled=True)
    path = Path(args.file) if args.file else Path(args.root) / METRICS_FILENAME
    snapshot_ts = None
    try:
        payload = telemetry.read_snapshot(path)
    except FileNotFoundError:
        payload = None
    if payload is not None:
        registry.merge(payload["metrics"])
        snapshot_ts = payload.get("ts")
    # Queue gauges are computed live from the queue directory, so they are fresh
    # even when the snapshot is stale (or missing entirely).
    queue_dir = Path(args.root) / "queue"
    if queue_dir.exists():
        JobQueue(queue_dir).export_gauges(registry)
    elif payload is None:
        print(
            f"no metrics yet: no snapshot at {path} and no queue under {args.root} "
            "(run `repro serve --telemetry` or `repro trace` first)",
            file=sys.stderr,
        )
        return 1
    if args.prometheus:
        sys.stdout.write(telemetry.render_prometheus(registry))
        return 0
    entries = registry.snapshot()
    print(
        render_rows(
            telemetry.METRICS_HEADERS, telemetry.metrics_table_rows(entries), args.format
        )
    )
    if args.format == "table" and snapshot_ts is not None:
        age_s = max(0.0, time.time() - snapshot_ts)
        print(f"\n{len(entries)} series; snapshot {path} written {age_s:.1f}s ago")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.spans:
        spans = telemetry.load_spans(args.spans)
        if not spans:
            raise ReproError(f"no spans found in {args.spans}")
    else:
        spans = _run_traced_job(args)
    telemetry.write_chrome_trace(spans, args.output)
    layers = sorted({span.category for span in spans})
    print(f"traced {len(spans)} span(s) across {len(layers)} layer(s): {', '.join(layers)}")
    print(f"wrote {args.output} (open in chrome://tracing or https://ui.perfetto.dev)")
    return 0


def _run_traced_job(args: argparse.Namespace) -> list:
    """Run one job through every layer — engine, scheduler, warehouse — with the span
    sink attached, inside a throwaway service root; returns the collected spans."""
    import tempfile

    from repro.analytics.query import run_query
    from repro.analytics.warehouse import Warehouse
    from repro.experiments.spec import ExperimentSpec
    from repro.service.events import EVENTS_FILENAME, EventLog
    from repro.service.jobs import JobState, make_job
    from repro.service.queue import JobQueue
    from repro.service.scheduler import Scheduler
    from repro.service.store import open_store

    base = (
        get_scenario_preset(args.scenario)
        if args.scenario
        else ScenarioSpec(num_devices=50, max_rounds=8)
    )
    overrides: dict[str, object] = {}
    if args.devices is not None:
        overrides["num_devices"] = args.devices
    if args.rounds is not None:
        overrides["max_rounds"] = args.rounds
    spec = ExperimentSpec(scenario=replace(base, **overrides), policy=args.policy).validate()
    was_enabled = telemetry.enabled()
    old_sink = telemetry.get_tracer().sink_path
    with tempfile.TemporaryDirectory(prefix="repro-trace-") as tmp:
        root = Path(tmp)
        sink = root / "spans.jsonl"
        telemetry.configure(enabled=True, trace_path=sink)
        try:
            queue = JobQueue(root / "queue")
            job = make_job(spec, label="trace")
            queue.submit(job)
            scheduler = Scheduler(
                queue=queue,
                store=open_store(str(root / "results.sqlite")),
                events=EventLog(root / EVENTS_FILENAME, echo=False),
                metrics_path=root / METRICS_FILENAME,
            )
            scheduler.serve(workers=1, drain=True)
            finished = queue.get(job.job_id)
            if finished.state is not JobState.DONE:
                raise ReproError(
                    f"traced job finished {finished.state.value}: "
                    f"{finished.error or 'unknown error'}"
                )
            warehouse = Warehouse(root / "warehouse")
            warehouse.ingest_store(str(root / "results.sqlite"), label="trace")
            warehouse.ingest_metrics(root / METRICS_FILENAME, label="trace")
            run_query(warehouse, table="runs")
            return telemetry.load_spans(sink)
        finally:
            telemetry.configure(enabled=was_enabled, trace_path=old_sink)


def _parse_goldens(raw: str | None) -> tuple[str, ...]:
    from repro.validation.golden import GOLDENS

    if raw is None:
        return tuple(GOLDENS)
    names = tuple(name.strip() for name in raw.split(",") if name.strip())
    if not names:
        raise ConfigurationError(f"no golden names in {raw!r}")
    # Resolve each name (a golden, else a preset) before any recording/checking runs.
    for name in names:
        if name not in GOLDENS:
            get_scenario_preset(name)
    return names


def _cmd_validate_record(args: argparse.Namespace) -> int:
    from repro.validation.golden import GoldenStore, golden_spec

    store = GoldenStore(args.dir)
    for name in _parse_goldens(args.presets):
        golden = store.record(name, golden_spec(name, max_rounds=args.rounds))
        print(
            f"recorded golden {name!r}: {golden.num_rounds} rounds, "
            f"spec {golden.spec_hash[:12]} -> {store.path_for(name)}"
        )
    return 0


def _cmd_validate_check(args: argparse.Namespace) -> int:
    from repro.validation.golden import GoldenStore

    store = GoldenStore(args.dir)
    reports = [store.check(name) for name in _parse_goldens(args.presets)]
    for report in reports:
        print(report.format())
    if args.report:
        payload = {"kind": "golden-drift-report", "goldens": [r.to_dict() for r in reports]}
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"\nwrote {args.report}")
    return 0 if all(report.ok for report in reports) else 1


def _cmd_validate_fuzz(args: argparse.Namespace) -> int:
    from repro.validation.fuzzer import run_fuzz

    report = run_fuzz(count=args.count, budget_s=args.budget, seed=args.seed)
    print(report.format())
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
        print(f"\nwrote {args.report}")
    return 0 if report.ok else 1


def _cmd_list(args: argparse.Namespace) -> int:
    axes = [args.axis] if args.axis else list(REGISTRIES)
    blocks = [format_registry(axis, get_registry(axis)) for axis in axes]
    print("\n\n".join(blocks))
    return 0


# ---------------------------------------------------------------------- analytics commands
def _cmd_ingest(args: argparse.Namespace) -> int:
    warehouse = _warehouse(args)
    ingested = 0
    if args.store is not None:
        rows = warehouse.ingest_store(args.store, label=args.label)
        print(f"ingested {rows} run row(s) from store {args.store}")
        ingested += 1
    if args.goldens is not None:
        rows = warehouse.ingest_goldens(args.goldens or None, label=args.label)
        print(f"ingested {rows} row(s) from goldens in {args.goldens or 'goldens/'}")
        ingested += 1
    if args.bench is not None:
        rows = warehouse.ingest_bench_files(args.bench)
        print(f"ingested {rows} bench measurement(s) from {args.bench}")
        ingested += 1
    if args.metrics is not None:
        rows = warehouse.ingest_metrics(args.metrics, label=args.label)
        print(f"ingested {rows} metric row(s) from snapshot {args.metrics}")
        ingested += 1
    if not ingested:
        raise ConfigurationError(
            "nothing to ingest: pass --store [PATH], --goldens [DIR], --bench [PATH] "
            "and/or --metrics [PATH]"
        )
    receipt = warehouse.describe()
    tables = "  ".join(f"{name}: {rows}" for name, rows in receipt["tables"].items())
    labels = ", ".join(receipt["labels"]) or "none"
    print(f"\nwarehouse {receipt['root']} ({receipt['backend']})  {tables}")
    print(f"labels: {labels}")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.analytics.query import parse_where, run_query

    table = "bench" if args.bench else args.table
    result = run_query(
        _warehouse(args),
        table=table,
        where=parse_where(args.where or ()),
        group_by=(
            tuple(name.strip().replace("-", "_") for name in args.group_by.split(",") if name.strip())
            if args.group_by is not None
            else None
        ),
        metrics=(
            tuple(name.strip().replace("-", "_") for name in args.metrics.split(",") if name.strip())
            if args.metrics is not None
            else None
        ),
        aggs=tuple(name.strip() for name in args.agg.split(",") if name.strip()),
    )
    print(render_rows(result.headers, result.rows, args.format))
    if args.format == "table":
        print(
            f"\n{len(result.rows)} group(s) over {result.matched_rows} of "
            f"{result.total_rows} {table} row(s)"
        )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analytics.evals import build_comparison_report
    from repro.analytics.query import parse_where

    headers, rows = build_comparison_report(
        _warehouse(args),
        where=parse_where(args.where or ()),
        baseline_policy=args.baseline_policy,
    )
    print(render_rows(headers, rows, args.format))
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    from repro.analytics.evals import EVAL_HEADERS, parse_threshold, run_regression_eval

    suite = (
        tuple(name.strip() for name in args.suite.split(",") if name.strip())
        if args.suite
        else None
    )
    thresholds = (
        tuple(parse_threshold(text) for text in args.threshold) if args.threshold else None
    )
    report = run_regression_eval(
        _warehouse(args),
        baseline=args.baseline,
        candidate=args.candidate,
        suite=suite,
        thresholds=thresholds,
    )
    if args.format == "table":
        print(report.format())
    else:
        print(render_rows(EVAL_HEADERS, [c.as_row() for c in report.comparisons], args.format))
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
        print(f"\nwrote {args.report}")
    return 0 if report.ok else 1


@cache
def build_parser() -> argparse.ArgumentParser:
    """Return the top-level argument parser, built once per process and shared.

    Every call returns the same parser, so :func:`main` builds the tree only on its
    first call and later calls in the same process only parse.  Callers parse with it
    and must not add arguments to it or change it.  Sharing is safe because the parser
    is pure data: its defaults and choices are constants, ``append`` options default
    to ``None``, and each handler imports the layers it runs when it runs.
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description="AutoFL reproduction: declarative FL experiments from the command line.",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser(
        "run", help="run one experiment spec and print its averaged metrics"
    )
    run_parser.add_argument("--policy", default="autofl", help="selection policy to run")
    _add_scenario_arguments(run_parser)
    _add_store_arguments(run_parser)
    run_parser.set_defaults(func=_cmd_run)

    compare_parser = subparsers.add_parser(
        "compare", help="compare several policies on one scenario (normalised table)"
    )
    compare_parser.add_argument(
        "--policies",
        default="fedavg-random,power,performance,autofl",
        help="comma-separated policy line-up",
    )
    compare_parser.add_argument(
        "--baseline", default="fedavg-random", help="policy the rows are normalised to"
    )
    # No --seeds/--no-early-stop: the comparison driver is single-seed, early-stopping.
    _add_scenario_arguments(compare_parser, replication=False)
    _add_format_argument(compare_parser)
    compare_parser.set_defaults(func=_cmd_compare)

    sweep_parser = subparsers.add_parser(
        "sweep", help="run a cartesian grid over any axes, with spec-hash caching"
    )
    sweep_parser.add_argument(
        "--axis",
        action="append",
        metavar="NAME=V1,V2,…",
        help=(
            "sweep axis (repeatable); any scenario or experiment field, e.g. "
            "policy=fedavg-random,autofl or setting=S1,S2,S3,S4. "
            f"Default grid: {' '.join(DEFAULT_SWEEP_AXES)}"
        ),
    )
    sweep_parser.add_argument(
        "--executor",
        default="process",
        choices=("serial", "process"),
        help="how cache misses are executed (default: one worker process per core)",
    )
    sweep_parser.add_argument(
        "--jobs", type=int, default=None, help="worker processes for --executor process"
    )
    _add_scenario_arguments(sweep_parser)
    _add_store_arguments(sweep_parser)
    sweep_parser.set_defaults(func=_cmd_sweep)

    submit_parser = subparsers.add_parser(
        "submit", help="enqueue a spec, preset or sweep as a durable job for the service"
    )
    submit_parser.add_argument("--policy", default="autofl", help="selection policy to run")
    submit_parser.add_argument(
        "--axis",
        action="append",
        metavar="NAME=V1,V2,…",
        help="sweep axis (repeatable); submits the expanded grid as one job",
    )
    submit_parser.add_argument(
        "--priority", type=int, default=0, help="queue priority (higher first; default 0)"
    )
    submit_parser.add_argument(
        "--retries", type=int, default=0, help="retry budget after failures (default 0)"
    )
    submit_parser.add_argument(
        "--timeout", type=float, default=None, help="per-job wall-clock timeout in seconds"
    )
    submit_parser.add_argument(
        "--validate",
        dest="validate_results",
        action="store_true",
        help="audit every executed round against the simulator invariants",
    )
    submit_parser.add_argument("--label", default=None, help="human-readable job label")
    submit_parser.add_argument(
        "--lane",
        default=None,
        metavar="NAME",
        help=(
            "fair-scheduling lane for this job (defaults to a hash of the "
            "submitting user@host, so each submitter gets their own lane)"
        ),
    )
    submit_parser.add_argument(
        "--weight",
        type=int,
        default=1,
        help="relative claim share of the job's lane under contention (default 1)",
    )
    _add_scenario_arguments(submit_parser)
    _add_service_arguments(submit_parser)
    submit_parser.set_defaults(func=_cmd_submit)

    serve_parser = subparsers.add_parser(
        "serve", help="run a scheduler worker pool against the shared queue and store"
    )
    serve_parser.add_argument(
        "--workers", type=int, default=2, help="worker threads in this serve process"
    )
    serve_parser.add_argument(
        "--drain",
        action="store_true",
        help="exit once the queue is empty instead of serving forever",
    )
    serve_parser.add_argument(
        "--poll", type=float, default=DEFAULT_POLL_S, help="idle poll interval in seconds"
    )
    serve_parser.add_argument(
        "--lease",
        type=float,
        default=DEFAULT_LEASE_S,
        help="claim lease duration in seconds (crashed workers release after this)",
    )
    serve_parser.add_argument(
        "--quiet", action="store_true", help="do not echo events to stdout"
    )
    serve_parser.add_argument(
        "--port",
        "--events-port",
        dest="port",
        type=int,
        default=None,
        metavar="PORT",
        help=(
            "serve HTTP on this port: /metrics (with --telemetry), /healthz, the "
            "/events long-poll and /events/stream SSE (0 binds an ephemeral port)"
        ),
    )
    serve_parser.add_argument(
        "--telemetry",
        action="store_true",
        help=(
            "record metrics and spans while serving; the scheduler drops a "
            f"{METRICS_FILENAME} snapshot into the service root after every job"
        ),
    )
    serve_parser.add_argument(
        "--trace-file",
        default=None,
        metavar="JSONL",
        help=(
            "append finished spans to this JSONL file (implies --telemetry; "
            "convert with: repro trace --spans JSONL)"
        ),
    )
    serve_parser.add_argument(
        "--store",
        default=str(DEFAULT_SQLITE_STORE_PATH),
        help="result store shared by the worker pool",
    )
    serve_parser.add_argument(
        "--store-shards",
        type=int,
        default=None,
        metavar="N",
        help=(
            "open --store as a directory of N SQLite shards so many serve hosts "
            "can share it (the shard count is pinned on first use)"
        ),
    )
    serve_parser.add_argument(
        "--drain-grace",
        type=float,
        default=DEFAULT_DRAIN_GRACE_S,
        metavar="SECONDS",
        help=(
            "on SIGTERM/SIGINT, let each in-flight grid point run this long before "
            f"it is requeued without spending a retry (default {DEFAULT_DRAIN_GRACE_S:g})"
        ),
    )
    serve_parser.add_argument(
        "--max-depth",
        type=int,
        default=None,
        metavar="N",
        help=(
            "admission control: refuse submissions once N jobs are queued "
            "(persisted in the queue root so submitters enforce it; 0 clears)"
        ),
    )
    serve_parser.add_argument(
        "--shed-policy",
        default="reject",
        choices=SHED_POLICIES,
        help=(
            "what a saturated queue does with a new submission: refuse it, or shed "
            "a lower-priority queued job to make room (default: reject)"
        ),
    )
    serve_parser.add_argument(
        "--max-store-p95",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "admission control: also refuse submissions while the store's p95 "
            "operation latency (from the metrics snapshot) exceeds this"
        ),
    )
    serve_parser.add_argument(
        "--no-webhooks",
        action="store_true",
        help="do not run the webhook dispatcher in this serve process",
    )
    _add_service_arguments(serve_parser)
    serve_parser.set_defaults(func=_cmd_serve)

    status_parser = subparsers.add_parser(
        "status", help="job table (or one job's detail) from the queue directory"
    )
    status_parser.add_argument(
        "job_id", nargs="?", default=None, help="show one job in full (JSON, with artifacts)"
    )
    status_parser.add_argument(
        "--json",
        action="store_true",
        help="full machine-readable dump (counts + complete job payloads)",
    )
    status_parser.add_argument(
        "--by-lane",
        action="store_true",
        help="per-lane summary (weight, depth, state counts, oldest queued wait)",
    )
    status_parser.add_argument(
        "--store",
        default=str(DEFAULT_SQLITE_STORE_PATH),
        help="store queried for job artifacts in single-job mode",
    )
    _add_service_arguments(status_parser)
    _add_format_argument(status_parser)
    status_parser.set_defaults(func=_cmd_status)

    watch_parser = subparsers.add_parser(
        "watch", help="print the service event stream (like tail on the event log)"
    )
    watch_parser.add_argument(
        "-f", "--follow", action="store_true", help="keep following the log as it grows"
    )
    watch_parser.add_argument("--job", default=None, help="only events of this job id")
    watch_parser.add_argument(
        "--http",
        default=None,
        metavar="URL",
        help=(
            "consume the /events long-poll of a serve --port server instead of the "
            "local file (e.g. http://127.0.0.1:9200)"
        ),
    )
    watch_parser.add_argument(
        "--cursor",
        type=int,
        default=0,
        metavar="N",
        help="resume after this durable cursor in --http mode (default 0: from the top)",
    )
    _add_service_arguments(watch_parser)
    watch_parser.set_defaults(func=_cmd_watch)

    events_parser = subparsers.add_parser(
        "events", help="subscribe to the event plane (durable cursors, JSON lines)"
    )
    events_sub = events_parser.add_subparsers(dest="events_action", required=True)
    sub_parser = events_sub.add_parser(
        "sub",
        help=(
            "print matching events as JSON lines, each carrying its durable "
            "cursor; resume any time with --cursor"
        ),
    )
    sub_parser.add_argument(
        "--cursor",
        type=int,
        default=0,
        metavar="N",
        help="start after this durable cursor (default 0: replay everything)",
    )
    sub_parser.add_argument("--job", default=None, help="only events of this job id")
    sub_parser.add_argument(
        "--event",
        action="append",
        default=None,
        metavar="TYPE",
        help="only events of this type (repeatable, e.g. --event job_done)",
    )
    sub_parser.add_argument(
        "--http",
        default=None,
        metavar="URL",
        help="consume the /events long-poll of a serve --port server instead of the local file",
    )
    sub_parser.add_argument(
        "-f", "--follow", action="store_true", help="keep waiting for new events"
    )
    sub_parser.add_argument(
        "--limit", type=int, default=None, metavar="N", help="stop after N events"
    )
    _add_service_arguments(sub_parser)
    sub_parser.set_defaults(func=_cmd_events_sub)

    webhooks_parser = subparsers.add_parser(
        "webhooks", help="manage signed HTTP event callbacks for this service root"
    )
    webhooks_sub = webhooks_parser.add_subparsers(dest="webhooks_action", required=True)
    wh_add = webhooks_sub.add_parser(
        "add", help="register a callback URL (prints its signing secret once)"
    )
    wh_add.add_argument("url", help="http(s) endpoint events are POSTed to")
    wh_add.add_argument(
        "--event",
        action="append",
        default=None,
        metavar="TYPE",
        help="only deliver events of this type (repeatable; default: all)",
    )
    wh_add.add_argument(
        "--secret",
        default=None,
        help="HMAC-SHA256 signing secret (default: generated and printed)",
    )
    _add_service_arguments(wh_add)
    wh_add.set_defaults(func=_cmd_webhooks)
    wh_list = webhooks_sub.add_parser("list", help="list registered webhooks")
    _add_service_arguments(wh_list)
    wh_list.set_defaults(func=_cmd_webhooks)
    wh_rm = webhooks_sub.add_parser("rm", help="remove a webhook by id")
    wh_rm.add_argument("hook_id", help="webhook id (see: repro webhooks list)")
    _add_service_arguments(wh_rm)
    wh_rm.set_defaults(func=_cmd_webhooks)
    wh_test = webhooks_sub.add_parser(
        "test", help="send one signed webhook_test delivery to a hook now"
    )
    wh_test.add_argument("hook_id", help="webhook id (see: repro webhooks list)")
    _add_service_arguments(wh_test)
    wh_test.set_defaults(func=_cmd_webhooks)

    cancel_parser = subparsers.add_parser(
        "cancel", help="cancel a queued job now, or a running job between grid points"
    )
    cancel_parser.add_argument("job_id", help="job id to cancel (see: python -m repro status)")
    _add_service_arguments(cancel_parser)
    cancel_parser.set_defaults(func=_cmd_cancel)

    metrics_parser = subparsers.add_parser(
        "metrics",
        help="dump the telemetry snapshot plus live queue gauges",
    )
    metrics_parser.add_argument(
        "--file",
        default=None,
        metavar="PATH",
        help=f"snapshot file to read (default: <root>/{METRICS_FILENAME})",
    )
    metrics_parser.add_argument(
        "--prometheus",
        action="store_true",
        help="print the Prometheus text exposition instead of a table",
    )
    _add_service_arguments(metrics_parser)
    _add_format_argument(metrics_parser)
    metrics_parser.set_defaults(func=_cmd_metrics)

    trace_parser = subparsers.add_parser(
        "trace",
        help="run one traced job end to end and write a Chrome-trace JSON",
    )
    trace_parser.add_argument(
        "--output",
        default="trace.json",
        help="Chrome-trace file to write (default: trace.json)",
    )
    trace_parser.add_argument(
        "--spans",
        default=None,
        metavar="JSONL",
        help=(
            "convert an existing span sink (e.g. from serve --trace-file) "
            "instead of running a fresh traced job"
        ),
    )
    trace_parser.add_argument(
        "--scenario",
        default=None,
        metavar="PRESET",
        help="scenario preset the traced job runs (default: a fast 50-device job)",
    )
    trace_parser.add_argument(
        "--policy", default="autofl", help="selection policy of the traced job"
    )
    trace_parser.add_argument(
        "--devices", type=int, default=None, help="fleet size of the traced job"
    )
    trace_parser.add_argument(
        "--rounds", type=int, default=None, help="rounds of the traced job (default: 8)"
    )
    trace_parser.set_defaults(func=_cmd_trace)

    validate_parser = subparsers.add_parser(
        "validate",
        help="golden-trajectory regression and invariant validation",
    )
    validate_sub = validate_parser.add_subparsers(dest="mode", required=True)

    record_parser = validate_sub.add_parser(
        "record", help="record golden trajectories (every committed golden by default)"
    )
    record_parser.add_argument(
        "--presets",
        default=None,
        help="comma-separated golden names or scenario presets (default: every golden)",
    )
    record_parser.add_argument(
        "--dir", default=str(DEFAULT_GOLDEN_DIR), help="golden store directory"
    )
    record_parser.add_argument(
        "--rounds",
        type=int,
        default=None,
        help=f"rounds per golden (default: its own; {GOLDEN_MAX_ROUNDS} for a preset)",
    )
    record_parser.set_defaults(func=_cmd_validate_record)

    check_parser = validate_sub.add_parser(
        "check",
        help="re-run recorded goldens and fail (exit 1) on any bit-level drift",
    )
    check_parser.add_argument(
        "--presets",
        default=None,
        help="comma-separated golden names (default: every committed golden)",
    )
    check_parser.add_argument(
        "--dir", default=str(DEFAULT_GOLDEN_DIR), help="golden store directory"
    )
    check_parser.add_argument(
        "--report", default=None, help="write the drift report to this JSON file"
    )
    check_parser.set_defaults(func=_cmd_validate_check)

    fuzz_parser = validate_sub.add_parser(
        "fuzz",
        help="run invariant-audited randomised scenarios (exit 1 on any violation)",
    )
    fuzz_parser.add_argument(
        "--count", type=int, default=None, help="number of scenarios to fuzz"
    )
    fuzz_parser.add_argument(
        "--budget", type=float, default=None, help="time budget in seconds"
    )
    fuzz_parser.add_argument("--seed", type=int, default=0, help="master fuzz seed")
    fuzz_parser.add_argument(
        "--report", default=None, help="write the fuzz report to this JSON file"
    )
    fuzz_parser.set_defaults(func=_cmd_validate_fuzz)

    ingest_parser = subparsers.add_parser(
        "ingest", help="load results, goldens and bench records into the warehouse"
    )
    ingest_parser.add_argument(
        "--store",
        nargs="?",
        const=str(DEFAULT_SQLITE_STORE_PATH),
        default=None,
        metavar="PATH",
        help=(
            "ingest a result store (SQLite, a shard directory, or a .jsonl file to "
            f"migrate; default path: {DEFAULT_SQLITE_STORE_PATH})"
        ),
    )
    ingest_parser.add_argument(
        "--goldens",
        nargs="?",
        const="",
        default=None,
        metavar="DIR",
        help=(
            "ingest recorded golden trajectories "
            f"(default directory: {DEFAULT_GOLDEN_DIR})"
        ),
    )
    ingest_parser.add_argument(
        "--bench",
        nargs="?",
        const=".",
        default=None,
        metavar="PATH",
        help="ingest BENCH_*.json records (a directory to glob, or one file)",
    )
    ingest_parser.add_argument(
        "--metrics",
        nargs="?",
        const=str(Path(DEFAULT_SERVICE_ROOT) / METRICS_FILENAME),
        default=None,
        metavar="PATH",
        help=(
            "ingest a telemetry metrics snapshot into the metrics table "
            f"(default path: {Path(DEFAULT_SERVICE_ROOT) / METRICS_FILENAME})"
        ),
    )
    ingest_parser.add_argument(
        "--label",
        default="default",
        help="ingest label the rows are tagged with (evals diff two labels)",
    )
    _add_warehouse_arguments(ingest_parser)
    ingest_parser.set_defaults(func=_cmd_ingest)

    query_parser = subparsers.add_parser(
        "query", help="filter + group-by aggregation over the ingested warehouse"
    )
    query_parser.add_argument(
        "--table",
        default="runs",
        choices=("rounds", "runs", "bench", "metrics"),
        help="warehouse table to query (default: per-seed run summaries)",
    )
    query_parser.add_argument(
        "--bench",
        action="store_true",
        help="shorthand for --table bench (rounds/s trajectories across commits)",
    )
    query_parser.add_argument(
        "--where",
        action="append",
        metavar="COL=V1,V2,…",
        help="equality filter (repeatable; AND across flags, OR within one list)",
    )
    query_parser.add_argument(
        "--group-by",
        default=None,
        metavar="COL1,COL2,…",
        help="grouping columns (default per table, e.g. label,preset,policy)",
    )
    query_parser.add_argument(
        "--metrics",
        default=None,
        metavar="COL1,COL2,…",
        help="numeric columns to aggregate (default per table)",
    )
    query_parser.add_argument(
        "--agg",
        default="mean",
        metavar="AGG1,AGG2,…",
        help=f"aggregations per metric: any of {', '.join(AGGREGATIONS)}",
    )
    _add_warehouse_arguments(query_parser)
    _add_format_argument(query_parser)
    query_parser.set_defaults(func=_cmd_query)

    report_parser = subparsers.add_parser(
        "report",
        help="cross-run comparison report (policies normalised per scenario)",
    )
    report_parser.add_argument(
        "--where",
        action="append",
        metavar="COL=V1,V2,…",
        help="equality filter over the runs table (repeatable)",
    )
    report_parser.add_argument(
        "--baseline-policy",
        default="fedavg-random",
        help="policy each scenario's energy/time columns are normalised to",
    )
    _add_warehouse_arguments(report_parser)
    _add_format_argument(report_parser)
    report_parser.set_defaults(func=_cmd_report)

    eval_parser = subparsers.add_parser(
        "eval",
        help="regression eval: diff a candidate ingest against a baseline label",
    )
    eval_parser.add_argument(
        "--baseline",
        required=True,
        help="ingest label of the known-good result set",
    )
    eval_parser.add_argument(
        "--candidate",
        default="default",
        help="ingest label being scored (default: the default ingest label)",
    )
    eval_parser.add_argument(
        "--suite",
        default=None,
        metavar="NAME1,NAME2,…",
        help=(
            "restrict the eval to these scenarios (preset names or "
            "workload/setting/N<devices>); default: every baseline scenario"
        ),
    )
    eval_parser.add_argument(
        "--threshold",
        action="append",
        metavar="METRIC=PCT",
        help=(
            "allowed regression per metric, in percent (repeatable); a leading + "
            "marks higher-is-better, e.g. final_accuracy=+1 global_energy_j=5"
        ),
    )
    eval_parser.add_argument(
        "--report", default=None, help="write the full eval report to this JSON file"
    )
    _add_warehouse_arguments(eval_parser)
    _add_format_argument(eval_parser)
    eval_parser.set_defaults(func=_cmd_eval)

    list_parser = subparsers.add_parser(
        "list", help="list a registry (policies, workloads, aggregators, …)"
    )
    list_parser.add_argument(
        "axis",
        nargs="?",
        default=None,
        help=f"registry to list ({', '.join(REGISTRIES)}); default: all",
    )
    list_parser.set_defaults(func=_cmd_list)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except QueueSaturated as exc:
        # Distinct exit code so submitters can tell "back off and retry" (3) from
        # plain usage errors (2).
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream consumer (e.g. ``repro metrics | head``) closed the pipe;
        # detach stdout so the interpreter's shutdown flush doesn't re-raise.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
