"""Service workloads: the ``submit → queue → claim → spawn → simulate → flush → event``
path, driven through ``repro.cli.main`` in-process.

One pass submits a batch of single-spec jobs one ``submit`` call at a time, then drains
them with ``serve --drain --workers 2 --quiet --events-port P`` while one long-poll
client follows ``/events``.  The fresh workload gives every job a new seed, so each is a
store miss that runs in a child process; the cached workload resubmits the same specs,
so each is a store hit.  One op is one job.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import socket
import threading
import time
import urllib.error
import urllib.request
from dataclasses import asdict
from pathlib import Path

from repro.cli import main as cli_main
from repro.service.events import EVENTS_FILENAME, EventIndex, EventLog, read_events_since
from repro.service.jobs import JobState
from repro.service.queue import JobQueue
from repro.service.store import ArtifactStore

from tracing import ATTRS, END, NAME, START, THREAD, phase_ratios

#: Distinct specs per pass (one ``serve --drain`` per pass).
BATCH = 16

#: How often each stored spec is resubmitted in one pass of the cached workload, so a
#: pass is long enough for its throughput to be read as one steady sample.
RESUBMITS = 4

#: Jobs in the warm-up pass of the fresh workload.
WARMUP_JOBS = 2

#: Aggregation rounds per job (no early stop, so every job does the same work).
JOB_ROUNDS = 10

#: Events that end a job's life in the scheduler.
TERMINAL_EVENTS = frozenset({"job_done", "job_failed", "job_cancelled"})


def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _quiet_cli(argv: list[str]) -> tuple[int, str]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli_main(argv)
    return code, buffer.getvalue()


class LongPollClient(threading.Thread):
    """Follows ``GET /events`` and stamps when each ``job_done`` event arrives."""

    def __init__(self, port: int, cursor: int, expected: set[str]) -> None:
        super().__init__(name="perfbench-long-poll", daemon=True)
        self.url = f"http://127.0.0.1:{port}/events"
        self.cursor = cursor
        self.expected = expected
        #: job id -> (event ``ts``, receipt time), both wall clock.
        self.received: dict[str, tuple[float, float]] = {}
        self.stop = threading.Event()
        # The event plane is on localhost: never route it through a configured proxy.
        self._opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))

    def run(self) -> None:
        while not self.expected <= self.received.keys():
            query = f"{self.url}?cursor={self.cursor}&event=job_done&timeout=1"
            try:
                with self._opener.open(query, timeout=5) as response:
                    body = json.loads(response.read().decode("utf-8"))
            except (urllib.error.URLError, OSError, ValueError):
                if self.stop.is_set():
                    return  # The pass is over and the server is gone.
                time.sleep(0.005)  # Server not listening yet.
                continue
            now = time.time()
            for event in body.get("events", []):
                self.received[event["job_id"]] = (event["ts"], now)
            self.cursor = int(body.get("cursor", self.cursor))


class ServiceWorkload:
    """A closed batch through the CLI; ``cached`` resubmits already-stored specs."""

    op_name = "job"

    def __init__(self, name: str, cached: bool) -> None:
        self.name = name
        self.cached = cached

    # ------------------------------------------------------------------ running
    def build(self, seed: int, root: Path, corrupt: bool) -> None:
        self.seed = seed
        self.corrupt = corrupt
        self.work = root / ".perfbench-work" / f"{self.name}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.service_root = self.work / "service"
        self.store_path = self.work / "results.sqlite"
        self.events_path = self.service_root / EVENTS_FILENAME
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.checks: dict[str, int] = {}
        self.jobs: list = []
        self.deliveries: list[float] = []
        self._digest: str | None = None
        self.tracer = None
        if self.cached:
            # Fill the store: every later pass resubmits exactly these specs.
            self._run_pass(self._seeds(BATCH), expect_cached=False)

    def _seeds(self, count: int) -> list[int]:
        if self.cached:
            return [self.seed * 100_000 + index for index in range(count)]
        base = self.seed * 100_000 + self.passes * BATCH
        return [base + index for index in range(count)]

    def warmup(self) -> float:
        return self._run_pass(self._seeds(WARMUP_JOBS), expect_cached=self.cached)[1]

    def run_op(self) -> tuple[list[float], float]:
        """Run one pass; returns each job's claim-to-done latency and the pass span."""
        seeds = self._seeds(BATCH) * (RESUBMITS if self.cached else 1)
        return self._run_pass(seeds, expect_cached=self.cached)

    def rounds_per_op(self) -> float:
        return 0.0 if self.cached else float(JOB_ROUNDS)

    def _submit(self, seed: int) -> str:
        argv = [
            "submit", "--scenario", "fleet-1k", "--policy", "fedavg-random",
            "--rounds", str(JOB_ROUNDS), "--no-early-stop", "--seed", str(seed),
            "--root", str(self.service_root),
        ]
        if self.tracer is not None:
            code, output = self.tracer.call("cli.submit", _quiet_cli, (argv,))
        else:
            code, output = _quiet_cli(argv)
        if code != 0 or not output.startswith("submitted "):
            raise RuntimeError(f"submit exited {code}: {output.strip()}")
        return output.split()[1].rstrip(":")

    def _run_pass(self, seeds: list[int], expect_cached: bool) -> tuple[list[float], float]:
        cursor = EventIndex(self.events_path).refresh(save=False).count
        first_submit = time.time()
        job_ids = [self._submit(seed) for seed in seeds]
        port = _free_port()
        client = LongPollClient(port, cursor, expected=set(job_ids))
        client.start()
        try:
            code, output = _quiet_cli([
                "serve", "--drain", "--workers", "2", "--quiet", "--events-port", str(port),
                "--root", str(self.service_root), "--store", str(self.store_path),
            ])
        finally:
            client.stop.set()
            client.join(timeout=10)
        if client.is_alive():
            raise RuntimeError("long-poll client did not stop")
        if code != 0:
            raise RuntimeError(f"serve exited {code}: {output.strip()}")
        queue = JobQueue(self.service_root / "queue")
        jobs = [queue.get(job_id) for job_id in job_ids]
        self._check_pass(jobs, expect_cached, cursor)
        self.passes += 1
        for ts, received in client.received.values():
            self.deliveries.append(received - ts)
        finished = [job.finished_at for job in jobs if job.finished_at is not None]
        span = (max(finished) if finished else time.time()) - first_submit
        latencies = [
            job.finished_at - job.started_at
            for job in jobs
            if job.finished_at is not None and job.started_at is not None
        ]
        self.jobs.extend(jobs)
        if self._digest is None and self.passes == 1 + (not self.cached):
            self._digest = self._store_digest(jobs)
        return latencies, span

    # ------------------------------------------------------------------ checks
    def _check_pass(self, jobs: list, expect_cached: bool, cursor: int) -> None:
        events, _ = read_events_since(self.events_path, cursor)
        by_job: dict[str, list[dict]] = {}
        for event in events:
            if "job_id" in event:
                by_job.setdefault(event["job_id"], []).append(event)
        for index, job in enumerate(jobs):
            self.attempted += 1
            problems = []
            state = JobState.FAILED if self.corrupt and index == 0 else job.state
            if state is not JobState.DONE:
                problems.append(f"ended {state.value}: {job.error}")
            specs = len(job.specs)
            want = (specs, 0) if expect_cached else (0, specs)
            if (job.cache_hits, job.executed) != want:
                problems.append(
                    f"cache_hits={job.cache_hits} executed={job.executed}, want "
                    f"cache_hits={want[0]} executed={want[1]}"
                )
            seqs = [event["seq"] for event in by_job.get(job.job_id, [])]
            if any(later <= earlier for earlier, later in zip(seqs, seqs[1:])):
                problems.append(f"event seq not strictly increasing: {seqs}")
            if not any(e["event"] == "job_done" for e in by_job.get(job.job_id, [])):
                problems.append("no job_done event")
            if problems:
                self.failed += 1
                self.problems.extend(f"{job.job_id}: {problem}" for problem in problems)
        self.checks["jobs"] = self.checks.get("jobs", 0) + len(jobs)
        self.checks["events"] = self.checks.get("events", 0) + len(events)

    def check(self) -> tuple[int, int, list[str], list[str]]:
        pass_kind = "cached (store hits)" if self.cached else "fresh (store misses)"
        checks = [
            f"job states: {self.checks.get('jobs', 0)} jobs done, {pass_kind}",
            f"event seq: {self.checks.get('events', 0)} events strictly increasing per job",
        ]
        return self.attempted, self.failed, self.problems, checks

    def _store_digest(self, jobs: list) -> str:
        store = ArtifactStore(self.store_path)
        try:
            summaries = []
            for job in jobs:
                result = store.get(job.specs[0].spec_hash())
                summaries.append(
                    [asdict(s) for s in result.summaries] if result is not None else None
                )
        finally:
            store.close()
        return hashlib.sha256(json.dumps(summaries, sort_keys=True).encode("utf-8")).hexdigest()

    def digest(self) -> tuple[str, int]:
        return self._digest or "", BATCH if self._digest else 0

    def close(self) -> None:
        if hasattr(self, "work"):
            shutil.rmtree(self.work, ignore_errors=True)

    # ------------------------------------------------------------------ tracing
    def instrument(self, tracer) -> None:
        self.tracer = tracer
        self.jobs = []
        self.deliveries = []

        def claimed(span, args, job) -> None:
            span[ATTRS] = {"job_id": job.job_id if job is not None else None}

        def got(span, args, result) -> None:
            span[ATTRS] = {"hit": 1 if result is not None else 0}

        def put(span, args, result) -> None:
            span[ATTRS] = {"run_s": args[1].elapsed_s}

        def emitted(span, args, payload) -> None:
            span[ATTRS] = {"event": payload["event"], "job_id": payload.get("job_id")}

        tracer.wrap(JobQueue, "claim", "service.queue.claim", on_result=claimed)
        tracer.wrap(JobQueue, "update", "service.queue.write")
        tracer.wrap(JobQueue, "complete", "service.queue.write")
        tracer.wrap(ArtifactStore, "get", "service.store.get", on_result=got)
        tracer.wrap(ArtifactStore, "put", "service.store.put", on_result=put)
        tracer.wrap(EventLog, "emit", "service.events.emit", on_result=emitted)

    def _job_windows(self, spans: list[list]) -> list[dict]:
        """Split each worker thread's spans into per-job windows (claim → terminal emit)."""
        by_thread: dict[int, list[list]] = {}
        for span in spans:
            by_thread.setdefault(span[THREAD], []).append(span)
        windows = []
        for thread_spans in by_thread.values():
            thread_spans.sort(key=lambda span: span[START])
            current = None
            for span in thread_spans:
                attrs = span[ATTRS] or {}
                if span[NAME] == "service.queue.claim" and attrs.get("job_id"):
                    current = {"start": span[START], "spans": [span]}
                    continue
                if current is None:
                    continue
                current["spans"].append(span)
                if span[NAME] == "service.events.emit" and attrs.get("event") in TERMINAL_EVENTS:
                    current["end"] = span[END]
                    windows.append(current)
                    current = None
        return windows

    def _job_budget(self, window: dict) -> dict[str, float]:
        """One job's layer split; the child's run time comes from its stored result."""
        parts = {"claim": 0.0, "get": 0.0, "put": 0.0, "write": 0.0, "emit": 0.0,
                 "run": 0.0, "overhead": 0.0, "flush": 0.0}
        spans = window["spans"]
        claim_end = spans[0][END]
        put_span = next((s for s in spans if s[NAME] == "service.store.put"), None)
        before_put = 0.0
        for index, span in enumerate(spans):
            duration = span[END] - span[START]
            kind = span[NAME].rsplit(".", 1)[1]
            parts[kind] += duration
            if put_span is not None and span[START] >= claim_end and span[END] <= put_span[START]:
                before_put += duration
            if kind == "put":
                parts["run"] += span[ATTRS]["run_s"]
                parts["flush"] += duration
                following = spans[index + 1] if index + 1 < len(spans) else None
                if following is not None and following[NAME] == "service.queue.write":
                    parts["flush"] += following[END] - following[START]
        if put_span is not None:
            parts["overhead"] = put_span[START] - claim_end - before_put - parts["run"]
        parts["service"] = window["end"] - window["start"]
        parts["self"] = parts["service"] - sum(
            parts[key] for key in ("claim", "get", "put", "write", "emit", "run", "overhead")
        )
        return parts

    def layers(self, tracer) -> tuple[dict[str, float], float]:
        spans = tracer.spans
        windows = self._job_windows(spans)
        jobs = len(windows)
        budgets = [self._job_budget(window) for window in windows]

        def per_job_ms(key: str) -> float:
            return sum(b[key] for b in budgets) / jobs * 1e3 if jobs else 0.0

        claims = [s for s in spans if s[NAME] == "service.queue.claim"]
        claim_s = sum(s[END] - s[START] for s in claims)
        hits = sum(1 for s in claims if s[ATTRS]["job_id"])
        gets = [s for s in spans if s[NAME] == "service.store.get"]
        job_emits = [
            s for s in spans if s[NAME] == "service.events.emit" and s[ATTRS]["job_id"]
        ]
        submits = [s for s in spans if s[NAME] == "cli.submit"]
        traced_jobs = [job for job in self.jobs if job.started_at is not None]
        service = sum(b["service"] for b in budgets)
        metrics = {
            "cli.submit_ms": (
                sum(s[END] - s[START] for s in submits) / len(submits) * 1e3 if submits else 0.0
            ),
            "service.queue.wait_ms": (
                sum(j.started_at - j.submitted_at for j in traced_jobs) / len(traced_jobs) * 1e3
                if traced_jobs
                else 0.0
            ),
            "service.queue.claim_ms": claim_s / jobs * 1e3 if jobs else 0.0,
            "service.queue.claim_hit_ratio": hits / len(claims) if claims else 0.0,
            "service.queue.write_ms": per_job_ms("write"),
            "service.store.get_ms": per_job_ms("get"),
            "service.store.put_ms": per_job_ms("put"),
            "service.store.hit_ratio": (
                sum(s[ATTRS]["hit"] for s in gets) / len(gets) if gets else 0.0
            ),
            "service.events.emit_ms": (
                sum(s[END] - s[START] for s in job_emits) / jobs * 1e3 if jobs else 0.0
            ),
            "service.events.per_job": len(job_emits) / jobs if jobs else 0.0,
            "experiments.run_ms": per_job_ms("run"),
            "service.scheduler.child_overhead_ms": per_job_ms("overhead"),
            "service.scheduler.self_ms": per_job_ms("self"),
            "service.eventbus.delivery_ms": (
                sum(self.deliveries) / len(self.deliveries) * 1e3 if self.deliveries else 0.0
            ),
        }
        covered = service - sum(b["self"] for b in budgets)
        return metrics, (covered / service if service else 0.0)

    def phase_ratios(self, tracer) -> dict[str, float]:
        budgets = [self._job_budget(window) for window in self._job_windows(tracer.spans)]
        claims = [
            s for s in tracer.spans if s[NAME] == "service.queue.claim" and s[ATTRS]["job_id"]
        ]
        mine = {
            "claim": sum(s[END] - s[START] for s in claims),
            "execute": sum(b["run"] + b["overhead"] for b in budgets),
            "flush": sum(b["flush"] for b in budgets),
        }
        return phase_ratios(mine, category="scheduler")
