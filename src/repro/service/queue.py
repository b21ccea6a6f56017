"""Crash-safe on-disk priority job queue with fair lanes and atomic claim/lease semantics.

The queue is a directory tree — one subdirectory per job state plus a scratch area::

    <root>/
      tmp/        staging for atomic writes (never read)
      queued/     <job_id>.json            jobs waiting to be claimed
      claimed/    <job_id>.json + .lease   jobs a worker is running (lease = liveness)
      done/ failed/ cancelled/             terminal jobs, kept for ``status``

Durability and multi-process safety rest on two POSIX guarantees:

* every file lands via write-to-``tmp``-then-``os.replace`` — a reader never sees a
  half-written job, even if the writer dies mid-write;
* a claim is a single ``os.rename`` of ``queued/<id>.json`` into ``claimed/`` — rename
  is atomic within one filesystem, so when several workers race for the same job
  exactly one rename succeeds and the losers get ``FileNotFoundError`` and move on.

**Fair lanes.** Every job carries a ``lane`` (hashed from its submitter unless set
explicitly) and an integer ``weight``.  :meth:`JobQueue.claim` does not drain the
queue in one global priority order; it runs smooth weighted round-robin *across the
currently non-empty lanes* and only then applies priority/FIFO *within* the chosen
lane.  A submitter flooding one lane with thousands of jobs therefore delays another
lane's next claim by at most its weight share, no matter how deep its backlog is.

Liveness is lease-based: a claiming worker stages ``claimed/<id>.lease`` with an
expiry timestamp *before* the claim rename (so a claimed body is never visible
without a lease) and renews it while the job runs.  If the worker crashes, the lease
expires and :meth:`JobQueue.release_expired` (called by every worker's poll loop)
either requeues the job — consuming one retry, a crash and a failure spend the same
budget — or marks it failed when the budget is exhausted.  Cancellation of a
*running* job is cooperative: ``cancel`` drops a ``.cancel`` marker that the
scheduler checks between grid points.
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
import uuid
from dataclasses import dataclass
from pathlib import Path

from repro import telemetry
from repro.defaults import DEFAULT_LEASE_S, SHED_POLICIES
from repro.defaults import DEFAULT_SERVICE_ROOT as DEFAULT_SERVICE_ROOT
from repro.exceptions import QueueSaturated, ServiceError
from repro.service.jobs import TERMINAL_STATES, Job, JobState

#: Grace period for claimed bodies with no (or a fresh) lease and for orphaned
#: sidecar files.  A lease-less body younger than this is assumed to be a claim in
#: flight (or a clock-skewed peer) rather than a crash, so recovery waits it out —
#: the window between a claim's lease write and its rename is two adjacent syscalls,
#: so five seconds is orders of magnitude more than enough.
CLAIM_GRACE_S = 5.0

#: Admission policy persisted inside the queue root by ``serve`` so ``submit``
#: (usually a different process) enforces the same thresholds.
ADMISSION_FILENAME = "admission.json"


@dataclass(frozen=True)
class AdmissionPolicy:
    """Backpressure thresholds a queue enforces at submit time.

    ``max_depth`` caps the number of queued jobs; ``max_store_p95_s`` additionally
    refuses submissions while the store's p95 operation latency (as measured by the
    scheduler and read from the metrics snapshot) is above the limit — a store
    falling over is saturation even when the queue itself looks shallow.
    """

    max_depth: int | None = None
    shed_policy: str = "reject"
    max_store_p95_s: float | None = None

    def __post_init__(self) -> None:
        if self.shed_policy not in SHED_POLICIES:
            raise ServiceError(
                f"unknown shed policy {self.shed_policy!r} (choose from {SHED_POLICIES})"
            )
        if self.max_depth is not None and self.max_depth < 1:
            raise ServiceError(f"max_depth must be >= 1, got {self.max_depth}")
        if self.max_store_p95_s is not None and self.max_store_p95_s <= 0:
            raise ServiceError(
                f"max_store_p95_s must be positive, got {self.max_store_p95_s}"
            )

    @property
    def empty(self) -> bool:
        return self.max_depth is None and self.max_store_p95_s is None

    def to_dict(self) -> dict:
        return {
            "max_depth": self.max_depth,
            "shed_policy": self.shed_policy,
            "max_store_p95_s": self.max_store_p95_s,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "AdmissionPolicy":
        return cls(
            max_depth=payload.get("max_depth"),
            shed_policy=payload.get("shed_policy", "reject"),
            max_store_p95_s=payload.get("max_store_p95_s"),
        )


def _names(directory: Path, suffixes: str | tuple[str, ...]) -> list[str]:
    """Names in ``directory`` ending in one of ``suffixes``: what ``glob("*" + suffix)``
    matches, dot names included, from one ``os.scandir`` that builds no ``Path``.

    Like ``glob``, a directory that is missing or unreadable has no names.
    """
    try:
        with os.scandir(directory) as entries:
            return [entry.name for entry in entries if entry.name.endswith(suffixes)]
    except (FileNotFoundError, NotADirectoryError, PermissionError):
        return []


#: Directory name per job state.
_STATE_DIRS: dict[JobState, str] = {
    JobState.QUEUED: "queued",
    JobState.RUNNING: "claimed",
    JobState.DONE: "done",
    JobState.FAILED: "failed",
    JobState.CANCELLED: "cancelled",
}


class JobQueue:
    """Directory-backed priority queue shared by any number of worker processes."""

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        for name in ("tmp", *_STATE_DIRS.values()):
            (self.root / name).mkdir(parents=True, exist_ok=True)
        # Claim-ordering cache: a job's priority, submission time, lane and weight
        # never change, so each queued body only needs parsing once per queue
        # instance, not once per poll (pruned to the currently-queued ids on every
        # scan).  Entries are (-priority, submitted_at, lane, weight).
        self._order_cache: dict[str, tuple[int, float, str, int]] = {}
        # Smooth weighted round-robin credit per lane.  Worker-local on purpose:
        # every claimer converges to the same weight shares without any cross-process
        # coordination, which is what lets many hosts drain one queue directory.
        self._lane_credit: dict[str, float] = {}
        self._credit_lock = threading.Lock()  # Worker threads share one instance.
        # Lanes this instance has exported gauges for (to zero drained lanes).
        self._known_lanes: set[str] = set()

    # ------------------------------------------------------------------ paths
    def _dir(self, state: JobState) -> Path:
        return self.root / _STATE_DIRS[state]

    def _job_path(self, state: JobState, job_id: str) -> Path:
        return self._dir(state) / f"{job_id}.json"

    def _lease_path(self, job_id: str) -> Path:
        return self._dir(JobState.RUNNING) / f"{job_id}.lease"

    def _cancel_path(self, job_id: str) -> Path:
        return self._dir(JobState.RUNNING) / f"{job_id}.cancel"

    # ------------------------------------------------------------------ atomic IO
    def _write_json(self, path: Path, payload: dict) -> None:
        staging = self.root / "tmp" / f"{uuid.uuid4().hex}.json"
        staging.write_text(json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8")
        os.replace(staging, path)

    def _write_job(self, job: Job, state: JobState | None = None) -> Path:
        path = self._job_path(state if state is not None else job.state, job.job_id)
        self._write_json(path, job.to_dict())
        return path

    @staticmethod
    def _read_json(path: Path) -> dict | None:
        """Load one JSON file; ``None`` when another worker moved it mid-scan."""
        try:
            text = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return None
        try:
            return json.loads(text)
        except ValueError as exc:
            raise ServiceError(f"corrupt queue entry {path}: {exc}") from exc

    def _load_job(self, path: Path) -> Job | None:
        payload = self._read_json(path)
        return Job.from_dict(payload) if payload is not None else None

    # ------------------------------------------------------------------ submit / claim
    def submit(self, job: Job) -> str:
        """Persist a queued job and return its id."""
        if job.state is not JobState.QUEUED:
            raise ServiceError(
                f"only queued jobs can be submitted, got state {job.state.value!r}"
            )
        self._write_job(job)
        return job.job_id

    def _scan_queued(self) -> dict[str, tuple[int, float, str, int]]:
        """Refresh and return the order cache for the currently-queued jobs."""
        order: dict[str, tuple[int, float, str, int]] = {}
        directory = self._dir(JobState.QUEUED)
        for name in _names(directory, ".json"):
            job_id = os.path.splitext(name)[0]  # Path(name).stem
            cached = self._order_cache.get(job_id)
            if cached is None:
                payload = self._read_json(directory / name)
                if payload is None:
                    continue
                cached = (
                    -payload.get("priority", 0),
                    payload.get("submitted_at", 0.0),
                    payload.get("lane", "") or "lane-unknown",
                    max(1, payload.get("weight", 1)),
                )
            order[job_id] = cached
        self._order_cache = order  # Prune ids that left the queue.
        return order

    def _fair_lane_order(self, weights: dict[str, int]) -> list[str]:
        """Rank the non-empty lanes by smooth weighted round-robin.

        Each call advances every present lane's credit by its weight, ranks lanes by
        credit (ties by name, so the order is total), and charges the front-runner
        the credit total — the classic SWRR step, which interleaves lanes in exact
        proportion to their weights (weights 3:1 yield A A A B A A A B …).  Credit for
        lanes that drained away is dropped, so a returning lane starts fresh rather
        than with a hoarded backlog of credit.
        """
        with self._credit_lock:
            for lane in list(self._lane_credit):
                if lane not in weights:
                    del self._lane_credit[lane]
            for lane, weight in weights.items():
                self._lane_credit[lane] = self._lane_credit.get(lane, 0.0) + weight
            ranked = sorted(weights, key=lambda lane: (-self._lane_credit[lane], lane))
            self._lane_credit[ranked[0]] -= sum(weights.values())
        return ranked

    def claim(self, worker_id: str, lease_s: float = DEFAULT_LEASE_S) -> Job | None:
        """Atomically claim the next queued job under weighted lane fairness.

        Lanes are tried in smooth weighted round-robin order; within a lane, highest
        priority first, then oldest, then job id so the order is total.  The winning
        worker owns the job until it completes it, requeues it, or its lease expires.
        """
        started = time.perf_counter()
        order = self._scan_queued()
        lanes: dict[str, list[tuple[int, float, str]]] = {}
        weights: dict[str, int] = {}
        for job_id, (rank, stamp, lane, weight) in order.items():
            lanes.setdefault(lane, []).append((rank, stamp, job_id))
            weights[lane] = max(weights.get(lane, 1), weight)
        if not lanes:
            return None
        for lane in self._fair_lane_order(weights):
            for rank, stamp, job_id in sorted(lanes[lane]):
                source = self._job_path(JobState.QUEUED, job_id)
                target = self._job_path(JobState.RUNNING, job_id)
                # Stage the lease BEFORE the rename: from the instant a body becomes
                # visible in claimed/, its lease already exists, so a concurrent
                # release_expired() can never observe a claimed body as lease-less
                # and steal it back mid-claim.  If the rename below loses the race,
                # the staged lease is either overwritten by the real winner's
                # renewals (same expiry horizon, so it never triggers an early
                # release) or — when the job went terminal instead — swept as an
                # orphaned sidecar by sweep_sidecars() once CLAIM_GRACE_S passes.
                self.renew_lease(job_id, worker_id, lease_s)
                try:
                    os.rename(source, target)  # Atomic: exactly one racing worker wins.
                except FileNotFoundError:
                    continue  # Another worker claimed (or cancelled) it first.
                job = self._load_job(target)
                if job is None:  # pragma: no cover - defensive
                    continue
                job.transition(JobState.RUNNING)
                job.worker = worker_id
                job.attempts += 1
                self._write_job(job)
                self._observe_claim(job, started)
                return job
        return None

    @staticmethod
    def _observe_claim(job: Job, started: float) -> None:
        """Record per-lane claim telemetry (scan latency + time spent queued)."""
        registry = telemetry.get_registry()
        if not registry.enabled:
            return
        registry.histogram(
            "repro_claim_latency_s", help="Queue-scan-to-claim latency per claim."
        ).observe(time.perf_counter() - started, lane=job.lane)
        registry.histogram(
            "repro_claim_wait_s", help="Submit-to-claim wait of claimed jobs."
        ).observe(max(0.0, time.time() - job.submitted_at), lane=job.lane)

    def renew_lease(self, job_id: str, worker_id: str, lease_s: float = DEFAULT_LEASE_S) -> None:
        """Extend (or create) the liveness lease of a claimed job."""
        self._write_json(
            self._lease_path(job_id),
            {"worker": worker_id, "expires_at": time.time() + lease_s},
        )

    def update(self, job: Job) -> None:
        """Persist in-flight progress (counters, error text) of a running job."""
        if job.state is not JobState.RUNNING:
            raise ServiceError(f"update() is for running jobs, got {job.state.value!r}")
        self._write_job(job)

    # ------------------------------------------------------------------ completion
    def complete(self, job: Job, state: JobState, error: str | None = None) -> Job:
        """Move a running job into a terminal state (``done``/``failed``/``cancelled``)."""
        if state not in TERMINAL_STATES:
            raise ServiceError(f"complete() needs a terminal state, got {state.value!r}")
        job.error = error
        job.transition(state)
        self._write_job(job)
        self._remove_claim(job.job_id)
        return job

    def requeue(self, job: Job, consume_attempt: bool = True) -> Job:
        """Put a running job back in the queue (crash recovery or interrupt).

        With ``consume_attempt=False`` the attempt counter is rolled back — an operator
        interrupt must not spend the job's retry budget.
        """
        if not consume_attempt:
            job.attempts = max(0, job.attempts - 1)
        job.transition(JobState.QUEUED)
        self._write_job(job)
        self._remove_claim(job.job_id)
        return job

    def _remove_claim(self, job_id: str) -> None:
        for path in (
            self._job_path(JobState.RUNNING, job_id),
            self._lease_path(job_id),
            self._cancel_path(job_id),
        ):
            try:
                path.unlink()
            except FileNotFoundError:
                pass

    # ------------------------------------------------------------------ liveness
    def release_expired(self, now: float | None = None) -> list[Job]:
        """Recover claims whose lease expired (worker crashed or lost the machine).

        Each recovered job is requeued while its retry budget lasts, otherwise marked
        failed.  Returns the jobs that were moved, for event reporting.  A claimed
        body with *no* lease at all is given :data:`CLAIM_GRACE_S` from its file
        mtime before recovery — claims stage their lease before the rename, so a
        lease-less body is either a crashed old claim (recover it) or external
        tampering, never a claim in flight; the grace is belt-and-braces against
        writers that do not stage first.  Orphaned sidecar files are swept on the
        way out.
        """
        now = time.time() if now is None else now
        moved: list[Job] = []
        directory = self._dir(JobState.RUNNING)
        for name in _names(directory, ".json"):
            path = directory / name
            job_id = path.stem
            lease = self._read_json(self._lease_path(job_id))
            if lease is None:
                try:
                    mtime = path.stat().st_mtime
                except FileNotFoundError:
                    continue  # Raced a completion/requeue mid-scan.
                if now - mtime < CLAIM_GRACE_S:
                    continue
                expires_at = 0.0
            else:
                expires_at = lease.get("expires_at", 0.0)
            if expires_at > now:
                continue
            job = self._load_job(path)
            if job is None:
                continue
            if job.state is JobState.QUEUED:
                # Crash inside claim(): the rename landed but neither the lease nor
                # the RUNNING body ever did.  The body is still the pristine queued
                # job — rename it straight back so it is claimable again (atomic, so
                # concurrent recoverers cannot double it; no attempt was consumed).
                try:
                    os.rename(path, self._job_path(JobState.QUEUED, job_id))
                except FileNotFoundError:
                    continue  # Another recoverer (or the claimer's write) beat us.
                self._remove_claim(job_id)
                moved.append(job)
                continue
            if job.state is not JobState.RUNNING:  # pragma: no cover - defensive
                continue
            holder = (lease or {}).get("worker", "unknown")
            if job.retries_left > 0:
                moved.append(self.requeue(job))
            else:
                moved.append(
                    self.complete(
                        job,
                        JobState.FAILED,
                        error=(
                            f"lease held by worker {holder!r} expired after "
                            f"{job.attempts} attempt(s); retry budget exhausted"
                        ),
                    )
                )
        self.sweep_sidecars(now)
        return moved

    def sweep_sidecars(self, now: float | None = None) -> list[Path]:
        """Delete ``.lease``/``.cancel`` files whose job body left ``claimed/``.

        Sidecars go stale when a recovery (or cancel) renames the body away in the
        window between a claimer's rename and its next ``renew_lease`` — the late
        lease write then lands for a job that is no longer claimed, and nothing else
        would ever delete it because recovery only globs ``*.json``.  Files younger
        than :data:`CLAIM_GRACE_S` are kept: a fresh body-less lease is most likely a
        claim staging its lease just before the rename lands.  Idempotent and safe to
        run concurrently from any number of workers.
        """
        now = time.time() if now is None else now
        swept: list[Path] = []
        directory = self._dir(JobState.RUNNING)
        for name in _names(directory, (".lease", ".cancel")):
            path = directory / name
            if self._job_path(JobState.RUNNING, path.stem).exists():
                continue
            try:
                if now - path.stat().st_mtime < CLAIM_GRACE_S:
                    continue
                path.unlink()
            except FileNotFoundError:
                continue  # Another sweeper (or the job's return) beat us.
            swept.append(path)
        return swept

    # ------------------------------------------------------------------ cancellation
    def cancel(self, job_id: str) -> Job:
        """Cancel a job: immediately when queued, cooperatively when running."""
        source = self._job_path(JobState.QUEUED, job_id)
        target = self._job_path(JobState.RUNNING, job_id)  # reuse claim rename for atomicity
        try:
            os.rename(source, target)
        except FileNotFoundError:
            pass
        else:
            job = self._load_job(target)
            if job is not None:
                job.transition(JobState.CANCELLED)
                self._write_job(job)
                self._remove_claim(job_id)
                return job
        if self._job_path(JobState.RUNNING, job_id).exists():
            # Running: drop a marker; the scheduler honours it between grid points.
            self._write_json(self._cancel_path(job_id), {"requested_at": time.time()})
            job = self._load_job(self._job_path(JobState.RUNNING, job_id))
            if job is not None:
                return job
        job = self.get(job_id)
        if job.finished:
            raise ServiceError(f"job {job_id} already finished ({job.state.value})")
        return job  # pragma: no cover - transient races land in one of the above

    def cancel_requested(self, job_id: str) -> bool:
        """True when a cooperative cancel marker exists for a running job."""
        return self._cancel_path(job_id).exists()

    # ------------------------------------------------------------------ inspection
    def get(self, job_id: str) -> Job:
        """Load a job by id from whichever state directory holds it."""
        for state in _STATE_DIRS:
            job = self._load_job(self._job_path(state, job_id))
            if job is not None:
                return job
        raise ServiceError(f"unknown job id {job_id!r}")

    def jobs(self, states: tuple[JobState, ...] | None = None) -> list[Job]:
        """All jobs (optionally filtered by state), oldest submission first."""
        selected = states if states is not None else tuple(_STATE_DIRS)
        loaded: list[Job] = []
        for state in selected:
            directory = self._dir(state)
            for name in _names(directory, ".json"):
                job = self._load_job(directory / name)
                if job is not None:
                    loaded.append(job)
        return sorted(loaded, key=lambda job: (job.submitted_at, job.job_id))

    def counts(self) -> dict[str, int]:
        """Number of jobs per state (cheap: counts files, does not parse them)."""
        return {state.value: len(_names(self._dir(state), ".json")) for state in _STATE_DIRS}

    def pending(self) -> int:
        """Number of jobs currently waiting in ``queued/``."""
        return len(_names(self._dir(JobState.QUEUED), ".json"))

    def depth(self) -> int:
        """Alias of :meth:`pending` — the admission-control view of the backlog."""
        return self.pending()

    # ------------------------------------------------------------------ admission
    @property
    def _admission_path(self) -> Path:
        return self.root / ADMISSION_FILENAME

    def set_admission(self, policy: AdmissionPolicy | None) -> None:
        """Persist (or, with ``None``/an empty policy, clear) the admission policy.

        The policy lives inside the queue root so every submitter sharing the
        directory enforces it, regardless of which ``serve`` host configured it.
        """
        if policy is None or policy.empty:
            try:
                self._admission_path.unlink()
            except FileNotFoundError:
                pass
            return
        self._write_json(self._admission_path, policy.to_dict())

    def admission(self) -> AdmissionPolicy | None:
        """The persisted admission policy, or ``None`` when admission is open."""
        payload = self._read_json(self._admission_path)
        return AdmissionPolicy.from_dict(payload) if payload is not None else None

    def admit(self, job: Job, store_p95_s: float | None = None) -> Job | None:
        """Enforce the admission policy for one submission *before* it is queued.

        Returns ``None`` when the queue is open, or the job that was shed to make
        room under ``drop-lowest-priority``.  Raises :class:`QueueSaturated` (and
        bumps ``repro_queue_saturated_total``) when the submission must be refused.
        """
        policy = self.admission()
        if policy is None:
            return None
        if (
            policy.max_store_p95_s is not None
            and store_p95_s is not None
            and not math.isnan(store_p95_s)
            and store_p95_s > policy.max_store_p95_s
        ):
            self._refuse(
                "store-latency",
                f"store p95 latency {store_p95_s:.3f}s exceeds the admission limit "
                f"of {policy.max_store_p95_s:.3f}s; back off and retry",
            )
        if policy.max_depth is None:
            return None
        depth = self.depth()
        if depth < policy.max_depth:
            return None
        if policy.shed_policy == "drop-lowest-priority":
            shed = self.shed_lowest_priority(above_priority=job.priority)
            if shed is not None:
                return shed
            self._refuse(
                "depth",
                f"queue depth {depth} is at the admission limit of {policy.max_depth} "
                f"and no queued job has lower priority than {job.priority}; "
                "back off and retry",
            )
        self._refuse(
            "depth",
            f"queue depth {depth} is at the admission limit of {policy.max_depth}; "
            "back off and retry",
        )

    @staticmethod
    def _refuse(reason: str, message: str) -> None:
        registry = telemetry.get_registry()
        if registry.enabled:
            registry.counter(
                "repro_queue_saturated_total",
                help="Submissions refused by admission control, by reason.",
            ).inc(reason=reason)
        raise QueueSaturated(message)

    def shed_lowest_priority(self, above_priority: int) -> Job | None:
        """Fail the lowest-priority (then youngest) queued job strictly below
        ``above_priority`` to make room; ``None`` when no such victim exists.

        The victim is moved with the same atomic claim rename used by
        :meth:`claim`/:meth:`cancel`, so racing a worker's claim is safe — if the
        worker wins, the next victim is tried.
        """
        order = self._scan_queued()
        victims = sorted(
            (
                (rank, stamp, job_id)
                for job_id, (rank, stamp, _lane, _weight) in order.items()
                if -rank < above_priority
            ),
            key=lambda item: (-item[0], -item[1], item[2]),
        )
        for _rank, _stamp, job_id in victims:
            source = self._job_path(JobState.QUEUED, job_id)
            target = self._job_path(JobState.RUNNING, job_id)
            try:
                os.rename(source, target)
            except FileNotFoundError:
                continue  # Claimed, cancelled or already shed by a racer.
            job = self._load_job(target)
            if job is None:  # pragma: no cover - defensive
                continue
            job.transition(JobState.FAILED)
            job.error = (
                f"shed by admission control to make room for a priority-"
                f"{above_priority} submission"
            )
            self._write_job(job)
            self._remove_claim(job_id)
            registry = telemetry.get_registry()
            if registry.enabled:
                registry.counter(
                    "repro_jobs_shed_total",
                    help="Queued jobs shed by drop-lowest-priority admission control.",
                ).inc()
            return job
        return None

    def lane_depths(self, now: float | None = None) -> dict[str, dict[str, float]]:
        """Per-lane view of ``queued/``: ``{lane: {depth, weight, oldest_wait_s}}``."""
        now = time.time() if now is None else now
        lanes: dict[str, dict[str, float]] = {}
        for _rank, stamp, lane, weight in self._scan_queued().values():
            entry = lanes.setdefault(
                lane, {"depth": 0, "weight": 1, "oldest_wait_s": 0.0}
            )
            entry["depth"] += 1
            entry["weight"] = max(entry["weight"], weight)
            entry["oldest_wait_s"] = max(entry["oldest_wait_s"], round(now - stamp, 3))
        return lanes

    def export_gauges(self, registry=None) -> dict[str, int]:
        """Export queue depth, per-state and per-lane job counts as telemetry gauges.

        Sets ``repro_queue_depth`` (jobs waiting in ``queued/``), one
        ``repro_jobs{state=...}`` series per state, and per-lane
        ``repro_lane_depth{lane=...}`` / ``repro_lane_oldest_wait_s{lane=...}``
        series on ``registry`` (the process-wide registry by default; recording
        still honours its ``enabled`` switch), and returns the raw :meth:`counts`
        mapping either way.  Lanes that drained to empty are re-exported once at
        depth 0 so dashboards see them hit zero instead of a vanishing series.
        """
        counts = self.counts()
        if registry is None:
            registry = telemetry.get_registry()
        if registry.enabled:
            registry.gauge(
                "repro_queue_depth", help="Jobs waiting to be claimed."
            ).set(float(counts[JobState.QUEUED.value]))
            jobs_gauge = registry.gauge(
                "repro_jobs", help="Jobs currently in each queue state."
            )
            for state, count in counts.items():
                jobs_gauge.set(float(count), state=state)
            lanes = self.lane_depths()
            depth_gauge = registry.gauge(
                "repro_lane_depth", help="Queued jobs per fair-scheduling lane."
            )
            wait_gauge = registry.gauge(
                "repro_lane_oldest_wait_s",
                help="Age of the oldest queued job per lane.",
            )
            for lane in self._known_lanes - set(lanes):
                depth_gauge.set(0.0, lane=lane)
                wait_gauge.set(0.0, lane=lane)
            self._known_lanes |= set(lanes)
            for lane, entry in lanes.items():
                depth_gauge.set(float(entry["depth"]), lane=lane)
                wait_gauge.set(float(entry["oldest_wait_s"]), lane=lane)
            policy = self.admission()
            saturated = (
                policy is not None
                and policy.max_depth is not None
                and counts[JobState.QUEUED.value] >= policy.max_depth
            )
            registry.gauge(
                "repro_queue_saturated",
                help="1 when the queue depth is at or past the admission limit.",
            ).set(1.0 if saturated else 0.0)
        return counts

    def __len__(self) -> int:
        return sum(self.counts().values())
