"""The scheduler: fans queued jobs out over a worker pool with leases and timeouts.

A :class:`Scheduler` ties the service pieces together.  Each worker (a thread of the
``serve`` process; any number of ``serve`` processes can share one queue directory)
loops: recover expired leases, claim the highest-priority job, then run its grid
points one at a time.  Every grid point is first deduped against the shared result
store by spec hash — resubmitting an already-computed spec is a cache hit, never a
re-execution — and misses run in a *child process*, which buys three properties the
in-thread path cannot offer:

* the worker keeps renewing its lease while a long spec runs, so a live job is never
  reclaimed mid-flight;
* per-job wall-clock timeouts and cooperative cancellation work by terminating the
  child, not by waiting politely;
* a crashing spec (segfault, OOM kill) fails the job with a named spec hash instead of
  taking the scheduler down.

Failure policy: an ordinary error consumes one retry (the job is requeued until its
budget runs out); a :class:`~repro.exceptions.ValidationError` fails the job
immediately — invariant violations are deterministic — and attaches the full
:class:`~repro.validation.invariants.ValidationReport` to the job as a store artifact;
an operator interrupt requeues the job *without* spending its budget.

Shutdown policy: the first ``SIGTERM``/``SIGINT`` starts a *graceful drain* — stop
claiming, let each in-flight grid point finish (bounded by ``drain_grace_s``, lease
still renewed), requeue the interrupted jobs without consuming an attempt, flush
metrics and events, return.  A second signal terminates in-flight children
immediately (the requeue still refunds the attempt).

Warm children: before its first fork, ``serve`` imports the modules every job child
would otherwise import for itself (:data:`_CHILD_IMPORTS`), so each child goes
straight to its spec.  This relies on the ``fork`` start method (Linux's default
before Python 3.14), under which a child inherits the parent's ``sys.modules``; under
``spawn`` or ``forkserver`` a child starts from a fresh interpreter and the preload
buys nothing.
"""

from __future__ import annotations

import importlib
import multiprocessing
import os
import signal
import socket
import threading
import time
import traceback
from pathlib import Path

# A ``validate=True`` job child audits its rounds with the invariant checkers; loaded
# here, every forked child inherits them instead of importing them for each job.
import repro.validation.invariants  # noqa: F401
from repro import telemetry
from repro.defaults import DEFAULT_DRAIN_GRACE_S, DEFAULT_LEASE_S, DEFAULT_POLL_S
from repro.exceptions import ServiceError
from repro.experiments.runner import ExperimentResult, StoreBackend, run_experiment
from repro.experiments.spec import ExperimentSpec
from repro.service.events import EventLog
from repro.service.jobs import Job, JobState
from repro.service.queue import JobQueue

#: Grace period for a terminated child to exit before it is force-killed.
_CHILD_GRACE_S = 5.0

#: Forking from a multi-threaded scheduler is serialised to keep the child's view of
#: interpreter locks consistent (the child only simulates and writes to its pipe, but
#: the spawn itself must not interleave with another thread's spawn).
_SPAWN_LOCK = threading.Lock()

#: What a job child imports while it runs its spec, measured with ``repro.cli``
#: loaded: numpy 2 loads both lazily, from its module ``__getattr__``.  Every
#: simulation builds seeded generators (``numpy.random``), and every round's
#: ``np.median`` reaches ``numpy.ma`` through the ``np.ma.isMaskedArray`` in its NaN
#: check (from numpy 2.3 on, ``np.unique`` does too, through ``np.ma.is_masked``).
_CHILD_IMPORTS = ("numpy.random", "numpy.ma")


def _child_entry(payload: dict, conn) -> None:
    """Child-process entry point: run one spec and report through the pipe.

    Never raises — every outcome (result, validation report, crash traceback) travels
    back as a tagged JSON-serialisable payload, mirroring the executor protocol.
    """
    entered_at = time.perf_counter()
    # The fork copied the parent's registry; ship home only what this spec records,
    # or the parent's merge would count its own metrics a second time.
    telemetry.get_registry().reset()
    try:
        # perf_counter shares one timebase across fork, so the parent's stamp ends here.
        telemetry.get_tracer().record(
            "spawn",
            category="scheduler",
            start_s=payload["spawned_at"],
            end_s=entered_at,
            job=payload["job"],
        )
        result = run_experiment(
            ExperimentSpec.from_dict(payload["spec"]), validate=payload.get("validate", False)
        )
        response = {"ok": True, "result": result.to_dict()}
    except Exception as exc:
        report = getattr(exc, "report", None)
        response = {
            "ok": False,
            "error_type": type(exc).__name__,
            "message": str(exc),
            "traceback": traceback.format_exc(),
            "report": report.to_dict() if report is not None else None,
        }
    try:
        # Ship the child's metrics (round histograms etc.) home with the outcome; the
        # parent merges them so ``/metrics`` reflects work done in children.
        if telemetry.enabled():
            response["metrics"] = telemetry.get_registry().snapshot()
        conn.send(response)
    finally:
        conn.close()


class Scheduler:
    """Pulls jobs from a :class:`JobQueue` and executes them against a shared store."""

    def __init__(
        self,
        queue: JobQueue,
        store: StoreBackend,
        events: EventLog,
        lease_s: float = DEFAULT_LEASE_S,
        poll_s: float = DEFAULT_POLL_S,
        worker_prefix: str | None = None,
        metrics_path: str | os.PathLike | None = None,
        drain_grace_s: float = DEFAULT_DRAIN_GRACE_S,
    ) -> None:
        if lease_s <= 0:
            raise ServiceError(f"lease_s must be positive, got {lease_s}")
        if poll_s <= 0:
            raise ServiceError(f"poll_s must be positive, got {poll_s}")
        if drain_grace_s < 0:
            raise ServiceError(f"drain_grace_s must be >= 0, got {drain_grace_s}")
        self.queue = queue
        self.store = store
        self.events = events
        self.lease_s = lease_s
        self.poll_s = poll_s
        self.drain_grace_s = drain_grace_s
        #: Set by the second drain signal (or programmatically): in-flight grid
        #: points are terminated immediately instead of finishing within the grace.
        self._force_stop = threading.Event()
        self.signals_seen = 0
        self.worker_prefix = (
            worker_prefix
            if worker_prefix is not None
            else f"{socket.gethostname()}-{os.getpid()}"
        )
        #: Where to drop metrics snapshots (after every job, and at shutdown once a
        #: job ran) so ``python -m repro metrics`` can inspect the service without
        #: scraping HTTP.
        self.metrics_path = Path(metrics_path) if metrics_path is not None else None
        self._ran_job = False

    def _flush_metrics(self) -> None:
        # A scheduler that ran no job holds queue gauges only, so it leaves the
        # snapshot of an earlier process (and its job counters) in place.
        if self.metrics_path is not None and self._ran_job and telemetry.enabled():
            telemetry.write_snapshot(telemetry.get_registry(), self.metrics_path)

    @staticmethod
    def _job_finished(state: str, claimed_at: float) -> float:
        """Close out a job's telemetry; returns the monotonic claim-to-finish latency."""
        dur_s = round(time.perf_counter() - claimed_at, 6)
        registry = telemetry.get_registry()
        if registry.enabled:
            registry.counter(
                "repro_jobs_finished_total", help="Jobs finished, by terminal state."
            ).inc(state=state)
            registry.histogram(
                "repro_job_duration_s", help="Claim-to-finish job latency."
            ).observe(dur_s, state=state)
        return dur_s

    # ------------------------------------------------------------------ serving
    def serve(
        self,
        workers: int = 2,
        drain: bool = False,
        stop_event: threading.Event | None = None,
        install_signals: bool = True,
    ) -> None:
        """Run a pool of worker threads until stopped (or, with ``drain``, until empty).

        ``drain=True`` is the batch mode used by CI and tests: workers exit once the
        queue has no queued jobs left (requeues by a still-running worker are picked
        up by that worker, so nothing is stranded).

        With ``install_signals`` (on by default, effective only from the main
        thread), the first ``SIGTERM``/``SIGINT`` triggers a *graceful drain*:
        workers stop claiming, the in-flight grid point of each running job is
        allowed to finish (up to ``drain_grace_s``, with the lease still renewed),
        the job is then requeued without consuming a retry, and metrics/events are
        flushed before ``serve`` returns.  A second signal terminates in-flight
        children immediately (still requeueing without spending the budget).
        Without a handler installed, a ``KeyboardInterrupt`` keeps the legacy
        behaviour: stop, requeue without consuming, re-raise.
        """
        if workers < 1:
            raise ServiceError(f"workers must be >= 1, got {workers}")
        # Children forked from here on inherit these instead of importing them.  They
        # are imported on this thread, before any worker starts: imported from a
        # worker thread they would land in that thread's own malloc arena (more RSS).
        for name in _CHILD_IMPORTS:
            importlib.import_module(name)
        stop = stop_event if stop_event is not None else threading.Event()
        self._force_stop.clear()
        self.signals_seen = 0
        previous_handlers: dict[int, object] = {}
        if install_signals and threading.current_thread() is threading.main_thread():

            def _on_signal(signum, frame):
                self.signals_seen += 1
                if self.signals_seen == 1:
                    stop.set()
                    self.events.emit(
                        "drain_requested",
                        signal=signal.Signals(signum).name,
                        grace_s=self.drain_grace_s,
                    )
                else:
                    self._force_stop.set()

            for signum in (signal.SIGTERM, signal.SIGINT):
                previous_handlers[signum] = signal.signal(signum, _on_signal)
        self.events.emit(
            "scheduler_started", workers=workers, drain=drain, pid=os.getpid()
        )
        threads = [
            threading.Thread(
                target=self._worker_loop,
                args=(f"{self.worker_prefix}-w{index}", drain, stop),
                daemon=True,
            )
            for index in range(workers)
        ]
        for thread in threads:
            thread.start()
        try:
            while any(thread.is_alive() for thread in threads):
                for thread in threads:
                    thread.join(timeout=0.2)
        except KeyboardInterrupt:
            stop.set()
            for thread in threads:
                thread.join()
            self._flush_metrics()
            self.events.emit("scheduler_stopped", reason="interrupted")
            raise
        finally:
            for signum, handler in previous_handlers.items():
                signal.signal(signum, handler)
        stop.set()
        self._flush_metrics()
        if self.signals_seen:
            reason = "drained-on-signal"
        elif drain:
            reason = "drained"
        else:
            reason = "stopped"
        self.events.emit("scheduler_stopped", reason=reason)

    def _worker_loop(self, worker_id: str, drain: bool, stop: threading.Event) -> None:
        self.events.emit("worker_started", worker=worker_id)
        while not stop.is_set():
            for released in self.queue.release_expired():
                self.events.emit(
                    "job_released",
                    job_id=released.job_id,
                    worker=worker_id,
                    state=released.state.value,
                    reason="lease-expired",
                )
            claimed_at = time.perf_counter()
            job = self.queue.claim(worker_id, self.lease_s)
            claim_end = time.perf_counter()
            if telemetry.enabled():
                self.queue.export_gauges()
            if job is None:
                if drain and self.queue.pending() == 0:
                    break
                stop.wait(self.poll_s)
                continue
            self._ran_job = True
            telemetry.get_tracer().record(
                "claim",
                category="scheduler",
                start_s=claimed_at,
                end_s=claim_end,
                job=job.job_id,
                worker=worker_id,
            )
            try:
                self._run_job(job, worker_id, stop, claimed_at)
            except Exception as exc:  # Scheduler bug: never wedge a claimed job.
                try:
                    self.queue.complete(
                        job, JobState.FAILED, error=f"scheduler error: {exc}"
                    )
                except ServiceError:
                    pass
                self.events.emit(
                    "job_failed",
                    job_id=job.job_id,
                    worker=worker_id,
                    error_type=type(exc).__name__,
                    message=str(exc),
                    dur_s=self._job_finished("failed", claimed_at),
                )
            self._flush_metrics()
        self.events.emit("worker_stopped", worker=worker_id)

    # ------------------------------------------------------------------ one job
    def _run_job(
        self, job: Job, worker_id: str, stop: threading.Event, claimed_at: float
    ) -> None:
        self.events.emit(
            "job_started",
            job_id=job.job_id,
            worker=worker_id,
            attempt=job.attempts,
            specs=len(job.specs),
            priority=job.priority,
            lane=job.lane,
        )
        tracer = telemetry.get_tracer()
        registry = telemetry.get_registry()
        deadline = time.time() + job.timeout_s if job.timeout_s is not None else None
        job.cache_hits = 0  # Per-attempt counters: a retry re-counts against the store.
        job.executed = 0
        for index, spec in enumerate(job.specs):
            spec_hash = spec.spec_hash()
            # Progress is written only when another spec follows: after the last one,
            # ``complete`` writes the same counters straight away.
            more = index + 1 < len(job.specs)
            if stop.is_set():
                self._requeue_interrupted(job, worker_id)
                return
            if self.queue.cancel_requested(job.job_id):
                self.queue.complete(job, JobState.CANCELLED, error="cancelled by request")
                self.events.emit(
                    "job_cancelled",
                    job_id=job.job_id,
                    worker=worker_id,
                    dur_s=self._job_finished("cancelled", claimed_at),
                )
                return
            if self._timed_store_op("get", lambda: self.store.get(spec_hash)) is not None:
                job.cache_hits += 1
                if more:
                    self.queue.update(job)
                if registry.enabled:
                    registry.counter(
                        "repro_specs_total", help="Grid points served, by outcome."
                    ).inc(outcome="cached")
                self.events.emit(
                    "spec_cached", job_id=job.job_id, worker=worker_id, spec=spec_hash[:12]
                )
                continue
            with tracer.span(
                "execute",
                category="scheduler",
                job=job.job_id,
                spec=spec_hash[:12],
                worker=worker_id,
            ):
                outcome = self._run_spec_in_child(
                    {"spec": spec.to_dict(), "validate": job.validate},
                    job,
                    worker_id,
                    deadline,
                    stop,
                )
            interrupted = outcome.get("interrupted")
            if interrupted == "stopped":
                self._requeue_interrupted(job, worker_id)
                return
            if interrupted == "cancelled":
                self.queue.complete(job, JobState.CANCELLED, error="cancelled by request")
                self.events.emit(
                    "job_cancelled",
                    job_id=job.job_id,
                    worker=worker_id,
                    dur_s=self._job_finished("cancelled", claimed_at),
                )
                return
            if interrupted == "timeout":
                error = (
                    f"timed out after {job.timeout_s}s (at spec {spec_hash[:12]}, "
                    f"{job.executed + job.cache_hits} of {len(job.specs)} points finished)"
                )
                self.queue.complete(job, JobState.FAILED, error=error)
                self.events.emit(
                    "job_failed",
                    job_id=job.job_id,
                    worker=worker_id,
                    reason="timeout",
                    dur_s=self._job_finished("failed", claimed_at),
                )
                return
            if outcome["ok"]:
                result = ExperimentResult.from_dict(outcome["result"])
                with tracer.span(
                    "flush",
                    category="scheduler",
                    job=job.job_id,
                    spec=spec_hash[:12],
                    worker=worker_id,
                ):
                    self._store_result(result, job)
                    job.executed += 1
                    if more:
                        self.queue.update(job)
                if registry.enabled:
                    registry.counter(
                        "repro_specs_total", help="Grid points served, by outcome."
                    ).inc(outcome="executed")
                self.events.emit(
                    "spec_done",
                    job_id=job.job_id,
                    worker=worker_id,
                    spec=spec_hash[:12],
                    elapsed_s=round(result.elapsed_s, 3),
                )
                continue
            if registry.enabled:
                registry.counter(
                    "repro_specs_total", help="Grid points served, by outcome."
                ).inc(outcome="failed")
            self._handle_spec_failure(job, worker_id, spec_hash, outcome, claimed_at)
            return
        self.queue.complete(job, JobState.DONE)
        self.events.emit(
            "job_done",
            job_id=job.job_id,
            worker=worker_id,
            cache_hits=job.cache_hits,
            executed=job.executed,
            dur_s=self._job_finished("done", claimed_at),
        )

    def _requeue_interrupted(self, job: Job, worker_id: str) -> None:
        # An operator interrupt is not the job's fault: roll back the attempt so the
        # retry budget only ever pays for genuine failures.
        self.queue.requeue(job, consume_attempt=False)
        self.events.emit(
            "job_requeued", job_id=job.job_id, worker=worker_id, reason="interrupted"
        )

    def _handle_spec_failure(
        self, job: Job, worker_id: str, spec_hash: str, outcome: dict, claimed_at: float
    ) -> None:
        error_type = outcome.get("error_type", "Error")
        summary = f"spec {spec_hash[:12]}: {error_type}: {outcome.get('message', '')}"
        report = outcome.get("report")
        # Duck-typed: any artifact-grade backend (ArtifactStore, ShardedStore, …)
        # can hold the report; a bare StoreBackend (e.g. an in-memory one) cannot.
        if report is not None and hasattr(self.store, "put_artifact"):
            self.store.put_artifact(
                job.job_id, f"validation-{spec_hash[:12]}", "validation-report", report
            )
        deterministic = error_type == "ValidationError"
        if deterministic or job.retries_left <= 0:
            error = summary
            if outcome.get("traceback"):
                error += "\n" + outcome["traceback"].rstrip()
            self.queue.complete(job, JobState.FAILED, error=error)
            self.events.emit(
                "job_failed",
                job_id=job.job_id,
                worker=worker_id,
                spec=spec_hash[:12],
                error_type=error_type,
                message=outcome.get("message", ""),
                dur_s=self._job_finished("failed", claimed_at),
            )
        else:
            job.error = summary
            self.queue.requeue(job)
            self.events.emit(
                "job_requeued",
                job_id=job.job_id,
                worker=worker_id,
                spec=spec_hash[:12],
                error_type=error_type,
                retries_left=job.retries_left,
            )

    @staticmethod
    def _timed_store_op(op: str, call):
        """Run one store operation under the ``repro_store_op_s{op=...}`` histogram.

        The p95 of this series feeds admission control's ``--max-store-p95``
        threshold (read from the metrics snapshot by ``submit``), so a store that
        starts thrashing pushes back on new submissions.
        """
        registry = telemetry.get_registry()
        if not registry.enabled:
            return call()
        started = time.perf_counter()
        try:
            return call()
        finally:
            registry.histogram(
                "repro_store_op_s", help="Result-store operation latency, by op."
            ).observe(time.perf_counter() - started, op=op)

    def _store_result(self, result: ExperimentResult, job: Job) -> None:
        if hasattr(self.store, "put_artifact"):  # Artifact-grade stores index presets.
            self._timed_store_op(
                "put", lambda: self.store.put(result, preset=job.provenance.get("preset"))
            )
        else:
            self._timed_store_op("put", lambda: self.store.put(result))

    # ------------------------------------------------------------------ child process
    def _run_spec_in_child(
        self,
        payload: dict,
        job: Job,
        worker_id: str,
        deadline: float | None,
        stop: threading.Event,
    ) -> dict:
        """Run one spec in a child process, babysitting lease, timeout and cancel.

        Returns the child's tagged outcome payload, or ``{"interrupted": reason}``
        when the child was terminated (``stopped``/``cancelled``/``timeout``).
        """
        payload = {**payload, "job": job.job_id, "spawned_at": time.perf_counter()}
        context = multiprocessing.get_context()
        receiver, sender = context.Pipe(duplex=False)
        process = context.Process(target=_child_entry, args=(payload, sender), daemon=True)
        with _SPAWN_LOCK:
            process.start()
        sender.close()  # Parent's copy: close so child exit yields EOF, not a hang.
        next_renewal = time.time() + self.lease_s / 2
        outcome: dict | None = None
        reason: str | None = None
        drain_deadline: float | None = None
        try:
            while True:
                if receiver.poll(self.poll_s):
                    try:
                        outcome = receiver.recv()
                    except EOFError:
                        outcome = None
                    break
                now = time.time()
                if now >= next_renewal:
                    self.queue.renew_lease(job.job_id, worker_id, self.lease_s)
                    next_renewal = now + self.lease_s / 2
                    registry = telemetry.get_registry()
                    if registry.enabled:
                        registry.counter(
                            "repro_lease_renewals_total",
                            help="Lease renewals while specs run in children.",
                        ).inc()
                if stop.is_set():
                    # Graceful drain: let the in-flight grid point finish (the lease
                    # above keeps being renewed) for up to drain_grace_s, then — or
                    # immediately on a force stop — terminate and requeue without
                    # consuming the attempt.
                    if drain_deadline is None:
                        drain_deadline = now + self.drain_grace_s
                    if self._force_stop.is_set() or now >= drain_deadline:
                        reason = "stopped"
                        break
                if self.queue.cancel_requested(job.job_id):
                    reason = "cancelled"
                    break
                if deadline is not None and now >= deadline:
                    reason = "timeout"
                    break
                if not process.is_alive():
                    # Child exited between polls: drain any final message it managed.
                    if receiver.poll(0.1):
                        try:
                            outcome = receiver.recv()
                        except EOFError:
                            pass
                    break
            if reason is not None:
                process.terminate()
            process.join(timeout=_CHILD_GRACE_S)
            if process.is_alive():  # pragma: no cover - stuck in uninterruptible state
                process.kill()
                process.join(timeout=_CHILD_GRACE_S)
        finally:
            receiver.close()
        if outcome is not None and outcome.get("metrics"):
            # Fold the child's metrics (round histograms, engine counters) into this
            # process' registry so exposition covers work done in children.
            telemetry.get_registry().merge(outcome.pop("metrics"))
        if reason is not None:
            return {"ok": False, "interrupted": reason}
        if outcome is None:
            return {
                "ok": False,
                "error_type": "WorkerCrash",
                "message": (
                    f"spec worker exited with code {process.exitcode} before reporting "
                    "a result (crashed or was killed)"
                ),
                "traceback": "",
            }
        return outcome
