"""Tests for the scheduler: draining, dedupe, retries, timeouts and cancellation."""

import multiprocessing
import threading
import time

import pytest

from repro.experiments.runner import BatchRunner
from repro.experiments.spec import ExperimentSpec
from repro.service.events import EventLog
from repro.service.jobs import Job, JobState, make_job
from repro.service.queue import JobQueue
from repro.service.scheduler import Scheduler
from repro.service.store import ArtifactStore
from repro.sim.scenarios import ScenarioSpec


def _spec(seed=0, policy="fedavg-random", devices=25, rounds=4):
    return ExperimentSpec(
        scenario=ScenarioSpec(num_devices=devices, max_rounds=rounds, seed=seed),
        policy=policy,
    )


@pytest.fixture
def queue(tmp_path):
    return JobQueue(tmp_path / "queue")


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "results.sqlite")


@pytest.fixture
def events(tmp_path):
    return EventLog(tmp_path / "events.jsonl")


@pytest.fixture
def scheduler(queue, store, events):
    return Scheduler(queue, store, events, poll_s=0.05, worker_prefix="t")


def _event_names(events):
    return [event["event"] for event in events.read()]


class TestDrain:
    def test_drains_all_jobs_and_fills_the_store(self, scheduler, queue, store, events):
        ids = [queue.submit(make_job(_spec(seed), label=f"s{seed}")) for seed in range(3)]
        scheduler.serve(workers=2, drain=True)
        for job_id in ids:
            job = queue.get(job_id)
            assert job.state is JobState.DONE
            assert (job.cache_hits, job.executed) == (0, 1)
        assert len(store) == 3
        names = _event_names(events)
        assert names.count("job_done") == 3
        assert names.count("spec_done") == 3
        assert names[-1] == "scheduler_stopped"

    def test_resubmitted_specs_are_cache_hits_not_reruns(self, scheduler, queue, store, events):
        queue.submit(make_job(_spec()))
        scheduler.serve(workers=1, drain=True)
        assert len(store) == 1
        resubmitted = queue.submit(make_job(_spec()))
        scheduler.serve(workers=1, drain=True)
        job = queue.get(resubmitted)
        assert job.state is JobState.DONE
        assert (job.cache_hits, job.executed) == (1, 0)
        assert "spec_cached" in _event_names(events)
        assert len(store) == 1  # nothing was re-executed or re-stored

    def test_high_priority_job_runs_first(self, scheduler, queue, events):
        low = queue.submit(make_job(_spec(0), priority=0))
        high = queue.submit(make_job(_spec(1), priority=9))
        scheduler.serve(workers=1, drain=True)
        started = [e["job_id"] for e in events.read() if e["event"] == "job_started"]
        assert started == [high, low]

    def test_shares_one_cache_with_the_batch_runner_protocol(self, queue, events, dict_store):
        # Any StoreBackend works, also one without artifacts or presets.
        scheduler = Scheduler(queue, dict_store, events, poll_s=0.05)
        queue.submit(make_job(_spec()))
        scheduler.serve(workers=1, drain=True)
        assert len(dict_store) == 1
        assert BatchRunner(store=dict_store).run([_spec()]).cache_hits == 1


class TestFailures:
    @pytest.fixture
    def bogus_job(self):
        # Bypasses make_job's eager validation, so the failure happens inside the
        # worker child — exactly the opaque-crash path the wrapping must illuminate.
        return Job(specs=(_spec(policy="no-such-policy"),), retry_budget=1)

    def test_failure_consumes_retries_then_fails_with_traceback(
        self, scheduler, queue, events, bogus_job
    ):
        queue.submit(bogus_job)
        scheduler.serve(workers=1, drain=True)
        job = queue.get(bogus_job.job_id)
        assert job.state is JobState.FAILED
        assert job.attempts == 2  # first run + one retry
        assert "no-such-policy" in job.error
        assert "Traceback" in job.error  # the original child traceback, not a pickle error
        assert bogus_job.spec_hashes[0][:12] in job.error
        names = _event_names(events)
        assert "job_requeued" in names and "job_failed" in names

    def test_scheduler_survives_a_failing_job_and_runs_the_rest(
        self, scheduler, queue, store, bogus_job
    ):
        queue.submit(bogus_job)
        good = queue.submit(make_job(_spec()))
        scheduler.serve(workers=1, drain=True)
        assert queue.get(bogus_job.job_id).state is JobState.FAILED
        assert queue.get(good).state is JobState.DONE
        assert len(store) == 1


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the invariant-corrupting monkeypatch must be inherited by the spec child",
)
class TestValidationFailure:
    def test_invariant_violation_fails_job_and_attaches_report(
        self, scheduler, queue, store, events, monkeypatch
    ):
        from repro.sim.results import SimulationResult

        original = SimulationResult.append

        def corrupting_append(self, record):
            import dataclasses as dc

            original(self, dc.replace(record, accuracy=2.0))

        monkeypatch.setattr(SimulationResult, "append", corrupting_append)
        job = make_job(_spec(), retry_budget=3, validate=True)
        queue.submit(job)
        scheduler.serve(workers=1, drain=True)
        failed = queue.get(job.job_id)
        # Deterministic failure: the retry budget is NOT spent on validation errors.
        assert failed.state is JobState.FAILED
        assert failed.attempts == 1
        assert "ValidationError" in failed.error
        artifacts = store.get_artifacts(job.job_id)
        assert len(artifacts) == 1
        assert artifacts[0]["kind"] == "validation-report"
        report = artifacts[0]["payload"]
        assert report["ok"] is False
        assert any("accuracy" in v["message"] for v in report["violations"])


class TestTimeout:
    def test_job_timeout_kills_the_spec_and_fails_the_job(self, scheduler, queue, events):
        slow_spec = ExperimentSpec(
            scenario=ScenarioSpec(num_devices=200, max_rounds=2000),
            policy="fedavg-random",
            stop_at_convergence=False,  # never finishes early: the timeout must fire
        )
        slow = make_job(slow_spec, label="slow", timeout_s=0.3)
        queue.submit(slow)
        scheduler.serve(workers=1, drain=True)
        job = queue.get(slow.job_id)
        assert job.state is JobState.FAILED
        assert "timed out after 0.3s" in job.error
        failed_events = [e for e in events.read() if e["event"] == "job_failed"]
        assert failed_events and failed_events[0]["reason"] == "timeout"


class TestCancellation:
    def test_cancel_marker_is_honoured_before_the_next_spec(self, scheduler, queue, events):
        job = make_job([_spec(0), _spec(1)])
        queue.submit(job)
        claimed = queue.claim("t-w0")
        queue.cancel(claimed.job_id)  # running: drops the cooperative marker
        scheduler._run_job(claimed, "t-w0", threading.Event(), time.perf_counter())
        assert queue.get(job.job_id).state is JobState.CANCELLED
        assert "job_cancelled" in _event_names(events)


class TestInterrupt:
    def test_stop_requeues_without_consuming_the_attempt(self, scheduler, queue, events):
        job = make_job(_spec())
        queue.submit(job)
        claimed = queue.claim("t-w0")
        assert claimed.attempts == 1
        stop = threading.Event()
        stop.set()  # operator interrupt before the first spec
        scheduler._run_job(claimed, "t-w0", stop, time.perf_counter())
        requeued = queue.get(job.job_id)
        assert requeued.state is JobState.QUEUED
        assert requeued.attempts == 0  # the interrupted attempt was refunded
        assert "job_requeued" in _event_names(events)
