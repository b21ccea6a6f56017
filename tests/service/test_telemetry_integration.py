"""Service-layer telemetry: queue gauges, event seq/dur_s and scheduler metrics."""

import time
from collections import Counter

import pytest

from repro import telemetry
from repro.experiments.spec import ExperimentSpec
from repro.service.events import EVENT_SCHEMA_VERSION, EventLog
from repro.service.jobs import make_job
from repro.service.queue import JobQueue
from repro.service.scheduler import Scheduler
from repro.service.store import ArtifactStore
from repro.sim.scenarios import ScenarioSpec


@pytest.fixture(autouse=True)
def _reset_telemetry():
    telemetry.reset()
    yield
    telemetry.reset()


def _spec(seed=0, devices=25, rounds=3):
    return ExperimentSpec(
        scenario=ScenarioSpec(num_devices=devices, max_rounds=rounds, seed=seed),
        policy="fedavg-random",
    )


@pytest.fixture
def queue(tmp_path):
    return JobQueue(tmp_path / "queue")


@pytest.fixture
def events(tmp_path):
    return EventLog(tmp_path / "events.jsonl")


class TestQueueGauges:
    def test_export_gauges_reflect_job_states(self, queue):
        registry = telemetry.MetricsRegistry(enabled=True)
        queue.submit(make_job(_spec(0)))
        queue.submit(make_job(_spec(1)))
        counts = queue.export_gauges(registry)
        assert counts["queued"] == 2
        assert registry.gauge("repro_queue_depth").value() == 2.0
        assert registry.gauge("repro_jobs").value(state="queued") == 2.0
        assert registry.gauge("repro_jobs").value(state="done") == 0.0

    def test_export_gauges_default_to_the_process_registry(self, queue):
        queue.submit(make_job(_spec(0)))
        counts = queue.export_gauges()  # process registry is disabled: counts only
        assert counts["queued"] == 1
        assert telemetry.get_registry().snapshot() == []


class TestEventSequencing:
    def test_schema_version_is_three(self):
        assert EVENT_SCHEMA_VERSION == 3

    def test_seq_increments_per_job(self, events):
        events.emit("job_started", job_id="job-a")
        events.emit("spec_done", job_id="job-a")
        events.emit("job_started", job_id="job-b")
        events.emit("job_done", job_id="job-a")
        recorded = events.read()
        assert [event.get("seq") for event in recorded] == [1, 2, 1, 3]
        assert all(event["schema"] == EVENT_SCHEMA_VERSION for event in recorded)

    def test_events_without_a_job_carry_no_seq(self, events):
        events.emit("scheduler_started", workers=1)
        assert "seq" not in events.read()[0]


class TestSchedulerTelemetry:
    def test_drain_writes_snapshot_with_child_metrics(self, tmp_path, queue, events):
        telemetry.configure(enabled=True)
        store = ArtifactStore(tmp_path / "results.sqlite")
        metrics_path = tmp_path / "metrics.json"
        queue.submit(make_job(_spec(), label="obs"))
        scheduler = Scheduler(
            queue, store, events, poll_s=0.05, worker_prefix="t", metrics_path=metrics_path
        )
        scheduler.serve(workers=1, drain=True)

        registry = telemetry.get_registry()
        # Parent-side scheduler metrics.
        assert registry.counter("repro_jobs_finished_total").value(state="done") == 1.0
        assert registry.counter("repro_specs_total").value(outcome="executed") == 1.0
        assert registry.histogram("repro_job_duration_s").count(state="done") == 1
        # Child-side engine metrics travel through the result pipe and are merged.
        assert registry.counter("repro_rounds_total").value(policy="fedavg-random") == 3.0

        payload = telemetry.read_snapshot(metrics_path)
        merged = telemetry.MetricsRegistry()
        merged.merge(payload["metrics"])
        assert merged.counter("repro_rounds_total").value(policy="fedavg-random") == 3.0

        # Scheduler spans: one claim, one execute, one flush for the single job.
        names = [span.name for span in telemetry.get_tracer().spans()]
        assert names.count("claim") == 1
        assert names.count("execute") == 1
        assert names.count("flush") == 1

    def test_counts_are_exact_across_many_jobs(self, tmp_path, queue, events):
        # Each child starts from a fork of the parent's registry, so a child that
        # shipped its whole registry home would make every count grow with the jobs
        # before it; only what the child itself recorded may be merged.
        telemetry.configure(enabled=True)
        store = ArtifactStore(tmp_path / "results.sqlite")
        metrics_path = tmp_path / "metrics.json"
        jobs = [make_job(_spec(seed=seed)) for seed in range(4)]
        for job in jobs:
            queue.submit(job)
        Scheduler(
            queue, store, events, poll_s=0.05, worker_prefix="t", metrics_path=metrics_path
        ).serve(workers=1, drain=True)

        rounds = sum(
            store.get(job.specs[0].spec_hash()).summaries[0].rounds_executed for job in jobs
        )
        snapshot = telemetry.MetricsRegistry()
        snapshot.merge(telemetry.read_snapshot(metrics_path)["metrics"])
        for registry in (telemetry.get_registry(), snapshot):
            assert registry.counter("repro_jobs_finished_total").value(state="done") == 4
            assert registry.counter("repro_specs_total").value(outcome="executed") == 4
            assert registry.counter("repro_rounds_total").value(policy="fedavg-random") == rounds
            spans = registry.histogram("repro_span_s")
            for name, cat in (("claim", "scheduler"), ("spawn", "scheduler"), ("build", "engine")):
                assert spans.count(name=name, cat=cat) == 4, name
        # Every event line was emitted by this process, while telemetry was on.
        emitted = Counter(event["event"] for event in events.read())
        assert emitted["scheduler_started"] == 1 and emitted["job_done"] == 4
        counter = telemetry.get_registry().counter("repro_events_emitted_total")
        assert {event: counter.value(event=event) for event in emitted} == emitted

    def test_claim_span_ends_when_the_claim_returns(self, tmp_path, queue, events, monkeypatch):
        # Exporting queue gauges is telemetry bookkeeping after the claim, not part of it.
        telemetry.configure(enabled=True)
        pause_s = 0.2
        export_gauges = JobQueue.export_gauges

        def slow_export_gauges(self, *args, **kwargs):
            time.sleep(pause_s)
            return export_gauges(self, *args, **kwargs)

        monkeypatch.setattr(JobQueue, "export_gauges", slow_export_gauges)
        queue.submit(make_job(_spec()))
        Scheduler(
            queue, ArtifactStore(tmp_path / "results.sqlite"), events, poll_s=0.05,
            worker_prefix="t",
        ).serve(workers=1, drain=True)

        (claim,) = [span for span in telemetry.get_tracer().spans() if span.name == "claim"]
        assert claim.dur_s < pause_s

    def test_idle_serve_keeps_the_previous_snapshot(self, tmp_path, queue, events):
        telemetry.configure(enabled=True)
        store = ArtifactStore(tmp_path / "results.sqlite")
        metrics_path = tmp_path / "metrics.json"
        queue.submit(make_job(_spec()))
        Scheduler(
            queue, store, events, poll_s=0.05, worker_prefix="t", metrics_path=metrics_path
        ).serve(workers=1, drain=True)
        # A second serve process starts from an empty registry and finds no job.
        telemetry.reset(disable=False)
        Scheduler(
            queue, store, events, poll_s=0.05, worker_prefix="t", metrics_path=metrics_path
        ).serve(workers=1, drain=True)

        merged = telemetry.MetricsRegistry()
        merged.merge(telemetry.read_snapshot(metrics_path)["metrics"])
        assert merged.counter("repro_rounds_total").value(policy="fedavg-random") == 3.0

    def test_terminal_job_events_carry_dur_s(self, tmp_path, queue, events):
        store = ArtifactStore(tmp_path / "results.sqlite")
        queue.submit(make_job(_spec()))
        Scheduler(queue, store, events, poll_s=0.05, worker_prefix="t").serve(
            workers=1, drain=True
        )
        done = [event for event in events.read() if event["event"] == "job_done"]
        assert len(done) == 1
        assert done[0]["dur_s"] > 0.0
        assert done[0]["seq"] >= 1

    def test_disabled_telemetry_writes_no_snapshot(self, tmp_path, queue, events):
        store = ArtifactStore(tmp_path / "results.sqlite")
        metrics_path = tmp_path / "metrics.json"
        queue.submit(make_job(_spec()))
        Scheduler(
            queue, store, events, poll_s=0.05, worker_prefix="t", metrics_path=metrics_path
        ).serve(workers=1, drain=True)
        assert not metrics_path.exists()
        assert telemetry.get_registry().snapshot() == []
