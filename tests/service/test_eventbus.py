"""Tests for the event bus and the one HTTP server of ``serve``: fan-out, routes, live drains."""

import json
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.experiments.spec import ExperimentSpec
from repro.service.eventbus import ROUTES, EventBus, ServiceHttpServer
from repro.service.events import EventIndex, EventLog, tail_events
from repro.service.jobs import make_job
from repro.service.queue import JobQueue
from repro.service.scheduler import Scheduler
from repro.service.store import ArtifactStore
from repro.sim.scenarios import ScenarioSpec
from repro.telemetry import MetricsRegistry


def _spec(seed=0, devices=25, rounds=3):
    return ExperimentSpec(
        scenario=ScenarioSpec(num_devices=devices, max_rounds=rounds, seed=seed),
        policy="fedavg-random",
    )


@pytest.fixture
def path(tmp_path):
    return tmp_path / "events.jsonl"


@pytest.fixture
def log(path):
    return EventLog(path)


@pytest.fixture
def bus(path, log):
    bus = EventBus(path, poll_s=0.05, since_cursor=0).start()
    log.attach_bus(bus)
    yield bus
    bus.close()


@pytest.fixture
def server(bus):
    server = ServiceHttpServer(bus, MetricsRegistry(enabled=False)).start()
    yield server
    server.close()


def _get_json(url):
    with urllib.request.urlopen(url) as response:
        return json.loads(response.read().decode("utf-8"))


def _get_refused(url):
    """``(status, body)`` of a request the server answers with an error status."""
    with pytest.raises(urllib.error.HTTPError) as caught:
        urllib.request.urlopen(url, timeout=5)
    with caught.value as error:
        return error.code, error.read().decode("utf-8")


class TestBusFanOut:
    def test_subscribers_see_events_in_order_with_cursors(self, bus, log):
        subscription = bus.subscribe()
        for name in ("a", "b", "c"):
            log.emit(name)
        got = [subscription.get(timeout=2.0) for _ in range(3)]
        assert [(g["event"], g["cursor"]) for g in got] == [("a", 1), ("b", 2), ("c", 3)]

    def test_filters_apply_per_subscriber(self, bus, log):
        by_job = bus.subscribe(job="job-a")
        by_type = bus.subscribe(events=("job_done",))
        log.emit("job_started", job_id="job-a")
        log.emit("job_done", job_id="job-b")
        assert by_job.get(timeout=2.0)["event"] == "job_started"
        assert by_type.get(timeout=2.0)["event"] == "job_done"
        assert by_job.get(timeout=0.2) is None
        assert by_type.get(timeout=0.2) is None

    def test_lagged_subscriber_is_dropped_with_marker_not_blocking(self, bus, log):
        slow = bus.subscribe(max_queue=2)
        keeper = bus.subscribe()
        for index in range(10):
            log.emit("tick", index=index)
        assert [keeper.get(timeout=2.0)["index"] for _ in range(10)] == list(range(10))
        drained = list(slow.stream(poll_s=0.05))
        assert drained[-1]["event"] == "subscriber_lagged"
        assert len(drained) <= 3  # two buffered + the marker
        assert slow.closed  # dropped, never blocking the emitter

    def test_bus_started_at_end_of_log_skips_history(self, path, log):
        log.emit("old")
        bus = EventBus(path, poll_s=0.05).start()  # since_cursor=None: end of log
        log.attach_bus(bus)
        try:
            subscription = bus.subscribe()
            log.emit("new")
            got = subscription.get(timeout=2.0)
            assert got["event"] == "new" and got["cursor"] == 2
        finally:
            bus.close()

    def test_follower_seeks_once_then_keeps_its_offset(self, path, log, monkeypatch):
        # A wake-up reads only the appended bytes: no index reload, rescan or rewrite.
        saves = []
        save = EventIndex.save

        def counting_save(self):
            saves.append(threading.current_thread().name)
            save(self)

        monkeypatch.setattr(EventIndex, "save", counting_save)
        for index in range(3):
            log.emit("old", index=index)
        bus = EventBus(path, poll_s=0.05).start()
        log.attach_bus(bus)
        try:
            subscription = bus.subscribe()
            for index in range(50):
                log.emit("new", index=index)
                got = subscription.get(timeout=2.0)
                assert (got["index"], got["cursor"]) == (index, index + 4)
        finally:
            bus.close()
        assert saves.count("repro-event-bus") <= 1  # The initial seek.

    def test_concurrent_emitters_are_delivered_once_in_file_order(self, bus, log, path):
        # The follower may read a line half-written; it must hold it back, not drop it.
        subscription = bus.subscribe()
        threads, per_thread = 4, 50
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            emitters = [
                threading.Thread(
                    target=lambda t=t: [log.emit("tick", t=t, i=i) for i in range(per_thread)]
                )
                for t in range(threads)
            ]
            for emitter in emitters:
                emitter.start()
            for emitter in emitters:
                emitter.join(timeout=10.0)
            assert not any(emitter.is_alive() for emitter in emitters)
        finally:
            sys.setswitchinterval(interval)
        got = [subscription.get(timeout=5.0) for _ in range(threads * per_thread)]
        assert None not in got
        assert [event["cursor"] for event in got] == list(range(1, threads * per_thread + 1))
        expected = list(tail_events(path, since_cursor=0))
        assert [(e["t"], e["i"]) for e in got] == [(e["t"], e["i"]) for e in expected]
        assert len({(e["t"], e["i"]) for e in got}) == threads * per_thread

    def test_wait_for_unblocks_on_emit(self, bus, log):
        log.emit("first")
        assert bus.wait_for(0, timeout=2.0) >= 1
        result = {}

        def wait():
            result["cursor"] = bus.wait_for(1, timeout=5.0)

        waiter = threading.Thread(target=wait)
        waiter.start()
        log.emit("second")
        waiter.join(timeout=5.0)
        assert not waiter.is_alive()
        assert result["cursor"] >= 2


class TestLongPoll:
    def test_immediate_batch_and_cursor(self, server, log):
        log.emit("a", job_id="job-1")
        log.emit("b", job_id="job-2")
        body = _get_json(f"{server.url}/events?cursor=0")
        assert [e["event"] for e in body["events"]] == ["a", "b"]
        assert body["cursor"] == 2

    def test_job_and_event_filters(self, server, log):
        log.emit("job_started", job_id="job-1")
        log.emit("job_started", job_id="job-2")
        log.emit("job_done", job_id="job-1")
        body = _get_json(f"{server.url}/events?cursor=0&job=job-1")
        assert [e["event"] for e in body["events"]] == ["job_started", "job_done"]
        body = _get_json(f"{server.url}/events?cursor=0&event=job_done")
        assert [e["event"] for e in body["events"]] == ["job_done"]
        body = _get_json(f"{server.url}/events?cursor=0&event=job_done&event=job_started")
        assert len(body["events"]) == 3

    def test_long_poll_parks_until_an_event_arrives(self, server, log):
        log.emit("first")
        result = {}

        def poll():
            result["body"] = _get_json(f"{server.url}/events?cursor=1&timeout=10")

        poller = threading.Thread(target=poll)
        poller.start()
        time.sleep(0.2)  # Let the handler park on the bus.
        log.emit("second")
        poller.join(timeout=5.0)
        assert not poller.is_alive()
        assert [e["event"] for e in result["body"]["events"]] == ["second"]

    def test_timeout_returns_empty_batch_with_cursor(self, server, log):
        log.emit("only")
        body = _get_json(f"{server.url}/events?cursor=1&timeout=0.2")
        assert body["events"] == [] and body["cursor"] == 1

    def test_disconnect_resume_at_saved_cursor_no_duplicates(self, server, log):
        for index in range(10):
            log.emit("tick", index=index)
        first = _get_json(f"{server.url}/events?cursor=0&limit=4")
        saved = first["cursor"]
        for index in range(10, 13):
            log.emit("tick", index=index)
        # A brand-new connection (simulated disconnect) resumes at the cursor.
        rest = _get_json(f"{server.url}/events?cursor={saved}")
        indices = [e["index"] for e in first["events"] + rest["events"]]
        assert indices == list(range(13))

    def test_events_sub_http_accepts_schemeless_host_port(self, server, log, capsys):
        from repro.cli import main

        log.emit("job_submitted", job_id="job-1")
        address = f"{server.host}:{server.port}"  # as printed by serve, no scheme
        assert main(["events", "sub", "--http", address, "--limit", "1"]) == 0
        line = json.loads(capsys.readouterr().out)
        assert line["event"] == "job_submitted" and line["cursor"] == 1

    def test_healthz(self, server):
        with urllib.request.urlopen(f"http://{server.host}:{server.port}/healthz") as resp:
            assert resp.status == 200


class TestSSE:
    def test_stream_replays_backlog_then_follows_live(self, server, log):
        log.emit("old-1")
        log.emit("old-2")
        frames = []
        done = threading.Event()

        def consume():
            url = f"http://{server.host}:{server.port}/events/stream?cursor=0"
            with urllib.request.urlopen(url) as response:
                for raw in response:
                    line = raw.decode("utf-8").strip()
                    if line.startswith("data: "):
                        frames.append(json.loads(line[len("data: "):]))
                        if frames[-1].get("event") == "live":
                            done.set()
                            return

        consumer = threading.Thread(target=consume, daemon=True)
        consumer.start()
        time.sleep(0.3)  # Backlog replay + subscription switchover.
        log.emit("live")
        assert done.wait(timeout=5.0)
        assert [f["event"] for f in frames] == ["old-1", "old-2", "live"]
        assert [f["cursor"] for f in frames] == [1, 2, 3]


class TestOneSurface:
    def test_all_four_routes_answer_on_one_port(self, bus, log):
        registry = MetricsRegistry(enabled=True)

        def refresh():
            registry.gauge("repro_queue_depth").set(3.0)

        server = ServiceHttpServer(bus, registry, refresh=refresh).start()
        try:
            log.emit("job_submitted", job_id="job-1")
            with urllib.request.urlopen(f"{server.url}/metrics", timeout=5) as response:
                assert "repro_queue_depth 3\n" in response.read().decode("utf-8")
            with urllib.request.urlopen(f"{server.url}/healthz", timeout=5) as response:
                assert response.read() == b"ok\n"
            body = _get_json(f"{server.url}/events?cursor=0")
            assert [e["event"] for e in body["events"]] == ["job_submitted"]
            url = f"{server.url}/events/stream?cursor=0"
            with urllib.request.urlopen(url, timeout=5) as response:
                assert response.headers["Content-Type"] == "text/event-stream"
                assert response.readline() == b"id: 1\n"
            status, listing = _get_refused(f"{server.url}/")
            assert status == 404
            assert all(route in listing for route in ROUTES)
        finally:
            server.close()

    def test_close_does_not_wait_out_a_long_poll_interval(self, bus):
        server = ServiceHttpServer(bus, MetricsRegistry(enabled=False)).start()
        # One answered request puts the server thread in its select loop.
        with urllib.request.urlopen(f"{server.url}/healthz", timeout=5) as response:
            assert response.read() == b"ok\n"
        started = time.monotonic()
        server.close()
        assert time.monotonic() - started < 0.25

    def test_metrics_answer_404_naming_telemetry_while_it_is_off(self, server):
        status, body = _get_refused(f"{server.url}/metrics")
        assert status == 404 and "--telemetry" in body


class TestQueryValidation:
    @pytest.mark.parametrize(
        "query", ["cursor=abc", "cursor=-7", "limit=zz", "timeout=nan", "timeout=inf"]
    )
    def test_bad_parameter_answers_400_naming_it(self, server, query):
        for route in ("/events", "/events/stream"):
            started = time.monotonic()
            status, body = _get_refused(f"{server.url}{route}?{query}")
            assert status == 400
            assert body.startswith(query.split("=")[0] + " must be")
            # timeout=nan on an idle log used to busy-spin the handler, never answering.
            assert time.monotonic() - started < 2.0


class TestLiveDrainAcceptance:
    def test_midflight_subscriber_sees_exactly_the_file_tail(self, tmp_path, path):
        """A long-poll consumer started mid-drain with cursor=0 receives every event
        the file tail sees, in order, with no duplicates across a simulated
        disconnect/resume at a saved cursor."""
        queue = JobQueue(tmp_path / "queue")
        store = ArtifactStore(tmp_path / "results.sqlite")
        log = EventLog(path)
        scheduler = Scheduler(queue, store, log, poll_s=0.05, worker_prefix="t")
        for seed in range(3):
            queue.submit(make_job(_spec(seed), label=f"s{seed}"))
        bus = EventBus(path, poll_s=0.05, since_cursor=0).start()
        log.attach_bus(bus)
        server = ServiceHttpServer(bus, MetricsRegistry(enabled=False)).start()
        drain = threading.Thread(
            target=lambda: scheduler.serve(workers=2, drain=True, install_signals=False)
        )
        drain.start()
        received = []
        cursor = 0
        disconnected = False
        try:
            while True:
                body = _get_json(f"{server.url}/events?cursor={cursor}&timeout=2&limit=50")
                received.extend(body["events"])
                cursor = body["cursor"]
                if not disconnected and len(received) >= 4:
                    disconnected = True  # Resume from the saved cursor, fresh request.
                    continue
                if not body["events"] and not drain.is_alive():
                    break
        finally:
            drain.join(timeout=60.0)
            server.close()
            bus.close()
        assert not drain.is_alive()
        expected = list(tail_events(path, since_cursor=0))
        assert [e["cursor"] for e in received] == [e["cursor"] for e in expected]
        assert [e["event"] for e in received] == [e["event"] for e in expected]
        assert len({e["cursor"] for e in received}) == len(received)  # no duplicates
        names = [e["event"] for e in received]
        assert names.count("job_done") == 3
        assert names[-1] == "scheduler_stopped"
