"""Tests for the one HTTP server of ``serve``: per-request followers, routes, live drains."""

import json
import queue
import sys
import threading
import time
import urllib.error
import urllib.parse
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.spec import ExperimentSpec
from repro.service.eventbus import ROUTES, ServiceHttpServer
from repro.service.events import EventIndex, EventLog, read_events_since, tail_events
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
def server(path):
    server = ServiceHttpServer(path, MetricsRegistry(enabled=False)).start()
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


def _stream(url, headers=None):
    """An open ``/events/stream`` response; a stalled stream fails the read in 10 s."""
    return urllib.request.urlopen(urllib.request.Request(url, headers=headers or {}), timeout=10)


def _frames(response, count):
    """The next ``count`` SSE frames of ``response``, as ``(id, payload)`` pairs."""
    frames = []
    frame_id = None
    for raw in response:
        line = raw.decode("utf-8").rstrip("\n")
        if line.startswith("id: "):
            frame_id = int(line[len("id: "):])
        elif line.startswith("data: "):
            frames.append((frame_id, json.loads(line[len("data: "):])))
            if len(frames) == count:
                break
    return frames


class TestBusFanOut:
    """The log fans out to every open event request, each from its own cursor."""

    def test_subscribers_see_events_in_order_with_cursors(self, server, log):
        first = _stream(f"{server.url}/events/stream?cursor=0")
        second = _stream(f"{server.url}/events/stream?cursor=0")
        with first, second:
            for name in ("a", "b", "c"):
                log.emit(name)
            for subscriber in (first, second):
                got = _frames(subscriber, 3)
                assert [(i, e["event"], e["cursor"]) for i, e in got] == [
                    (1, "a", 1),
                    (2, "b", 2),
                    (3, "c", 3),
                ]

    def test_concurrent_emitters_are_delivered_once_in_file_order(self, server, log, path):
        # The follower may read a line half-written; it must hold it back, not drop it.
        threads, per_thread = 4, 50
        with _stream(f"{server.url}/events/stream?cursor=0") as response:
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
            got = _frames(response, threads * per_thread)
        assert [frame_id for frame_id, _ in got] == list(range(1, threads * per_thread + 1))
        assert [e["cursor"] for _, e in got] == list(range(1, threads * per_thread + 1))
        expected = list(tail_events(path, since_cursor=0))
        assert [(e["t"], e["i"]) for _, e in got] == [(e["t"], e["i"]) for e in expected]
        assert len({(e["t"], e["i"]) for _, e in got}) == threads * per_thread


class TestFollowers:
    def test_parked_long_poll_saves_the_index_at_most_once(self, server, log, monkeypatch):
        # The request seeks once through the index, then reads only appended bytes.
        saves = []
        save = EventIndex.save

        def counting_save(index):
            saves.append(index)
            save(index)

        monkeypatch.setattr(EventIndex, "save", counting_save)
        for index in range(3):
            log.emit("old", index=index)
        result = {}

        def poll():
            result["body"] = _get_json(f"{server.url}/events?cursor=3&event=last&timeout=30")

        poller = threading.Thread(target=poll)
        poller.start()
        time.sleep(0.2)  # Let the handler park.
        for index in range(50):
            log.emit("tick", index=index)
            time.sleep(0.005)  # Spaced, so each emit wakes the parked follower.
        log.emit("last")
        poller.join(timeout=10.0)
        assert not poller.is_alive()
        assert [e["event"] for e in result["body"]["events"]] == ["last"]
        assert result["body"]["cursor"] == 54
        assert len(saves) <= 1

    def test_sse_filters_apply_per_request(self, server, log):
        by_job = _stream(f"{server.url}/events/stream?cursor=0&job=job-a")
        by_type = _stream(f"{server.url}/events/stream?cursor=0&event=job_done")
        with by_job, by_type:
            log.emit("job_started", job_id="job-a")
            log.emit("job_done", job_id="job-b")
            log.emit("job_done", job_id="job-a")
            assert [(i, e["event"]) for i, e in _frames(by_job, 2)] == [
                (1, "job_started"),
                (3, "job_done"),
            ]
            assert [(i, e["job_id"]) for i, e in _frames(by_type, 2)] == [
                (2, "job-b"),
                (3, "job-a"),
            ]

    def test_an_in_process_emit_wakes_a_follower_at_once(self, path, log):
        log.emit("first")
        got = queue.Queue()
        done = threading.Event()

        def follow():
            for payload in tail_events(path, follow=True, poll_s=10, stop=done.is_set):
                got.put((payload["event"], time.monotonic()))

        follower = threading.Thread(target=follow, daemon=True)
        follower.start()
        assert got.get(timeout=5.0)[0] == "first"
        time.sleep(0.1)  # Let the follower sleep out its 10 s poll.
        emitted = time.monotonic()
        log.emit("second")
        event, seen = got.get(timeout=5.0)
        done.set()
        log.emit("last")  # Wakes the follower to see the stop.
        follower.join(timeout=5.0)
        assert not follower.is_alive()
        assert event == "second" and seen - emitted < 1.0

    def test_close_ends_an_open_sse_request_within_one_poll(self, path, log):
        server = ServiceHttpServer(path, MetricsRegistry(enabled=False)).start()
        log.emit("only")
        with _stream(f"{server.url}/events/stream?cursor=0") as response:
            assert [frame_id for frame_id, _ in _frames(response, 1)] == [1]
            started = time.monotonic()
            server.close()
            # The frame's closing blank line, then the end of the stream: the handler returned.
            assert response.read() == b"\n"
            assert time.monotonic() - started < 1.0


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
        time.sleep(0.3)  # Backlog replay, then the follower parks.
        log.emit("live")
        assert done.wait(timeout=5.0)
        assert [f["event"] for f in frames] == ["old-1", "old-2", "live"]
        assert [f["cursor"] for f in frames] == [1, 2, 3]

    def test_last_event_id_header_is_the_resume_cursor(self, server, log):
        # An EventSource reconnects with its first URL plus the last id it saw.
        for name in ("a", "b", "c"):
            log.emit(name)
        url = f"{server.url}/events/stream?cursor=0"
        with _stream(url, {"Last-Event-ID": "2"}) as response:
            assert response.readline() == b"id: 3\n"

    def test_malformed_last_event_id_answers_400_naming_it(self, server):
        request = urllib.request.Request(
            f"{server.url}/events/stream?cursor=0", headers={"Last-Event-ID": "two"}
        )
        status, body = _get_refused(request)
        assert status == 400 and body.startswith("Last-Event-ID must be")


class TestOneSurface:
    def test_all_four_routes_answer_on_one_port(self, path, log):
        registry = MetricsRegistry(enabled=True)

        def refresh():
            registry.gauge("repro_queue_depth").set(3.0)

        server = ServiceHttpServer(path, registry, refresh=refresh).start()
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

    def test_close_does_not_wait_out_a_long_poll_interval(self, path):
        server = ServiceHttpServer(path, MetricsRegistry(enabled=False)).start()
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


class TestLongPollAgreesWithReader:
    def test_route_returns_what_read_events_since_reads(self, path):
        # Random logs (job ids, event names, a torn last line) and random queries: the
        # route with timeout=0 gives the reference reader's events and resume cursor.
        server = ServiceHttpServer(path, MetricsRegistry(enabled=False)).start()
        index_path = EventIndex(path).path
        jobs = st.sampled_from([None, "job-a", "job-b"])
        lines = st.lists(
            st.tuples(jobs, st.sampled_from(["a", "b", "c"])).map(
                lambda pair: {"event": pair[1], **({"job_id": pair[0]} if pair[0] else {})}
            ),
            max_size=12,
        )

        @settings(max_examples=60, deadline=None)
        @given(
            lines=lines,
            torn=st.integers(0, 17),
            cursor=st.integers(0, 14),
            job=st.one_of(jobs, st.just("job-c")),
            events=st.sampled_from([None, ("a",), ("a", "b"), ("c",)]),
            limit=st.one_of(st.none(), st.integers(1, 4)),
        )
        def check(lines, torn, cursor, job, events, limit):
            text = "".join(json.dumps(line, sort_keys=True) + "\n" for line in lines)
            path.write_text(text + json.dumps({"event": "torn"})[:torn])
            index_path.unlink(missing_ok=True)  # Each example is a new log.
            params = [("cursor", cursor), ("timeout", 0)]
            params += [("job", job)] if job else []
            params += [("event", name) for name in events or ()]
            params += [("limit", limit)] if limit else []
            body = _get_json(f"{server.url}/events?{urllib.parse.urlencode(params)}")
            expected = read_events_since(path, cursor, job=job, events=events, limit=limit)
            assert (body["events"], body["cursor"]) == expected

        try:
            check()
        finally:
            server.close()


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
        server = ServiceHttpServer(path, MetricsRegistry(enabled=False)).start()
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
        assert not drain.is_alive()
        expected = list(tail_events(path, since_cursor=0))
        assert [e["cursor"] for e in received] == [e["cursor"] for e in expected]
        assert [e["event"] for e in received] == [e["event"] for e in expected]
        assert len({e["cursor"] for e in received}) == len(received)  # no duplicates
        names = [e["event"] for e in received]
        assert names.count("job_done") == 3
        assert names[-1] == "scheduler_stopped"
