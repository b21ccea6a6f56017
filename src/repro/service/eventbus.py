"""Push-based fan-out over the event log, and the one HTTP surface of ``serve``.

The :class:`EventBus` runs one follower thread that tails ``events.jsonl`` with
durable cursors (so it sees the appends of *every* process sharing the service
root, not just its own) and fans each event out to in-process subscribers over
bounded queues.  A subscriber that stops draining its queue is dropped with a
synthetic ``subscriber_lagged`` event rather than ever blocking the follower —
the scheduler's emit path never waits on a slow dashboard.

:class:`ServiceHttpServer` is the one stdlib HTTP thread behind ``serve --port``:

* ``GET /metrics`` — the Prometheus text exposition, with the queue gauges refreshed
  at scrape time; 404 while telemetry is off (``serve --telemetry`` turns it on).
* ``GET /healthz`` — liveness.
* ``GET /events?cursor=N&job=...&event=...&timeout=30`` — long-poll: replies
  immediately when events past ``cursor`` exist, otherwise parks on the bus until
  one arrives or the timeout lapses.  The JSON body carries the new resume cursor.
* ``GET /events/stream?cursor=N&job=...`` — Server-Sent Events; each frame's
  ``id:`` is the event's cursor so ``Last-Event-ID`` reconnect semantics work.

On both event routes a ``cursor`` or ``limit`` that is not a non-negative integer,
or a ``timeout`` that is not a finite number, answers 400 naming the parameter.
Any other path answers 404 listing the four routes.

``repro events sub --http`` and ``repro watch -f --http`` are thin clients of the
long-poll endpoint.
"""

from __future__ import annotations

import itertools
import json
import math
import queue
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Callable, Iterable, Iterator
from urllib.parse import parse_qs, urlsplit

from repro import telemetry
from repro.exceptions import ServiceError
from repro.service.events import EventIndex, event_matches, read_events_since, tail_events

__all__ = [
    "DEFAULT_MAX_SUBSCRIBER_QUEUE",
    "EventBus",
    "ServiceHttpServer",
    "Subscription",
]

#: Events buffered per subscriber before it is declared lagged and dropped.
DEFAULT_MAX_SUBSCRIBER_QUEUE = 1024

#: Long-poll timeouts are clamped to this many seconds.
MAX_LONG_POLL_S = 300.0

#: Most events one long-poll response will carry (the cursor lets callers page).
MAX_BATCH = 500

#: The paths :class:`ServiceHttpServer` answers.
ROUTES = ("/metrics", "/healthz", "/events", "/events/stream")

#: How often the server thread checks for shutdown, so the most ``close`` waits; the
#: stdlib default of 0.5 s would hold up every ``serve --port`` exit by as much.
SHUTDOWN_POLL_S = 0.05


class Subscription:
    """One bounded in-process event feed handed out by :meth:`EventBus.subscribe`."""

    def __init__(
        self,
        bus: "EventBus",
        sub_id: int,
        job: str | None,
        events: tuple[str, ...] | None,
        max_queue: int,
    ) -> None:
        self.bus = bus
        self.sub_id = sub_id
        self.job = job
        self.events = events
        self._queue: queue.Queue = queue.Queue(maxsize=max_queue)
        self.lagged = False
        self.closed = False

    def _offer(self, payload: dict) -> bool:
        """Enqueue without blocking; a full queue marks the subscriber lagged."""
        try:
            self._queue.put_nowait(payload)
            return True
        except queue.Full:
            self.lagged = True
            return False

    def get(self, timeout: float | None = None) -> dict | None:
        """Pop the next event (``None`` on timeout or when the feed is exhausted)."""
        if self.closed and self._queue.empty():
            return self._pop_lagged_marker()
        try:
            return self._queue.get(timeout=timeout)
        except queue.Empty:
            return self._pop_lagged_marker() if self.closed else None

    def _pop_lagged_marker(self) -> dict | None:
        if self.lagged:
            self.lagged = False  # Deliver the marker once.
            return {"event": "subscriber_lagged", "ts": time.time()}
        return None

    def stream(self, stop=None, poll_s: float = 0.2) -> Iterator[dict]:
        """Yield events until the feed closes; a lagged feed ends with the marker."""
        while True:
            payload = self.get(timeout=poll_s)
            if payload is not None:
                yield payload
                if payload.get("event") == "subscriber_lagged":
                    return
            elif self.closed and self._queue.empty():
                return
            if stop is not None and stop():
                return

    def close(self) -> None:
        self.bus.unsubscribe(self)


class EventBus:
    """Single-follower fan-out over one event log, with durable-cursor tracking.

    The follower is one :func:`tail_events` generator that keeps its byte offset and
    wakes on :meth:`poke`, so each delivered payload carries its ``cursor`` and
    :meth:`wait_for` can park long-poll handlers until the bus has consumed past a
    given cursor.  ``since_cursor=None`` starts at the current end of the log
    (subscribers see only new events); pass ``0`` to replay everything through the
    bus.
    """

    def __init__(
        self,
        path: str | Path,
        poll_s: float = 0.2,
        since_cursor: int | None = None,
    ) -> None:
        self.path = Path(path)
        self.poll_s = poll_s
        self._since_cursor = since_cursor
        self._cursor = 0
        self._subscribers: list[Subscription] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._advanced = threading.Condition(self._lock)
        self._wake = threading.Event()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    @property
    def cursor(self) -> int:
        """The highest cursor the follower has consumed so far."""
        with self._lock:
            return self._cursor

    def start(self) -> "EventBus":
        if self._thread is not None:
            return self
        if self._since_cursor is None:
            # Default: subscribers get *new* events, not a replay of the history.
            self._cursor = EventIndex(self.path).refresh(save=False).count
        else:
            self._cursor = self._since_cursor
        self._thread = threading.Thread(target=self._follow, name="repro-event-bus", daemon=True)
        self._thread.start()
        return self

    def poke(self) -> None:
        """Wake the follower immediately (called by ``EventLog.emit`` in-process)."""
        self._wake.set()

    def subscribe(
        self,
        job: str | None = None,
        events: Iterable[str] | None = None,
        max_queue: int = DEFAULT_MAX_SUBSCRIBER_QUEUE,
    ) -> Subscription:
        subscription = Subscription(
            self,
            next(self._ids),
            job,
            tuple(events) if events else None,
            max_queue,
        )
        with self._lock:
            self._subscribers.append(subscription)
            count = len(self._subscribers)
        self._set_subscriber_gauge(count)
        return subscription

    def unsubscribe(self, subscription: Subscription) -> None:
        subscription.closed = True
        with self._lock:
            try:
                self._subscribers.remove(subscription)
            except ValueError:
                return
            count = len(self._subscribers)
        self._set_subscriber_gauge(count)

    def wait_for(self, cursor: int, timeout: float | None = None) -> int:
        """Block until the bus has consumed past ``cursor``; returns its cursor."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._advanced:
            while self._cursor <= cursor and not self._stop.is_set():
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    break
                self._advanced.wait(remaining if remaining is not None else 1.0)
            return self._cursor

    def close(self) -> None:
        self._stop.set()
        self._wake.set()
        with self._advanced:
            self._advanced.notify_all()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        with self._lock:
            leftovers = list(self._subscribers)
        for subscription in leftovers:
            self.unsubscribe(subscription)

    # -- follower ----------------------------------------------------------

    def _follow(self) -> None:
        # One incremental tail from the start cursor: it seeks once, then keeps its own
        # byte offset, so a wake-up reads only the bytes appended since the last one.
        for payload in tail_events(
            self.path,
            follow=True,
            poll_s=self.poll_s,
            stop=self._stop.is_set,
            since_cursor=self._cursor,
            wait=self._wait,
        ):
            self._publish(payload)

    def _wait(self, timeout: float) -> None:
        """Sleep until an in-process emit pokes the bus, or ``timeout`` passes."""
        self._wake.wait(timeout)
        self._wake.clear()

    def _publish(self, payload: dict) -> None:
        with self._lock:
            targets = list(self._subscribers)
        for subscription in targets:
            if subscription.closed or not event_matches(
                payload, job=subscription.job, events=subscription.events
            ):
                continue
            if not subscription._offer(payload):
                self.unsubscribe(subscription)
                registry = telemetry.get_registry()
                if registry.enabled:
                    registry.counter(
                        "repro_subscriber_lagged_total",
                        help="In-process subscribers dropped for not draining their queue.",
                    ).inc()
        with self._advanced:
            self._cursor = payload["cursor"]
            self._advanced.notify_all()

    def _set_subscriber_gauge(self, count: int) -> None:
        registry = telemetry.get_registry()
        if registry.enabled:
            registry.gauge(
                "repro_event_subscribers",
                help="Live in-process event-bus subscribers.",
            ).set(float(count))


class _BadQuery(ValueError):
    """A query parameter an event route refuses; answered with 400 and this message."""


def _param(params: dict, key: str) -> str | None:
    values = params.get(key)
    return values[0] if values else None


def _count_param(params: dict, key: str, default: int) -> int:
    raw = _param(params, key)
    if raw is None:
        return default
    if not (raw.isascii() and raw.isdigit()):
        raise _BadQuery(f"{key} must be a non-negative integer, got {raw!r}")
    return int(raw)


class ServiceHttpServer:
    """The one HTTP surface of a ``serve`` process, on a stdlib server thread.

    It answers :data:`ROUTES`: the Prometheus exposition of ``registry`` (after
    ``refresh``, if given, updates the live queue gauges), a health check, and the
    long-poll and SSE feeds of ``bus``.  The constructor binds the socket and raises
    :class:`ServiceError` when it cannot, so callers bind before they start any
    thread; :meth:`start` serves.  ``port=0`` binds an ephemeral port, read back
    from ``server.port``.
    """

    def __init__(
        self,
        bus: EventBus,
        registry: telemetry.MetricsRegistry,
        port: int = 0,
        host: str = "127.0.0.1",
        refresh: Callable[[], object] | None = None,
    ) -> None:
        self.bus = bus
        self.registry = registry
        self.refresh = refresh
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self):  # noqa: N802 - http.server API
                outer._route(self)

            def log_message(self, *args):  # noqa: A002 - silence per-request logging
                pass

        try:
            self._server = ThreadingHTTPServer((host, port), Handler)
        except OSError as exc:
            raise ServiceError(f"cannot listen on {host}:{port}: {exc.strerror or exc}") from exc
        self._server.daemon_threads = True
        self.host = host
        self.port = self._server.server_address[1]
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": SHUTDOWN_POLL_S},
            name="repro-http",
            daemon=True,
        )

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ServiceHttpServer":
        self._thread.start()
        return self

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5.0)

    # -- handlers ----------------------------------------------------------

    def _route(self, handler) -> None:
        parts = urlsplit(handler.path)
        route = parts.path.rstrip("/")
        try:
            if route == "/metrics":
                self._handle_metrics(handler)
            elif route == "/healthz":
                self._respond(handler, 200, "ok\n")
            elif route == "/events":
                self._handle_long_poll(handler, self._query(parts.query))
            elif route == "/events/stream":
                self._handle_stream(handler, self._query(parts.query))
            else:
                self._respond(
                    handler, 404, f"unknown path {parts.path}; routes: {' '.join(ROUTES)}\n"
                )
        except _BadQuery as exc:
            self._respond(handler, 400, f"{exc}\n")
        except (BrokenPipeError, ConnectionResetError):
            pass  # Client went away mid-write: routine for long-poll/SSE.

    def _query(self, query: str) -> tuple[int, str | None, tuple[str, ...] | None, int, float]:
        """``(cursor, job, events, limit, timeout)`` of an event route's query string."""
        params = parse_qs(query)
        cursor = _count_param(params, "cursor", 0)
        limit = min(max(_count_param(params, "limit", MAX_BATCH), 1), MAX_BATCH)
        raw_timeout = _param(params, "timeout") or "0"
        try:
            timeout = float(raw_timeout)
        except ValueError:
            timeout = math.nan
        if not math.isfinite(timeout):
            # Condition.wait(nan) returns at once, so a NaN deadline would busy-spin.
            raise _BadQuery(f"timeout must be a finite number of seconds, got {raw_timeout!r}")
        events = tuple(params["event"]) if params.get("event") else None
        return cursor, _param(params, "job"), events, limit, min(timeout, MAX_LONG_POLL_S)

    @staticmethod
    def _respond(
        handler, status: int, body: str, content_type: str = "text/plain; charset=utf-8"
    ) -> None:
        data = body.encode("utf-8")
        handler.send_response(status)
        handler.send_header("Content-Type", content_type)
        handler.send_header("Content-Length", str(len(data)))
        handler.end_headers()
        handler.wfile.write(data)

    def _handle_metrics(self, handler) -> None:
        if not self.registry.enabled:
            self._respond(handler, 404, "metrics are off: start serve with --telemetry\n")
            return
        if self.refresh is not None:
            try:
                self.refresh()
            except Exception:  # pragma: no cover - scrape must not die
                pass
        body = telemetry.render_prometheus(self.registry)
        self._respond(handler, 200, body, "text/plain; version=0.0.4; charset=utf-8")

    def _handle_long_poll(self, handler, query: tuple) -> None:
        cursor, job, events, limit, timeout = query
        deadline = time.monotonic() + timeout
        while True:
            batch, last = read_events_since(
                self.bus.path, cursor, job=job, events=events, limit=limit
            )
            remaining = deadline - time.monotonic()
            if batch or remaining <= 0:
                break
            # Nothing matched yet: park on the bus until it consumes past what we
            # just read (any later event may match), then re-read from there.
            cursor = last
            self.bus.wait_for(last, timeout=remaining)
        body = json.dumps({"cursor": last, "events": batch}, sort_keys=True)
        self._respond(handler, 200, body, "application/json")

    def _handle_stream(self, handler, query: tuple) -> None:
        cursor, job, events, _, _ = query
        # Subscribe *before* the catch-up read: anything emitted during catch-up is
        # queued, so the switchover from file replay to live feed has no gap.
        subscription = self.bus.subscribe(job=job, events=events)
        try:
            handler.send_response(200)
            handler.send_header("Content-Type", "text/event-stream")
            handler.send_header("Cache-Control", "no-cache")
            handler.end_headers()
            last = cursor
            backlog, caught_up = read_events_since(self.bus.path, cursor, job=job, events=events)
            for payload in backlog:
                last = payload["cursor"]
                self._write_sse(handler, payload)
            last = max(last, caught_up)
            while not subscription.closed or not subscription._queue.empty():
                payload = subscription.get(timeout=1.0)
                if payload is None:
                    continue
                if payload.get("event") == "subscriber_lagged":
                    self._write_sse(handler, payload)
                    return
                if payload.get("cursor", 0) <= last:
                    continue  # Queued during catch-up and already replayed from file.
                last = payload["cursor"]
                self._write_sse(handler, payload)
        finally:
            subscription.close()

    @staticmethod
    def _write_sse(handler, payload: dict) -> None:
        frame = ""
        if "cursor" in payload:
            frame += f"id: {payload['cursor']}\n"
        frame += f"data: {json.dumps(payload, sort_keys=True)}\n\n"
        handler.wfile.write(frame.encode("utf-8"))
        handler.wfile.flush()
