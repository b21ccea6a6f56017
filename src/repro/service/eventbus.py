"""The one HTTP surface of ``serve``, with the event log's long-poll and SSE feeds.

:class:`ServiceHttpServer` is the one stdlib HTTP thread behind ``serve --port``:

* ``GET /metrics`` — the Prometheus text exposition, with the queue gauges refreshed
  at scrape time; 404 while telemetry is off (``serve --telemetry`` turns it on).
* ``GET /healthz`` — liveness.
* ``GET /events?cursor=N&job=...&event=...&timeout=30`` — long-poll: replies as soon
  as a read past ``cursor`` finds a match, otherwise when the timeout lapses.  The
  JSON body carries the new resume cursor.
* ``GET /events/stream?cursor=N&job=...`` — Server-Sent Events; each frame's
  ``id:`` is the event's cursor, and a ``Last-Event-ID`` header, when sent, is the
  resume cursor in place of ``cursor=``, so an ``EventSource`` reconnect resumes.

Each event request follows ``events.jsonl`` itself, from its own cursor, with one
:func:`~repro.service.events.tail_events` generator: it seeks once through the index,
then reads only the bytes appended since its last read, and the log file is the only
buffer.  An emit in this process wakes every follower at once; appends by other
processes are seen at the next poll.  A slow SSE client reads at its own pace and
misses nothing, and the scheduler's emits never wait on it.  A long-poll's timeout
and :meth:`ServiceHttpServer.close` are noticed at the next poll.

On both event routes a ``cursor`` or ``limit`` that is not a non-negative integer,
or a ``timeout`` that is not a finite number, answers 400 naming the parameter, as
does a ``Last-Event-ID`` on the stream that is not a non-negative integer.  Any other
path answers 404 listing the four routes.

``repro events sub --http`` and ``repro watch -f --http`` are thin clients of the
long-poll endpoint.
"""

from __future__ import annotations

import json
import math
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Callable
from urllib.parse import parse_qs, urlsplit

from repro import telemetry
from repro.exceptions import ServiceError
from repro.service.events import event_matches, tail_events

__all__ = ["ServiceHttpServer"]

#: Long-poll timeouts are clamped to this many seconds.
MAX_LONG_POLL_S = 300.0

#: Most events one long-poll response will carry (the cursor lets callers page).
MAX_BATCH = 500

#: The paths :class:`ServiceHttpServer` answers.
ROUTES = ("/metrics", "/healthz", "/events", "/events/stream")

#: How often the server thread checks for shutdown, so the most ``close`` waits; the
#: stdlib default of 0.5 s would hold up every ``serve --port`` exit by as much.
SHUTDOWN_POLL_S = 0.05


class _BadQuery(ValueError):
    """A query parameter an event route refuses; answered with 400 and this message."""


def _param(params: dict, key: str) -> str | None:
    values = params.get(key)
    return values[0] if values else None


def _count(raw: str | None, name: str, default: int) -> int:
    if raw is None:
        return default
    if not (raw.isascii() and raw.isdigit()):
        raise _BadQuery(f"{name} must be a non-negative integer, got {raw!r}")
    return int(raw)


class ServiceHttpServer:
    """The one HTTP surface of a ``serve`` process, on a stdlib server thread.

    It answers :data:`ROUTES`: the Prometheus exposition of ``registry`` (after
    ``refresh``, if given, updates the live queue gauges), a health check, and the
    long-poll and SSE feeds of the log at ``events_path``.  The constructor binds the
    socket and raises :class:`ServiceError` when it cannot, so callers bind before they
    start any thread; :meth:`start` serves.  ``port=0`` binds an ephemeral port, read
    back from ``server.port``.
    """

    def __init__(
        self,
        events_path: str | Path,
        registry: telemetry.MetricsRegistry,
        port: int = 0,
        host: str = "127.0.0.1",
        refresh: Callable[[], object] | None = None,
    ) -> None:
        self.events_path = Path(events_path)
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
        self._closed = threading.Event()
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
        self._closed.set()  # Open event requests end when they next wake.
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
        cursor = _count(_param(params, "cursor"), "cursor", 0)
        limit = min(max(_count(_param(params, "limit"), "limit", MAX_BATCH), 1), MAX_BATCH)
        raw_timeout = _param(params, "timeout") or "0"
        try:
            timeout = float(raw_timeout)
        except ValueError:
            timeout = math.nan
        if not math.isfinite(timeout):
            # A NaN deadline never passes, so the long-poll would never answer.
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
        batch: list[dict] = []
        last = cursor

        def done() -> bool:
            # Checked after each read: reply once a read has matched, or time is up.
            return bool(batch) or time.monotonic() >= deadline or self._closed.is_set()

        for payload in tail_events(self.events_path, follow=True, since_cursor=cursor, stop=done):
            last = payload["cursor"]
            if event_matches(payload, job=job, events=events):
                batch.append(payload)
                if len(batch) >= limit:
                    break
        body = json.dumps({"cursor": last, "events": batch}, sort_keys=True)
        self._respond(handler, 200, body, "application/json")

    def _handle_stream(self, handler, query: tuple) -> None:
        cursor, job, events, _, _ = query
        # An EventSource reconnects with its first URL and the last id it saw.
        cursor = _count(handler.headers.get("Last-Event-ID"), "Last-Event-ID", cursor)
        handler.send_response(200)
        handler.send_header("Content-Type", "text/event-stream")
        handler.send_header("Cache-Control", "no-cache")
        handler.end_headers()
        for payload in tail_events(
            self.events_path, follow=True, since_cursor=cursor, stop=self._closed.is_set
        ):
            if event_matches(payload, job=job, events=events):
                self._write_sse(handler, payload)

    @staticmethod
    def _write_sse(handler, payload: dict) -> None:
        frame = f"id: {payload['cursor']}\ndata: {json.dumps(payload, sort_keys=True)}\n\n"
        handler.wfile.write(frame.encode("utf-8"))
        handler.wfile.flush()
