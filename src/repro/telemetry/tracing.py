"""Span tracer: nested timing spans with Chrome-trace / Perfetto export.

Spans are recorded with a context manager::

    with tracer.span("control_plane", category="engine", round=3):
        ...

Nesting is tracked per thread (a ``threading.local`` stack), an id is its process's pid
above the tracer's count, and timestamps come from ``time.perf_counter``
(CLOCK_MONOTONIC on Linux, so spans from a parent and its forked children share one
timebase, never share an id, and line up in a single trace).  Finished spans go three places:

* an in-memory ring buffer (``tracer.spans()``), capped so a long-running ``serve``
  cannot grow without bound;
* an optional JSONL *sink file* — one span per line, appended atomically — which is how
  spans from scheduler child processes reach ``python -m repro trace``;
* an optional metrics registry, where every span feeds the ``repro_span_s`` histogram
  labelled by span name and category.

``chrome_trace_events`` / ``write_chrome_trace`` convert recorded spans into the
Chrome trace-event JSON format that https://ui.perfetto.dev and ``chrome://tracing``
load directly.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

__all__ = [
    "Span",
    "SpanTracer",
    "chrome_trace_events",
    "load_spans",
    "write_chrome_trace",
]

TRACE_SCHEMA_VERSION = 1

#: Ring-buffer cap on in-memory finished spans.
DEFAULT_MAX_SPANS = 10_000

#: Bits of a span id below the pid: a forked child continues its parent's count, so the
#: pid keeps their ids apart.  Linux pids are below ``2**22``, so ids stay below ``2**53``
#: and survive JSON readers that parse numbers as doubles.
_SEQUENCE_BITS = 31


@dataclass
class Span:
    """One finished (or in-flight) timing span."""

    name: str
    category: str
    span_id: int
    parent_id: int | None
    start_s: float
    end_s: float = 0.0
    pid: int = 0
    tid: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def dur_s(self) -> float:
        return max(0.0, self.end_s - self.start_s)

    def to_dict(self) -> dict:
        return {
            "schema": TRACE_SCHEMA_VERSION,
            "name": self.name,
            "cat": self.category,
            "id": self.span_id,
            "parent": self.parent_id,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "pid": self.pid,
            "tid": self.tid,
            "attrs": self.attrs,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "Span":
        return cls(
            name=payload["name"],
            category=payload.get("cat", "app"),
            span_id=payload.get("id", 0),
            parent_id=payload.get("parent"),
            start_s=payload.get("start_s", 0.0),
            end_s=payload.get("end_s", 0.0),
            pid=payload.get("pid", 0),
            tid=payload.get("tid", 0),
            attrs=dict(payload.get("attrs", {})),
        )


class _NullSpan:
    """Returned when tracing is disabled: a context manager that does nothing."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, exc_type, exc, tb):
        return False


_NULL_SPAN = _NullSpan()


class _ActiveSpan:
    """Context manager that opens a span on enter and records it on exit."""

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: "SpanTracer", name: str, category: str, attrs: dict):
        self._tracer = tracer
        pid = os.getpid()
        self.span = Span(
            name=name,
            category=category,
            span_id=(pid << _SEQUENCE_BITS) | next(tracer._ids),
            parent_id=None,
            start_s=0.0,
            pid=pid,
            tid=threading.get_ident(),
            attrs=attrs,
        )

    def __enter__(self) -> Span:
        stack = self._tracer._stack()
        if stack:
            self.span.parent_id = stack[-1].span_id
        stack.append(self.span)
        self.span.start_s = time.perf_counter()
        return self.span

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.span.end_s = time.perf_counter()
        if exc_type is not None:
            self.span.attrs.setdefault("error", exc_type.__name__)
        stack = self._tracer._stack()
        if stack and stack[-1] is self.span:
            stack.pop()
        elif self.span in stack:  # pragma: no cover - defensive unwind
            stack.remove(self.span)
        self._tracer._finish(self.span)
        return False


class SpanTracer:
    """Thread-safe span recorder with an optional JSONL sink and metrics bridge."""

    def __init__(
        self,
        registry=None,
        enabled: bool = True,
        max_spans: int = DEFAULT_MAX_SPANS,
    ):
        self.enabled = enabled
        self._registry = registry
        self._spans: deque[Span] = deque(maxlen=max_spans)
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._sink_path: Path | None = None
        self._sink_handle = None
        self._sink_pid: int | None = None

    # -- recording -------------------------------------------------------------

    def span(self, name: str, category: str = "app", **attrs: object):
        """Open a timing span; use as ``with tracer.span("name"): ...``.

        When tracing is disabled this returns a shared null context manager without
        allocating, so instrumented hot paths stay near-free.
        """
        if not self.enabled:
            return _NULL_SPAN
        return _ActiveSpan(self, name, category, attrs)

    def record(
        self,
        name: str,
        category: str = "app",
        start_s: float = 0.0,
        end_s: float = 0.0,
        **attrs: object,
    ) -> Span | None:
        """Record an already-timed span (e.g. a queue claim measured manually).

        Its parent is the calling thread's innermost open span, as for :meth:`span`.
        """
        if not self.enabled:
            return None
        stack = self._stack()
        pid = os.getpid()
        span = Span(
            name=name,
            category=category,
            span_id=(pid << _SEQUENCE_BITS) | next(self._ids),
            parent_id=stack[-1].span_id if stack else None,
            start_s=start_s,
            end_s=end_s,
            pid=pid,
            tid=threading.get_ident(),
            attrs=dict(attrs),
        )
        self._finish(span)
        return span

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _finish(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)
            self._write_sink(span)
        registry = self._registry
        if registry is not None and registry.enabled:
            registry.histogram(
                "repro_span_s", help="Wall-clock duration of traced spans."
            ).observe(span.dur_s, name=span.name, cat=span.category)

    # -- sink ------------------------------------------------------------------

    def set_sink(self, path: str | os.PathLike | None) -> None:
        """Append finished spans as JSONL to ``path`` (``None`` disables the sink)."""
        with self._lock:
            self._close_sink()
            self._sink_path = Path(path) if path is not None else None

    @property
    def sink_path(self) -> Path | None:
        return self._sink_path

    def _write_sink(self, span: Span) -> None:
        if self._sink_path is None:
            return
        # Re-open after fork so each process appends through its own descriptor;
        # single sub-PIPE_BUF writes keep concurrent lines intact.
        if self._sink_handle is None or self._sink_pid != os.getpid():
            self._sink_path.parent.mkdir(parents=True, exist_ok=True)
            self._sink_handle = open(self._sink_path, "a", encoding="utf-8")
            self._sink_pid = os.getpid()
        self._sink_handle.write(json.dumps(span.to_dict(), sort_keys=True) + "\n")
        self._sink_handle.flush()

    def _close_sink(self) -> None:
        if self._sink_handle is not None and self._sink_pid == os.getpid():
            self._sink_handle.close()
        self._sink_handle = None
        self._sink_pid = None

    # -- inspection ------------------------------------------------------------

    def spans(self) -> list[Span]:
        with self._lock:
            return list(self._spans)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()

    def reset(self) -> None:
        """Drop recorded spans and detach the sink (test isolation helper)."""
        with self._lock:
            self._spans.clear()
            self._close_sink()
            self._sink_path = None
        self._local = threading.local()


# -- export --------------------------------------------------------------------


def load_spans(path: str | os.PathLike) -> list[Span]:
    """Read a JSONL span sink back into :class:`Span` objects (bad lines skipped)."""
    spans: list[Span] = []
    sink = Path(path)
    if not sink.exists():
        return spans
    with open(sink, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                spans.append(Span.from_dict(json.loads(line)))
            except (json.JSONDecodeError, KeyError, TypeError):
                continue
    return spans


def chrome_trace_events(spans: Iterable[Span]) -> list[dict]:
    """Convert spans to Chrome trace-event dicts (``"ph": "X"`` complete events).

    Timestamps are microseconds relative to the earliest span so the trace starts at
    t=0 regardless of process uptime.
    """
    spans = list(spans)
    if not spans:
        return []
    origin = min(span.start_s for span in spans)
    events = []
    for span in sorted(spans, key=lambda s: s.start_s):
        args = {key: value for key, value in span.attrs.items()}
        args["span_id"] = span.span_id
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        events.append(
            {
                "name": span.name,
                "cat": span.category,
                "ph": "X",
                "ts": round((span.start_s - origin) * 1e6, 3),
                "dur": round(span.dur_s * 1e6, 3),
                "pid": span.pid,
                "tid": span.tid,
                "args": args,
            }
        )
    return events


def write_chrome_trace(spans: Sequence[Span], path: str | os.PathLike) -> dict:
    """Write spans as a Chrome/Perfetto-loadable trace JSON; returns the payload."""
    payload = {
        "traceEvents": chrome_trace_events(spans),
        "displayTimeUnit": "ms",
        "otherData": {"producer": "repro.telemetry", "schema": TRACE_SCHEMA_VERSION},
    }
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with open(target, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return payload
