"""Structured progress events: an append-only JSONL log with durable cursors.

Every scheduler action — job claimed, grid point served from cache, worker finished,
retry, failure — lands as one JSON line in ``<service root>/events.jsonl``.  Lines are
written with a single ``write()`` call well under the pipe-buffer atomicity limit, so
any number of worker processes can append to the same log without interleaving.

**Durable cursors.**  Every line in the log has a global, monotonic *cursor*: its
1-based position in the file.  Cursors are not written into the lines — a line's
position *is* its cursor, so concurrent multi-process appenders need no coordination
and the ordering is exactly the file ordering every reader already sees.  A compact
sidecar index (:class:`EventIndex`, ``events.jsonl.idx``) maps cursors to byte offsets
with sparse checkpoints so a consumer resuming from ``since_cursor=N`` seeks instead
of re-reading the whole log; the index is derived data, rebuilt whenever it is stale
or the log was rotated.

**File-backed seq counters.**  Events carrying a ``job_id`` get a per-job monotone
``seq`` minted by :class:`SeqCounter` from a shared counter file next to the log
(advisory-locked read-modify-replace), so two ``serve`` hosts appending into one
service root can never mint duplicate seqs for the same job.

``python -m repro watch`` is a thin wrapper over :func:`tail_events`, which replays
the existing log and can then follow the file as it grows (like ``tail -f``).  Each
request on the ``/events`` and ``/events/stream`` routes of
:mod:`repro.service.eventbus` is one such follower, from its own cursor: the log file
is the only buffer.  Every :meth:`EventLog.emit` bumps one module-level append
counter, so an emit wakes every follower in its process at once; appends by other
processes are seen at the next poll.  The webhook dispatcher of
:mod:`repro.service.webhooks` polls with :func:`read_events_since`.
"""

from __future__ import annotations

import json
import os
import threading
import time
import uuid
from collections.abc import Callable, Iterable, Iterator
from pathlib import Path

from repro import telemetry

try:  # POSIX: advisory lock released automatically if the holder dies.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback below
    fcntl = None

#: Bumped whenever the event line shape (or its cross-process guarantees) change.
#: v2: events carrying a ``job_id`` gain a per-job monotone ``seq`` counter, and the
#: scheduler stamps terminal job events with a monotonic ``dur_s``.
#: v3: ``seq`` is minted from a file-backed counter shared by every writer of one
#: log, so seqs stay unique and monotone across *processes and hosts*, not just
#: within one scheduler; readers additionally learn each event's durable ``cursor``
#: (assigned from file position at read time, never written into the line).
EVENT_SCHEMA_VERSION = 3

#: Default event-log filename inside the service root.
EVENTS_FILENAME = "events.jsonl"

#: Sidecar suffix of the cursor index (``events.jsonl`` -> ``events.jsonl.idx``).
INDEX_SUFFIX = ".idx"

#: Sidecar suffix of the seq-counter directory (``events.jsonl.seq/``).
SEQ_DIR_SUFFIX = ".seq"

INDEX_SCHEMA_VERSION = 1

#: A byte-offset checkpoint is kept every this-many lines; resuming from a cursor
#: scans at most this many lines past the nearest checkpoint.
INDEX_CHECKPOINT_EVERY = 256

# Lines this process has appended to any log, under the condition that wakes
# following ``tail_events`` generators when an emit moves it.  Followers only watch
# it for change, so one counter for every log costs another log's follower at most
# a wake that finds nothing new.
_appends = 0
_appended = threading.Condition()


class _FileLock:
    """Advisory exclusive lock on a path (``flock`` where available).

    On platforms without ``fcntl`` the fallback is an ``O_EXCL`` spin-lock file with
    stale-breaking by mtime — slower, but the POSIX path is the production one.
    """

    def __init__(self, path: Path, stale_s: float = 10.0) -> None:
        self.path = path
        self.stale_s = stale_s
        self._handle = None

    def __enter__(self) -> "_FileLock":
        if fcntl is not None:
            self._handle = open(self.path, "a+", encoding="utf-8")
            fcntl.flock(self._handle.fileno(), fcntl.LOCK_EX)
            return self
        while True:  # pragma: no cover - exercised only off-POSIX
            try:
                fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                os.close(fd)
                return self
            except FileExistsError:
                try:
                    if time.time() - self.path.stat().st_mtime > self.stale_s:
                        self.path.unlink()
                        continue
                except FileNotFoundError:
                    continue
                time.sleep(0.01)

    def __exit__(self, *exc_info) -> None:
        if self._handle is not None:
            fcntl.flock(self._handle.fileno(), fcntl.LOCK_UN)
            self._handle.close()
            self._handle = None
        else:  # pragma: no cover - exercised only off-POSIX
            try:
                self.path.unlink()
            except FileNotFoundError:
                pass


class SeqCounter:
    """File-backed per-job sequence counters shared by every writer of one log.

    ``next(job_id)`` is an atomic read-increment-replace under an advisory lock:
    the counter value lands via a unique temp file + ``os.replace``, so a crash at
    any point leaves either the old or the new value, never a torn one, and the
    lock itself is released by the OS if the holder dies.
    """

    def __init__(self, directory: str | os.PathLike) -> None:
        self.directory = Path(directory)

    def _counter_path(self, job_id: str) -> Path:
        return self.directory / f"{job_id}.count"

    def next(self, job_id: str) -> int:
        """Mint the next seq for ``job_id`` (1-based, unique across processes)."""
        self.directory.mkdir(parents=True, exist_ok=True)
        counter = self._counter_path(job_id)
        with _FileLock(self.directory / f"{job_id}.lock"):
            try:
                current = int(counter.read_text(encoding="utf-8").strip() or 0)
            except (FileNotFoundError, ValueError):
                current = 0
            seq = current + 1
            staging = self.directory / f".{job_id}.{uuid.uuid4().hex}.tmp"
            staging.write_text(f"{seq}\n", encoding="utf-8")
            os.replace(staging, counter)
        return seq

    def peek(self, job_id: str) -> int:
        """The last minted seq for ``job_id`` (0 when none was minted yet)."""
        try:
            return int(self._counter_path(job_id).read_text(encoding="utf-8").strip() or 0)
        except (FileNotFoundError, ValueError):
            return 0


class EventIndex:
    """Compact cursor → byte-offset index over one ``events.jsonl``.

    The index holds the number of complete lines (``count``), the byte length they
    cover (``indexed_bytes``) and a sparse checkpoint list ``[(cursor, offset)]``
    meaning *the line with cursor ``cursor + 1`` starts at byte ``offset``*.  It is
    pure derived data: :meth:`refresh` extends it incrementally as the log grows and
    rebuilds it from scratch whenever it is stale — missing, corrupt, or describing
    more bytes than the file holds (log rotated/truncated).  Concurrent refreshers
    race benignly (atomic replace, last writer wins).
    """

    def __init__(self, events_path: str | os.PathLike) -> None:
        self.events_path = Path(events_path)
        self.path = self.events_path.with_name(self.events_path.name + INDEX_SUFFIX)
        self.indexed_bytes = 0
        self.count = 0
        self.checkpoints: list[tuple[int, int]] = [(0, 0)]
        self._load()

    def _load(self) -> None:
        try:
            payload = json.loads(self.path.read_text(encoding="utf-8"))
            if payload.get("schema") != INDEX_SCHEMA_VERSION:
                raise ValueError(f"unknown index schema {payload.get('schema')!r}")
            self.indexed_bytes = int(payload["indexed_bytes"])
            self.count = int(payload["count"])
            self.checkpoints = [(int(c), int(o)) for c, o in payload["checkpoints"]]
            if not self.checkpoints or self.checkpoints[0] != (0, 0):
                self.checkpoints.insert(0, (0, 0))
        except (OSError, ValueError, KeyError, TypeError):
            self._reset()

    def _reset(self) -> None:
        self.indexed_bytes = 0
        self.count = 0
        self.checkpoints = [(0, 0)]

    def refresh(self, save: bool = True) -> "EventIndex":
        """Bring the index up to date with the file; rebuild if the log shrank."""
        try:
            size = self.events_path.stat().st_size
        except FileNotFoundError:
            size = 0
        if size < self.indexed_bytes:  # Rotated/truncated: the old index is a lie.
            self._reset()
        if size == self.indexed_bytes:
            return self
        with self.events_path.open("rb") as handle:
            handle.seek(self.indexed_bytes)
            data = handle.read(size - self.indexed_bytes)
        base = self.indexed_bytes
        position = 0
        while True:
            newline = data.find(b"\n", position)
            if newline < 0:
                break  # Trailing partial line: not indexed until its newline lands.
            position = newline + 1
            self.count += 1
            self.indexed_bytes = base + position
            if self.count % INDEX_CHECKPOINT_EVERY == 0:
                self.checkpoints.append((self.count, self.indexed_bytes))
        if save:
            self.save()
        return self

    def save(self) -> None:
        """Atomically persist the index (best effort — it is derived data)."""
        payload = {
            "schema": INDEX_SCHEMA_VERSION,
            "indexed_bytes": self.indexed_bytes,
            "count": self.count,
            "checkpoints": self.checkpoints,
        }
        staging = self.path.with_name(
            f".{self.path.name}.{os.getpid()}.{threading.get_ident()}.tmp"
        )
        try:
            staging.write_text(json.dumps(payload) + "\n", encoding="utf-8")
            os.replace(staging, self.path)
        except OSError:  # pragma: no cover - read-only roots must not kill readers
            pass

    def checkpoint_for(self, cursor: int) -> tuple[int, int]:
        """Greatest ``(cursor, offset)`` checkpoint at or before ``cursor``."""
        best = (0, 0)
        for checkpoint_cursor, offset in self.checkpoints:
            if checkpoint_cursor <= cursor and checkpoint_cursor >= best[0]:
                best = (checkpoint_cursor, offset)
        return best


def event_matches(
    payload: dict, job: str | None = None, events: Iterable[str] | None = None
) -> bool:
    """True when an event passes the (optional) job-id and event-type filters."""
    if job is not None and payload.get("job_id") != job:
        return False
    if events:
        return payload.get("event") in tuple(events)
    return True


class EventLog:
    """Append-only JSONL event sink, safe for concurrent multi-process writers."""

    def __init__(
        self,
        path: str | os.PathLike,
        echo: bool = False,
        seq_dir: str | os.PathLike | None = None,
    ) -> None:
        self.path = Path(path)
        #: When set, every emitted event is also printed (the ``serve`` foreground view).
        self.echo = echo
        # Per-job seq counters live in a sidecar directory next to the log so every
        # process (and host) appending to this log shares one counter per job.
        self.seq = SeqCounter(
            seq_dir if seq_dir is not None
            else self.path.with_name(self.path.name + SEQ_DIR_SUFFIX)
        )

    def emit(self, event: str, job_id: str | None = None, worker: str | None = None, **data) -> dict:
        """Append one event line (and echo it when configured); returns the payload."""
        payload: dict = {"schema": EVENT_SCHEMA_VERSION, "ts": time.time(), "event": event}
        if job_id is not None:
            payload["job_id"] = job_id
            payload["seq"] = self.seq.next(job_id)
        if worker is not None:
            payload["worker"] = worker
        payload.update(data)
        line = json.dumps(payload, sort_keys=True)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a", encoding="utf-8") as handle:
            handle.write(line + "\n")  # One write call: concurrent appenders never interleave.
        global _appends
        with _appended:  # Wake this process's followers now, not at their next poll.
            _appends += 1
            _appended.notify_all()
        registry = telemetry.get_registry()
        if registry.enabled:
            registry.counter(
                "repro_events_emitted_total",
                help="Events appended to the service log, by type.",
            ).inc(event=event)
        if self.echo:
            print(format_event(payload), flush=True)
        return payload

    def read(self) -> list[dict]:
        """Parse the whole log (skipping any torn trailing line)."""
        return list(tail_events(self.path, follow=False))


def tail_events(
    path: str | os.PathLike,
    follow: bool = False,
    poll_s: float = 0.2,
    stop: Callable[[], bool] | None = None,
    since_cursor: int | None = None,
) -> Iterator[dict]:
    """Yield parsed events from a JSONL log; with ``follow`` keep watching for growth.

    With ``since_cursor=N`` only events *after* cursor ``N`` are yielded, each
    annotated with its ``"cursor"`` (its 1-based line position — the durable resume
    token); the :class:`EventIndex` sidecar is used to seek once instead of re-reading
    the whole file, and after that the tail keeps its own byte offset.  ``since_cursor=0``
    replays everything.  If the log was rotated (fewer lines than the requested
    cursor, or it shrinks mid-follow) the tail resets to the top of the new file
    instead of silently yielding nothing forever.

    A partially-written final line (no trailing newline yet) is held back until its
    newline arrives.  ``stop`` is polled after each read so callers can end a follow.
    A follower sleeps until an :meth:`EventLog.emit` in this process appends, or
    ``poll_s`` passes, and opens the file only when it has grown past its offset.
    """
    path = Path(path)
    buffer = ""
    with_cursor = since_cursor is not None
    skip_below = since_cursor or 0
    cursor = 0
    offset = 0
    if with_cursor and skip_below > 0:
        index = EventIndex(path).refresh()
        if skip_below > index.count:
            # The log holds fewer lines than the consumer has seen: it was rotated.
            # Resume from the top of the new file rather than waiting forever.
            skip_below = 0
        else:
            cursor, offset = index.checkpoint_for(skip_below)
    while True:
        seen = _appends  # Read before the stat: an emit after it moves the counter.
        try:
            size = path.stat().st_size
        except FileNotFoundError:
            size = 0
        if size < offset:
            # Log rotated/truncated under us: restart from the top of the new
            # file (and stop skipping — the old cursors no longer exist).
            buffer = ""
            cursor = 0
            offset = 0
            skip_below = 0
        if size > offset:
            with path.open("r", encoding="utf-8") as handle:
                handle.seek(offset)
                buffer += handle.read()
                offset = handle.tell()
            # One split per read; the trailing partial line stays in the buffer.
            *lines, buffer = buffer.split("\n")
            for line in lines:
                cursor += 1
                if cursor <= skip_below or not line.strip():
                    continue
                try:
                    payload = json.loads(line)
                except ValueError:
                    continue  # Torn or foreign line: skip rather than kill the tail.
                if with_cursor:
                    payload["cursor"] = cursor
                yield payload
        if not follow or (stop is not None and stop()):
            return
        with _appended:
            _appended.wait_for(lambda: _appends != seen, poll_s)


def read_events_since(
    path: str | os.PathLike,
    cursor: int,
    job: str | None = None,
    events: Iterable[str] | None = None,
    limit: int | None = None,
) -> tuple[list[dict], int]:
    """One non-blocking read: ``(matching events after cursor, new resume cursor)``.

    The returned cursor covers every line *consumed*, matching or not, so a consumer
    that polls with filters never re-reads (or re-receives) events its filter
    rejected.  With ``limit`` the cursor stops at the last returned event, so the
    next call resumes exactly there.
    """
    matched: list[dict] = []
    last = cursor
    for payload in tail_events(path, follow=False, since_cursor=cursor):
        last = payload["cursor"]
        if event_matches(payload, job=job, events=events):
            matched.append(payload)
            if limit is not None and len(matched) >= limit:
                break
    return matched, last


def format_event(payload: dict) -> str:
    """One-line human rendering of an event for ``watch`` and the ``serve`` console."""
    ts = payload.get("ts") or 0.0
    clock = time.strftime("%H:%M:%S", time.localtime(ts)) if ts else "--:--:--"
    parts = [clock, f"{payload.get('event', '?'):<14}"]
    if "job_id" in payload:
        parts.append(payload["job_id"])
    if "worker" in payload:
        parts.append(f"[{payload['worker']}]")
    extras = {
        key: value
        for key, value in payload.items()
        if key not in ("schema", "ts", "event", "job_id", "worker")
    }
    if extras:
        parts.append(" ".join(f"{key}={value}" for key, value in sorted(extras.items())))
    return "  ".join(parts)
