"""Tests for the JSONL event log, durable cursors, seq counters and the tail stream."""

import json
import multiprocessing
import os
import signal
import sys
import threading
import time

import pytest

from repro import telemetry
from repro.service.events import (
    INDEX_CHECKPOINT_EVERY,
    EventIndex,
    EventLog,
    SeqCounter,
    format_event,
    read_events_since,
    tail_events,
)


def _hold_counter_lock(path, held):
    """Child: take the counter file's ``flock`` and keep it until killed."""
    import fcntl

    fd = os.open(path, os.O_RDWR | os.O_CREAT)
    fcntl.flock(fd, fcntl.LOCK_EX)
    held.set()
    time.sleep(60)


def _emit_from_threads(path, tag, threads, emits):
    """Child: ``threads`` threads each emit ``emits`` events of one shared job."""
    sys.setswitchinterval(1e-5)  # Switch threads often, inside the counter update too.
    log = EventLog(path)

    def spam():
        for _ in range(emits):
            log.emit("tick", job_id="job-shared", worker=tag)

    workers = [threading.Thread(target=spam) for _ in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()


class TestEmitAndRead:
    def test_emit_read_roundtrip(self, tmp_path):
        log = EventLog(tmp_path / "events.jsonl")
        log.emit("job_started", job_id="job-1", worker="w0", attempt=1)
        log.emit("job_done", job_id="job-1", cache_hits=2)
        events = log.read()
        assert [event["event"] for event in events] == ["job_started", "job_done"]
        assert events[0]["worker"] == "w0" and events[0]["attempt"] == 1
        assert events[1]["cache_hits"] == 2
        assert all("ts" in event and "schema" in event for event in events)

    def test_emit_creates_parent_directories(self, tmp_path):
        log = EventLog(tmp_path / "deep" / "nested" / "events.jsonl")
        log.emit("scheduler_started")
        assert len(log.read()) == 1

    def test_echo_prints_the_formatted_line(self, tmp_path, capsys):
        EventLog(tmp_path / "events.jsonl", echo=True).emit("worker_started", worker="w0")
        out = capsys.readouterr().out
        assert "worker_started" in out and "[w0]" in out

    def test_concurrent_appends_never_interleave(self, tmp_path):
        log = EventLog(tmp_path / "events.jsonl")

        def spam(tag):
            for index in range(50):
                log.emit("tick", worker=tag, index=index)

        threads = [threading.Thread(target=spam, args=(f"w{n}",)) for n in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        events = log.read()
        assert len(events) == 200  # every line parsed cleanly


class TestTail:
    def test_tail_skips_torn_and_foreign_lines(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text(
            json.dumps({"event": "a"}) + "\n" + "garbage\n" + json.dumps({"event": "b"})
        )  # final line has no newline: held back as torn
        assert [event["event"] for event in tail_events(path, follow=False)] == ["a"]

    def test_tail_missing_file_yields_nothing(self, tmp_path):
        assert list(tail_events(tmp_path / "absent.jsonl", follow=False)) == []

    def test_a_long_log_replays_in_linear_time(self, tmp_path):
        # One read returns the whole log.  Taking its lines off one at a time would copy
        # the rest of the buffer per line: about 34 s for these 10 MB instead of 0.3 s.
        path = tmp_path / "events.jsonl"
        total = 80_000
        lines = (
            json.dumps(
                {"event": "job_done", "index": index, "job_id": f"job-{index:08d}",
                 "schema": 1, "seq": 4, "ts": 1760000000.25 + index, "worker": "w0"},
                sort_keys=True,
            )
            for index in range(total)
        )
        with path.open("a", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + '\n{"event": "torn"')
        start = time.perf_counter()
        events = list(tail_events(path, since_cursor=0))
        elapsed = time.perf_counter() - start
        assert [e["cursor"] for e in events] == list(range(1, total + 1))
        assert [e["index"] for e in events] == list(range(total))  # the torn line held back
        assert elapsed < 2.5, f"replaying {total} lines took {elapsed:.1f} s"

    def test_follow_sees_later_appends_and_stops(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(path)
        log.emit("first")
        seen = []
        done = threading.Event()

        def consume():
            for event in tail_events(path, follow=True, poll_s=0.01, stop=done.is_set):
                seen.append(event["event"])
                if event["event"] == "second":
                    done.set()

        consumer = threading.Thread(target=consume)
        consumer.start()
        log.emit("second")
        consumer.join(timeout=5.0)
        assert not consumer.is_alive()
        assert seen == ["first", "second"]


class TestDurableCursors:
    def test_since_cursor_annotates_and_skips(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(path)
        for name in ("a", "b", "c", "d"):
            log.emit(name)
        events = list(tail_events(path, since_cursor=0))
        assert [(e["event"], e["cursor"]) for e in events] == [
            ("a", 1), ("b", 2), ("c", 3), ("d", 4)
        ]
        assert [e["event"] for e in tail_events(path, since_cursor=2)] == ["c", "d"]

    def test_resume_at_saved_cursor_has_no_duplicates_or_gaps(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(path)
        for index in range(20):
            log.emit("tick", index=index)
        first = list(tail_events(path, since_cursor=0))[:7]
        saved = first[-1]["cursor"]
        for index in range(20, 25):
            log.emit("tick", index=index)
        rest = list(tail_events(path, since_cursor=saved))
        indices = [e["index"] for e in first + rest]
        assert indices == list(range(25))

    def test_read_events_since_filters_but_advances_cursor(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(path)
        log.emit("keep", job_id="job-a")
        log.emit("drop", job_id="job-b")
        log.emit("keep", job_id="job-a")
        events, last = read_events_since(path, 0, job="job-a")
        assert [e["cursor"] for e in events] == [1, 3]
        assert last == 3  # The filtered-out line is consumed, never re-read.
        events, last = read_events_since(path, last, job="job-a")
        assert events == [] and last == 3

    def test_read_events_since_limit_stops_cursor_at_last_returned(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(path)
        for index in range(10):
            log.emit("tick", index=index)
        events, last = read_events_since(path, 0, limit=4)
        assert [e["index"] for e in events] == [0, 1, 2, 3] and last == 4
        events, last = read_events_since(path, last, limit=100)
        assert [e["index"] for e in events] == list(range(4, 10)) and last == 10

    def test_index_checkpoints_let_deep_cursors_seek(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(path)
        total = INDEX_CHECKPOINT_EVERY * 2 + 10
        for index in range(total):
            log.emit("tick", index=index)
        index = EventIndex(path).refresh()
        assert index.count == total
        assert len(index.checkpoints) == 3  # (0,0) + one per 256 complete lines
        cursor, offset = index.checkpoint_for(total - 5)
        assert cursor == INDEX_CHECKPOINT_EVERY * 2 and offset > 0
        events = list(tail_events(path, since_cursor=total - 5))
        assert [e["index"] for e in events] == list(range(total - 5, total))

    def test_stale_index_is_rebuilt_after_rotation(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(path)
        for _ in range(10):
            log.emit("old")
        EventIndex(path).refresh()  # Persist an index covering 10 lines.
        path.unlink()
        log.emit("new")  # The rotated log is much shorter than the index claims.
        index = EventIndex(path).refresh()
        assert index.count == 1
        assert [e["event"] for e in tail_events(path, since_cursor=0)] == ["new"]

    def test_cursor_past_rotated_log_restarts_from_top(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(path)
        for _ in range(10):
            log.emit("old")
        path.unlink()
        log.emit("new")
        # A consumer that saved cursor 10 against the old log must not hang forever.
        events = list(tail_events(path, since_cursor=10))
        assert [(e["event"], e["cursor"]) for e in events] == [("new", 1)]

    def test_a_longer_log_written_over_an_indexed_one_rebuilds_the_index(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(path)
        for _ in range(3):
            log.emit("old", pad="x" * 40)
        EventIndex(path).refresh()  # Persist an index covering the 3 long lines.
        path.unlink()
        for index in range(10):  # Shorter lines, but more bytes than were indexed.
            log.emit("new", index=index)
        assert EventIndex(path).refresh().count == 10
        events, last = read_events_since(path, 9)
        assert [(e["cursor"], e["index"]) for e in events] == [(10, 9)] and last == 10

    def test_corrupt_index_file_is_ignored(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(path)
        log.emit("a")
        index_path = EventIndex(path).path
        index_path.write_text("not json at all")
        assert EventIndex(path).refresh().count == 1


class TestTruncationRecovery:
    def test_follow_resets_after_truncation_instead_of_stalling(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(path)
        for _ in range(5):
            log.emit("before")
        seen = []
        done = threading.Event()

        def consume():
            for event in tail_events(path, follow=True, poll_s=0.01, stop=done.is_set):
                seen.append(event["event"])
                if event["event"] == "after":
                    done.set()

        consumer = threading.Thread(target=consume)
        consumer.start()
        for _ in range(50):
            if len(seen) >= 5:
                break
            done.wait(0.05)
        path.write_text("")  # Rotation: the file shrinks under the follower.
        log.emit("after")
        consumer.join(timeout=5.0)
        assert not consumer.is_alive()
        assert seen == ["before"] * 5 + ["after"]


class TestSeqCounter:
    def test_seq_survives_new_log_instances(self, tmp_path):
        path = tmp_path / "events.jsonl"
        EventLog(path).emit("a", job_id="job-1")
        EventLog(path).emit("b", job_id="job-1")  # Fresh instance, same counter file.
        assert [event["seq"] for event in EventLog(path).read()] == [1, 2]

    def test_peek_reflects_last_minted(self, tmp_path):
        counter = SeqCounter(tmp_path / "seq")
        assert counter.peek("job-1") == 0
        assert counter.next("job-1") == 1
        assert counter.next("job-2") == 1
        assert counter.next("job-1") == 2
        assert counter.peek("job-1") == 2

    def test_forked_processes_mint_unique_monotone_seqs(self, tmp_path):
        # Two scheduler processes sharing one service root must never mint
        # duplicate seqs for the same job — the counter is file-backed + locked.
        path = tmp_path / "events.jsonl"
        ctx = multiprocessing.get_context()

        def spam(tag):
            log = EventLog(path)
            for _ in range(40):
                log.emit("tick", job_id="job-shared", worker=tag)

        workers = [ctx.Process(target=spam, args=(f"p{n}",)) for n in range(2)]
        for process in workers:
            process.start()
        for process in workers:
            process.join(timeout=60.0)
            assert process.exitcode == 0
        seqs = [event["seq"] for event in EventLog(path).read()]
        assert sorted(seqs) == list(range(1, 81))  # unique AND gap-free

    def test_forked_processes_interleave_monotonically_per_writer(self, tmp_path):
        path = tmp_path / "events.jsonl"
        ctx = multiprocessing.get_context()

        def spam(tag):
            log = EventLog(path)
            for _ in range(25):
                log.emit("tick", job_id="job-shared", worker=tag)

        workers = [ctx.Process(target=spam, args=(f"p{n}",)) for n in range(2)]
        for process in workers:
            process.start()
        for process in workers:
            process.join(timeout=60.0)
            assert process.exitcode == 0
        by_worker: dict[str, list[int]] = {}
        for event in EventLog(path).read():
            by_worker.setdefault(event["worker"], []).append(event["seq"])
        # Each writer's own seqs strictly increase in file order (file order is
        # append order, and the shared counter never goes backwards).
        for seqs in by_worker.values():
            assert seqs == sorted(seqs)
            assert len(set(seqs)) == len(seqs)

    def test_threads_in_two_processes_mint_exactly_one_to_n(self, tmp_path):
        path = tmp_path / "events.jsonl"
        ctx = multiprocessing.get_context()
        workers = [
            ctx.Process(target=_emit_from_threads, args=(path, f"p{n}", 4, 25))
            for n in range(2)
        ]
        for process in workers:
            process.start()
        for process in workers:
            process.join(timeout=60.0)
            assert process.exitcode == 0
        seqs = [event["seq"] for event in EventLog(path).read()]
        assert sorted(seqs) == list(range(1, 201))

    def test_a_killed_lock_holder_does_not_block_the_next_seq(self, tmp_path):
        pytest.importorskip("fcntl")
        counter = SeqCounter(tmp_path / "seq")
        assert counter.next("job-1") == 1
        ctx = multiprocessing.get_context()
        held = ctx.Event()
        holder = ctx.Process(
            target=_hold_counter_lock, args=(tmp_path / "seq" / "job-1.count", held)
        )
        holder.start()
        minted = []
        try:
            assert held.wait(10.0)
            waiter = threading.Thread(
                target=lambda: minted.append(counter.next("job-1")), daemon=True
            )
            waiter.start()
            waiter.join(timeout=0.2)
            assert waiter.is_alive()  # The child holds the lock the counter takes.
        finally:
            os.kill(holder.pid, signal.SIGKILL)
            holder.join(timeout=10.0)
        waiter.join(timeout=5.0)
        assert not waiter.is_alive() and minted == [2]

    def test_a_counter_of_the_old_layout_continues(self, tmp_path):
        # The old layout replaced <job>.count under a lock on a <job>.lock sidecar.
        directory = tmp_path / "seq"
        directory.mkdir()
        (directory / "job-1.count").write_text("7\n")
        (directory / "job-1.lock").write_text("")
        assert SeqCounter(directory).next("job-1") == 8
        assert (directory / "job-1.count").read_text() == "8\n"

    def test_a_corrupt_value_is_replaced_with_no_stale_bytes(self, tmp_path):
        directory = tmp_path / "seq"
        directory.mkdir()
        path = directory / "job-1.count"
        path.write_text("not a number\n")
        counter = SeqCounter(directory)
        assert counter.next("job-1") == 1
        assert path.read_text() == "1\n"
        assert counter.next("job-1") == 2
        assert path.read_text() == "2\n"


class TestEmitTelemetry:
    def test_emit_counts_events_by_type(self, tmp_path):
        telemetry.configure(enabled=True)
        try:
            registry = telemetry.get_registry()
            registry.reset()
            log = EventLog(tmp_path / "events.jsonl")
            log.emit("job_started", job_id="job-1")
            log.emit("spec_done", job_id="job-1")
            log.emit("spec_done", job_id="job-1")
            counter = registry.counter("repro_events_emitted_total")
            assert counter.value(event="job_started") == 1
            assert counter.value(event="spec_done") == 2
        finally:
            telemetry.get_registry().reset()
            telemetry.configure(enabled=False)


class TestFormat:
    def test_format_includes_extras_sorted(self):
        line = format_event(
            {"ts": 0.0, "event": "spec_done", "job_id": "job-1", "worker": "w0",
             "spec": "abc", "elapsed_s": 1.5}
        )
        assert "spec_done" in line and "job-1" in line and "[w0]" in line
        assert "elapsed_s=1.5 spec=abc" in line

    def test_missing_or_zero_ts_renders_placeholder_not_1970(self):
        assert format_event({"event": "x"}).startswith("--:--:--")
        assert format_event({"event": "x", "ts": 0.0}).startswith("--:--:--")
        assert not format_event({"event": "x", "ts": 0.0}).startswith("00:")
