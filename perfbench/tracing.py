"""In-memory span recorder that wraps the program's public calls from the outside.

The traced run of the benchmark replaces a handful of public methods (a policy's
``select``, ``RoundEngine.execute_batch``, ``JobQueue.claim`` ...) with thin wrappers
that open a span around the original call.  Spans are kept in memory as plain lists and
folded into per-operation layer budgets when the run ends; nothing inside ``src/`` is
edited.  Every wrapper is removed again by :meth:`Tracer.restore`.

The program's own ``repro.telemetry.tracing.SpanTracer`` records the same nesting, but
one of its spans costs about 5 µs against about 1.4 µs for a whole wrapped call here.
A seeds-diurnal-1k experiment makes about 5,800 wrapped calls, so with it the wrappers'
own time would leave more than 5% of each operation outside every child span.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time

from repro import telemetry

#: Field positions of a recorded span (a list, for cheap appends on hot paths).
NAME, START, END, SPAN_ID, PARENT, THREAD, ATTRS = range(7)


class Tracer:
    """Records nested spans per thread and owns the wrappers it installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple[object, str, object, bool]] = []

    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def call(self, name: str, fn, args=(), kwargs=None, on_result=None):
        """Run ``fn(*args, **kwargs)`` inside a span and return its result.

        ``on_result(span, args, result)`` may set the span's attributes (a count, a job
        id) from the call's arguments or result.
        """
        stack = self._stack()
        span = [name, 0.0, 0.0, next(self._ids), stack[-1] if stack else None,
                threading.get_ident(), None]
        stack.append(span[SPAN_ID])
        span[START] = time.perf_counter()
        try:
            result = fn(*args, **kwargs) if kwargs else fn(*args)
        finally:
            span[END] = time.perf_counter()
            stack.pop()
            self.spans.append(span)
        if on_result is not None:
            on_result(span, args, result)
        return result

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Replace ``owner.attr`` by a wrapper that records each call as span ``name``.

        ``owner`` may be a class (every instance is traced) or one instance.
        """
        had_own = attr in vars(owner)
        raw = vars(owner)[attr] if had_own else getattr(owner, attr)
        tracer = self
        if isinstance(raw, property):  # A class property: trace its getter.
            getter = raw.fget
            traced = property(lambda obj: tracer.call(name, getter, (obj,), on_result=on_result))
        else:
            original = getattr(owner, attr)

            @functools.wraps(original)
            def traced(*args, **kwargs):
                return tracer.call(name, original, args, kwargs, on_result=on_result)

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, raw, had_own))

    def restore(self) -> None:
        """Remove every wrapper this tracer installed, newest first."""
        for owner, attr, raw, had_own in reversed(self._patched):
            if had_own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)
        self._patched.clear()

    def reset(self) -> None:
        """Drop the recorded spans (wrappers stay installed)."""
        self.spans = []


def op_budget(spans: list[list], op_name: str) -> tuple[int, float, dict[str, float], dict]:
    """Fold the direct children of every ``op_name`` span into per-layer totals.

    Returns ``(ops, op_seconds, child_seconds_by_name, child_attrs_by_name)``; the
    attribute dict sums each numeric span attribute per child name.  Only spans whose
    parent is an operation count, so wrapped calls made by the output checks between
    operations are ignored.
    """
    ops = {span[SPAN_ID]: span for span in spans if span[NAME] == op_name}
    totals: dict[str, float] = {}
    attrs: dict[str, dict[str, float]] = {}
    for span in spans:
        if span[PARENT] in ops:
            totals[span[NAME]] = totals.get(span[NAME], 0.0) + (span[END] - span[START])
            if span[ATTRS]:
                bucket = attrs.setdefault(span[NAME], {})
                for key, value in span[ATTRS].items():
                    if isinstance(value, (int, float)):
                        bucket[key] = bucket.get(key, 0.0) + value
    op_seconds = sum(span[END] - span[START] for span in ops.values())
    return len(ops), op_seconds, totals, attrs


def phase_ratios(mine: dict[str, float], category: str | None = None) -> dict[str, float]:
    """Each phase's benchmark layer sum over the program's own spans of the same name.

    ``mine`` maps a program phase name to the seconds the benchmark's wrapped calls
    spent in it; ``category`` limits the program's spans to one category.  Phases
    either side did not record are left out.
    """
    program: dict[str, float] = {}
    for span in telemetry.get_tracer().spans():
        if category is None or span.category == category:
            program[span.name] = program.get(span.name, 0.0) + span.dur_s
    return {
        phase: mine[phase] / program[phase]
        for phase in mine
        if program.get(phase, 0.0) > 0.0 and mine[phase] > 0.0
    }
