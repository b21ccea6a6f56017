"""Process-wide metrics registry: counters, gauges and fixed-bucket histograms.

Design constraints (see the Observability section of the README):

* **Zero dependencies** — stdlib only, so the registry can be imported from any layer
  (engine, service, analytics, CLI) without widening the dependency surface.
* **True no-op when disabled.** Every mutating call checks ``registry.enabled`` first
  and returns before taking a lock or touching a dict, so instrumented hot paths cost
  one attribute load + branch per call when telemetry is off (the microbenchmark in
  ``tests/telemetry/test_instrumentation.py`` pins this below 2% of a fleet-1k round).
* **Fixed-bucket histograms.** Quantiles are computed from cumulative bucket counts
  using the *smallest upper bound whose cumulative count reaches ``q x count``* rule —
  the same convention Prometheus' ``histogram_quantile`` converges to at bucket
  boundaries — so snapshots can be merged across processes by adding bucket counts.
* **Snapshot / merge.** ``MetricsRegistry.snapshot()`` returns plain JSON-able dicts
  and ``merge()`` folds such a snapshot back in (counters and histograms add, gauges
  overwrite).  The scheduler uses this to ship child-process metrics through its
  result pipe into the parent registry that ``serve --port`` exposes on ``/metrics``.
"""

from __future__ import annotations

import math
import threading
from typing import Iterable, Mapping, Sequence

from repro.exceptions import TelemetryError

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "quantile_from_buckets",
]

#: Default histogram bounds (seconds-flavoured): log-spaced from 0.1 ms to 10 000 s.
#: ``+Inf`` is always appended implicitly, so any observation lands in a bucket.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0,
    500.0, 1000.0, 2500.0, 5000.0, 10000.0,
)

_LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: Mapping[str, object]) -> _LabelKey:
    return tuple(sorted((key, str(value)) for key, value in labels.items()))


def quantile_from_buckets(
    bounds: Sequence[float], counts: Sequence[int], q: float
) -> float:
    """Quantile ``q`` in (0, 1] from per-bucket ``counts`` under upper ``bounds``.

    Returns the smallest bucket upper bound whose cumulative count is >= ``q * total``.
    When that bound is ``+Inf`` (observations beyond the last finite bucket) the last
    finite bound is returned as the best available estimate; with no observations the
    result is ``nan``.
    """
    total = sum(counts)
    if total == 0:
        return math.nan
    rank = q * total
    cumulative = 0
    for bound, count in zip(bounds, counts):
        cumulative += count
        if cumulative >= rank:
            if math.isinf(bound):
                finite = [b for b in bounds if not math.isinf(b)]
                return finite[-1] if finite else math.nan
            return float(bound)
    return math.nan  # pragma: no cover - cumulative always reaches total


class _Instrument:
    """Shared plumbing: a name, help text, a lock and the owning registry."""

    kind = "instrument"

    def __init__(self, registry: "MetricsRegistry", name: str, help: str = ""):
        self._registry = registry
        self.name = name
        self.help = help
        self._lock = threading.Lock()


class Counter(_Instrument):
    """Monotonically increasing sum, one series per label combination."""

    kind = "counter"

    def __init__(self, registry: "MetricsRegistry", name: str, help: str = ""):
        super().__init__(registry, name, help)
        self._values: dict[_LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if not self._registry.enabled:
            return
        if amount < 0:
            raise TelemetryError(f"counter {self.name!r} cannot decrease (got {amount})")
        self._add(float(amount), labels)

    def _add(self, amount: float, labels: Mapping[str, object]) -> None:
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: object) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def _entries(self) -> list[dict]:
        with self._lock:
            items = list(self._values.items())
        return [
            {"name": self.name, "kind": self.kind, "help": self.help,
             "labels": dict(key), "value": value}
            for key, value in items
        ]


class Gauge(_Instrument):
    """Last-write-wins point value, one series per label combination."""

    kind = "gauge"

    def __init__(self, registry: "MetricsRegistry", name: str, help: str = ""):
        super().__init__(registry, name, help)
        self._values: dict[_LabelKey, float] = {}

    def set(self, value: float, **labels: object) -> None:
        if not self._registry.enabled:
            return
        self._set(float(value), labels)

    def _set(self, value: float, labels: Mapping[str, object]) -> None:
        with self._lock:
            self._values[_label_key(labels)] = value

    def value(self, **labels: object) -> float:
        return self._values.get(_label_key(labels), math.nan)

    def _entries(self) -> list[dict]:
        with self._lock:
            items = list(self._values.items())
        return [
            {"name": self.name, "kind": self.kind, "help": self.help,
             "labels": dict(key), "value": value}
            for key, value in items
        ]


class _HistogramSeries:
    __slots__ = ("buckets", "sum", "count")

    def __init__(self, n_buckets: int):
        self.buckets = [0] * n_buckets
        self.sum = 0.0
        self.count = 0


class Histogram(_Instrument):
    """Fixed-bucket histogram with per-label series and bucket-rule quantiles."""

    kind = "histogram"

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        help: str = "",
        buckets: Sequence[float] | None = None,
    ):
        super().__init__(registry, name, help)
        if buckets is None:
            buckets = DEFAULT_BUCKETS
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise TelemetryError(f"histogram {self.name!r} needs at least one bucket")
        if not math.isinf(bounds[-1]):
            bounds = bounds + (math.inf,)
        self.bounds = bounds
        self._series: dict[_LabelKey, _HistogramSeries] = {}

    def observe(self, value: float, **labels: object) -> None:
        if not self._registry.enabled:
            return
        value = float(value)
        key = _label_key(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = _HistogramSeries(len(self.bounds))
            for index, bound in enumerate(self.bounds):
                if value <= bound:
                    series.buckets[index] += 1
                    break
            series.sum += value
            series.count += 1

    def _merge_series(
        self, labels: Mapping[str, object], buckets: Sequence[int], total: float, count: int
    ) -> None:
        if len(buckets) != len(self.bounds):
            raise TelemetryError(
                f"histogram {self.name!r}: cannot merge snapshot with "
                f"{len(buckets)} buckets into {len(self.bounds)} bounds"
            )
        key = _label_key(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = _HistogramSeries(len(self.bounds))
            for index, bucket_count in enumerate(buckets):
                series.buckets[index] += int(bucket_count)
            series.sum += float(total)
            series.count += int(count)

    def count(self, **labels: object) -> int:
        series = self._series.get(_label_key(labels))
        return series.count if series is not None else 0

    def sum(self, **labels: object) -> float:
        series = self._series.get(_label_key(labels))
        return series.sum if series is not None else 0.0

    def quantile(self, q: float, **labels: object) -> float:
        series = self._series.get(_label_key(labels))
        if series is None:
            return math.nan
        with self._lock:
            counts = list(series.buckets)
        return quantile_from_buckets(self.bounds, counts, q)

    def _entries(self) -> list[dict]:
        with self._lock:
            items = [(key, list(s.buckets), s.sum, s.count) for key, s in self._series.items()]
        entries = []
        for key, buckets, total, count in items:
            entries.append(
                {
                    "name": self.name,
                    "kind": self.kind,
                    "help": self.help,
                    "labels": dict(key),
                    "count": count,
                    "sum": total,
                    "bounds": list(self.bounds),
                    "buckets": buckets,
                    "p50": quantile_from_buckets(self.bounds, buckets, 0.50),
                    "p95": quantile_from_buckets(self.bounds, buckets, 0.95),
                    "p99": quantile_from_buckets(self.bounds, buckets, 0.99),
                }
            )
        return entries


class MetricsRegistry:
    """A named collection of instruments with get-or-create registration.

    ``enabled`` is the single switch every instrument checks before recording; it is
    mutable so :func:`repro.telemetry.configure` can flip one long-lived process-wide
    registry on and off without re-wiring instrumented call sites.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._lock = threading.Lock()
        self._instruments: dict[str, _Instrument] = {}

    def _get_or_create(self, cls, name: str, help: str, **kwargs):
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = self._instruments[name] = cls(self, name, help=help, **kwargs)
            elif not isinstance(instrument, cls):
                raise TelemetryError(
                    f"metric {name!r} is already registered as a "
                    f"{instrument.kind}, not a {cls.kind}"
                )
            return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(
        self, name: str, help: str = "", buckets: Sequence[float] | None = None
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, buckets=buckets)

    def instruments(self) -> list[_Instrument]:
        with self._lock:
            return list(self._instruments.values())

    def snapshot(self) -> list[dict]:
        """All series as JSON-able dicts, sorted by (name, labels) for determinism."""
        entries: list[dict] = []
        for instrument in self.instruments():
            entries.extend(instrument._entries())
        entries.sort(key=lambda e: (e["name"], sorted(e["labels"].items())))
        return entries

    def merge(self, entries: Iterable[Mapping]) -> None:
        """Fold a :meth:`snapshot` back in: counters/histograms add, gauges overwrite.

        Works regardless of ``self.enabled`` — merging is administrative plumbing
        (e.g. the ``repro metrics`` CLI builds a fresh registry from a snapshot file),
        not hot-path recording.
        """
        for entry in entries:
            kind = entry.get("kind")
            name = entry["name"]
            labels = entry.get("labels", {})
            help_text = entry.get("help", "")
            if kind == "counter":
                self.counter(name, help=help_text)._add(float(entry["value"]), labels)
            elif kind == "gauge":
                self.gauge(name, help=help_text)._set(float(entry["value"]), labels)
            elif kind == "histogram":
                histogram = self.histogram(
                    name, help=help_text, buckets=tuple(entry["bounds"])
                )
                histogram._merge_series(
                    labels, entry["buckets"], entry["sum"], entry["count"]
                )
            else:
                raise TelemetryError(f"cannot merge unknown instrument kind {kind!r}")

    def reset(self) -> None:
        """Drop every registered instrument.

        Tests call it for isolation; a forked job child calls it first thing, to drop
        the registry it copied from the parent before it records its own metrics.
        """
        with self._lock:
            self._instruments.clear()
