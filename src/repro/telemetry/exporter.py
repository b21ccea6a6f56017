"""Exposition surfaces for the metrics registry.

* :func:`render_prometheus` — Prometheus text format 0.0.4 (``# HELP``/``# TYPE``
  headers, cumulative ``_bucket{le=...}`` series, ``_sum``/``_count``), served on
  ``/metrics`` by :class:`repro.service.ServiceHttpServer` under ``serve --port``.
* :func:`write_snapshot` / :func:`read_snapshot` — atomic JSON snapshot files; the
  scheduler drops one next to the queue after every job so ``python -m repro metrics``
  can inspect a live (or finished) service without scraping HTTP.
* :func:`metrics_table_rows` — flatten a snapshot into rows for the shared
  ``--format {table,csv,json}`` renderer.
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
from pathlib import Path
from typing import Iterable, Mapping

from repro.exceptions import TelemetryError
from repro.telemetry.metrics import MetricsRegistry

__all__ = [
    "METRICS_FILENAME",
    "METRICS_HEADERS",
    "metrics_table_rows",
    "read_snapshot",
    "render_prometheus",
    "snapshot_payload",
    "write_snapshot",
]

SNAPSHOT_SCHEMA_VERSION = 1

#: Default snapshot filename inside a service root (next to ``queue/`` and
#: ``events.jsonl``).
METRICS_FILENAME = "metrics.json"

METRICS_HEADERS = ("metric", "kind", "labels", "value", "count", "sum", "p50", "p95", "p99")


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_labels(labels: Mapping[str, str], extra: Mapping[str, str] | None = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    body = ",".join(
        f'{key}="{_escape_label_value(str(value))}"' for key, value in sorted(merged.items())
    )
    return "{" + body + "}"


def _format_value(value: float) -> str:
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    formatted = repr(float(value))
    return formatted[:-2] if formatted.endswith(".0") else formatted


def _format_bound(bound: float) -> str:
    return "+Inf" if math.isinf(bound) else _format_value(bound)


def render_prometheus(registry: MetricsRegistry) -> str:
    """Render every registered series in the Prometheus text exposition format."""
    lines: list[str] = []
    entries = registry.snapshot()
    seen_headers: set[str] = set()
    for entry in entries:
        name = entry["name"]
        if name not in seen_headers:
            seen_headers.add(name)
            if entry.get("help"):
                lines.append(f"# HELP {name} {entry['help']}")
            lines.append(f"# TYPE {name} {entry['kind']}")
        labels = entry.get("labels", {})
        if entry["kind"] == "histogram":
            cumulative = 0
            for bound, count in zip(entry["bounds"], entry["buckets"]):
                cumulative += count
                bucket_labels = _format_labels(labels, {"le": _format_bound(bound)})
                lines.append(f"{name}_bucket{bucket_labels} {cumulative}")
            lines.append(f"{name}_sum{_format_labels(labels)} {_format_value(entry['sum'])}")
            lines.append(f"{name}_count{_format_labels(labels)} {entry['count']}")
        else:
            lines.append(f"{name}{_format_labels(labels)} {_format_value(entry['value'])}")
    return "\n".join(lines) + "\n"


# -- snapshot files ------------------------------------------------------------


def snapshot_payload(registry: MetricsRegistry) -> dict:
    return {
        "schema": SNAPSHOT_SCHEMA_VERSION,
        "ts": time.time(),
        "metrics": registry.snapshot(),
    }


def write_snapshot(registry: MetricsRegistry, path: str | os.PathLike) -> Path:
    """Atomically write a snapshot JSON (unique temp file + ``os.replace``)."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.with_name(
        f".{target.name}.{os.getpid()}.{threading.get_ident()}.tmp"
    )
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(snapshot_payload(registry), handle, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, target)
    return target


def read_snapshot(path: str | os.PathLike) -> dict:
    """Read a snapshot file back; raises :class:`TelemetryError` on corruption."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except FileNotFoundError:
        raise
    except (json.JSONDecodeError, OSError) as exc:
        raise TelemetryError(f"corrupt metrics snapshot {path}: {exc}") from exc
    if not isinstance(payload, dict) or "metrics" not in payload:
        raise TelemetryError(f"metrics snapshot {path} has no 'metrics' key")
    return payload


# -- table rows ----------------------------------------------------------------


def _labels_text(labels: Mapping[str, str]) -> str:
    return ",".join(f"{key}={value}" for key, value in sorted(labels.items()))


def metrics_table_rows(entries: Iterable[Mapping]) -> list[tuple]:
    """Flatten snapshot entries into ``METRICS_HEADERS`` rows for ``render_rows``."""
    rows = []
    for entry in entries:
        labels = _labels_text(entry.get("labels", {}))
        if entry["kind"] == "histogram":
            rows.append(
                (
                    entry["name"], entry["kind"], labels, "",
                    entry["count"], f"{entry['sum']:.6g}",
                    f"{entry['p50']:.6g}", f"{entry['p95']:.6g}", f"{entry['p99']:.6g}",
                )
            )
        else:
            rows.append(
                (entry["name"], entry["kind"], labels, f"{entry['value']:.6g}",
                 "", "", "", "", "")
            )
    return rows
