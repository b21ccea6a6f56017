"""Filter + group-by aggregation over warehouse tables, as vectorised numpy ops.

The query model is deliberately small — it is the shape every paper figure needs:

* **filter**: equality predicates over any column, OR within one column's value
  list, AND across columns (``policy=autofl preset=fleet-1k,flaky-fleet``);
* **group by**: any set of string columns (``preset,policy``);
* **aggregate**: ``mean``/``p50``/``p95``/``sum``/``min``/``max``/``count`` of any
  numeric columns, computed NaN-aware so missing cells never poison a group.

Execution is columnar: one boolean mask per query, one :func:`numpy.unique` for the
grouping, and one reduction per (group, metric, agg) over contiguous float64 slices —
no per-row Python objects, so millions of rounds aggregate in milliseconds.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro import telemetry
from repro.analytics.schema import column_kinds
from repro.analytics.warehouse import Warehouse
from repro.defaults import AGGREGATIONS
from repro.exceptions import AnalyticsError

#: Default metric columns per table (what ``repro query`` aggregates when unasked).
DEFAULT_METRICS: dict[str, tuple[str, ...]] = {
    "rounds": (
        "round_time_s",
        "participant_energy_j",
        "global_energy_j",
        "accuracy",
        "num_dropped",
        "num_failed",
    ),
    "runs": (
        "final_accuracy",
        "rounds_executed",
        "total_time_s",
        "participant_energy_j",
        "global_energy_j",
    ),
    "bench": ("batch_rounds_per_s",),
    "metrics": ("value", "count", "sum", "p50", "p95", "p99"),
}

#: Default grouping per table.
DEFAULT_GROUP_BY: dict[str, tuple[str, ...]] = {
    "rounds": ("label", "preset", "policy"),
    "runs": ("label", "preset", "policy"),
    "bench": ("benchmark", "git_sha", "num_devices"),
    "metrics": ("label", "name", "kind"),
}


def parse_where(terms: Iterable[str]) -> dict[str, tuple[str, ...]]:
    """Parse CLI filter terms ``column=v1[,v2…]`` into a predicate mapping."""
    where: dict[str, tuple[str, ...]] = {}
    for term in terms:
        name, sep, raw = term.partition("=")
        name = name.strip().replace("-", "_")
        values = tuple(value.strip() for value in raw.split(",") if value.strip())
        if not sep or not name or not values:
            raise AnalyticsError(
                f"invalid filter {term!r}; expected the form column=value1,value2,…"
            )
        if name in where:
            raise AnalyticsError(f"filter column {name!r} given twice")
        where[name] = values
    return where


def _check_columns(table: str, names: Iterable[str], role: str) -> dict[str, str]:
    kinds = column_kinds(table)
    for name in names:
        if name not in kinds:
            raise AnalyticsError(
                f"unknown {role} column {name!r} for table {table!r}; "
                f"expected one of {sorted(kinds)}"
            )
    return kinds


def filter_mask(
    table: str, columns: dict[str, np.ndarray], where: dict[str, Sequence[str]]
) -> np.ndarray:
    """The boolean row mask of a predicate mapping (AND of per-column OR lists)."""
    size = next(iter(columns.values())).shape[0]
    mask = np.ones(size, dtype=bool)
    kinds = _check_columns(table, where, "filter")
    for name, values in where.items():
        column = columns[name]
        if kinds[name] == "str":
            mask &= np.isin(column.astype(str), np.array([str(v) for v in values]))
        else:
            try:
                numeric = np.array([float(v) for v in values], dtype=np.float64)
            except ValueError:
                raise AnalyticsError(
                    f"filter column {name!r} is numeric; got values {list(values)!r}"
                ) from None
            mask &= np.isin(column, numeric)
    return mask


def _group_rows(
    columns: dict[str, np.ndarray], group_by: Sequence[str], mask: np.ndarray
) -> list[tuple[tuple[str, ...], np.ndarray]]:
    """(group key, row indices) pairs, keys in sorted order."""
    index = np.flatnonzero(mask)
    if not group_by:
        return [((), index)]
    stacked = np.stack([columns[name][index].astype(str) for name in group_by], axis=1)
    unique, inverse = np.unique(stacked, axis=0, return_inverse=True)
    order = np.argsort(inverse, kind="stable")
    bounds = np.searchsorted(inverse[order], np.arange(len(unique) + 1))
    return [
        (tuple(unique[g]), index[order[bounds[g] : bounds[g + 1]]])
        for g in range(len(unique))
    ]


def _aggregate(values: np.ndarray, agg: str) -> float:
    """One NaN-aware reduction; empty or all-NaN slices reduce to NaN (count to 0)."""
    finite = values[~np.isnan(values)]
    if agg == "count":
        return float(finite.size)
    if finite.size == 0:
        return float("nan")
    if agg == "mean":
        return float(np.mean(finite))
    if agg == "p50":
        return float(np.percentile(finite, 50))
    if agg == "p95":
        return float(np.percentile(finite, 95))
    if agg == "sum":
        return float(np.sum(finite))
    if agg == "min":
        return float(np.min(finite))
    if agg == "max":
        return float(np.max(finite))
    raise AnalyticsError(
        f"unknown aggregation {agg!r}; expected one of {list(AGGREGATIONS)}"
    )


@dataclass(frozen=True)
class QueryResult:
    """A finished query: its parameters plus the rendered-ready header/row grid."""

    table: str
    where: dict[str, tuple[str, ...]]
    group_by: tuple[str, ...]
    metrics: tuple[str, ...]
    aggs: tuple[str, ...]
    headers: tuple[str, ...]
    rows: tuple[tuple[object, ...], ...]
    matched_rows: int = 0
    total_rows: int = 0
    warnings: tuple[str, ...] = field(default=())

    def to_dict(self) -> dict:
        """JSON-serialisable payload of the query and its result grid."""
        return {
            "table": self.table,
            "where": {name: list(values) for name, values in self.where.items()},
            "group_by": list(self.group_by),
            "metrics": list(self.metrics),
            "aggs": list(self.aggs),
            "matched_rows": self.matched_rows,
            "total_rows": self.total_rows,
            "groups": [dict(zip(self.headers, row)) for row in self.rows],
        }


def run_query(
    warehouse: Warehouse,
    table: str = "rounds",
    where: dict[str, Sequence[str]] | None = None,
    group_by: Sequence[str] | None = None,
    metrics: Sequence[str] | None = None,
    aggs: Sequence[str] = ("mean",),
) -> QueryResult:
    """Execute one filter/group/aggregate query against a warehouse table."""
    where = dict(where or {})
    group_by = tuple(group_by if group_by is not None else DEFAULT_GROUP_BY[table])
    metrics = tuple(metrics if metrics is not None else DEFAULT_METRICS[table])
    aggs = tuple(aggs)
    kinds = _check_columns(table, group_by, "group-by")
    _check_columns(table, metrics, "metric")
    for metric in metrics:
        if kinds[metric] != "num":
            raise AnalyticsError(f"metric column {metric!r} of {table!r} is not numeric")
    for agg in aggs:
        if agg not in AGGREGATIONS:
            raise AnalyticsError(
                f"unknown aggregation {agg!r}; expected one of {list(AGGREGATIONS)}"
            )
    with telemetry.get_tracer().span("query", category="warehouse", table=table):
        columns = warehouse.table(table)
        total = warehouse.num_rows(table)
        mask = (
            filter_mask(table, columns, where) if where else np.ones(total, dtype=bool)
        )
        groups = _group_rows(columns, group_by, mask)
        headers = group_by + tuple(
            f"{metric}:{agg}" for metric in metrics for agg in aggs
        )
        rows = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # All-NaN slices -> NaN.
            for key, index in groups:
                cells: list[object] = list(key)
                for metric in metrics:
                    values = columns[metric][index]
                    cells.extend(_aggregate(values, agg) for agg in aggs)
                rows.append(tuple(cells))
    return QueryResult(
        table=table,
        where={name: tuple(values) for name, values in where.items()},
        group_by=group_by,
        metrics=metrics,
        aggs=aggs,
        headers=headers,
        rows=tuple(rows),
        matched_rows=int(np.sum(mask)),
        total_rows=total,
    )
