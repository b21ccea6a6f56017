"""The columnar results warehouse: ingest runs, goldens and bench records; read tables.

A :class:`Warehouse` is a directory of columnar table files plus a JSON manifest:

* ``rounds.parquet`` / ``rounds.npz`` — per-round rows of ingested trajectories;
* ``runs.*`` — per-seed summary rows (store ingests land here);
* ``bench.*`` — flattened ``BENCH_*.json`` measurements with provenance;
* ``manifest.json`` — backend name, schema version, row counts and the ingest log
  (labels), so a warehouse is self-describing and backend mixups fail loudly.

The columnar backend is Parquet (via ``pyarrow``) when installed, with a pure-numpy
compressed ``.npz`` fallback so the core keeps its numpy-only dependency surface.
Both store the same string/float64 columns, and every read returns plain numpy
arrays, so the query layer never knows which backend produced them.

Ingests are idempotent: rows are keyed per table (``label``/``source``/``spec_hash``/
``seed`` for runs and rounds) and a re-ingest of the same run replaces its rows
instead of duplicating them.
"""

from __future__ import annotations

import json
import os
import time
import warnings
from pathlib import Path

import numpy as np

from repro import telemetry
from repro.analytics.schema import (
    TABLE_KEYS,
    TABLES,
    WAREHOUSE_SCHEMA_VERSION,
    bench_rows_from_record,
    empty_columns,
    metrics_rows_from_snapshot,
    round_rows_from_golden,
    round_rows_from_result,
    rows_to_columns,
    run_row_from_golden,
    run_row_from_result,
    run_rows_from_experiment,
    table_schema,
)
from repro.defaults import DEFAULT_WAREHOUSE_ROOT
from repro.exceptions import AnalyticsError

#: Manifest filename inside the warehouse root.
MANIFEST_FILENAME = "manifest.json"

#: Glob matching the bench records written at the repository root.
BENCH_GLOB = "BENCH_*.json"


def have_pyarrow() -> bool:
    """True when the optional ``pyarrow`` columnar backend is importable."""
    try:  # pragma: no cover - trivially environment-dependent
        import pyarrow  # noqa: F401
        import pyarrow.parquet  # noqa: F401
    except ImportError:
        return False
    return True


class NumpyBackend:
    """Pure-numpy columnar file backend: one compressed ``.npz`` per table."""

    name = "numpy"
    suffix = ".npz"

    def write(self, path: Path, columns: dict[str, np.ndarray]) -> None:
        """Write one table's columns (atomically: write-then-rename)."""
        tmp = path.with_suffix(path.suffix + ".tmp")
        with tmp.open("wb") as handle:
            np.savez_compressed(handle, **columns)
        tmp.replace(path)

    def read(self, path: Path) -> dict[str, np.ndarray]:
        """Read one table's columns."""
        with np.load(path, allow_pickle=False) as archive:
            return {name: archive[name] for name in archive.files}


class ParquetBackend:
    """Parquet columnar backend over ``pyarrow`` (installed separately)."""

    name = "parquet"
    suffix = ".parquet"

    def __init__(self) -> None:
        if not have_pyarrow():
            raise AnalyticsError(
                "the parquet backend needs pyarrow, which is not installed; "
                "use backend='numpy' (or 'auto') for the .npz fallback"
            )

    def write(self, path: Path, columns: dict[str, np.ndarray]) -> None:
        """Write one table's columns as a Parquet file."""
        import pyarrow as pa
        import pyarrow.parquet as pq

        table = pa.table({name: pa.array(column) for name, column in columns.items()})
        pq.write_table(table, path)

    def read(self, path: Path) -> dict[str, np.ndarray]:
        """Read one table's columns back as numpy arrays."""
        import pyarrow.parquet as pq

        table = pq.read_table(path)
        columns: dict[str, np.ndarray] = {}
        for name in table.column_names:
            values = table.column(name).to_numpy(zero_copy_only=False)
            if values.dtype == object:  # Strings come back as object arrays.
                values = values.astype(str)
            columns[name] = values
        return columns


#: Backend constructors by CLI name.
BACKENDS = {NumpyBackend.name: NumpyBackend, ParquetBackend.name: ParquetBackend}


def get_backend(name: str = "auto"):
    """Resolve a backend by name; ``auto`` prefers Parquet when pyarrow is installed."""
    if name == "auto":
        return ParquetBackend() if have_pyarrow() else NumpyBackend()
    try:
        return BACKENDS[name]()
    except KeyError:
        raise AnalyticsError(
            f"unknown warehouse backend {name!r}; expected 'auto', "
            f"{', '.join(repr(known) for known in sorted(BACKENDS))}"
        ) from None


class Warehouse:
    """Columnar analytics store over experiment, golden and bench results."""

    def __init__(
        self, root: str | os.PathLike = DEFAULT_WAREHOUSE_ROOT, backend: str = "auto"
    ) -> None:
        self.root = Path(root)
        self._manifest = self._load_manifest()
        recorded = self._manifest.get("backend")
        if recorded is not None:
            if backend not in ("auto", recorded):
                raise AnalyticsError(
                    f"warehouse {self.root} was created with the {recorded!r} backend; "
                    f"opening it with {backend!r} would mix columnar formats — "
                    "use a fresh root (or the recorded backend)"
                )
            self.backend = get_backend(recorded)
        else:
            self.backend = get_backend(backend)
        self._tables: dict[str, dict[str, np.ndarray]] = {}

    # ------------------------------------------------------------------ manifest
    def _manifest_path(self) -> Path:
        return self.root / MANIFEST_FILENAME

    def _load_manifest(self) -> dict:
        path = self._manifest_path()
        if not path.exists():
            return {}
        try:
            manifest = json.loads(path.read_text(encoding="utf-8"))
        except ValueError as exc:
            raise AnalyticsError(f"corrupt warehouse manifest {path}: {exc}") from exc
        schema = manifest.get("warehouse_schema")
        if schema != WAREHOUSE_SCHEMA_VERSION:
            raise AnalyticsError(
                f"warehouse {self.root} was written with schema {schema!r}; this "
                f"version reads schema {WAREHOUSE_SCHEMA_VERSION} — re-ingest into "
                "a fresh root"
            )
        return manifest

    def _save_manifest(self) -> None:
        self._manifest["warehouse_schema"] = WAREHOUSE_SCHEMA_VERSION
        self._manifest["backend"] = self.backend.name
        self._manifest.setdefault("tables", {})
        for name in TABLES:
            self._manifest["tables"][name] = {
                "rows": self.num_rows(name),
                "file": self._table_path(name).name,
            }
        self.root.mkdir(parents=True, exist_ok=True)
        tmp = self._manifest_path().with_suffix(".json.tmp")
        tmp.write_text(
            json.dumps(self._manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        tmp.replace(self._manifest_path())

    def _log_ingest(self, label: str, source: str, rows: int) -> None:
        log = self._manifest.setdefault("ingests", [])
        log.append({"label": label, "source": source, "rows": rows, "at": time.time()})

    def labels(self) -> list[str]:
        """Every ingest label seen so far, in first-ingest order."""
        seen: list[str] = []
        for entry in self._manifest.get("ingests", ()):
            if entry["label"] not in seen:
                seen.append(entry["label"])
        return seen

    # ------------------------------------------------------------------ tables
    def _table_path(self, table: str) -> Path:
        table_schema(table)  # Validate the name.
        return self.root / f"{table}{self.backend.suffix}"

    def table(self, name: str) -> dict[str, np.ndarray]:
        """One table's columns (empty columns when nothing was ingested yet)."""
        if name not in self._tables:
            path = self._table_path(name)
            if path.exists():
                columns = self.backend.read(path)
                expected = {column.name for column in table_schema(name)}
                if set(columns) != expected:
                    raise AnalyticsError(
                        f"warehouse table {name!r} at {path} holds columns "
                        f"{sorted(columns)} but this version expects "
                        f"{sorted(expected)}; re-ingest into a fresh root"
                    )
                self._tables[name] = columns
            else:
                self._tables[name] = empty_columns(name)
        return self._tables[name]

    def num_rows(self, name: str) -> int:
        """Row count of one table."""
        columns = self.table(name)
        first = next(iter(columns.values()))
        return int(first.shape[0])

    def _row_keys(self, table: str, columns: dict[str, np.ndarray]) -> np.ndarray:
        key_columns = TABLE_KEYS[table]
        parts = [np.asarray(columns[name]).astype(str) for name in key_columns]
        if not parts or parts[0].shape[0] == 0:
            return np.array([], dtype=str)
        stacked = parts[0]
        for part in parts[1:]:
            stacked = np.char.add(np.char.add(stacked, "|"), part)
        return stacked

    def append_rows(self, table: str, rows: list[dict]) -> int:
        """Append rows to a table, replacing rows of the same run key (idempotent).

        Returns the number of rows added.
        """
        if not rows:
            return 0
        with telemetry.get_tracer().span(
            "ingest", category="warehouse", table=table, rows=len(rows)
        ):
            fresh = rows_to_columns(table, rows)
            existing = self.table(table)
            if next(iter(existing.values())).shape[0]:
                keep = ~np.isin(
                    self._row_keys(table, existing), self._row_keys(table, fresh)
                )
                merged = {
                    name: np.concatenate([existing[name][keep], fresh[name]])
                    for name in fresh
                }
            else:
                merged = fresh
            self._tables[table] = merged
            self.root.mkdir(parents=True, exist_ok=True)
            self.backend.write(self._table_path(table), merged)
            self._save_manifest()
        registry = telemetry.get_registry()
        if registry.enabled:
            registry.counter(
                "repro_warehouse_rows_total", help="Rows appended to warehouse tables."
            ).inc(len(rows), table=table)
        return len(rows)

    # ------------------------------------------------------------------ ingest
    def ingest_result(
        self,
        result,
        spec,
        label: str = "default",
        source: str = "run",
        preset: str | None = None,
    ) -> int:
        """Ingest one finished :class:`~repro.sim.results.SimulationResult` trajectory.

        Contributes one ``rounds`` row per executed round and one ``runs`` summary
        row; returns the total rows added.
        """
        added = self.append_rows(
            "rounds",
            round_rows_from_result(result, spec, label=label, source=source, preset=preset),
        )
        added += self.append_rows(
            "runs",
            [run_row_from_result(result, spec, label=label, source=source, preset=preset)],
        )
        self._log_ingest(label, source, added)
        self._save_manifest()
        return added

    def ingest_store(self, store, label: str = "default") -> int:
        """Ingest every cached result of a result store.

        ``store`` is a :class:`~repro.service.store.ArtifactStore` or
        :class:`~repro.service.store.ShardedStore`, or a path understood by
        :func:`~repro.service.store.open_store` (so a ``.jsonl`` file of the retired
        flat-file store is migrated, then ingested).  Summaries land in the ``runs``
        table, one row per seed replica.  A path that names no store raises
        :class:`~repro.exceptions.AnalyticsError` and creates nothing, so a mistyped
        path cannot pass as an empty store.
        """
        if isinstance(store, (str, os.PathLike)):
            from repro.service.store import open_store, store_exists

            if not store_exists(store):
                raise AnalyticsError(
                    f"no result store at {store}: no SQLite file, shard directory or "
                    ".jsonl file to migrate"
                )
            store = open_store(store)
        rows: list[dict] = []
        for result, preset in store.iter_results():
            rows.extend(
                run_rows_from_experiment(result, label=label, source="store", preset=preset)
            )
        added = self.append_rows("runs", rows)
        self._log_ingest(label, "store", added)
        self._save_manifest()
        return added

    def ingest_goldens(
        self,
        directory: str | os.PathLike | None = None,
        names: list[str] | None = None,
        label: str = "golden",
    ) -> int:
        """Ingest recorded golden trajectories (per-round rows, no re-run needed)."""
        from repro.validation.golden import DEFAULT_GOLDEN_DIR, GoldenStore

        store = GoldenStore(directory if directory is not None else DEFAULT_GOLDEN_DIR)
        added = 0
        for name in names if names is not None else store.names():
            golden = store.load(name)
            added += self.append_rows("rounds", round_rows_from_golden(golden, label=label))
            added += self.append_rows("runs", [run_row_from_golden(golden, label=label)])
        self._log_ingest(label, "golden", added)
        self._save_manifest()
        return added

    def ingest_metrics(self, snapshot, label: str = "metrics") -> int:
        """Ingest a telemetry metrics snapshot into the ``metrics`` table.

        ``snapshot`` is a snapshot payload dict, a bare entry list
        (:meth:`~repro.telemetry.metrics.MetricsRegistry.snapshot`) or a path to a
        snapshot file written by :func:`repro.telemetry.exporter.write_snapshot`.
        Rows are keyed by (label, ts, name, labels), so re-ingesting the same
        snapshot file is idempotent.
        """
        if isinstance(snapshot, (str, os.PathLike)):
            snapshot = telemetry.read_snapshot(snapshot)
        added = self.append_rows("metrics", metrics_rows_from_snapshot(snapshot, label=label))
        self._log_ingest(label, "metrics", added)
        self._save_manifest()
        return added

    def ingest_bench_record(self, record: dict) -> int:
        """Register one historical ``BENCH_*.json`` record in the ``bench`` table."""
        added = self.append_rows("bench", bench_rows_from_record(record))
        self._log_ingest(str(record.get("benchmark", "bench")), "bench", added)
        self._save_manifest()
        return added

    def ingest_bench_files(self, root: str | os.PathLike = ".") -> int:
        """Ingest every ``BENCH_*.json`` record under ``root`` (or one named file)."""
        root = Path(root)
        paths = [root] if root.is_file() else sorted(root.glob(BENCH_GLOB))
        added = 0
        for path in paths:
            try:
                record = json.loads(path.read_text(encoding="utf-8"))
            except ValueError as exc:
                warnings.warn(
                    f"skipping unparseable bench record {path}: {exc}", stacklevel=2
                )
                continue
            added += self.ingest_bench_record(record)
        return added

    # ------------------------------------------------------------------ reporting
    def describe(self) -> dict:
        """Row counts, backend and labels — the ``ingest`` command's receipt."""
        return {
            "root": str(self.root),
            "backend": self.backend.name,
            "tables": {name: self.num_rows(name) for name in TABLES},
            "labels": self.labels(),
        }
