"""Tests for the columnar warehouse: backends, manifest, idempotent ingest."""

from __future__ import annotations

import json

import numpy as np
import pytest

from legacy_jsonl import append_jsonl
from repro.analytics import Warehouse, get_backend, have_pyarrow
from repro.analytics.warehouse import MANIFEST_FILENAME, NumpyBackend
from repro.exceptions import AnalyticsError
from repro.experiments.runner import BatchRunner, run_experiment
from repro.service.store import ArtifactStore
from repro.validation.golden import GoldenStore, golden_spec



class TestBackends:
    def test_auto_resolves_to_an_available_backend(self):
        backend = get_backend("auto")
        assert backend.name == ("parquet" if have_pyarrow() else "numpy")

    def test_unknown_backend_raises(self):
        with pytest.raises(AnalyticsError, match="unknown warehouse backend"):
            get_backend("feather")

    @pytest.mark.skipif(have_pyarrow(), reason="pyarrow is installed")
    def test_parquet_without_pyarrow_raises(self):
        with pytest.raises(AnalyticsError, match="needs pyarrow"):
            get_backend("parquet")

    def test_roundtrip_preserves_columns(self, tmp_path, backend):
        columns = {
            "name": np.array(["a", "b"], dtype=str),
            "value": np.array([1.5, float("nan")], dtype=np.float64),
        }
        impl = get_backend(backend)
        path = tmp_path / f"t{impl.suffix}"
        impl.write(path, columns)
        loaded = impl.read(path)
        assert list(loaded["name"].astype(str)) == ["a", "b"]
        np.testing.assert_array_equal(loaded["value"], columns["value"])


class TestManifest:
    def test_backend_is_recorded_and_pinned(self, tmp_path, make_run_row):
        root = tmp_path / "wh"
        Warehouse(root, backend="numpy").append_rows("runs", [make_run_row()])
        manifest = json.loads((root / MANIFEST_FILENAME).read_text())
        assert manifest["backend"] == "numpy"
        # auto re-opens with the recorded backend even where pyarrow is available.
        assert Warehouse(root).backend.name == "numpy"

    def test_explicit_backend_mismatch_raises(self, tmp_path, make_run_row):
        root = tmp_path / "wh"
        Warehouse(root, backend="numpy").append_rows("runs", [make_run_row()])
        with pytest.raises(AnalyticsError, match="mix columnar formats"):
            Warehouse(root, backend="parquet")

    def test_corrupt_manifest_raises(self, tmp_path):
        root = tmp_path / "wh"
        root.mkdir()
        (root / MANIFEST_FILENAME).write_text("{not json")
        with pytest.raises(AnalyticsError, match="corrupt warehouse manifest"):
            Warehouse(root)

    def test_stale_schema_version_raises(self, tmp_path):
        root = tmp_path / "wh"
        root.mkdir()
        (root / MANIFEST_FILENAME).write_text(json.dumps({"warehouse_schema": 0}))
        with pytest.raises(AnalyticsError, match="re-ingest"):
            Warehouse(root)

    def test_table_with_unexpected_columns_raises(self, tmp_path, make_run_row):
        root = tmp_path / "wh"
        warehouse = Warehouse(root, backend="numpy")
        warehouse.append_rows("runs", [make_run_row()])
        NumpyBackend().write(
            root / "runs.npz", {"bogus": np.array(["x"], dtype=str)}
        )
        with pytest.raises(AnalyticsError, match="holds columns"):
            Warehouse(root, backend="numpy").table("runs")


class TestIngestResult:
    def test_trajectory_lands_in_rounds_and_runs(self, tmp_path, backend, small_result, small_spec):
        warehouse = Warehouse(tmp_path / "wh", backend=backend)
        added = warehouse.ingest_result(small_result, small_spec, label="lbl", preset="p")
        assert added == small_result.num_rounds + 1
        assert warehouse.num_rows("rounds") == small_result.num_rounds
        assert warehouse.num_rows("runs") == 1
        assert warehouse.labels() == ["lbl"]

    def test_reingest_is_idempotent(self, tmp_path, backend, small_result, small_spec):
        warehouse = Warehouse(tmp_path / "wh", backend=backend)
        warehouse.ingest_result(small_result, small_spec, label="lbl")
        warehouse.ingest_result(small_result, small_spec, label="lbl")
        assert warehouse.num_rows("rounds") == small_result.num_rounds
        assert warehouse.num_rows("runs") == 1

    def test_distinct_labels_coexist(self, tmp_path, small_result, small_spec):
        warehouse = Warehouse(tmp_path / "wh", backend="numpy")
        warehouse.ingest_result(small_result, small_spec, label="a")
        warehouse.ingest_result(small_result, small_spec, label="b")
        assert warehouse.num_rows("runs") == 2
        assert warehouse.labels() == ["a", "b"]

    def test_persists_across_reopen(self, tmp_path, backend, small_result, small_spec):
        root = tmp_path / "wh"
        Warehouse(root, backend=backend).ingest_result(small_result, small_spec)
        reopened = Warehouse(root)
        assert reopened.num_rows("rounds") == small_result.num_rounds
        accuracy = reopened.table("rounds")["accuracy"]
        np.testing.assert_array_equal(
            accuracy, [record.accuracy for record in small_result.records]
        )


class TestIngestStore:
    def _populated_store(self, tmp_path, small_spec, kind):
        import dataclasses

        spec = dataclasses.replace(small_spec, n_seeds=2).validate()
        if kind == "jsonl":
            return append_jsonl(tmp_path / "results.jsonl", run_experiment(spec)), spec
        path = tmp_path / "results.sqlite"
        BatchRunner(store=ArtifactStore(path)).run([spec])
        return path, spec

    @pytest.mark.parametrize("kind", ["sqlite", "jsonl"])
    def test_store_path_ingests_one_row_per_seed(self, tmp_path, small_spec, kind):
        path, spec = self._populated_store(tmp_path, small_spec, kind)
        warehouse = Warehouse(tmp_path / "wh", backend="numpy")
        added = warehouse.ingest_store(path, label="baseline")
        assert added == spec.n_seeds
        assert warehouse.num_rows("runs") == spec.n_seeds
        assert warehouse.num_rows("rounds") == 0  # stores keep summaries only
        columns = warehouse.table("runs")
        assert set(columns["source"].astype(str)) == {"store"}
        assert set(columns["label"].astype(str)) == {"baseline"}

    def test_sqlite_path_beside_a_jsonl_file_migrates_and_ingests(self, tmp_path, small_spec):
        path, spec = self._populated_store(tmp_path, small_spec, "jsonl")
        warehouse = Warehouse(tmp_path / "wh", backend="numpy")
        assert warehouse.ingest_store(path.with_suffix(".sqlite")) == spec.n_seeds

    @pytest.mark.parametrize("name", ["typo.sqlite", "typo.jsonl", "typo-shards"])
    def test_missing_store_path_raises_and_creates_nothing(self, tmp_path, name):
        warehouse = Warehouse(tmp_path / "wh", backend="numpy")
        with pytest.raises(AnalyticsError, match="no result store"):
            warehouse.ingest_store(tmp_path / name, label="x")
        assert [path.name for path in tmp_path.iterdir() if path.name != "wh"] == []
        assert warehouse.num_rows("runs") == 0

    def test_preset_column_carries_the_store_preset(self, tmp_path, small_spec):
        import dataclasses

        path = tmp_path / "results.sqlite"
        store = ArtifactStore(path)
        spec = dataclasses.replace(small_spec, n_seeds=1).validate()
        BatchRunner(store=store).run([spec])
        # Re-put with a preset tag, as the scheduler does for preset submissions.
        ((result, _preset),) = tuple(store.iter_results())
        store.put(result, preset="fleet-1k")
        warehouse = Warehouse(tmp_path / "wh", backend="numpy")
        warehouse.ingest_store(path)
        assert set(warehouse.table("runs")["preset"].astype(str)) == {"fleet-1k"}


class TestIngestGoldens:
    def test_golden_directory_ingests_rounds_and_runs(self, tmp_path, backend):
        directory = tmp_path / "goldens"
        store = GoldenStore(directory)
        golden = store.record("flaky-fleet", golden_spec("flaky-fleet", max_rounds=3))
        warehouse = Warehouse(tmp_path / "wh", backend=backend)
        added = warehouse.ingest_goldens(directory)
        assert added == golden.num_rounds + 1
        assert warehouse.labels() == ["golden"]
        columns = warehouse.table("rounds")
        assert set(columns["preset"].astype(str)) == {"flaky-fleet"}


class TestIngestBench:
    def test_bench_files_skip_unparseable(self, tmp_path):
        (tmp_path / "BENCH_ok.json").write_text(
            json.dumps(
                {
                    "benchmark": "roundengine",
                    "timestamp": "t",
                    "results": [{"num_devices": 10, "speedup": 2.0}],
                }
            )
        )
        (tmp_path / "BENCH_bad.json").write_text("{broken")
        warehouse = Warehouse(tmp_path / "wh", backend="numpy")
        with pytest.warns(UserWarning, match="unparseable bench record"):
            added = warehouse.ingest_bench_files(tmp_path)
        assert added == 1
        assert warehouse.num_rows("bench") == 1

    def test_reingest_same_record_is_idempotent(self, tmp_path):
        record = {
            "benchmark": "roundengine",
            "timestamp": "t",
            "results": [{"num_devices": 10, "speedup": 2.0}],
        }
        warehouse = Warehouse(tmp_path / "wh", backend="numpy")
        warehouse.ingest_bench_record(record)
        warehouse.ingest_bench_record(record)
        assert warehouse.num_rows("bench") == 1


class TestDescribe:
    def test_receipt_shape(self, tmp_path, make_run_row):
        warehouse = Warehouse(tmp_path / "wh", backend="numpy")
        warehouse.append_rows("runs", [make_run_row()])
        receipt = warehouse.describe()
        assert receipt["backend"] == "numpy"
        assert receipt["tables"] == {"rounds": 0, "runs": 1, "bench": 0, "metrics": 0}
