"""Tests for the SQLite artifact store: cache semantics, migration and artifacts."""

import json
import sqlite3
import warnings

import pytest

from repro.exceptions import ServiceError
from repro.experiments.runner import ResultStore, run_experiment
from repro.experiments.spec import ExperimentSpec
from repro.service.store import ArtifactStore, migrate_jsonl, open_store
from repro.sim.scenarios import ScenarioSpec


def _spec(seed=0, policy="fedavg-random"):
    return ExperimentSpec(
        scenario=ScenarioSpec(num_devices=25, max_rounds=4, seed=seed), policy=policy
    )


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "results.sqlite")


@pytest.fixture
def result():
    return run_experiment(_spec())


class _LockedConnection:
    """Connection stand-in whose WAL switch reports "database is locked" at first."""

    def __init__(self, locked_attempts, error="database is locked"):
        self.locked_attempts = locked_attempts
        self.error = error
        self.attempts = 0

    def execute(self, sql):
        self.attempts += 1
        if self.attempts <= self.locked_attempts:
            raise sqlite3.OperationalError(self.error)


class TestWalSwitch:
    """The first-open WAL switch waits out a concurrent opener instead of failing."""

    def test_locked_switch_is_retried_until_it_succeeds(self, store):
        conn = _LockedConnection(locked_attempts=3)
        store._enable_wal(conn)
        assert conn.attempts == 4

    def test_switch_locked_past_the_timeout_raises(self, tmp_path):
        store = ArtifactStore(tmp_path / "results.sqlite", timeout_s=0.05)
        with pytest.raises(sqlite3.OperationalError, match="locked"):
            store._enable_wal(_LockedConnection(locked_attempts=10**6))

    def test_other_errors_are_not_retried(self, store):
        conn = _LockedConnection(locked_attempts=5, error="disk I/O error")
        with pytest.raises(sqlite3.OperationalError, match="disk I/O"):
            store._enable_wal(conn)
        assert conn.attempts == 1


class TestCacheSemantics:
    """The SQLite backend must be a drop-in for the JSONL store's hit/miss behaviour."""

    def test_miss_on_empty_store(self, store):
        assert store.get(_spec()) is None
        assert _spec() not in store
        assert len(store) == 0

    def test_put_get_roundtrip_flags_cached(self, store, result):
        store.put(result)
        hit = store.get(_spec())
        assert hit is not None and hit.cached
        assert hit.summaries == result.summaries
        assert hit.spec == result.spec
        assert _spec() in store and len(store) == 1

    def test_lookup_by_raw_hash(self, store, result):
        store.put(result)
        assert store.get(_spec().spec_hash()) is not None
        assert store.get("0" * 64) is None

    def test_put_is_idempotent(self, store, result):
        store.put(result)
        store.put(result)
        assert len(store) == 1

    def test_persists_across_reopen(self, tmp_path, result):
        ArtifactStore(tmp_path / "results.sqlite").put(result)
        reopened = ArtifactStore(tmp_path / "results.sqlite")
        assert reopened.get(_spec()) is not None

    def test_matches_jsonl_backend_verdicts(self, tmp_path, result):
        jsonl = ResultStore(tmp_path / "a.jsonl")
        sqlite = ArtifactStore(tmp_path / "a.sqlite")
        for backend in (jsonl, sqlite):
            backend.put(result)
        for probe in (_spec(), _spec(seed=99)):
            assert (jsonl.get(probe) is None) == (sqlite.get(probe) is None)

    def test_count_by_schema(self, store, result):
        store.put(result)
        counts = store.count_by_schema()
        assert counts == {result.spec.to_dict()["schema"]: 1}


class TestArtifacts:
    def test_put_get_roundtrip(self, store):
        store.put_artifact("job-1", "validation-abc", "validation-report", {"ok": False})
        artifacts = store.get_artifacts("job-1")
        assert len(artifacts) == 1
        assert artifacts[0]["name"] == "validation-abc"
        assert artifacts[0]["kind"] == "validation-report"
        assert artifacts[0]["payload"] == {"ok": False}

    def test_artifacts_scoped_by_job(self, store):
        store.put_artifact("job-1", "x", "report", {})
        assert store.get_artifacts("job-2") == []


class TestMigration:
    def test_migrates_every_entry_with_hashes_preserved(self, tmp_path):
        legacy = ResultStore(tmp_path / "results.jsonl")
        results = [run_experiment(_spec(seed)) for seed in range(3)]
        for result in results:
            legacy.put(result)
        store = ArtifactStore(tmp_path / "results.sqlite")
        migrated = migrate_jsonl(tmp_path / "results.jsonl", store)
        assert migrated == 3
        assert len(store) == 3
        for result in results:
            hit = store.get(result.spec.spec_hash())  # looked up by the ORIGINAL hash
            assert hit is not None and hit.summaries == result.summaries

    def test_migration_is_idempotent(self, tmp_path, result):
        ResultStore(tmp_path / "results.jsonl").put(result)
        store = ArtifactStore(tmp_path / "results.sqlite")
        assert migrate_jsonl(tmp_path / "results.jsonl", store) == 1
        assert migrate_jsonl(tmp_path / "results.jsonl", store) == 0
        assert len(store) == 1

    def test_missing_jsonl_migrates_nothing(self, tmp_path, store):
        assert migrate_jsonl(tmp_path / "absent.jsonl", store) == 0

    def test_tampered_hash_refused(self, tmp_path, result, store):
        path = tmp_path / "results.jsonl"
        ResultStore(path).put(result)
        line = json.loads(path.read_text())
        line["hash"] = "f" * 64
        path.write_text(json.dumps(line) + "\n")
        with pytest.raises(ServiceError, match="refusing to migrate"):
            migrate_jsonl(path, store)


class TestOpenStore:
    def test_jsonl_suffix_selects_legacy_backend(self, tmp_path):
        assert isinstance(open_store(tmp_path / "r.jsonl"), ResultStore)

    def test_default_suffix_selects_sqlite(self, tmp_path):
        assert isinstance(open_store(tmp_path / "r.sqlite"), ArtifactStore)

    def test_auto_migrates_legacy_sibling_once(self, tmp_path, result):
        ResultStore(tmp_path / "results.jsonl").put(result)
        store = open_store(tmp_path / "results.sqlite")
        assert store.get(_spec()) is not None
        receipt = store.get_meta("migrated:results.jsonl")
        assert json.loads(receipt)["migrated"] == 1
        # Second open does not rescan (receipt unchanged even if the jsonl grew).
        ResultStore(tmp_path / "results.jsonl").put(run_experiment(_spec(seed=5)))
        reopened = open_store(tmp_path / "results.sqlite")
        assert json.loads(reopened.get_meta("migrated:results.jsonl"))["migrated"] == 1

    def test_auto_migration_is_quiet_about_stale_lines(self, tmp_path, result):
        path = tmp_path / "results.jsonl"
        ResultStore(path).put(result)
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"hash": "deadbeef", "spec": {"schema": 1}, "summaries": []}\n')
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # The legacy loader's warning must not escape.
            store = open_store(tmp_path / "results.sqlite")
        assert len(store) == 1
