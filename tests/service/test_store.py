"""Tests for the SQLite artifact store: cache semantics, migration and artifacts."""

import json
import shutil
import sqlite3
import warnings

import pytest

from legacy_jsonl import LEGACY_FIXTURE, append_jsonl
from repro.exceptions import ServiceError
from repro.experiments.runner import ExperimentResult, StaleResultWarning, run_experiment
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
    """Hit/miss behaviour of the SQLite store, written directly or migrated from JSONL."""

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
        migrated = open_store(append_jsonl(tmp_path / "a.jsonl", result))
        direct = ArtifactStore(tmp_path / "b.sqlite")
        direct.put(result)
        for probe in (_spec(), _spec(seed=99)):
            assert (migrated.get(probe) is None) == (direct.get(probe) is None)

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
        results = [run_experiment(_spec(seed)) for seed in range(3)]
        append_jsonl(tmp_path / "results.jsonl", *results)
        store = ArtifactStore(tmp_path / "results.sqlite")
        migrated = migrate_jsonl(tmp_path / "results.jsonl", store)
        assert migrated == 3
        assert len(store) == 3
        for result in results:
            hit = store.get(result.spec.spec_hash())  # looked up by the ORIGINAL hash
            assert hit is not None and hit.summaries == result.summaries

    def test_migration_is_idempotent(self, tmp_path, result):
        append_jsonl(tmp_path / "results.jsonl", result)
        store = ArtifactStore(tmp_path / "results.sqlite")
        assert migrate_jsonl(tmp_path / "results.jsonl", store) == 1
        assert migrate_jsonl(tmp_path / "results.jsonl", store) == 0
        assert len(store) == 1

    def test_missing_jsonl_migrates_nothing(self, tmp_path, store):
        assert migrate_jsonl(tmp_path / "absent.jsonl", store) == 0

    def test_tampered_hash_refused(self, tmp_path, result, store):
        path = append_jsonl(tmp_path / "results.jsonl", result)
        line = json.loads(path.read_text())
        line["hash"] = "f" * 64
        path.write_text(json.dumps(line) + "\n")
        with pytest.raises(ServiceError, match="refusing to migrate"):
            migrate_jsonl(path, store)


class TestOpenStore:
    def test_jsonl_suffix_opens_the_sqlite_sibling(self, tmp_path):
        store = open_store(tmp_path / "r.jsonl")
        assert isinstance(store, ArtifactStore)
        assert store.path == tmp_path / "r.sqlite"
        assert not (tmp_path / "r.jsonl").exists()  # Nothing writes JSONL any more.

    def test_default_suffix_selects_sqlite(self, tmp_path):
        assert isinstance(open_store(tmp_path / "r.sqlite"), ArtifactStore)

    def test_auto_migrates_legacy_sibling_once(self, tmp_path, result):
        append_jsonl(tmp_path / "results.jsonl", result)
        store = open_store(tmp_path / "results.sqlite")
        assert store.get(_spec()) is not None
        receipt = store.get_meta("migrated:results.jsonl")
        assert json.loads(receipt)["migrated"] == 1
        # Second open does not rescan (receipt unchanged even if the jsonl grew).
        append_jsonl(tmp_path / "results.jsonl", run_experiment(_spec(seed=5)))
        reopened = open_store(tmp_path / "results.sqlite")
        assert json.loads(reopened.get_meta("migrated:results.jsonl"))["migrated"] == 1

    def test_auto_migration_warns_once_about_stale_lines(self, tmp_path, result):
        # The migration is the only reader of JSONL stores, so it is the only place a
        # user can learn why those points now miss the cache.
        path = append_jsonl(tmp_path / "results.jsonl", result)
        with path.open("a", encoding="utf-8") as handle:
            for stale_hash in ("deadbeef", "feedface"):
                handle.write(
                    f'{{"hash": "{stale_hash}", "spec": {{"schema": 1}}, "summaries": []}}\n'
                )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            store = open_store(tmp_path / "results.sqlite")
        (warning,) = [w for w in caught if issubclass(w.category, StaleResultWarning)]
        assert "skipped 2 stale line(s) with spec schema 1" in str(warning.message)
        assert "reads schema 3" in str(warning.message)
        assert len(store) == 1
        receipt = json.loads(store.get_meta("migrated:results.jsonl"))
        assert (receipt["migrated"], receipt["skipped"]) == (1, 2)


class TestLegacyFixture:
    """A JSONL file from the retired writer serves the same hits after migration."""

    @pytest.fixture
    def legacy(self, tmp_path):
        path = tmp_path / "results.jsonl"
        shutil.copyfile(LEGACY_FIXTURE, path)
        return path

    def test_fixture_lines(self):
        first, last, stale = (
            json.loads(line) for line in LEGACY_FIXTURE.read_text().splitlines()
        )
        assert first["hash"] == last["hash"] == _spec().spec_hash()
        assert first["elapsed_s"] != last["elapsed_s"]
        assert stale["spec"]["schema"] == 1 and stale["hash"] != first["hash"]

    def test_test_writer_matches_the_fixture_format(self, tmp_path):
        # The tests' JSONL writer must produce the retired writer's lines byte for byte.
        first = LEGACY_FIXTURE.read_text().splitlines()[0]
        rewritten = append_jsonl(
            tmp_path / "r.jsonl", ExperimentResult.from_dict(json.loads(first))
        )
        assert rewritten.read_text() == first + "\n"

    def test_migrate_jsonl_keeps_the_last_current_line(self, legacy, store, result):
        _first, last, stale = (json.loads(line) for line in legacy.read_text().splitlines())
        with pytest.warns(StaleResultWarning, match="schema 1"):
            assert migrate_jsonl(legacy, store) == 1
        hit = store.get(_spec())
        assert hit.elapsed_s == last["elapsed_s"]  # the last line wins
        assert hit.summaries == result.summaries  # equal to a fresh run
        assert store.get(stale["hash"]) is None

    def test_open_store_on_the_jsonl_path_serves_the_hit(self, legacy, result):
        with pytest.warns(StaleResultWarning, match="schema 1"):
            store = open_store(legacy)
        hit = store.get(_spec())
        assert hit is not None and hit.cached
        assert hit.summaries == result.summaries
        assert len(store) == 1
        receipt = json.loads(store.get_meta("migrated:results.jsonl"))
        assert (receipt["migrated"], receipt["skipped"]) == (1, 1)
