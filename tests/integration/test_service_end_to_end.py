"""End-to-end orchestration: submit → serve → status, cache hits and store migration.

This mirrors the CI smoke job (and the issue's acceptance criteria) in-process:
a scenario-preset job and a sweep drain through a two-worker scheduler, ``status``
reports everything ``done``, resubmitting the same spec is a pure store cache hit,
and a legacy JSONL store migrated to SQLite keeps serving its hashes.
"""

import json

import pytest

from legacy_jsonl import append_jsonl
from repro.cli import main
from repro.experiments.runner import run_experiment
from repro.experiments.spec import ExperimentSpec
from repro.service.store import ArtifactStore
from repro.sim.scenarios import ScenarioSpec, get_scenario_preset


def _run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out


@pytest.fixture
def svc(tmp_path):
    return ["--root", str(tmp_path / "service"), "--store", str(tmp_path / "results.sqlite")]


@pytest.fixture
def scenario_flags():
    # The flaky-fleet preset scaled down for test speed; flags override preset fields.
    return ["--scenario", "flaky-fleet", "--devices", "25", "--rounds", "4",
            "--policy", "fedavg-random"]


def _status(capsys, svc):
    code, out = _run(["status", "--json", "--root", svc[1]], capsys)
    assert code == 0
    return json.loads(out)


class TestSubmitServeStatus:
    def test_full_cycle_with_cache_hit_on_resubmit(
        self, capsys, svc, scenario_flags, tmp_path
    ):
        root = ["--root", str(tmp_path / "service")]
        store_flag = ["--store", str(tmp_path / "results.sqlite")]

        # Submit a preset job and a sweep job.
        code, out = _run(["submit", *scenario_flags, "--priority", "5", *root], capsys)
        assert code == 0
        preset_job = out.split()[1].rstrip(":")
        code, out = _run(
            ["submit", "--axis", "policy=fedavg-random,performance",
             "--devices", "25", "--rounds", "4", *root],
            capsys,
        )
        assert code == 0
        sweep_job = out.split()[1].rstrip(":")

        # Drain with two workers.
        code, _out = _run(["serve", "--workers", "2", "--drain", "--quiet",
                           *root, *store_flag], capsys)
        assert code == 0

        payload = _status(capsys, root)
        states = {job["job_id"]: job for job in payload["jobs"]}
        assert states[preset_job]["state"] == "done"
        assert states[sweep_job]["state"] == "done"
        assert states[preset_job]["executed"] == 1
        assert states[sweep_job]["executed"] == 2
        assert payload["counts"]["done"] == 2

        # The shared store now holds all three executed grid points.
        store = ArtifactStore(tmp_path / "results.sqlite")
        assert len(store) == 3

        # Resubmitting the same preset spec is a pure cache hit: no re-execution.
        code, out = _run(["submit", *scenario_flags, *root], capsys)
        assert code == 0
        resubmitted = out.split()[1].rstrip(":")
        code, _out = _run(["serve", "--drain", "--quiet", *root, *store_flag], capsys)
        assert code == 0
        job = _status(capsys, root)["jobs"]
        job = next(j for j in job if j["job_id"] == resubmitted)
        assert job["state"] == "done"
        assert (job["cache_hits"], job["executed"]) == (1, 0)
        assert len(ArtifactStore(tmp_path / "results.sqlite")) == 3  # nothing new


class TestMigratedStoreServesTheScheduler:
    def test_jsonl_history_survives_into_the_service_era(self, capsys, tmp_path):
        # Yesterday: a foreground sweep cached its points in the flat JSONL store.
        spec = ExperimentSpec(
            scenario=ScenarioSpec(num_devices=25, max_rounds=4, seed=3),
            policy="fedavg-random",
        )
        legacy = run_experiment(spec)
        append_jsonl(tmp_path / "results.jsonl", legacy)

        # Today: the same spec submitted to the service, whose SQLite store migrates
        # the legacy sibling on first open — the job must be a cache hit.
        root = ["--root", str(tmp_path / "service")]
        code, out = _run(
            ["submit", "--devices", "25", "--rounds", "4", "--seed", "3",
             "--policy", "fedavg-random", *root],
            capsys,
        )
        assert code == 0
        job_id = out.split()[1].rstrip(":")
        code, _out = _run(
            ["serve", "--drain", "--quiet", *root,
             "--store", str(tmp_path / "results.sqlite")],
            capsys,
        )
        assert code == 0
        payload = _status(capsys, root)
        (job,) = [j for j in payload["jobs"] if j["job_id"] == job_id]
        assert job["state"] == "done"
        assert (job["cache_hits"], job["executed"]) == (1, 0)
        # And the migrated row is byte-faithful: same spec hash, same summaries.
        migrated = ArtifactStore(tmp_path / "results.sqlite").get(spec)
        assert migrated is not None
        assert migrated.summaries == legacy.summaries


class TestPresetColumn:
    def test_preset_recorded_in_the_store_index(self, capsys, tmp_path, scenario_flags):
        root = ["--root", str(tmp_path / "service")]
        store_path = tmp_path / "results.sqlite"
        _run(["submit", *scenario_flags, *root], capsys)
        _run(["serve", "--drain", "--quiet", *root, "--store", str(store_path)], capsys)
        store = ArtifactStore(store_path)
        with store._connection() as conn:
            (preset,) = conn.execute("SELECT preset FROM results").fetchone()
        assert preset == "flaky-fleet"

    def test_preset_matches_registered_scenario(self):
        # Guard: the preset names used across the service tests stay registered.
        assert get_scenario_preset("flaky-fleet").dropout_rate > 0
