"""Tests for the ``python -m repro`` command-line interface."""

import argparse
import json
import os
import shutil
import socket
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from legacy_jsonl import LEGACY_FIXTURE, append_jsonl
from repro.cli import build_parser, main
from repro.experiments.runner import StaleResultWarning, run_experiment
from repro.experiments.spec import ExperimentSpec
from repro.sim.scenarios import ScenarioSpec

SRC = Path(__file__).resolve().parents[1] / "src"


def _run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestList:
    def test_list_policies(self, capsys):
        code, out, _err = _run(["list", "policies"], capsys)
        assert code == 0
        for name in ("fedavg-random", "power", "performance", "autofl", "ofl", "cluster-c7"):
            assert name in out

    def test_list_all_registries(self, capsys):
        code, out, _err = _run(["list"], capsys)
        assert code == 0
        assert "policies" in out and "workloads" in out and "settings" in out

    def test_unknown_registry_fails_with_suggestion(self, capsys):
        code, _out, err = _run(["list", "polices"], capsys)
        assert code == 2
        assert "did you mean 'policies'" in err

    def test_list_scenarios_registry(self, capsys):
        code, out, _err = _run(["list", "scenarios"], capsys)
        assert code == 0
        assert "fleet-1k" in out and "fleet-10k" in out
        for preset in ("diurnal-1k", "flaky-fleet", "churn-heavy"):
            assert preset in out

    def test_list_availability_registry(self, capsys):
        code, out, _err = _run(["list", "availability"], capsys)
        assert code == 0
        for process in ("always-on", "bernoulli", "markov", "diurnal", "trace"):
            assert process in out


class TestParserReuse:
    """``main`` builds its parser once per process; later calls only parse."""

    def test_a_later_call_builds_no_parser(self, capsys, monkeypatch):
        assert main(["list", "policies"]) == 0
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        assert main(["list", "policies"]) == 0
        assert built == []
        assert build_parser() is build_parser()

    def test_parses_share_no_state(self):
        parser = build_parser()
        axis = ["policy=fedavg-random,autofl"]
        assert parser.parse_args(["submit", "--axis", *axis]).axis == axis
        assert parser.parse_args(["submit"]).axis is None

    def test_a_sweep_submit_leaves_no_axis_for_the_next_submit(self, capsys, tmp_path):
        svc = ["--root", str(tmp_path / "service")]
        flags = ["--devices", "25", "--rounds", "4", *svc]
        assert main(["submit", "--axis", "policy=fedavg-random,autofl", *flags]) == 0
        assert main(["submit", *flags]) == 0
        job_id = capsys.readouterr().out.splitlines()[-1].split()[1].rstrip(":")
        assert main(["status", job_id, *svc]) == 0
        assert len(json.loads(capsys.readouterr().out)["specs"]) == 1

    def test_a_usage_error_and_help_leave_the_parser_usable(self, capsys):
        fresh = subprocess.run(
            [sys.executable, "-m", "repro", "list", "policies"],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True, text=True, check=True, timeout=120,
        )
        with pytest.raises(SystemExit) as caught:
            main(["submit", "--priority", "high"])
        assert caught.value.code == 2
        with pytest.raises(SystemExit) as caught:
            main(["submit", "--help"])
        assert caught.value.code == 0
        assert "usage: repro submit" in capsys.readouterr().out
        assert main(["list", "policies"]) == 0
        assert capsys.readouterr().out == fresh.stdout

    def test_help_width_is_read_when_help_is_printed(self, capsys, monkeypatch):
        widths = []
        for columns in ("60", "160"):
            monkeypatch.setenv("COLUMNS", columns)
            with pytest.raises(SystemExit):
                main(["submit", "--help"])
            widths.append(max(map(len, capsys.readouterr().out.splitlines())))
        assert widths[0] <= 60 < widths[1]


class TestRun:
    def test_run_prints_metrics(self, capsys):
        code, out, _err = _run(
            ["run", "--policy", "fedavg-random", "--devices", "30", "--rounds", "6",
             "--no-cache"],
            capsys,
        )
        assert code == 0
        assert "fedavg-random" in out and "accuracy" in out

    def test_unknown_policy_fails_early(self, capsys):
        code, _out, err = _run(
            ["run", "--policy", "autofk", "--devices", "30", "--rounds", "5", "--no-cache"],
            capsys,
        )
        assert code == 2
        assert "did you mean 'autofl'" in err

    def test_run_scenario_preset_with_overrides(self, capsys):
        # flaky-fleet end to end, scaled down for speed; explicit flags beat the preset.
        code, out, _err = _run(
            ["run", "--scenario", "flaky-fleet", "--devices", "30", "--rounds", "5",
             "--policy", "fedavg-random", "--no-cache"],
            capsys,
        )
        assert code == 0
        assert "fedavg-random" in out

    def test_run_dynamics_flags(self, capsys):
        code, out, _err = _run(
            ["run", "--policy", "fedavg-random", "--devices", "30", "--rounds", "5",
             "--availability", "bernoulli", "--dropout-rate", "0.2", "--no-cache"],
            capsys,
        )
        assert code == 0
        assert "fedavg-random" in out

    def test_unknown_scenario_preset_fails_with_suggestion(self, capsys):
        code, _out, err = _run(
            ["run", "--scenario", "flaky-flet", "--no-cache"], capsys
        )
        assert code == 2
        assert "did you mean 'flaky-fleet'" in err

    def test_unknown_availability_fails_early(self, capsys):
        code, _out, err = _run(
            ["run", "--availability", "diurnall", "--devices", "30", "--no-cache"],
            capsys,
        )
        assert code == 2
        assert "did you mean 'diurnal'" in err


class TestCompare:
    def test_compare_normalises_to_baseline(self, capsys):
        code, out, _err = _run(
            ["compare", "--policies", "fedavg-random,performance", "--devices", "30",
             "--rounds", "6"],
            capsys,
        )
        assert code == 0
        assert "PPW (global)" in out and "performance" in out

    def test_baseline_must_be_in_lineup(self, capsys):
        code, _out, err = _run(
            ["compare", "--policies", "performance", "--devices", "30", "--rounds", "5"],
            capsys,
        )
        assert code == 2
        assert "baseline" in err


class TestSweep:
    @pytest.fixture
    def store(self, tmp_path):
        return str(tmp_path / "results.jsonl")

    def test_grid_runs_then_rerun_serves_from_cache(self, store, capsys):
        args = [
            "sweep",
            "--axis", "policy=fedavg-random,performance",
            "--axis", "setting=S3,S4",
            "--devices", "30",
            "--rounds", "6",
            "--store", store,
            "--executor", "process",
        ]
        code, out, _err = _run(args, capsys)
        assert code == 0
        assert "4 grid point(s): 0 from cache, 4 executed" in out

        code, out, _err = _run(args, capsys)
        assert code == 0
        assert "4 grid point(s): 4 from cache, 0 executed" in out
        assert "run" not in [line.split()[-1] for line in out.splitlines() if line][1:-1]

    def test_bad_axis_fails_early(self, store, capsys):
        code, _out, err = _run(
            ["sweep", "--axis", "polcy=autofl", "--store", store], capsys
        )
        assert code == 2
        assert "unknown sweep axis" in err

    def test_duplicate_axis_rejected(self, store, capsys):
        code, _out, err = _run(
            ["sweep", "--axis", "policy=autofl", "--axis", "policy=fedavg-random",
             "--store", store],
            capsys,
        )
        assert code == 2
        assert "given twice" in err

    def test_compare_rejects_replication_flags(self, capsys):
        with pytest.raises(SystemExit):
            main(["compare", "--policies", "fedavg-random", "--seeds", "5"])
        _captured = capsys.readouterr()


class TestValidate:
    """The validate verbs: record/check round-trips, fuzz, and their exit codes."""

    #: A preset small enough that record + check stay fast in the test suite.
    PRESET = "churn-heavy"

    def test_record_then_check_roundtrip(self, tmp_path, capsys):
        golden_dir = str(tmp_path / "goldens")
        code, out, _err = _run(
            ["validate", "record", "--presets", self.PRESET, "--dir", golden_dir,
             "--rounds", "3"],
            capsys,
        )
        assert code == 0
        assert f"recorded golden '{self.PRESET}'" in out
        code, out, _err = _run(
            ["validate", "check", "--presets", self.PRESET, "--dir", golden_dir],
            capsys,
        )
        assert code == 0
        assert "OK (3 rounds bit-exact)" in out

    def test_check_drift_exits_one_and_writes_report(self, tmp_path, capsys):
        import json

        golden_dir = tmp_path / "goldens"
        _run(
            ["validate", "record", "--presets", self.PRESET, "--dir", str(golden_dir),
             "--rounds", "3"],
            capsys,
        )
        path = golden_dir / f"{self.PRESET}.jsonl"
        lines = path.read_text().splitlines()
        row = json.loads(lines[1])
        row["accuracy"] += 1e-9
        lines[1] = json.dumps(row, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")

        report_path = tmp_path / "drift.json"
        code, out, _err = _run(
            ["validate", "check", "--presets", self.PRESET, "--dir", str(golden_dir),
             "--report", str(report_path)],
            capsys,
        )
        assert code == 1
        assert "DRIFT at round 0: accuracy" in out
        payload = json.loads(report_path.read_text())
        assert payload["goldens"][0]["ok"] is False
        assert payload["goldens"][0]["divergences"][0]["field"] == "accuracy"

    def test_check_without_recorded_golden_fails(self, tmp_path, capsys):
        code, _out, err = _run(
            ["validate", "check", "--presets", self.PRESET,
             "--dir", str(tmp_path / "empty")],
            capsys,
        )
        assert code == 2
        assert "no golden recorded" in err

    def test_fuzz_reports_scenarios_and_writes_artifact(self, tmp_path, capsys):
        import json

        report_path = tmp_path / "fuzz.json"
        code, out, _err = _run(
            ["validate", "fuzz", "--count", "5", "--seed", "3",
             "--report", str(report_path)],
            capsys,
        )
        assert code == 0
        assert "5 scenario(s)" in out and "OK" in out
        payload = json.loads(report_path.read_text())
        assert payload["ok"] is True and payload["scenarios_run"] == 5


class TestErrorPaths:
    """Unknown names exit non-zero with the did-you-mean suggestion rendered."""

    def test_validate_unknown_preset_suggests(self, tmp_path, capsys):
        code, _out, err = _run(
            ["validate", "record", "--presets", "churn-hevy",
             "--dir", str(tmp_path / "g")],
            capsys,
        )
        assert code == 2
        assert "did you mean 'churn-heavy'" in err

    def test_compare_unknown_policy_suggests(self, capsys):
        code, _out, err = _run(
            ["compare", "--policies", "fedavg-random,autofk", "--devices", "30",
             "--rounds", "5"],
            capsys,
        )
        assert code == 2
        assert "did you mean 'autofl'" in err

    def test_sweep_unknown_scenario_preset_suggests(self, tmp_path, capsys):
        code, _out, err = _run(
            ["sweep", "--scenario", "flet-1k", "--store", str(tmp_path / "s.jsonl")],
            capsys,
        )
        assert code == 2
        assert "did you mean 'fleet-1k'" in err

    def test_run_unknown_workload_suggests(self, capsys):
        code, _out, err = _run(
            ["run", "--workload", "cnn-mnis", "--devices", "30", "--no-cache"], capsys
        )
        assert code == 2
        assert "did you mean 'cnn-mnist'" in err

    def test_run_unknown_aggregator_suggests(self, capsys):
        code, _out, err = _run(
            ["run", "--aggregator", "fedprx", "--devices", "30", "--no-cache"], capsys
        )
        assert code == 2
        assert "did you mean 'fedprox'" in err


class TestService:
    """The orchestration front-end: submit → serve --drain → status/watch/cancel."""

    @pytest.fixture
    def svc(self, tmp_path):
        return ["--root", str(tmp_path / "service")]

    @pytest.fixture
    def store(self, tmp_path):
        return ["--store", str(tmp_path / "results.sqlite")]

    def _submit(self, capsys, svc, extra):
        code, out, _err = _run(["submit", *extra, *svc], capsys)
        assert code == 0
        assert out.startswith("submitted job-")
        return out.split()[1].rstrip(":")

    def test_submit_serve_status_roundtrip(self, capsys, svc, store):
        job_id = self._submit(
            capsys, svc,
            ["--scenario", "flaky-fleet", "--devices", "25", "--rounds", "4",
             "--policy", "fedavg-random", "--priority", "3"],
        )
        code, out, _err = _run(["status", *svc], capsys)
        assert code == 0 and job_id in out and "queued" in out

        code, out, _err = _run(["serve", "--workers", "2", "--drain", *svc, *store], capsys)
        assert code == 0
        assert "job_done" in out and "scheduler_stopped" in out

        code, out, _err = _run(["status", "--json", *svc], capsys)
        payload = json.loads(out)
        assert payload["counts"]["done"] == 1
        (job,) = payload["jobs"]
        assert job["job_id"] == job_id
        assert job["state"] == "done"
        assert (job["cache_hits"], job["executed"]) == (0, 1)
        assert job["provenance"]["preset"] == "flaky-fleet"

    def test_resubmit_is_a_pure_cache_hit(self, capsys, svc, store):
        flags = ["--devices", "25", "--rounds", "4", "--policy", "fedavg-random"]
        self._submit(capsys, svc, flags)
        _run(["serve", "--drain", "--quiet", *svc, *store], capsys)
        job_id = self._submit(capsys, svc, flags)
        _run(["serve", "--drain", "--quiet", *svc, *store], capsys)
        code, out, _err = _run(["status", job_id, *svc, *store], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["state"] == "done"
        assert (payload["cache_hits"], payload["executed"]) == (1, 0)

    def test_a_cached_job_drains_with_four_renames(self, capsys, svc, store, monkeypatch):
        # The lease, the claim rename, the claim write and complete: seqs are rewritten
        # in place, and a single-spec job writes no progress before complete does.
        flags = ["--devices", "25", "--rounds", "4", "--policy", "fedavg-random"]
        serve = ["serve", "--drain", "--workers", "1", "--quiet", "--no-webhooks"]
        self._submit(capsys, svc, flags)
        _run([*serve, *svc, *store], capsys)
        job_id = self._submit(capsys, svc, flags)
        renamed = []

        def counted(real):
            def call(source, target, *args, **kwargs):
                renamed.append(os.path.basename(target))
                return real(source, target, *args, **kwargs)

            return call

        monkeypatch.setattr(os, "replace", counted(os.replace))
        monkeypatch.setattr(os, "rename", counted(os.rename))
        code, _out, _err = _run([*serve, *svc, *store], capsys)
        monkeypatch.undo()
        assert code == 0
        assert renamed == [
            f"{job_id}.lease", f"{job_id}.json", f"{job_id}.json", f"{job_id}.json"
        ]
        code, out, _err = _run(["status", job_id, *svc], capsys)
        assert json.loads(out)["state"] == "done"

    def test_submit_sweep_axis_expands_grid(self, capsys, svc):
        job_id = self._submit(
            capsys, svc,
            ["--axis", "policy=fedavg-random,performance", "--devices", "25",
             "--rounds", "4"],
        )
        code, out, _err = _run(["status", job_id, *svc], capsys)
        assert code == 0
        assert len(json.loads(out)["specs"]) == 2

    def test_submit_validates_eagerly_with_suggestions(self, capsys, svc):
        code, _out, err = _run(
            ["submit", "--policy", "autofk", "--devices", "25", *svc], capsys
        )
        assert code == 2
        assert "did you mean 'autofl'" in err

    def test_cancel_queued_job(self, capsys, svc):
        job_id = self._submit(capsys, svc, ["--devices", "25", "--rounds", "4"])
        code, out, _err = _run(["cancel", job_id, *svc], capsys)
        assert code == 0 and "cancelled" in out
        code, out, _err = _run(["status", job_id, *svc], capsys)
        assert json.loads(out)["state"] == "cancelled"

    def test_cancel_unknown_job_fails(self, capsys, svc):
        code, _out, err = _run(["cancel", "job-missing", *svc], capsys)
        assert code == 2 and "unknown job" in err

    def test_watch_replays_the_event_log(self, capsys, svc, store):
        self._submit(capsys, svc, ["--devices", "25", "--rounds", "4"])
        _run(["serve", "--drain", "--quiet", *svc, *store], capsys)
        code, out, _err = _run(["watch", *svc], capsys)
        assert code == 0
        assert "job_submitted" in out and "job_done" in out

    def test_watch_without_events(self, capsys, svc):
        code, out, _err = _run(["watch", *svc], capsys)
        assert code == 0 and "no events yet" in out

    def test_failed_job_status_exits_one(self, capsys, svc, store, tmp_path):
        # A spec whose tier counts contradict the fleet size fails inside the worker.
        job_id = self._submit(
            capsys, svc, ["--devices", "25", "--rounds", "4", "--timeout", "30"]
        )
        queue_dir = tmp_path / "service" / "queue" / "queued"
        (path,) = queue_dir.glob("*.json")
        payload = json.loads(path.read_text())
        payload["specs"][0]["scenario"]["tier_counts"] = {"low": 1, "mid": 1, "high": 1}
        path.write_text(json.dumps(payload))
        _run(["serve", "--drain", "--quiet", *svc, *store], capsys)
        code, out, _err = _run(["status", job_id, *svc, *store], capsys)
        assert code == 1
        payload = json.loads(out)
        assert payload["state"] == "failed"
        assert "tier_counts" in payload["error"]

    def test_submit_lane_and_weight_flow_through_status(self, capsys, svc):
        code, out, _err = _run(
            ["submit", "--devices", "25", "--rounds", "4", "--lane", "team-a",
             "--weight", "3", *svc],
            capsys,
        )
        assert code == 0
        assert "lane 'team-a' (weight 3)" in out
        code, out, _err = _run(["status", "--by-lane", *svc], capsys)
        assert code == 0
        assert "team-a" in out and "oldest_wait_s" in out
        code, out, _err = _run(["status", "--json", *svc], capsys)
        payload = json.loads(out)
        assert payload["lanes"]["team-a"]["depth"] == 1
        assert payload["lanes"]["team-a"]["weight"] == 3
        (job,) = payload["jobs"]
        assert (job["lane"], job["weight"]) == ("team-a", 3)

    def test_serve_against_a_sharded_store(self, capsys, svc, tmp_path):
        self._submit(capsys, svc, ["--devices", "25", "--rounds", "4"])
        shard_root = tmp_path / "shards"
        code, _out, _err = _run(
            ["serve", "--drain", "--quiet", "--store", str(shard_root),
             "--store-shards", "2", *svc],
            capsys,
        )
        assert code == 0
        assert (shard_root / "shards.json").exists()
        assert (shard_root / "shard-00.sqlite").exists()
        code, out, _err = _run(["status", "--by-lane", "--format", "csv", *svc], capsys)
        assert code == 0
        assert ",0,0,1,0," in out  # the submitter's lane: one job done

    def test_serve_rejects_conflicting_shard_count(self, capsys, svc, tmp_path):
        shard_root = tmp_path / "shards"
        _run(["serve", "--drain", "--quiet", "--store", str(shard_root),
              "--store-shards", "2", *svc], capsys)
        code, _out, err = _run(
            ["serve", "--drain", "--quiet", "--store", str(shard_root),
             "--store-shards", "4", *svc],
            capsys,
        )
        assert code == 2
        assert "pinned to 2" in err

    def test_events_port_is_a_second_spelling_of_port(self):
        assert build_parser().parse_args(["serve", "--events-port", "9"]).port == 9
        assert build_parser().parse_args(["serve", "--port", "9"]).port == 9

    def test_metrics_port_is_gone(self, capsys):
        # It used to turn telemetry on; an old command line must fail, not change meaning.
        with pytest.raises(SystemExit) as caught:
            build_parser().parse_args(["serve", "--metrics-port", "9"])
        assert caught.value.code == 2
        assert "--metrics-port" in capsys.readouterr().err

    def test_taken_port_fails_before_any_thread_starts(self, capsys, svc, store):
        threads = set(threading.enumerate())
        with socket.socket() as held:
            held.bind(("127.0.0.1", 0))
            held.listen()
            port = held.getsockname()[1]
            code, _out, err = _run(
                ["serve", "--drain", "--quiet", "--events-port", str(port), *svc, *store],
                capsys,
            )
        assert code == 2
        assert f"error: cannot listen on 127.0.0.1:{port}" in err
        assert set(threading.enumerate()) <= threads  # nothing left running


class TestSqliteStoreCLI:
    def test_run_uses_the_sqlite_store_by_default_backend(self, tmp_path, capsys):
        store = tmp_path / "results.sqlite"
        args = ["run", "--policy", "fedavg-random", "--devices", "25", "--rounds", "4",
                "--store", str(store)]
        code, out, _err = _run(args, capsys)
        assert code == 0 and "1 executed" in out
        code, out, _err = _run(args, capsys)
        assert code == 0 and "1 from cache" in out

    def test_legacy_jsonl_sibling_is_migrated_in(self, tmp_path, capsys):
        spec = ExperimentSpec(
            scenario=ScenarioSpec(num_devices=25, max_rounds=4), policy="fedavg-random"
        )
        append_jsonl(tmp_path / "results.jsonl", run_experiment(spec))
        args = ["run", "--policy", "fedavg-random", "--devices", "25", "--rounds", "4"]
        code, out, _err = _run([*args, "--store", str(tmp_path / "results.sqlite")], capsys)
        assert code == 0
        assert "1 from cache, 0 executed" in out  # served by the migrated entry

    def test_jsonl_store_path_serves_the_migrated_entry(self, tmp_path, capsys):
        # An old command line naming the JSONL file keeps hitting its cached points.
        shutil.copyfile(LEGACY_FIXTURE, tmp_path / "results.jsonl")
        args = ["run", "--policy", "fedavg-random", "--devices", "25", "--rounds", "4",
                "--store", str(tmp_path / "results.jsonl")]
        with pytest.warns(StaleResultWarning):
            code, out, _err = _run(args, capsys)
        assert code == 0
        assert "1 from cache, 0 executed" in out
        assert (tmp_path / "results.sqlite").exists()

    @pytest.mark.parametrize(
        "command",
        [["run", "--policy", "fedavg-random", "--devices", "25", "--rounds", "2"],
         ["serve", "--drain", "--quiet"]],
        ids=["run", "serve"],
    )
    def test_a_plain_directory_store_fails_and_creates_nothing(
        self, tmp_path, monkeypatch, capsys, command
    ):
        monkeypatch.chdir(tmp_path)
        Path("somedir").mkdir()
        code, _out, err = _run([*command, "--store", "somedir"], capsys)
        assert code == 2
        assert "--store-shards" in err
        assert not any(Path("somedir").iterdir())


class TestOutputFormats:
    def test_compare_csv_and_json(self, capsys):
        args = ["compare", "--policies", "fedavg-random,performance", "--devices", "30",
                "--rounds", "5"]
        code, out, _err = _run([*args, "--format", "csv"], capsys)
        assert code == 0
        assert out.splitlines()[0].startswith("policy,")

        code, out, _err = _run([*args, "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert {row["policy"] for row in payload} == {"fedavg-random", "performance"}

    def test_status_format_csv_and_json(self, tmp_path, capsys):
        svc = ["--root", str(tmp_path / "service")]
        _run(["submit", "--devices", "25", "--rounds", "4", *svc], capsys)
        code, out, _err = _run(["status", "--format", "csv", *svc], capsys)
        assert code == 0
        assert out.splitlines()[0].startswith("job,state,")

        code, out, _err = _run(["status", "--format", "json", *svc], capsys)
        assert code == 0
        (job,) = json.loads(out)
        assert job["state"] == "queued"


class TestWatchInterrupt:
    def test_follow_interrupt_exits_cleanly(self, tmp_path, capsys, monkeypatch):
        # Ctrl-C in `watch -f` must exit 0 without a traceback, not 130.  The handler
        # imports tail_events from the event log module when it runs.
        from repro.service import events

        def _interrupted(path, follow=False):
            assert follow
            raise KeyboardInterrupt
            yield  # pragma: no cover - makes this a generator

        monkeypatch.setattr(events, "tail_events", _interrupted)
        code, _out, _err = _run(
            ["watch", "-f", "--root", str(tmp_path / "service")], capsys
        )
        assert code == 0


class TestAnalyticsCLI:
    """The warehouse front-end: ingest -> query/report -> eval."""

    @pytest.fixture
    def wh(self, tmp_path):
        return ["--warehouse", str(tmp_path / "wh")]

    @pytest.fixture
    def ingested(self, tmp_path, capsys, wh):
        """A warehouse holding one small store ingested under the 'baseline' label."""
        store = tmp_path / "results.sqlite"
        _run(["run", "--policy", "fedavg-random", "--devices", "25", "--rounds", "4",
              "--store", str(store)], capsys)
        code, out, _err = _run(
            ["ingest", "--store", str(store), "--label", "baseline", *wh], capsys
        )
        assert code == 0
        assert "ingested 1 run row(s)" in out
        return store

    def test_ingest_requires_a_source(self, capsys, wh):
        code, _out, err = _run(["ingest", *wh], capsys)
        assert code == 2
        assert "nothing to ingest" in err

    def test_ingest_of_a_missing_store_fails_and_creates_nothing(self, tmp_path, capsys, wh):
        typo = tmp_path / "typo.sqlite"
        code, _out, err = _run(["ingest", "--store", str(typo), "--label", "x", *wh], capsys)
        assert code == 2
        assert f"no result store at {typo}" in err
        assert not typo.exists()

    def test_query_json_output(self, capsys, wh, ingested):
        code, out, _err = _run(
            ["query", "--table", "runs", "--group-by", "policy",
             "--metrics", "final_accuracy", "--agg", "mean,count",
             "--format", "json", *wh],
            capsys,
        )
        assert code == 0
        (group,) = json.loads(out)
        assert group["policy"] == "fedavg-random"
        assert group["final_accuracy:count"] == 1.0

    def test_query_where_filters(self, capsys, wh, ingested):
        code, out, _err = _run(
            ["query", "--where", "policy=oracle", *wh], capsys
        )
        assert code == 0
        assert "0 group(s)" in out

    def test_query_unknown_column_fails(self, capsys, wh, ingested):
        code, _out, err = _run(["query", "--where", "polarity=up", *wh], capsys)
        assert code == 2
        assert "unknown filter column" in err

    def test_report_renders_ingested_runs(self, capsys, wh, ingested):
        code, out, _err = _run(["report", "--format", "csv", *wh], capsys)
        assert code == 0
        assert out.splitlines()[0].startswith("scenario,policy,")
        assert "fedavg-random" in out

    def test_eval_identical_labels_pass(self, capsys, wh, ingested):
        code, out, _err = _run(
            ["ingest", "--store", str(ingested), "--label", "candidate", *wh], capsys
        )
        assert code == 0
        code, out, _err = _run(
            ["eval", "--baseline", "baseline", "--candidate", "candidate", *wh], capsys
        )
        assert code == 0
        assert "eval OK" in out

    def test_eval_regression_exits_one_and_writes_report(self, tmp_path, capsys, wh):
        # Two synthetic ingests with a known 2x energy regression in the candidate.
        from repro.analytics import Warehouse

        warehouse = Warehouse(tmp_path / "wh", backend="numpy")
        base = {
            "label": "baseline", "source": "store", "spec_hash": "h0", "seed": 0.0,
            "preset": "fleet-1k", "policy": "autofl", "workload": "cnn-mnist",
            "setting": "S3", "num_devices": 1000.0, "final_accuracy": 0.8,
            "rounds_executed": 20.0, "total_time_s": 100.0,
            "participant_energy_j": 1000.0, "global_energy_j": 1000.0,
        }
        warehouse.append_rows("runs", [base])
        warehouse.append_rows(
            "runs", [{**base, "label": "candidate", "global_energy_j": 2000.0}]
        )
        report_path = tmp_path / "eval-report.json"
        code, out, _err = _run(
            ["eval", "--baseline", "baseline", "--candidate", "candidate",
             "--report", str(report_path), *wh],
            capsys,
        )
        assert code == 1
        assert "eval FAILED" in out and "FAIL" in out
        payload = json.loads(report_path.read_text())
        assert payload["ok"] is False
        assert any(
            c["metric"] == "global_energy_j" and not c["passed"]
            for c in payload["comparisons"]
        )

    def test_eval_custom_threshold_flips_the_verdict(self, tmp_path, capsys, wh):
        from repro.analytics import Warehouse

        warehouse = Warehouse(tmp_path / "wh", backend="numpy")
        base = {
            "label": "baseline", "source": "store", "spec_hash": "h0", "seed": 0.0,
            "preset": "fleet-1k", "policy": "autofl", "total_time_s": 100.0,
        }
        warehouse.append_rows("runs", [base])
        warehouse.append_rows("runs", [{**base, "label": "candidate",
                                        "total_time_s": 104.0}])
        # 4% growth: fails the default 5%-style custom 1% gate, passes a 10% gate.
        code, _out, _err = _run(
            ["eval", "--baseline", "baseline", "--candidate", "candidate",
             "--threshold", "total_time_s=1", *wh],
            capsys,
        )
        assert code == 1
        code, _out, _err = _run(
            ["eval", "--baseline", "baseline", "--candidate", "candidate",
             "--threshold", "total_time_s=10", *wh],
            capsys,
        )
        assert code == 0

    def test_eval_unknown_baseline_label_fails(self, capsys, wh, ingested):
        code, _out, err = _run(["eval", "--baseline", "nope", *wh], capsys)
        assert code == 2
        assert "ingested labels" in err

    def test_eval_requires_a_baseline_label(self, capsys, wh):
        with pytest.raises(SystemExit) as exited:
            main(["eval", *wh])
        assert exited.value.code == 2
        assert "--baseline" in capsys.readouterr().err

    def test_ingest_goldens_and_query_rounds(self, capsys, wh):
        from pathlib import Path

        goldens = Path(__file__).parents[1] / "goldens"
        code, out, _err = _run(
            ["ingest", "--goldens", str(goldens), "--label", "golden", *wh], capsys
        )
        assert code == 0
        code, out, _err = _run(
            ["query", "--table", "rounds", "--group-by", "preset",
             "--metrics", "accuracy", "--agg", "count", "--format", "json", *wh],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        # Golden rows are labelled by golden name: one group per committed fixture.
        from repro.validation import GOLDENS

        assert {group["preset"] for group in payload} == set(GOLDENS)

    def test_ingest_bench_then_query_bench_shortcut(self, tmp_path, capsys, wh):
        bench = tmp_path / "BENCH_roundengine.json"
        bench.write_text(json.dumps({
            "benchmark": "roundengine",
            "timestamp": "2026-01-01T00:00:00Z",
            "provenance": {"git_sha": "abc1234"},
            "results": [{"num_devices": 100, "scalar_rounds_per_s": 5.0,
                         "batch_rounds_per_s": 50.0, "speedup": 10.0}],
        }))
        code, _out, _err = _run(["ingest", "--bench", str(bench), *wh], capsys)
        assert code == 0
        code, out, _err = _run(["query", "--bench", "--format", "json", *wh], capsys)
        assert code == 0
        (row,) = json.loads(out)
        assert row["git_sha"] == "abc1234"
        assert row["batch_rounds_per_s:mean"] == 50.0
        # Older records' scalar-engine columns stay queryable by name.
        code, out, _err = _run(
            ["query", "--bench", "--metrics", "speedup", "--format", "json", *wh], capsys
        )
        assert code == 0
        (row,) = json.loads(out)
        assert row["speedup:mean"] == 10.0


class TestTelemetryCLI:
    """The observability front-end: serve --telemetry, metrics, trace, ingest."""

    @pytest.fixture(autouse=True)
    def _reset_telemetry(self):
        from repro import telemetry

        telemetry.reset()
        yield
        telemetry.reset()

    @pytest.fixture
    def svc(self, tmp_path):
        return ["--root", str(tmp_path / "service")]

    @pytest.fixture
    def store(self, tmp_path):
        return ["--store", str(tmp_path / "results.sqlite")]

    def _drain_one_job(self, capsys, svc, store):
        code, _out, _err = _run(
            ["submit", "--devices", "25", "--rounds", "3",
             "--policy", "fedavg-random", *svc],
            capsys,
        )
        assert code == 0
        code, _out, _err = _run(
            ["serve", "--workers", "1", "--drain", "--quiet", "--telemetry",
             *svc, *store],
            capsys,
        )
        assert code == 0

    def test_metrics_without_any_source_fails(self, capsys, svc):
        code, _out, err = _run(["metrics", *svc], capsys)
        assert code == 1
        assert "no metrics yet" in err

    def test_serve_telemetry_then_metrics_roundtrip(self, capsys, svc, store, tmp_path):
        self._drain_one_job(capsys, svc, store)
        assert (tmp_path / "service" / "metrics.json").exists()
        code, out, _err = _run(["metrics", *svc], capsys)
        assert code == 0
        assert "repro_rounds_total" in out  # child engine metrics made it across
        assert "repro_queue_depth" in out  # live queue gauges overlay the snapshot
        code, out, _err = _run(["metrics", "--prometheus", *svc], capsys)
        assert code == 0
        assert "# TYPE repro_rounds_total counter" in out
        assert 'repro_jobs{state="done"} 1' in out

    def test_status_surfaces_queue_gauges(self, capsys, svc, store):
        self._drain_one_job(capsys, svc, store)
        code, out, _err = _run(["status", *svc], capsys)
        assert code == 0
        assert "gauges: " in out and "repro_queue_depth=0" in out
        code, out, _err = _run(["status", "--json", *svc], capsys)
        payload = json.loads(out)
        assert payload["gauges"]["repro_jobs{state=done}"] == 1.0

    def test_ingest_metrics_then_query(self, capsys, svc, store, tmp_path):
        self._drain_one_job(capsys, svc, store)
        wh = ["--warehouse", str(tmp_path / "wh"), "--backend", "numpy"]
        snapshot = tmp_path / "service" / "metrics.json"
        code, out, _err = _run(
            ["ingest", "--metrics", str(snapshot), "--label", "obs", *wh], capsys
        )
        assert code == 0
        assert "metric row(s)" in out
        code, out, _err = _run(
            ["query", "--table", "metrics", "--where", "name=repro_rounds_total",
             "--agg", "max", "--format", "json", *wh],
            capsys,
        )
        assert code == 0
        (row,) = json.loads(out)
        assert row["value:max"] == 3.0

    def test_trace_writes_chrome_trace_across_layers(self, capsys, tmp_path):
        output = tmp_path / "trace.json"
        code, out, _err = _run(
            ["trace", "--devices", "20", "--rounds", "2", "--output", str(output)],
            capsys,
        )
        assert code == 0
        assert "3 layer(s): engine, scheduler, warehouse" in out
        payload = json.loads(output.read_text())
        names = {event["name"] for event in payload["traceEvents"]}
        assert {"control_plane", "energy_math", "feedback", "execute", "ingest"} <= names

    def test_serve_trace_file_spans_spawn_and_build_inside_execute(
        self, capsys, svc, store, tmp_path
    ):
        from repro import telemetry

        sink = tmp_path / "spans.jsonl"
        code, _out, _err = _run(
            ["submit", "--devices", "25", "--rounds", "3", "--policy", "fedavg-random", *svc],
            capsys,
        )
        assert code == 0
        code, _out, _err = _run(
            ["serve", "--workers", "1", "--drain", "--quiet", "--trace-file", str(sink),
             *svc, *store],
            capsys,
        )
        assert code == 0
        spans = telemetry.load_spans(sink)
        (execute,) = [span for span in spans if span.name == "execute"]
        (spawn,) = [span for span in spans if span.name == "spawn"]
        (build,) = [span for span in spans if span.name == "build"]
        # The parent stamps the spawn before the fork; the child closes it on entry.
        assert spawn.pid == build.pid != execute.pid
        assert spawn.attrs["job"] == execute.attrs["job"]
        assert execute.start_s <= spawn.start_s <= spawn.end_s <= build.start_s
        assert build.end_s <= execute.end_s

    def test_serve_trace_file_span_ids_stay_unique_across_job_children(
        self, capsys, svc, store, tmp_path
    ):
        from repro import telemetry

        sink = tmp_path / "spans.jsonl"
        for seed in ("1", "2"):
            code, _out, _err = _run(
                ["submit", "--devices", "25", "--rounds", "2", "--seed", seed, *svc], capsys
            )
            assert code == 0
        code, _out, _err = _run(
            ["serve", "--workers", "1", "--drain", "--quiet", "--trace-file", str(sink),
             *svc, *store],
            capsys,
        )
        assert code == 0
        spans = telemetry.load_spans(sink)
        by_id = {span.span_id: span for span in spans}
        # Forked job children number their spans apart from the parent and each other.
        assert len(by_id) == len(spans)
        assert all(span.parent_id in by_id for span in spans if span.parent_id is not None)
        executes = {span.span_id for span in spans if span.name == "execute"}
        assert len(executes) == 2
        for name in ("spawn", "build", "simulation"):
            children = [span for span in spans if span.name == name]
            # Each job child's span names its own job's execute span in the parent.
            assert {span.parent_id for span in children} == executes
            assert all(by_id[span.parent_id].pid != span.pid for span in children)

    def test_trace_converts_an_existing_span_sink(self, capsys, tmp_path):
        from repro.telemetry import SpanTracer

        sink = tmp_path / "spans.jsonl"
        tracer = SpanTracer(enabled=True)
        tracer.set_sink(sink)
        tracer.record("claim", category="scheduler", start_s=0.0, end_s=0.5)
        output = tmp_path / "trace.json"
        code, out, _err = _run(
            ["trace", "--spans", str(sink), "--output", str(output)], capsys
        )
        assert code == 0
        assert "1 span(s)" in out
        assert json.loads(output.read_text())["traceEvents"][0]["name"] == "claim"

    def test_trace_empty_sink_fails(self, capsys, tmp_path):
        sink = tmp_path / "empty.jsonl"
        sink.write_text("")
        code, _out, err = _run(["trace", "--spans", str(sink)], capsys)
        assert code == 2
        assert "no spans" in err
