"""Tests for the golden-trajectory store: record/check/diff and schema guards."""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.exceptions import ValidationError
from repro.experiments.spec import ExperimentSpec
from repro.sim.scenarios import ScenarioSpec
from repro.validation.golden import (
    GOLDEN_MAX_ROUNDS,
    GOLDEN_POLICY,
    GOLDEN_PRESETS,
    GOLDENS,
    GoldenStore,
    diff_trajectories,
    golden_spec,
    run_trajectory,
    trajectory_rows,
)

#: The committed golden fixtures (re-run bit for bit by TestCommittedGoldens).
COMMITTED = GoldenStore(Path(__file__).parents[2] / "goldens")

#: A fast spec for store-level tests (the committed fixtures are re-run by
#: TestCommittedGoldens and the CI golden-check).
SMALL = ExperimentSpec(
    scenario=ScenarioSpec(num_devices=30, max_rounds=4, seed=9, setting="S4"),
    policy="fedavg-random",
    stop_at_convergence=False,
)


@pytest.fixture
def store(tmp_path):
    return GoldenStore(tmp_path / "goldens")


class TestRecordAndCheck:
    def test_record_then_check_is_bit_exact(self, store):
        golden = store.record("small", SMALL)
        assert golden.num_rounds == 4
        assert store.path_for("small").is_file()
        report = store.check("small")
        assert report.ok
        assert report.rounds_compared == 4
        assert report.first_divergence is None
        assert "OK" in report.format()

    def test_names_lists_recorded_goldens(self, store):
        assert store.names() == []
        store.record("small", SMALL)
        assert store.names() == ["small"]

    def test_check_detects_drift_naming_round_and_field(self, store):
        store.record("small", SMALL)
        path = store.path_for("small")
        lines = path.read_text().splitlines()
        row = json.loads(lines[2])  # Round 1.
        row["global_energy_j"] += 1e-9
        lines[2] = json.dumps(row, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        report = store.check("small")
        assert not report.ok
        assert report.first_divergence.round_index == 1
        assert report.first_divergence.field == "global_energy_j"
        assert "DRIFT" in report.format()
        payload = report.to_dict()
        assert payload["ok"] is False
        assert payload["divergences"][0]["field"] == "global_energy_j"

    def test_diff_without_rerun(self, store):
        golden = store.record("small", SMALL)
        fresh = run_trajectory(SMALL)
        assert store.diff(golden, fresh).ok
        shifted = run_trajectory(
            dataclasses.replace(
                SMALL, scenario=dataclasses.replace(SMALL.scenario, seed=10)
            )
        )
        drift = store.diff(golden, shifted)
        assert not drift.ok

    def test_trajectory_length_drift_detected(self):
        rows = [{"round": 0, "accuracy": 0.5}]
        divergences = diff_trajectories(rows, [])
        assert divergences[0].field == "num_rounds"


class TestSchemaAndCorruptionGuards:
    def test_missing_golden_names_the_store_and_recorded_names(self, store):
        with pytest.raises(ValidationError, match="no golden recorded for 'ghost'"):
            store.load("ghost")

    def test_stale_golden_schema_reports_both_versions(self, store):
        store.record("small", SMALL)
        path = store.path_for("small")
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["golden_schema"] = 0
        lines[0] = json.dumps(header, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError, match=r"golden schema 0.*reads golden schema 1"):
            store.load("small")

    def test_stale_spec_schema_reports_both_versions(self, store):
        store.record("small", SMALL)
        path = store.path_for("small")
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["spec_schema"] = 2
        lines[0] = json.dumps(header, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError, match=r"spec schema 2.*spec schema 3"):
            store.load("small")

    def test_edited_spec_payload_breaks_the_hash_seal(self, store):
        store.record("small", SMALL)
        path = store.path_for("small")
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["spec"]["scenario"]["seed"] = 12345
        lines[0] = json.dumps(header, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError, match="does not match its own spec payload"):
            store.load("small")

    def test_header_without_spec_payload_detected(self, store):
        store.record("small", SMALL)
        path = store.path_for("small")
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        del header["spec"]
        lines[0] = json.dumps(header, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError, match="no spec payload"):
            store.load("small")

    def test_truncated_file_detected(self, store):
        store.record("small", SMALL)
        path = store.path_for("small")
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ValidationError, match="promises 4 rounds"):
            store.load("small")

    def test_corrupt_json_detected(self, store):
        path = store.path_for("small")
        path.parent.mkdir(parents=True)
        path.write_text("not json\n")
        with pytest.raises(ValidationError, match="corrupt"):
            store.load("small")

    def test_multi_seed_specs_rejected(self):
        with pytest.raises(ValidationError, match="single-seed"):
            run_trajectory(dataclasses.replace(SMALL, n_seeds=3))


class TestGoldenSpecs:
    def test_shipped_preset_specs_resolve_and_cap_rounds(self):
        for preset in GOLDEN_PRESETS:
            spec = golden_spec(preset)
            assert spec.policy == GOLDEN_POLICY
            assert spec.scenario.max_rounds == GOLDEN_MAX_ROUNDS
            assert spec.n_seeds == 1
            assert not spec.stop_at_convergence

    def test_rows_carry_the_pinned_fields(self):
        result = run_trajectory(SMALL)
        rows = trajectory_rows(result)
        assert len(rows) == 4
        for expected_field in (
            "round",
            "selection_sha",
            "round_time_s",
            "participant_energy_j",
            "global_energy_j",
            "accuracy",
            "num_selected",
            "num_dropped",
            "num_failed",
            "num_online",
        ):
            assert expected_field in rows[0]

    def test_shipped_golden_fixtures_are_recorded(self):
        # The committed fixtures the CI golden-check runs against must exist and load.
        for preset in GOLDEN_PRESETS:
            golden = COMMITTED.load(preset)
            assert golden.num_rounds == GOLDEN_MAX_ROUNDS
            assert golden.spec == golden_spec(preset)

    def test_table_names_every_committed_fixture(self):
        # One table drives record and check: no fixture is left out of either.
        assert COMMITTED.names() == sorted(GOLDENS)
        for name, case in GOLDENS.items():
            golden = COMMITTED.load(name)
            assert golden.spec == golden_spec(name)
            assert golden.num_rounds == case.max_rounds
            assert golden.spec.policy == case.policy

    def test_path_goldens_cover_the_unpinned_axes(self):
        specs = [golden_spec(name) for name in GOLDENS]
        assert {spec.policy for spec in specs} == {
            "autofl", "autofl-fast", "fedavg-random", "ofl"
        }
        assert {spec.scenario.data_distribution for spec in specs} >= {
            "iid", "non_iid_50", "non_iid_100"
        }
        assert golden_spec("paper-200").scenario.num_devices == 200

    def test_max_rounds_overrides_the_table(self):
        assert golden_spec("fleet-1k-ofl", max_rounds=3).scenario.max_rounds == 3
        # A preset outside the table gets a preset golden's shape.
        spec = golden_spec("fleet-10k")
        assert spec.policy == GOLDEN_POLICY
        assert spec.scenario.max_rounds == GOLDEN_MAX_ROUNDS


class TestCommittedGoldens:
    """Every committed golden re-runs bit for bit on every supported Python."""

    @pytest.mark.parametrize("name", list(GOLDENS))
    def test_committed_golden_is_bit_exact(self, name):
        report = COMMITTED.check(name)
        assert report.ok, report.format()
