"""Golden-trajectory store: record, check and diff seeded per-round metric snapshots.

A *golden trajectory* pins the exact per-round metrics a seeded experiment spec
produces — round time, participant/global energy, accuracy and a digest of the selected
ids — as one compact JSONL file keyed by the spec's deterministic hash plus the golden
and spec schema versions.  Future refactors re-run the spec and compare bit-for-bit:
any behavioural drift surfaces as a :class:`DriftReport` naming the first diverging
round and field, instead of silently bending the physics.

File layout (one file per golden name under the store directory)::

    {"kind": "golden-trajectory", "golden_schema": 1, "spec_schema": 3,
     "spec_hash": "…", "name": "fleet-1k", "num_rounds": 5, "spec": {…}}
    {"round": 0, "accuracy": …, "round_time_s": …, …}
    {"round": 1, …}

Floats are serialised with :func:`json.dumps` (shortest round-trip repr), so equality of
lines is equality of the underlying doubles — "bit-exact" means exactly that.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, replace
from pathlib import Path

from repro.defaults import DEFAULT_GOLDEN_DIR, GOLDEN_MAX_ROUNDS
from repro.exceptions import ValidationError
from repro.experiments.runner import build_simulation
from repro.experiments.spec import SPEC_SCHEMA_VERSION, ExperimentSpec
from repro.sim.results import RoundRecord, SimulationResult
from repro.sim.runner import RoundObserver
from repro.sim.scenarios import get_scenario_preset

#: Bumped whenever the trajectory-row payload's shape changes, so stale goldens are
#: reported (with both versions) instead of mis-compared.
GOLDEN_SCHEMA_VERSION = 1

#: The shipped presets pinned by committed golden fixtures.
GOLDEN_PRESETS: tuple[str, ...] = ("fleet-1k", "diurnal-1k", "flaky-fleet", "churn-heavy")

#: Policy run in the shipped goldens (the learning policy exercises the feedback path).
GOLDEN_POLICY = "autofl"

#: Rounds recorded per path golden (the paper fleet, data-distribution and policy
#: goldens below): long enough for the learning policies' feedback to steer selection.
PATH_GOLDEN_ROUNDS = 30


@dataclass(frozen=True)
class GoldenCase:
    """What one committed golden pins: a scenario preset under a policy for a number
    of rounds, optionally moved to another data distribution (Section 5.2's axis)."""

    preset: str
    policy: str = GOLDEN_POLICY
    max_rounds: int = GOLDEN_MAX_ROUNDS
    data_distribution: str | None = None


#: Every committed golden by name (its file stem under ``goldens/``): the four presets,
#: then one golden per shipped path the presets leave unpinned — the paper's 200-device
#: fleet, two Non-IID(M%) points, and the other shipped policies on a static and a
#: faulty fleet.  ``repro validate record`` and ``check`` cover all of them by default.
GOLDENS: dict[str, GoldenCase] = {
    **{preset: GoldenCase(preset) for preset in GOLDEN_PRESETS},
    "paper-200": GoldenCase("paper-200", max_rounds=PATH_GOLDEN_ROUNDS),
    **{
        f"fleet-1k-{distribution.replace('_', '-')}": GoldenCase(
            "fleet-1k", max_rounds=PATH_GOLDEN_ROUNDS, data_distribution=distribution
        )
        for distribution in ("non_iid_50", "non_iid_100")
    },
    **{
        f"{preset}-{policy}": GoldenCase(preset, policy=policy, max_rounds=PATH_GOLDEN_ROUNDS)
        for preset in ("fleet-1k", "flaky-fleet")
        for policy in ("autofl-fast", "fedavg-random", "ofl")
    },
}


def golden_spec(name: str, max_rounds: int | None = None) -> ExperimentSpec:
    """The canonical single-seed experiment spec recorded for one golden.

    ``name`` is a key of :data:`GOLDENS`; any other scenario preset gets a preset
    golden's shape (:data:`GOLDEN_POLICY` for :data:`GOLDEN_MAX_ROUNDS` rounds).
    ``max_rounds`` overrides the golden's own round count.
    """
    case = GOLDENS.get(name) or GoldenCase(name)
    overrides = {"max_rounds": case.max_rounds if max_rounds is None else max_rounds}
    if case.data_distribution is not None:
        overrides["data_distribution"] = case.data_distribution
    return ExperimentSpec(
        scenario=replace(get_scenario_preset(case.preset), **overrides),
        policy=case.policy,
        n_seeds=1,
        stop_at_convergence=False,
    ).validate()


def selection_digest(selected_ids: tuple[int, ...]) -> str:
    """Compact digest pinning the exact selection of one round."""
    payload = ",".join(str(device_id) for device_id in selected_ids)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def trajectory_row(record: RoundRecord) -> dict:
    """The compact per-round snapshot stored in a golden file."""
    return {
        "round": record.round_index,
        "num_selected": len(record.selected_ids),
        "num_dropped": len(record.dropped_ids),
        "num_failed": len(record.failed_ids),
        "num_online": record.num_online,
        "selection_sha": selection_digest(record.selected_ids),
        "round_time_s": record.round_time_s,
        "participant_energy_j": record.participant_energy_j,
        "global_energy_j": record.global_energy_j,
        "accuracy": record.accuracy,
        "accuracy_improvement": record.accuracy_improvement,
    }


def trajectory_rows(result: SimulationResult) -> list[dict]:
    """Every round of a finished simulation as golden rows."""
    return [trajectory_row(record) for record in result.records]


@dataclass(frozen=True)
class GoldenTrajectory:
    """One loaded (or freshly recorded) golden: its identity plus the per-round rows."""

    name: str
    spec: ExperimentSpec
    spec_hash: str
    golden_schema: int
    rows: tuple[dict, ...]

    @property
    def num_rounds(self) -> int:
        """Rounds covered by the golden."""
        return len(self.rows)


@dataclass(frozen=True)
class Divergence:
    """One field of one round whose fresh value differs from the golden."""

    round_index: int | None
    field: str
    expected: object
    actual: object

    def __str__(self) -> str:
        where = "trajectory" if self.round_index is None else f"round {self.round_index}"
        return f"{where}: {self.field} expected {self.expected!r}, got {self.actual!r}"


@dataclass
class DriftReport:
    """Outcome of checking one golden against a fresh run of its spec."""

    name: str
    spec_hash: str
    rounds_compared: int
    divergences: list[Divergence]

    @property
    def ok(self) -> bool:
        """True when the fresh trajectory matched the golden bit for bit."""
        return not self.divergences

    @property
    def first_divergence(self) -> Divergence | None:
        """The earliest diverging round/field (None when the check passed)."""
        return self.divergences[0] if self.divergences else None

    def to_dict(self) -> dict:
        """JSON payload (the CI drift-report artifact format)."""
        return {
            "name": self.name,
            "spec_hash": self.spec_hash,
            "rounds_compared": self.rounds_compared,
            "ok": self.ok,
            "divergences": [
                {
                    "round": divergence.round_index,
                    "field": divergence.field,
                    "expected": divergence.expected,
                    "actual": divergence.actual,
                }
                for divergence in self.divergences
            ],
        }

    def format(self) -> str:
        """Human-readable verdict, leading with the first diverging round and field."""
        if self.ok:
            return f"golden {self.name!r}: OK ({self.rounds_compared} rounds bit-exact)"
        first = self.first_divergence
        lines = [
            f"golden {self.name!r}: DRIFT at {first}",
            f"  {len(self.divergences)} diverging field(s) over "
            f"{self.rounds_compared} compared round(s):",
        ]
        lines.extend(f"  - {divergence}" for divergence in self.divergences[:10])
        if len(self.divergences) > 10:
            lines.append(f"  … and {len(self.divergences) - 10} more")
        return "\n".join(lines)


def diff_trajectories(expected: list[dict], actual: list[dict]) -> list[Divergence]:
    """Field-by-field comparison of two golden row lists, in round order."""
    divergences: list[Divergence] = []
    if len(expected) != len(actual):
        divergences.append(
            Divergence(
                round_index=None,
                field="num_rounds",
                expected=len(expected),
                actual=len(actual),
            )
        )
    for expected_row, actual_row in zip(expected, actual):
        round_index = expected_row.get("round")
        for field_name in expected_row:
            if expected_row[field_name] != actual_row.get(field_name):
                divergences.append(
                    Divergence(
                        round_index=round_index,
                        field=field_name,
                        expected=expected_row[field_name],
                        actual=actual_row.get(field_name),
                    )
                )
    return divergences


def run_trajectory(
    spec: ExperimentSpec, round_observer: RoundObserver | None = None
) -> SimulationResult:
    """Run one single-seed spec and return its full trajectory."""
    if spec.n_seeds != 1:
        raise ValidationError(
            f"golden trajectories are single-seed; spec replicates n_seeds={spec.n_seeds}"
        )
    return build_simulation(spec, round_observer=round_observer).run()


class GoldenStore:
    """Record/check/diff interface over a directory of golden-trajectory JSONL files."""

    def __init__(self, directory: str | os.PathLike = DEFAULT_GOLDEN_DIR) -> None:
        self.directory = Path(directory)

    def path_for(self, name: str) -> Path:
        """On-disk location of one golden."""
        return self.directory / f"{name}.jsonl"

    def names(self) -> list[str]:
        """Recorded golden names (sorted)."""
        if not self.directory.is_dir():
            return []
        return sorted(path.stem for path in self.directory.glob("*.jsonl"))

    # ------------------------------------------------------------------ record
    def record(self, name: str, spec: ExperimentSpec) -> GoldenTrajectory:
        """Run ``spec`` and persist its trajectory as the golden for ``name``."""
        result = run_trajectory(spec)
        rows = trajectory_rows(result)
        golden = GoldenTrajectory(
            name=name,
            spec=spec,
            spec_hash=spec.spec_hash(),
            golden_schema=GOLDEN_SCHEMA_VERSION,
            rows=tuple(rows),
        )
        header = {
            "kind": "golden-trajectory",
            "golden_schema": GOLDEN_SCHEMA_VERSION,
            "spec_schema": SPEC_SCHEMA_VERSION,
            "spec_hash": golden.spec_hash,
            "name": name,
            "num_rounds": len(rows),
            "spec": spec.to_dict(),
        }
        self.directory.mkdir(parents=True, exist_ok=True)
        with self.path_for(name).open("w", encoding="utf-8") as handle:
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            for row in rows:
                handle.write(json.dumps(row, sort_keys=True) + "\n")
        return golden

    # ------------------------------------------------------------------ load
    def load(self, name: str) -> GoldenTrajectory:
        """Load one golden, failing loudly (with both versions) on schema mismatches."""
        path = self.path_for(name)
        if not path.is_file():
            known = self.names()
            raise ValidationError(
                f"no golden recorded for {name!r} under {self.directory} "
                f"(recorded: {known or 'none'}); run `python -m repro validate record`"
            )
        with path.open("r", encoding="utf-8") as handle:
            lines = [line for line in (raw.strip() for raw in handle) if line]
        if not lines:
            raise ValidationError(f"golden file {path} is empty")
        try:
            header = json.loads(lines[0])
            rows = tuple(json.loads(line) for line in lines[1:])
        except ValueError as exc:
            raise ValidationError(f"golden file {path} is corrupt: {exc}") from exc
        if header.get("kind") != "golden-trajectory":
            raise ValidationError(f"golden file {path} has no golden-trajectory header")
        golden_schema = header.get("golden_schema")
        spec_schema = header.get("spec_schema")
        if golden_schema != GOLDEN_SCHEMA_VERSION or spec_schema != SPEC_SCHEMA_VERSION:
            raise ValidationError(
                f"golden {name!r} was recorded with golden schema {golden_schema!r} / "
                f"spec schema {spec_schema!r}, but this version reads golden schema "
                f"{GOLDEN_SCHEMA_VERSION} / spec schema {SPEC_SCHEMA_VERSION}; "
                "re-record it after confirming the behaviour change is intentional"
            )
        spec_payload = header.get("spec")
        if not isinstance(spec_payload, dict):
            raise ValidationError(
                f"golden {name!r}: header carries no spec payload; the file was edited "
                "or truncated — re-record it"
            )
        try:
            spec = ExperimentSpec.from_dict(spec_payload)
        except (KeyError, TypeError) as exc:
            raise ValidationError(
                f"golden {name!r}: spec payload is malformed ({exc}); the file was "
                "edited or truncated — re-record it"
            ) from exc
        recomputed = spec.spec_hash()
        if header.get("spec_hash") != recomputed:
            raise ValidationError(
                f"golden {name!r}: stored spec hash {header.get('spec_hash')!r} does not "
                f"match its own spec payload ({recomputed!r}); the file was edited or "
                "truncated — re-record it"
            )
        if header.get("num_rounds") != len(rows):
            raise ValidationError(
                f"golden {name!r}: header promises {header.get('num_rounds')} rounds "
                f"but the file holds {len(rows)}"
            )
        return GoldenTrajectory(
            name=name,
            spec=spec,
            spec_hash=recomputed,
            golden_schema=golden_schema,
            rows=rows,
        )

    # ------------------------------------------------------------------ check / diff
    def check(self, name: str) -> DriftReport:
        """Re-run a golden's stored spec and diff the fresh trajectory against it."""
        golden = self.load(name)
        fresh = run_trajectory(golden.spec)
        return self.diff(golden, fresh)

    def diff(self, golden: GoldenTrajectory, result: SimulationResult) -> DriftReport:
        """Diff a finished trajectory against a golden without re-running anything."""
        expected = list(golden.rows)
        actual = trajectory_rows(result)
        return DriftReport(
            name=golden.name,
            spec_hash=golden.spec_hash,
            rounds_compared=min(len(expected), len(actual)),
            divergences=diff_trajectories(expected, actual),
        )
