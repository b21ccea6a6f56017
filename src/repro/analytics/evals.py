"""Regression evals: score a policy across a scenario suite and diff two ingests.

The eval workflow keeps perf/behaviour PRs honest:

1. ingest a known-good result set under a *baseline* label
   (``repro ingest --store … --label baseline``);
2. after a change, ingest the fresh results under a *candidate* label;
3. ``repro eval --baseline baseline --candidate candidate`` compares the two label's
   ``runs`` rows scenario by scenario (and policy by policy), applies per-metric
   regression thresholds, and exits non-zero on any breach — the CI contract.

Metrics where lower is better (energy, time, rounds) fail when the candidate grows
past the threshold fraction; higher-is-better metrics (accuracy) fail when it shrinks
past it.  Scenarios present in the baseline but missing from the candidate fail the
eval too: silently dropping coverage is itself a regression.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from repro.analytics.query import filter_mask
from repro.analytics.warehouse import Warehouse
from repro.exceptions import AnalyticsError


@dataclass(frozen=True)
class Threshold:
    """Allowed relative movement of one ``runs`` metric before the eval fails."""

    metric: str
    #: Maximum relative regression, e.g. ``0.05`` = 5 % in the *bad* direction.
    max_regression: float
    higher_is_better: bool = False

    def passes(self, baseline: float, candidate: float) -> bool:
        """Whether the candidate value stays within the allowed movement."""
        delta = relative_delta(baseline, candidate)
        if self.higher_is_better:
            return delta >= -self.max_regression
        return delta <= self.max_regression


#: Default eval thresholds: energy/time/rounds may not grow > 5 % (rounds 10 %),
#: accuracy may not drop > 1 %.
DEFAULT_THRESHOLDS: tuple[Threshold, ...] = (
    Threshold("final_accuracy", 0.01, higher_is_better=True),
    Threshold("participant_energy_j", 0.05),
    Threshold("global_energy_j", 0.05),
    Threshold("total_time_s", 0.05),
    Threshold("rounds_executed", 0.10),
)


def relative_delta(baseline: float, candidate: float) -> float:
    """Signed relative change of ``candidate`` vs ``baseline`` (0-safe)."""
    return (candidate - baseline) / max(abs(baseline), 1e-12)


def parse_threshold(text: str) -> Threshold:
    """Parse a CLI threshold ``metric=pct`` (lower-better) or ``metric=+pct``.

    A leading ``+`` marks a higher-is-better metric (it may not *drop* by more than
    ``pct`` percent); otherwise the metric may not *grow* by more than ``pct``.
    """
    name, sep, raw = text.partition("=")
    name = name.strip().replace("-", "_")
    raw = raw.strip()
    if not sep or not name or not raw:
        raise AnalyticsError(
            f"invalid threshold {text!r}; expected metric=pct (e.g. global_energy_j=5)"
        )
    higher_is_better = raw.startswith("+")
    try:
        percent = float(raw.lstrip("+"))
    except ValueError:
        raise AnalyticsError(f"invalid threshold percentage in {text!r}") from None
    if percent < 0:
        raise AnalyticsError(f"threshold percentage must be >= 0, got {percent}")
    return Threshold(name, percent / 100.0, higher_is_better=higher_is_better)


def _scenario_names(columns: Mapping[str, np.ndarray], index: np.ndarray) -> np.ndarray:
    """Human-stable scenario key per row: the preset name, or a composed descriptor."""
    presets = columns["preset"][index].astype(str)
    workloads = columns["workload"][index].astype(str)
    settings = columns["setting"][index].astype(str)
    devices = columns["num_devices"][index]
    composed = np.array(
        [
            f"{workload}/{setting}/N{'?' if np.isnan(n) else int(n)}"
            for workload, setting, n in zip(workloads, settings, devices)
        ],
        dtype=str,
    )
    return np.where(presets != "", presets, composed)


def _score_label(
    warehouse: Warehouse, label: str, metrics: Sequence[str]
) -> dict[tuple[str, str], dict[str, float]]:
    """Mean ``runs`` metrics of one ingest label, keyed by (scenario, policy)."""
    columns = warehouse.table("runs")
    mask = filter_mask("runs", columns, {"label": [label]})
    index = np.flatnonzero(mask)
    if index.size == 0:
        known = warehouse.labels()
        raise AnalyticsError(
            f"no ingested runs carry the label {label!r} "
            f"(ingested labels: {known or 'none'}); run `python -m repro ingest`"
        )
    scenarios = _scenario_names(columns, index)
    policies = columns["policy"][index].astype(str)
    keys = np.char.add(np.char.add(scenarios, "\x1f"), policies)
    scores: dict[tuple[str, str], dict[str, float]] = {}
    for key in np.unique(keys):
        rows = index[keys == key]
        scenario, policy = key.split("\x1f")
        scores[(scenario, policy)] = {
            metric: float(np.nanmean(columns[metric][rows]))
            if np.any(~np.isnan(columns[metric][rows]))
            else float("nan")
            for metric in metrics
        }
    return scores


@dataclass(frozen=True)
class MetricComparison:
    """One (scenario, policy, metric) verdict of a regression eval."""

    scenario: str
    policy: str
    metric: str
    baseline: float
    candidate: float
    delta_rel: float
    limit_rel: float
    higher_is_better: bool
    passed: bool

    def as_row(self) -> tuple[object, ...]:
        """Row representation for the report table."""
        return (
            self.scenario,
            self.policy,
            self.metric,
            self.baseline,
            self.candidate,
            f"{self.delta_rel:+.2%}",
            f"{'-' if self.higher_is_better else '+'}{self.limit_rel:.0%}",
            "pass" if self.passed else "FAIL",
        )


#: Column headers of the eval report table.
EVAL_HEADERS: tuple[str, ...] = (
    "scenario",
    "policy",
    "metric",
    "baseline",
    "candidate",
    "delta",
    "limit",
    "verdict",
)


@dataclass
class EvalReport:
    """Outcome of one regression eval between two ingest labels."""

    baseline_label: str
    candidate_label: str
    suite: tuple[str, ...]
    comparisons: list[MetricComparison]
    missing: list[tuple[str, str]]  # (scenario, policy) in baseline but not candidate

    @property
    def ok(self) -> bool:
        """True when every compared metric stayed within threshold and none vanished."""
        return not self.missing and all(c.passed for c in self.comparisons)

    @property
    def failures(self) -> list[MetricComparison]:
        """The comparisons that breached their threshold."""
        return [c for c in self.comparisons if not c.passed]

    def to_dict(self) -> dict:
        """JSON payload (the CI eval-report artifact format)."""
        return {
            "kind": "regression-eval-report",
            "baseline": self.baseline_label,
            "candidate": self.candidate_label,
            "suite": list(self.suite),
            "ok": self.ok,
            "missing": [
                {"scenario": scenario, "policy": policy}
                for scenario, policy in self.missing
            ],
            "comparisons": [
                {
                    "scenario": c.scenario,
                    "policy": c.policy,
                    "metric": c.metric,
                    "baseline": c.baseline,
                    "candidate": c.candidate,
                    "delta_rel": c.delta_rel,
                    "limit_rel": c.limit_rel,
                    "higher_is_better": c.higher_is_better,
                    "passed": c.passed,
                }
                for c in self.comparisons
            ],
        }

    def format(self) -> str:
        """Human-readable verdict: the comparison table plus a one-line summary."""
        from repro.experiments.reporting import format_table

        lines = [format_table(EVAL_HEADERS, [c.as_row() for c in self.comparisons])]
        for scenario, policy in self.missing:
            lines.append(
                f"MISSING: scenario {scenario!r} policy {policy!r} is in baseline "
                f"{self.baseline_label!r} but absent from candidate "
                f"{self.candidate_label!r}"
            )
        failures = self.failures
        if self.ok:
            lines.append(
                f"\neval OK: {len(self.comparisons)} metric(s) within threshold "
                f"({self.candidate_label!r} vs baseline {self.baseline_label!r})"
            )
        else:
            lines.append(
                f"\neval FAILED: {len(failures)} metric(s) regressed past threshold, "
                f"{len(self.missing)} scenario(s) missing "
                f"({self.candidate_label!r} vs baseline {self.baseline_label!r})"
            )
        return "\n".join(lines)


def run_regression_eval(
    warehouse: Warehouse,
    baseline: str,
    candidate: str = "default",
    suite: Iterable[str] | None = None,
    thresholds: Sequence[Threshold] | None = None,
) -> EvalReport:
    """Score the candidate ingest against the baseline across the scenario suite.

    ``suite`` restricts the eval to named scenarios (preset names or composed
    ``workload/setting/N<devices>`` descriptors); by default every scenario present
    in the baseline is scored.  Scenarios in the suite that the baseline itself
    lacks raise — a typo'd suite must not silently pass.
    """
    thresholds = tuple(thresholds if thresholds is not None else DEFAULT_THRESHOLDS)
    if not thresholds:
        raise AnalyticsError("a regression eval needs at least one threshold")
    metrics = tuple(dict.fromkeys(t.metric for t in thresholds))
    baseline_scores = _score_label(warehouse, baseline, metrics)
    candidate_scores = _score_label(warehouse, candidate, metrics)
    suite_names = tuple(suite) if suite is not None else ()
    if suite_names:
        known = {scenario for scenario, _policy in baseline_scores}
        unknown = [name for name in suite_names if name not in known]
        if unknown:
            raise AnalyticsError(
                f"suite scenario(s) {unknown!r} have no baseline rows under label "
                f"{baseline!r} (baseline covers: {sorted(known)})"
            )
    comparisons: list[MetricComparison] = []
    missing: list[tuple[str, str]] = []
    for (scenario, policy), base_metrics in sorted(baseline_scores.items()):
        if suite_names and scenario not in suite_names:
            continue
        cand_metrics = candidate_scores.get((scenario, policy))
        if cand_metrics is None:
            missing.append((scenario, policy))
            continue
        for threshold in thresholds:
            base_value = base_metrics[threshold.metric]
            cand_value = cand_metrics[threshold.metric]
            if np.isnan(base_value) or np.isnan(cand_value):
                continue  # Metric unavailable on one side (e.g. store-only ingest).
            comparisons.append(
                MetricComparison(
                    scenario=scenario,
                    policy=policy,
                    metric=threshold.metric,
                    baseline=base_value,
                    candidate=cand_value,
                    delta_rel=relative_delta(base_value, cand_value),
                    limit_rel=threshold.max_regression,
                    higher_is_better=threshold.higher_is_better,
                    passed=threshold.passes(base_value, cand_value),
                )
            )
    return EvalReport(
        baseline_label=baseline,
        candidate_label=candidate,
        suite=suite_names,
        comparisons=comparisons,
        missing=missing,
    )


#: Column headers of the cross-run comparison report.
REPORT_HEADERS: tuple[str, ...] = (
    "scenario",
    "policy",
    "seeds",
    "final accuracy",
    "energy vs baseline",
    "time vs baseline",
    "rounds",
)


def build_comparison_report(
    warehouse: Warehouse,
    where: Mapping[str, Sequence[str]] | None = None,
    baseline_policy: str = "fedavg-random",
) -> tuple[tuple[str, ...], list[tuple[object, ...]]]:
    """Cross-run comparison rows: per-scenario policy metrics normalised to a baseline.

    This is the warehouse-backed, many-run generalisation of the in-memory
    ``repro compare`` table: it reads whatever was ingested (thousands of cached
    runs included) instead of re-simulating, and normalises each scenario's energy
    and time to the baseline policy's mean where that baseline was ingested too.
    """
    columns = warehouse.table("runs")
    mask = (
        filter_mask("runs", columns, dict(where))
        if where
        else np.ones(warehouse.num_rows("runs"), dtype=bool)
    )
    index = np.flatnonzero(mask)
    if index.size == 0:
        raise AnalyticsError(
            "no ingested runs match the report filter; ingest results first "
            "(python -m repro ingest) or relax --where"
        )
    scenarios = _scenario_names(columns, index)
    policies = columns["policy"][index].astype(str)
    rows: list[tuple[object, ...]] = []
    for scenario in np.unique(scenarios):
        scenario_rows = index[scenarios == scenario]
        scenario_policies = policies[scenarios == scenario]
        base_mask = scenario_policies == baseline_policy
        base_energy = (
            float(np.nanmean(columns["global_energy_j"][scenario_rows[base_mask]]))
            if np.any(base_mask)
            else float("nan")
        )
        base_time = (
            float(np.nanmean(columns["total_time_s"][scenario_rows[base_mask]]))
            if np.any(base_mask)
            else float("nan")
        )
        for policy in np.unique(scenario_policies):
            policy_rows = scenario_rows[scenario_policies == policy]
            energy = float(np.nanmean(columns["global_energy_j"][policy_rows]))
            total_time = float(np.nanmean(columns["total_time_s"][policy_rows]))
            rows.append(
                (
                    str(scenario),
                    str(policy),
                    int(policy_rows.size),
                    float(np.nanmean(columns["final_accuracy"][policy_rows])),
                    energy / base_energy if base_energy and not np.isnan(base_energy) else float("nan"),
                    total_time / base_time if base_time and not np.isnan(base_time) else float("nan"),
                    float(np.nanmean(columns["rounds_executed"][policy_rows])),
                )
            )
    return REPORT_HEADERS, rows
