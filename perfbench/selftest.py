"""Self-test of the benchmark: a short run of every workload, from the repository root::

    python3 perfbench/selftest.py

For each workload in BENCHMARK.json it checks three things:

* every end-to-end metric (untraced run) and every per-layer metric (traced run) prints
  with the unit BENCHMARK.json gives it, and the untraced run has no failed operation;
* in the traced run, the spans of the calls into each layer cover at least 95% of each
  operation, so the per-layer budget adds up to the whole;
* a run with a forced output mismatch (``--corrupt-output``) still finishes and prints
  its result, with the broken operation counted as failed.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Measured seconds of each self-test run.
SECONDS = 3

#: Share of each traced operation the child spans must cover.
MIN_COVERAGE_PCT = 95.0


def run(workload: str, trace: int, *extra: str) -> tuple[int, dict | None]:
    completed = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", str(SECONDS), "--trace", str(trace), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=False,
    )
    lines = completed.stdout.strip().splitlines()
    try:
        return completed.returncode, json.loads(lines[-1]) if lines else None
    except ValueError:
        return completed.returncode, None


def check_metrics(result: dict | None, expected: list[dict]) -> list[str]:
    if result is None:
        return ["no result line"]
    problems = []
    printed = result.get("metrics", {})
    for metric in expected:
        entry = printed.get(metric["name"])
        if entry is None:
            problems.append(f"{metric['name']} missing")
        elif entry.get("unit") != metric["unit"]:
            problems.append(f"{metric['name']} unit {entry.get('unit')!r} != {metric['unit']!r}")
    extra = set(printed) - {metric["name"] for metric in expected}
    if extra:
        problems.append(f"unexpected metrics {sorted(extra)}")
    return problems


def main() -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures: list[str] = []
    for workload in (entry["name"] for entry in benchmark["workloads"]):
        code, result = run(workload, 0)
        problems = check_metrics(result, benchmark["end_to_end"])
        if code != 0 or (result is not None and result["failed"]):
            problems.append(f"untraced run exited {code} with result {result}")
        code, traced = run(workload, 1)
        problems += check_metrics(traced, benchmark["per_layer"])
        if traced is not None:
            coverage = traced["metrics"].get("trace.coverage_pct", {}).get("value", 0.0)
            if coverage < MIN_COVERAGE_PCT:
                problems.append(f"child spans cover {coverage:.2f}% < {MIN_COVERAGE_PCT}%")
        code, broken = run(workload, 0, "--corrupt-output")
        if code != 0 or broken is None:
            problems.append(f"corrupted run crashed (exit {code})")
        elif broken["failed"] < 1 or broken["correct"]:
            problems.append(f"corrupted output not counted as failed: {broken}")
        verdict = "ok" if not problems else "FAILED: " + "; ".join(problems)
        print(f"{workload}: {verdict}", flush=True)
        failures += problems
    print("self-test passed" if not failures else f"self-test failed ({len(failures)})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
