"""``serve`` forks job children warm: no child imports a module while it runs its spec.

numpy 2 imports some submodules lazily, on first use.  A child forked from a process
that never used them imports them afresh for every job, so ``serve`` imports them
once before its first fork.  The probe runs in a fresh interpreter, so modules that
other tests imported cannot hide a missing preload.
"""

import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.service.scheduler import _CHILD_IMPORTS

SRC = Path(__file__).resolve().parents[2] / "src"

# The probe forks functions defined in its ``-c`` script, which a spawned child could
# not look up; and the preload itself buys nothing unless children are forked.
pytestmark = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the preload relies on the fork start method",
)

_PROBE_SCRIPT = """
import json
import multiprocessing
import sys
from dataclasses import replace
from pathlib import Path

import repro.cli  # noqa: F401 - what `python -m repro serve` has loaded when it forks
from repro.experiments.runner import run_experiment
from repro.experiments.spec import ExperimentSpec
from repro.registry import POLICIES
from repro.service import scheduler
from repro.service.events import EventLog
from repro.service.jobs import make_job
from repro.service.queue import JobQueue
from repro.service.store import ArtifactStore
from repro.sim.scenarios import get_scenario_preset

root = Path(sys.argv[1])
report = root / "gained.jsonl"
presets = ("fleet-1k", "flaky-fleet", "diurnal-1k", "paper-200")


def spec(preset, policy):
    scenario = replace(get_scenario_preset(preset), max_rounds=2)
    return ExperimentSpec(scenario=scenario, policy=policy, stop_at_convergence=False)


def cold_child(conn):
    before = set(sys.modules)
    run_experiment(spec("fleet-1k", "fedavg-random"))
    conn.send(sorted(set(sys.modules) - before))
    conn.close()


# Forked before anything preloads: what a child imports when the parent has not.
parent = sorted(sys.modules)
receiver, sender = multiprocessing.Pipe(duplex=False)
child = multiprocessing.Process(target=cold_child, args=(sender,))
child.start()
sender.close()
cold = receiver.recv()
child.join()

entry = scheduler._child_entry


def probing_entry(payload, conn):
    before = set(sys.modules)
    entry(payload, conn)
    gained = sorted(set(sys.modules) - before)
    label = f"{payload['spec']['policy']} validate={payload['validate']}"
    with open(report, "a", encoding="utf-8") as handle:
        handle.write(json.dumps({"job": label, "gained": gained}) + "\\n")


scheduler._child_entry = probing_entry
queue = JobQueue(root / "queue")
jobs = 0
for index, policy in enumerate(POLICIES.names()):
    for validate in (False, True):
        preset = presets[(2 * index + validate) % len(presets)]
        queue.submit(make_job(spec(preset, policy), validate=validate))
        jobs += 1
store = ArtifactStore(root / "results.sqlite")
scheduler.Scheduler(queue, store, EventLog(root / "events.jsonl"), poll_s=0.05).serve(
    workers=1, drain=True
)
store.close()
warm = [json.loads(line) for line in report.read_text(encoding="utf-8").splitlines()]
print(json.dumps({
    "parent": parent,
    "cold": cold,
    "jobs": jobs,
    "warm": warm,
}))
"""


@pytest.fixture(scope="module")
def probe(tmp_path_factory):
    root = tmp_path_factory.mktemp("child-imports")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("REPRO_TELEMETRY", None)
    completed = subprocess.run(
        [sys.executable, "-c", _PROBE_SCRIPT, str(root)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_every_child_forked_by_serve_imports_nothing(probe):
    assert len(probe["warm"]) == probe["jobs"]  # one child per policy, validate off/on
    imported = {row["job"]: row["gained"] for row in probe["warm"] if row["gained"]}
    assert not imported, imported


def test_each_preloaded_module_is_one_a_cold_child_imports(probe):
    # The preload stays minimal: each entry is one that a child forked from a parent
    # holding only repro.cli imports, unless that parent had it already (numpy 1
    # imports both eagerly, so there the preload is a no-op).
    unneeded = set(_CHILD_IMPORTS) - set(probe["cold"]) - set(probe["parent"])
    assert not unneeded, (unneeded, probe["cold"])
