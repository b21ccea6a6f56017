"""``import repro`` and ``import repro.cli`` load only the layers a simulator run uses.

The packages ``repro``, ``repro.experiments``, ``repro.service``, ``repro.validation``,
``repro.nn``, ``repro.nn.layers`` and ``repro.analytics`` resolve their public names on
first access, and the CLI's handlers import the modules they run.  Each check runs in a
fresh interpreter, so modules that other tests imported cannot hide an eager import.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

LAZY_PACKAGES = (
    "repro",
    "repro.experiments",
    "repro.service",
    "repro.validation",
    "repro.nn",
    "repro.nn.layers",
    "repro.analytics",
)

#: Layers no simulator run needs: the service's HTTP, webhook, store and scheduler
#: modules, the warehouse, the model zoo, the fuzzer and the stdlib modules behind them.
NOT_LOADED = (
    "repro.service.eventbus",
    "repro.service.webhooks",
    "repro.service.store",
    "repro.service.scheduler",
    "repro.analytics",
    "repro.api",
    "repro.experiments.harness",
    "repro.nn.models",
    "repro.validation.fuzzer",
    "http.server",
    "sqlite3",
    "ssl",
    "urllib.request",
)


def _fresh(code: str):
    """Run ``code`` in a new interpreter and return the JSON its last line prints."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    completed = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_importing_the_package_and_cli_loads_no_service_or_warehouse_layer():
    loaded = _fresh(
        "import json, sys\nimport repro, repro.cli\nprint(json.dumps(sorted(sys.modules)))"
    )
    unwanted = sorted(
        name
        for name in loaded
        if any(name == prefix or name.startswith(prefix + ".") for prefix in NOT_LOADED)
    )
    assert not unwanted, unwanted


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_public_name_is_the_object_its_defining_module_holds(package):
    rows = _fresh(
        f"""
import importlib, json
package = importlib.import_module({package!r})
rows = []
for module, names in package._EXPORTS.items():
    for name in names:
        value = getattr(package, name)
        held = getattr(importlib.import_module(module), name)
        definer = getattr(value, "__module__", None) if callable(value) else None
        rows.append({{
            "name": name,
            "module": module,
            "same": value is held,
            "in_dir": name in dir(package),
            "definer_holds": definer is None
            or getattr(importlib.import_module(definer), value.__name__, None) is value,
        }})
print(json.dumps({{"all": sorted(package.__all__), "rows": rows}}))
"""
    )
    assert rows["all"] == sorted(row["name"] for row in rows["rows"])
    wrong = [row for row in rows["rows"] if not (row["same"] and row["in_dir"])]
    assert not wrong, wrong
    misplaced = [row for row in rows["rows"] if not row["definer_holds"]]
    assert not misplaced, misplaced


def test_a_surrogate_backend_run_loads_no_layer_implementation():
    # The surrogate backend builds no layer: a run needs only `nn.layers.base`, through
    # `nn.model`, and none of the modules that implement the layers.
    loaded = _fresh(
        """
import json, sys
from dataclasses import replace
from repro.experiments.runner import run_experiment
from repro.experiments.spec import ExperimentSpec
from repro.sim.scenarios import get_scenario_preset
scenario = replace(get_scenario_preset("fleet-1k"), max_rounds=3)
run_experiment(ExperimentSpec(scenario=scenario, policy="autofl", stop_at_convergence=False))
print(json.dumps(sorted(sys.modules)))
"""
    )
    names = ("activations", "conv", "dense", "embedding", "misc", "pooling", "recurrent")
    unwanted = {f"repro.nn.layers.{name}" for name in names} & set(loaded)
    assert not unwanted, sorted(unwanted)


def test_a_bare_package_import_still_reaches_its_submodules():
    # Attribute access to a submodule after a bare `import repro` worked while the
    # package imported its layers eagerly; the lazy package imports it on first read.
    names = _fresh(
        "import json\nimport repro\nprint(json.dumps([\n"
        "    repro.sim.scenarios.ScenarioSpec.__name__,\n"
        "    repro.service.scheduler.Scheduler.__name__,\n"
        "    repro.experiments.runner.BatchRunner.__name__,\n"
        "]))"
    )
    assert names == ["ScenarioSpec", "Scheduler", "BatchRunner"]


def test_an_unknown_name_is_an_attribute_error():
    import repro

    with pytest.raises(AttributeError, match="no_such_name"):
        repro.no_such_name


def test_the_registry_alone_lists_every_built_in_policy():
    alone = _fresh(
        "import json\nfrom repro.registry import POLICIES\nprint(json.dumps(POLICIES.names()))"
    )
    # Against a process that has imported every module of the package first.
    everything = _fresh(
        """
import importlib, json, pkgutil
import repro
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    if info.name != "repro.__main__":
        importlib.import_module(info.name)
from repro.registry import POLICIES
print(json.dumps(POLICIES.names()))
"""
    )
    assert alone == everything
    assert {"autofl", "autofl-fast", "fedavg-random", "ofl"} <= set(alone)
