"""Shared fixtures for the test suite."""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.config import GlobalParams, SimulationConfig
from repro.devices.fleet import build_fleet
from repro.devices.specs import GALAXY_S10E, MI8_PRO, MOTO_X_FORCE
from repro.sim.scenarios import ScenarioSpec, build_environment, build_surrogate_backend

# Test oracles shared across test directories (``scalar_engine.py``) import as top-level
# modules from this directory, whichever directory's tests are collected first.
_TESTS = str(Path(__file__).resolve().parent)
if _TESTS not in sys.path:
    sys.path.insert(0, _TESTS)


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator."""
    return np.random.default_rng(1234)


@pytest.fixture
def small_config() -> SimulationConfig:
    """A 20-device configuration with the standard tier proportions."""
    return SimulationConfig.small(num_devices=20, seed=7)


@pytest.fixture
def small_fleet(small_config, rng):
    """A 20-device fleet."""
    return build_fleet(small_config, rng)


@pytest.fixture
def global_params() -> GlobalParams:
    """The S4 global parameters (K = 10), small enough for 20-device fleets."""
    return GlobalParams.from_setting("S4")


@pytest.fixture
def small_scenario() -> ScenarioSpec:
    """A small, fast scenario spec used by simulator and policy tests."""
    return ScenarioSpec(
        workload="cnn-mnist", setting="S4", num_devices=30, max_rounds=40, seed=11
    )


@pytest.fixture
def small_environment(small_scenario):
    """The environment built from the small scenario."""
    return build_environment(small_scenario)


@pytest.fixture
def small_backend(small_environment):
    """A surrogate training backend for the small environment."""
    return build_surrogate_backend(small_environment)


@pytest.fixture
def device_specs():
    """The three tier specs as a dict for parametrised tests."""
    return {"high": MI8_PRO, "mid": GALAXY_S10E, "low": MOTO_X_FORCE}


class DictStore:
    """In-memory ``StoreBackend``: spec-hash keyed ``get``/``put`` and nothing else."""

    def __init__(self):
        self.rows = {}

    def get(self, spec):
        key = spec if isinstance(spec, str) else spec.spec_hash()
        return self.rows.get(key)

    def put(self, result):
        self.rows[result.spec.spec_hash()] = result

    def __contains__(self, spec):
        return self.get(spec) is not None

    def __len__(self):
        return len(self.rows)


@pytest.fixture
def dict_store() -> DictStore:
    """An empty in-memory result store (no artifacts, no presets)."""
    return DictStore()
