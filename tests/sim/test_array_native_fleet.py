"""The fleet and its data profiles are arrays: building an environment, and running
shipped-policy rounds on it, constructs no per-device ``MobileDevice`` or
``DeviceDataProfile`` object.  Both stay available as views built on demand.  A
validated run audits the round arrays too: it builds no ``DeviceEnergy`` or
``DeviceRoundOutcome`` and never materialises a round's scalar view."""

from dataclasses import replace

import pytest

from repro.data.profiles import DeviceDataProfile
from repro.devices.device import MobileDevice
from repro.devices.energy import DeviceEnergy
from repro.experiments.runner import build_simulation, run_experiment
from repro.experiments.spec import ExperimentSpec
from repro.sim.results import BatchRoundExecution, DeviceRoundOutcome
from repro.sim.scenarios import build_environment, get_scenario_preset

SHIPPED_POLICIES = ["fedavg-random", "autofl", "autofl-fast", "ofl"]
NONE_BUILT = {MobileDevice: 0, DeviceDataProfile: 0, DeviceEnergy: 0, DeviceRoundOutcome: 0}


@pytest.fixture
def constructions(monkeypatch):
    """Counts ``__init__`` calls of the four per-device classes from here on."""
    counts = dict(NONE_BUILT)
    for cls in counts:

        def counting(self, *args, _cls=cls, _init=cls.__init__, **kwargs):
            counts[_cls] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    return counts


def test_building_a_fleet_1k_environment_makes_no_device_objects(constructions):
    environment = build_environment(get_scenario_preset("fleet-1k"))
    assert len(environment.fleet) == 1_000
    assert constructions == NONE_BUILT
    # The views still work, and are the only place either class is built.
    device_id = environment.fleet.device_ids[7]
    device = environment.fleet[device_id]
    profile = environment.data_profile(device_id)
    assert device.num_local_samples == profile.num_samples > 0
    assert constructions == {**NONE_BUILT, MobileDevice: 1, DeviceDataProfile: 1}


def _fleet_1k_spec(policy: str) -> ExperimentSpec:
    scenario = replace(get_scenario_preset("fleet-1k"), max_rounds=3)
    return ExperimentSpec(scenario=scenario, policy=policy, stop_at_convergence=False)


@pytest.mark.parametrize("policy", SHIPPED_POLICIES)
def test_shipped_policy_rounds_make_no_device_objects(policy, constructions):
    simulation = build_simulation(_fleet_1k_spec(policy).validate())
    assert constructions == NONE_BUILT
    for round_index in range(3):
        simulation.run_round(round_index)
    assert constructions == NONE_BUILT


@pytest.mark.parametrize("policy", SHIPPED_POLICIES)
def test_validated_runs_make_no_device_objects(policy, constructions, monkeypatch):
    materialised = []
    to_execution = BatchRoundExecution.to_execution

    def counting(self):
        materialised.append(self)
        return to_execution(self)

    monkeypatch.setattr(BatchRoundExecution, "to_execution", counting)
    result = run_experiment(_fleet_1k_spec(policy).validate(), validate=True)
    assert len(result.summaries) == 1
    assert materialised == []
    assert constructions == NONE_BUILT
