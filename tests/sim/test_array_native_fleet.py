"""The fleet and its data profiles are arrays: building an environment, and running
shipped-policy rounds on it, constructs no per-device ``MobileDevice`` or
``DeviceDataProfile`` object.  Both stay available as views built on demand."""

from dataclasses import replace

import pytest

from repro.data.profiles import DeviceDataProfile
from repro.devices.device import MobileDevice
from repro.experiments.runner import build_simulation
from repro.experiments.spec import ExperimentSpec
from repro.sim.scenarios import build_environment, get_scenario_preset


@pytest.fixture
def constructions(monkeypatch):
    """Counts ``__init__`` calls of the two per-device classes from here on."""
    counts = {MobileDevice: 0, DeviceDataProfile: 0}
    for cls in counts:

        def counting(self, *args, _cls=cls, _init=cls.__init__, **kwargs):
            counts[_cls] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    return counts


def test_building_a_fleet_1k_environment_makes_no_device_objects(constructions):
    environment = build_environment(get_scenario_preset("fleet-1k"))
    assert len(environment.fleet) == 1_000
    assert constructions == {MobileDevice: 0, DeviceDataProfile: 0}
    # The views still work, and are the only place either class is built.
    device_id = environment.fleet.device_ids[7]
    device = environment.fleet[device_id]
    profile = environment.data_profile(device_id)
    assert device.num_local_samples == profile.num_samples > 0
    assert constructions == {MobileDevice: 1, DeviceDataProfile: 1}


@pytest.mark.parametrize("policy", ["fedavg-random", "autofl", "autofl-fast", "ofl"])
def test_shipped_policy_rounds_make_no_device_objects(policy, constructions):
    scenario = replace(get_scenario_preset("fleet-1k"), max_rounds=3)
    spec = ExperimentSpec(scenario=scenario, policy=policy, stop_at_convergence=False)
    simulation = build_simulation(spec.validate())
    assert constructions == {MobileDevice: 0, DeviceDataProfile: 0}
    for round_index in range(3):
        simulation.run_round(round_index)
    assert constructions == {MobileDevice: 0, DeviceDataProfile: 0}
