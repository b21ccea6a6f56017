"""The edge-cloud execution environment: fleet + network + interference + data."""

from __future__ import annotations

import numpy as np

from repro.config import GlobalParams, SimulationConfig
from repro.data.partition import DataDistribution
from repro.data.profiles import DataProfileArrays, DeviceDataProfile, synthesize_data_profiles
from repro.devices.fleet import Fleet, build_fleet
from repro.devices.fleet_arrays import FleetArrays, RoundConditionsArrays
from repro.dynamics import DYNAMICS_SEED_OFFSET, FleetDynamics
from repro.dynamics.faults import FaultDraw
from repro.exceptions import SimulationError
from repro.interference.corunner import InterferenceGenerator, InterferenceScenario
from repro.interference.slowdown import SlowdownModel
from repro.interference.thermal import ThermalModel
from repro.network.bandwidth import BandwidthModel, NetworkScenario
from repro.network.channel import CommunicationModel
from repro.nn.workloads import WorkloadProfile, get_workload_profile


class EdgeCloudEnvironment:
    """All state shared by a federated-learning training job in the emulated edge cloud.

    The fleet and its data profiles are built once, as arrays; ``fleet[device_id]`` and
    :meth:`data_profile` build per-device views on demand.
    """

    def __init__(
        self,
        config: SimulationConfig,
        global_params: GlobalParams,
        workload: WorkloadProfile | str,
        data_profiles: DataProfileArrays | None = None,
        data_distribution: DataDistribution | str = DataDistribution.IID,
        interference: InterferenceGenerator | None = None,
        bandwidth: BandwidthModel | None = None,
        rng: np.random.Generator | None = None,
        vectorized_sampling: bool = False,
        dynamics: FleetDynamics | None = None,
    ) -> None:
        self.config = config
        self.global_params = global_params
        self.vectorized_sampling = vectorized_sampling
        self.workload = get_workload_profile(workload)
        self.rng = rng if rng is not None else np.random.default_rng(config.seed)
        fleet = build_fleet(config, self.rng)
        self.data_distribution = DataDistribution.from_name(data_distribution)
        if data_profiles is None:
            num_classes = self.workload.num_classes
            if num_classes is None:
                raise SimulationError(
                    f"workload {self.workload.name!r} does not declare num_classes; "
                    "set WorkloadProfile.num_classes (required to synthesise data "
                    "profiles) or pass explicit data_profiles"
                )
            data_profiles = synthesize_data_profiles(
                device_ids=fleet.id_array,
                distribution=self.data_distribution,
                num_classes=num_classes,
                samples_per_device=self.workload.samples_per_device,
                rng=self.rng,
            )
        if not (
            isinstance(data_profiles, DataProfileArrays)
            and np.array_equal(data_profiles.device_ids, fleet.id_array)
        ):
            raise SimulationError(
                f"data_profiles must be DataProfileArrays of devices 0..{len(fleet) - 1} "
                "in order (see profiles_from_federated_dataset)"
            )
        self.data_profiles = data_profiles
        self.fleet = Fleet(fleet.specs, fleet.spec_codes, fleet.id_array, data_profiles.num_samples)
        #: The arrays every round reads, gathered once from the fleet's per-spec tables.
        self.fleet_arrays = FleetArrays.from_fleet(self.fleet)
        self.interference = interference or InterferenceGenerator(InterferenceScenario.NONE)
        self.bandwidth = bandwidth or BandwidthModel(NetworkScenario.STABLE)
        self.slowdown = SlowdownModel()
        self.thermal = ThermalModel()
        self.communication = CommunicationModel()
        if global_params.num_participants > len(self.fleet):
            raise SimulationError(
                f"K={global_params.num_participants} exceeds fleet size {len(self.fleet)}"
            )
        # The dynamics RNG stream is dedicated (seed + DYNAMICS_SEED_OFFSET) so that
        # enabling availability/churn/faults never perturbs the condition-sampling
        # stream above — static-fleet seeded trajectories stay bit-exact.
        self.dynamics = dynamics
        if dynamics is not None:
            dynamics.bind(
                num_devices=len(self.fleet),
                tier_codes=self.fleet_arrays.tier_codes,
                device_ids=self.fleet_arrays.device_ids,
                seed=config.seed + DYNAMICS_SEED_OFFSET,
            )

    def data_profile(self, device_id: int) -> DeviceDataProfile:
        """Data profile of one device (a view built on demand)."""
        try:
            return self.data_profiles[device_id]
        except KeyError as exc:
            raise SimulationError(f"no data profile for device {device_id}") from exc

    def sample_condition_arrays(self) -> RoundConditionsArrays:
        """Sample every device's runtime conditions for one round, fleet-wide.

        Co-runner activity and network bandwidth are redrawn every round, which is the
        stochastic runtime variance the paper emphasises (Section 2.2).  With
        ``vectorized_sampling`` enabled the draws are single array operations whose cost
        is independent of Python-level fleet size (the stream differs from the scalar
        sampler, so seeded trajectories are not comparable across the two modes); the
        default scalar sampler preserves the per-device draw order of seeded experiments.
        """
        num_devices = len(self.fleet)
        if self.vectorized_sampling:
            co_cpu_util, co_mem_util = self.interference.sample_arrays(self.rng, num_devices)
            bandwidths = self.bandwidth.sample(self.rng, num_devices)
            return RoundConditionsArrays(
                co_cpu_util=co_cpu_util, co_mem_util=co_mem_util, bandwidth_mbps=bandwidths
            )
        interference_samples = self.interference.sample(self.rng, num_devices)
        bandwidths = self.bandwidth.sample(self.rng, num_devices)
        return RoundConditionsArrays(
            co_cpu_util=np.array(
                [sample.co_cpu_util for sample in interference_samples], dtype=np.float64
            ),
            co_mem_util=np.array(
                [sample.co_mem_util for sample in interference_samples], dtype=np.float64
            ),
            bandwidth_mbps=bandwidths,
        )

    # ------------------------------------------------------------------ fleet dynamics
    def round_online_mask(self, round_index: int) -> np.ndarray | None:
        """The round's online-device mask in fleet order (``None`` for a static fleet).

        Must be called once per round in round order — the availability and churn
        processes behind it are stateful.
        """
        if self.dynamics is None:
            return None
        return self.dynamics.online_mask(round_index)

    def sample_faults(self, participants: list[int], round_index: int) -> FaultDraw | None:
        """Draw mid-round faults for a selection (``None`` when faults are disabled)."""
        if self.dynamics is None or not self.dynamics.has_faults:
            return None
        rows = self.fleet_arrays.rows_for(participants)
        return self.dynamics.sample_faults(round_index, rows)
