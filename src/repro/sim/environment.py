"""The edge-cloud execution environment: fleet + network + interference + data."""

from __future__ import annotations

import numpy as np

from repro.config import GlobalParams, SimulationConfig
from repro.data.partition import DataDistribution
from repro.data.profiles import DeviceDataProfile, synthesize_data_profiles
from repro.devices.device import RoundConditions
from repro.devices.fleet import Fleet, build_fleet
from repro.devices.fleet_arrays import TIER_ORDER, FleetArrays, RoundConditionsArrays
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
    """All state shared by a federated-learning training job in the emulated edge cloud."""

    def __init__(
        self,
        config: SimulationConfig,
        global_params: GlobalParams,
        workload: WorkloadProfile | str,
        fleet: Fleet | None = None,
        data_profiles: dict[int, DeviceDataProfile] | None = None,
        data_distribution: DataDistribution | str = DataDistribution.IID,
        interference: InterferenceGenerator | None = None,
        bandwidth: BandwidthModel | None = None,
        slowdown: SlowdownModel | None = None,
        thermal: ThermalModel | None = None,
        communication: CommunicationModel | None = None,
        rng: np.random.Generator | None = None,
        vectorized_sampling: bool = False,
        dynamics: FleetDynamics | None = None,
    ) -> None:
        self.config = config
        self.global_params = global_params
        self.vectorized_sampling = vectorized_sampling
        self.workload = get_workload_profile(workload)
        self.rng = rng if rng is not None else np.random.default_rng(config.seed)
        self.fleet = fleet if fleet is not None else build_fleet(config, self.rng)
        #: Device ids in fleet order, built once: every round hands them to its
        #: condition view, which only reads them.
        self.device_ids: tuple[int, ...] = tuple(self.fleet.device_ids)
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
                device_ids=self.fleet.device_ids,
                distribution=self.data_distribution,
                num_classes=num_classes,
                samples_per_device=self.workload.samples_per_device,
                rng=self.rng,
            )
        missing = set(self.fleet.device_ids) - set(data_profiles)
        if missing:
            raise SimulationError(f"data profiles missing for devices {sorted(missing)[:5]}...")
        self.data_profiles = data_profiles
        for device in self.fleet:
            device.assign_samples(self.data_profiles[device.device_id].num_samples)
        self.interference = interference or InterferenceGenerator(InterferenceScenario.NONE)
        self.bandwidth = bandwidth or BandwidthModel(NetworkScenario.STABLE)
        self.slowdown = slowdown or SlowdownModel()
        self.thermal = thermal or ThermalModel()
        self.communication = communication or CommunicationModel()
        self._fleet_arrays: FleetArrays | None = None
        self._data_quality_array: np.ndarray | None = None
        self._data_samples_array: np.ndarray | None = None
        self._class_fraction_array: np.ndarray | None = None
        if global_params.num_participants > len(self.fleet):
            raise SimulationError(
                f"K={global_params.num_participants} exceeds fleet size {len(self.fleet)}"
            )
        # The dynamics RNG stream is dedicated (seed + DYNAMICS_SEED_OFFSET) so that
        # enabling availability/churn/faults never perturbs the condition-sampling
        # stream above — static-fleet seeded trajectories stay bit-exact.
        self.dynamics = dynamics
        if dynamics is not None:
            tier_index = {tier: code for code, tier in enumerate(TIER_ORDER)}
            dynamics.bind(
                num_devices=len(self.fleet),
                tier_codes=np.array(
                    [tier_index[device.tier] for device in self.fleet], dtype=np.int64
                ),
                device_ids=np.array(self.fleet.device_ids, dtype=np.int64),
                seed=config.seed + DYNAMICS_SEED_OFFSET,
            )

    @property
    def fleet_arrays(self) -> FleetArrays:
        """Struct-of-arrays snapshot of the fleet, built lazily after shard assignment.

        The snapshot backs the vectorised round engine; it is taken on first access so
        that the data partitioner has already assigned per-device sample counts.
        """
        if self._fleet_arrays is None:
            self._fleet_arrays = FleetArrays.from_fleet(self.fleet)
        return self._fleet_arrays

    @property
    def data_quality_array(self) -> np.ndarray:
        """Per-device ``data_quality`` in fleet order (profiles are fixed per job)."""
        if self._data_quality_array is None:
            self._data_quality_array = np.array(
                [self.data_profiles[device_id].data_quality for device_id in self.fleet.device_ids],
                dtype=np.float64,
            )
        return self._data_quality_array

    @property
    def data_samples_array(self) -> np.ndarray:
        """Per-device profile sample counts in fleet order."""
        if self._data_samples_array is None:
            self._data_samples_array = np.array(
                [self.data_profiles[device_id].num_samples for device_id in self.fleet.device_ids],
                dtype=np.int64,
            )
        return self._data_samples_array

    @property
    def class_fraction_array(self) -> np.ndarray:
        """Per-device class-coverage fractions in fleet order (fixed per job).

        Backs the vectorised AutoFL state encoder, which bins data coverage for the
        whole fleet in one array op instead of touching profile objects per round.
        """
        if self._class_fraction_array is None:
            self._class_fraction_array = np.array(
                [
                    self.data_profiles[device_id].class_fraction
                    for device_id in self.fleet.device_ids
                ],
                dtype=np.float64,
            )
        return self._class_fraction_array

    def data_profile(self, device_id: int) -> DeviceDataProfile:
        """Data profile of one device."""
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

    def sample_round_conditions(self) -> dict[int, RoundConditions]:
        """Sample one round's conditions as the per-device mapping policies observe."""
        return self.sample_condition_arrays().to_mapping(self.device_ids)

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
