"""Integration tests for fleet dynamics: equivalence, determinism and engine faults."""

import dataclasses

import numpy as np
import pytest

from repro.core.selection import RandomPolicy, make_policy
from repro.dynamics import DynamicsSpec, FleetDynamics
from repro.dynamics.faults import FaultDraw
from repro.exceptions import SimulationError
from repro.sim.context import SelectionDecision
from repro.sim.runner import FLSimulation
from repro.sim.scenarios import (
    ScenarioSpec,
    build_environment,
    build_surrogate_backend,
    get_scenario_preset,
)
from scalar_engine import ScalarRoundEngine


def _run(spec: ScenarioSpec, policy: str = "fedavg-random", rounds: int = 6):
    environment = build_environment(spec)
    simulation = FLSimulation(
        environment,
        make_policy(policy, rng=np.random.default_rng(spec.seed + 10_000)),
        build_surrogate_backend(environment),
        max_rounds=rounds,
        stop_at_convergence=False,
    )
    return simulation.run()


class TestStaticEquivalence:
    """The default (always-on, zero-fault) configuration must reproduce the seeded
    static-fleet trajectories exactly — enabling the dynamics plumbing with a trivial
    configuration changes nothing but the ``num_online`` bookkeeping."""

    BASE = ScenarioSpec(num_devices=30, max_rounds=20, seed=11, setting="S4")

    def test_default_spec_builds_no_dynamics(self):
        assert build_environment(self.BASE).dynamics is None
        assert self.BASE.dynamics_spec().is_trivial

    @pytest.mark.parametrize("policy", ["fedavg-random", "autofl", "oparticipant"])
    def test_trivial_dynamics_trajectory_is_bit_identical(self, policy):
        static = _run(self.BASE, policy=policy)

        environment = build_environment(self.BASE)
        assert environment.dynamics is None
        environment.dynamics = FleetDynamics()  # Explicit always-on, no faults.
        environment.dynamics.bind(
            num_devices=len(environment.fleet),
            tier_codes=np.zeros(len(environment.fleet), dtype=np.int64),
            device_ids=np.array(environment.fleet.device_ids),
            seed=999,
        )
        simulation = FLSimulation(
            environment,
            make_policy(policy, rng=np.random.default_rng(self.BASE.seed + 10_000)),
            build_surrogate_backend(environment),
            max_rounds=6,
            stop_at_convergence=False,
        )
        dynamic = simulation.run()

        for static_record, dynamic_record in zip(static.records, dynamic.records):
            assert dynamic_record.num_online == 30
            # Everything except the online bookkeeping matches bit for bit.
            assert dataclasses.replace(dynamic_record, num_online=None) == static_record

    def test_same_seed_same_records(self):
        first = _run(self.BASE)
        second = _run(self.BASE)
        assert first.records == second.records


class TestDynamicTrajectories:
    FLAKY = ScenarioSpec(
        num_devices=30,
        max_rounds=20,
        seed=3,
        setting="S4",
        availability="bernoulli",
        dropout_rate=0.2,
        slow_fault_rate=0.1,
    )

    def test_faults_and_availability_observed(self):
        result = _run(self.FLAKY, rounds=10)
        assert result.total_fault_failures > 0
        assert all(count is not None and count <= 30 for count in result.online_history)
        assert result.mean_num_online < 30

    def test_dropout_streams_deterministic_per_seed(self):
        first = _run(self.FLAKY, rounds=8)
        second = _run(self.FLAKY, rounds=8)
        assert first.records == second.records
        shifted = _run(dataclasses.replace(self.FLAKY, seed=4), rounds=8)
        assert [r.failed_ids for r in shifted.records] != [
            r.failed_ids for r in first.records
        ]

    def test_failed_devices_are_not_aggregated_or_redropped(self):
        result = _run(self.FLAKY, rounds=10)
        for record in result.records:
            assert set(record.failed_ids) <= set(record.selected_ids)
            assert not set(record.failed_ids) & set(record.dropped_ids)
            assert record.num_aggregated >= 0

    @pytest.mark.parametrize("policy", ["autofl", "ofl", "cluster-c3"])
    def test_policies_select_only_online_devices(self, policy):
        spec = dataclasses.replace(self.FLAKY, availability="markov")
        environment = build_environment(spec)
        simulation = FLSimulation(
            environment,
            make_policy(policy, rng=np.random.default_rng(7)),
            build_surrogate_backend(environment),
            max_rounds=6,
            stop_at_convergence=False,
        )
        # The engine raises SimulationError if a policy ever picks an offline device,
        # so a clean run is itself the assertion; check the masks were real too.
        result = simulation.run()
        assert min(count for count in result.online_history) < 30

    def test_churn_heavy_preset_runs_and_records_events(self):
        spec = dataclasses.replace(
            get_scenario_preset("churn-heavy"), num_devices=30, seed=1
        )
        environment = build_environment(spec)
        simulation = FLSimulation(
            environment,
            RandomPolicy(rng=np.random.default_rng(0)),
            build_surrogate_backend(environment),
            max_rounds=15,
            stop_at_convergence=False,
        )
        simulation.run()
        assert environment.dynamics.churn_events  # Devices left/joined mid-job.

    def test_diurnal_preset_small_variant_oscillates(self):
        spec = dataclasses.replace(
            get_scenario_preset("diurnal-1k"), num_devices=100, seed=0
        )
        result = _run(spec, rounds=30)
        counts = [count for count in result.online_history]
        assert max(counts) - min(counts) > 10  # The sine wave is visible.


class TestEngineFaults:
    @pytest.fixture
    def engine_setup(self, small_environment):
        # The scalar oracle subclasses the shipped engine: one instance runs both paths.
        engine = ScalarRoundEngine(small_environment)
        arrays = small_environment.sample_condition_arrays()
        conditions = arrays.to_mapping(small_environment.fleet.device_ids)
        participants = small_environment.fleet.device_ids[:8]
        decision = SelectionDecision(participants=participants)
        return engine, decision, conditions, arrays

    def test_scalar_batch_equivalence_with_faults(self, engine_setup):
        engine, decision, conditions, arrays = engine_setup
        rng = np.random.default_rng(0)
        draw = FaultDraw(
            upload_failure=rng.random(8) < 0.4,
            compute_slowdown=np.where(rng.random(8) < 0.4, 5.0, 1.0),
        )
        batch = engine.execute_batch(decision, arrays, faults=draw)
        scalar = engine.execute(
            decision, conditions, faults=draw.to_mapping(decision.participants)
        )
        assert batch.participant_ids == scalar.participant_ids
        assert batch.dropped_ids == scalar.dropped_ids
        assert batch.failed_ids == scalar.failed_ids
        assert batch.round_time_s == pytest.approx(scalar.round_time_s, abs=1e-9)
        converted = batch.to_execution()
        for device_id, outcome in converted.outcomes.items():
            reference = scalar.outcomes[device_id]
            assert outcome.compute_time_s == pytest.approx(
                reference.compute_time_s, abs=1e-9
            )
            assert outcome.communication_time_s == pytest.approx(
                reference.communication_time_s, abs=1e-9
            )
            assert outcome.energy.total_j == pytest.approx(
                reference.energy.total_j, rel=1e-9
            )
        assert converted.energy.global_j == pytest.approx(
            scalar.energy.global_j, rel=1e-9
        )

    @pytest.mark.parametrize(
        "with_faults,with_mask",
        [(False, True), (True, True), (True, False)],
        ids=["mask-only", "faults-and-mask", "heavy-faults"],
    )
    def test_scalar_batch_equivalence_across_dynamics_paths(
        self, engine_setup, small_environment, with_faults, with_mask
    ):
        """PR 3 pinned only the always-on/no-fault path; the fault-injection and
        partial-availability paths must agree between the two engines to 1e-9 too."""
        engine, decision, conditions, arrays = engine_setup
        rng = np.random.default_rng(42)
        draw = None
        if with_faults:
            draw = FaultDraw(
                upload_failure=rng.random(8) < 0.5,
                compute_slowdown=np.where(rng.random(8) < 0.5, 6.0, 1.0),
            )
        online_mask = None
        if with_mask:
            # Everyone selected stays online; a third of the rest goes offline.
            online_mask = np.ones(len(small_environment.fleet), dtype=bool)
            rows = small_environment.fleet_arrays.rows_for(decision.participants)
            offline = rng.random(len(online_mask)) < 0.33
            offline[rows] = False
            online_mask[offline] = False

        batch = engine.execute_batch(
            decision, arrays, faults=draw, online_mask=online_mask
        )
        scalar = engine.execute(
            decision,
            conditions,
            faults=None if draw is None else draw.to_mapping(decision.participants),
            online_mask=online_mask,
        )
        assert batch.participant_ids == scalar.participant_ids
        assert batch.dropped_ids == scalar.dropped_ids
        assert batch.failed_ids == scalar.failed_ids
        assert batch.round_time_s == pytest.approx(scalar.round_time_s, abs=1e-9)
        converted = batch.to_execution()
        for device_id, outcome in converted.outcomes.items():
            reference = scalar.outcomes[device_id]
            assert outcome.compute_time_s == pytest.approx(
                reference.compute_time_s, abs=1e-9
            )
            assert outcome.communication_time_s == pytest.approx(
                reference.communication_time_s, abs=1e-9
            )
            assert outcome.energy.compute_j == pytest.approx(
                reference.energy.compute_j, rel=1e-9, abs=1e-9
            )
            assert outcome.energy.communication_j == pytest.approx(
                reference.energy.communication_j, rel=1e-9, abs=1e-9
            )
            assert outcome.energy.idle_j == pytest.approx(
                reference.energy.idle_j, rel=1e-9, abs=1e-9
            )
        # The fleet-wide idle account (incl. the offline zeroing) must agree per device.
        for device_id, scalar_energy in scalar.energy.per_device.items():
            batch_energy = converted.energy.device(device_id)
            assert batch_energy.idle_j == pytest.approx(
                scalar_energy.idle_j, rel=1e-9, abs=1e-9
            )
        assert converted.energy.global_j == pytest.approx(
            scalar.energy.global_j, rel=1e-9
        )
        assert converted.energy.participant_j == pytest.approx(
            scalar.energy.participant_j, rel=1e-9
        )

    def test_upload_failure_wastes_compute_but_not_radio(self, engine_setup):
        engine, decision, _conditions, arrays = engine_setup
        draw = FaultDraw.none(8)
        clean = engine.execute_batch(decision, arrays, faults=draw)
        failing = FaultDraw(
            upload_failure=np.array([True] + [False] * 7),
            compute_slowdown=np.ones(8),
        )
        faulty = engine.execute_batch(decision, arrays, faults=failing)
        assert faulty.failed_ids == [decision.participants[0]]
        assert decision.participants[0] not in faulty.participant_ids
        assert faulty.communication_j[0] == 0.0
        assert faulty.communication_time_s[0] == 0.0
        assert faulty.compute_j[0] > 0.0  # The wasted local training is still charged.
        assert clean.communication_j[0] > 0.0

    def test_slow_fault_can_turn_participant_into_straggler(self, engine_setup):
        engine, decision, _conditions, arrays = engine_setup
        slowdown = np.ones(8)
        slowdown[0] = 50.0
        draw = FaultDraw(upload_failure=np.zeros(8, dtype=bool), compute_slowdown=slowdown)
        execution = engine.execute_batch(decision, arrays, faults=draw)
        assert decision.participants[0] in execution.dropped_ids

    def test_offline_selection_rejected(self, engine_setup):
        engine, decision, conditions, arrays = engine_setup
        online_mask = np.ones(len(arrays), dtype=bool)
        online_mask[0] = False  # Fleet row 0 is the first participant.
        with pytest.raises(SimulationError, match="offline"):
            engine.execute_batch(decision, arrays, online_mask=online_mask)
        with pytest.raises(SimulationError, match="offline"):
            engine.execute(decision, conditions, online_mask=online_mask)

    def test_offline_devices_draw_no_idle_energy(self, engine_setup, small_environment):
        engine, decision, _conditions, arrays = engine_setup
        online_mask = np.ones(len(arrays), dtype=bool)
        offline_row = len(online_mask) - 1  # Not among the selected first 8 rows.
        online_mask[offline_row] = False
        gated = engine.execute_batch(
            decision, arrays, online_mask=online_mask
        )
        ungated = engine.execute_batch(decision, arrays)
        assert gated.idle_j[offline_row] == 0.0
        assert ungated.idle_j[offline_row] > 0.0
        assert gated.global_energy_j < ungated.global_energy_j

    def test_misaligned_fault_draw_rejected(self, engine_setup):
        engine, decision, _conditions, arrays = engine_setup
        with pytest.raises(SimulationError, match="align"):
            engine.execute_batch(decision, arrays, faults=FaultDraw.none(3))


class TestDynamicsSpecOnScenario:
    def test_scenario_fields_flow_into_dynamics_spec(self):
        spec = ScenarioSpec(
            availability="markov",
            churn_rate=0.1,
            dropout_rate=0.2,
            tier_dropout_rates={"low": 0.5},
        )
        dynamics_spec = spec.dynamics_spec()
        assert dynamics_spec == DynamicsSpec(
            availability="markov",
            churn_rate=0.1,
            dropout_rate=0.2,
            tier_dropout_rates={"low": 0.5},
        )
        assert not dynamics_spec.is_trivial

    def test_presets_register_dynamics(self):
        assert get_scenario_preset("flaky-fleet").dropout_rate > 0
        assert get_scenario_preset("diurnal-1k").availability == "diurnal"
        assert get_scenario_preset("churn-heavy").churn_rate > 0
