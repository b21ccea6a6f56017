"""Multi-seed runs record the same round telemetry as solo runs, per replicate-round."""

from repro import telemetry
from repro.experiments.runner import run_experiment
from repro.experiments.spec import ExperimentSpec
from repro.sim.scenarios import ScenarioSpec

SEEDS = 3
ROUNDS = 6


def test_multi_seed_run_experiment_records_round_telemetry():
    telemetry.configure(enabled=True)
    spec = ExperimentSpec(
        scenario=ScenarioSpec(num_devices=25, max_rounds=ROUNDS, seed=13, setting="S4"),
        policy="fedavg-random",
        n_seeds=SEEDS,
        stop_at_convergence=False,
    )
    result = run_experiment(spec)
    assert [summary.rounds_executed for summary in result.summaries] == [ROUNDS] * SEEDS

    registry = telemetry.get_registry()
    replicate_rounds = SEEDS * ROUNDS
    assert registry.counter("repro_rounds_total").value(policy="fedavg-random") == (
        replicate_rounds
    )
    assert registry.histogram("repro_round_time_s").count(policy="fedavg-random") == (
        replicate_rounds
    )
    assert registry.histogram("repro_round_energy_j").count(policy="fedavg-random") == (
        replicate_rounds
    )
    assert registry.counter("repro_engine_batch_rounds_total").value() == replicate_rounds
    # Every replicate-round ran through the one stacked engine call per round.
    assert registry.counter("repro_engine_replicated_rounds_total").value() == (
        replicate_rounds
    )

    # One build span for every replica, then one simulation span; per round, one span
    # per phase covers every replicate.
    spans = [span for span in telemetry.get_tracer().spans() if span.category == "engine"]
    (build,) = [span for span in spans if span.name == "build"]
    (simulation,) = [span for span in spans if span.name == "simulation"]
    assert build.attrs["seeds"] == SEEDS
    assert build.end_s <= simulation.start_s
    phases = [span for span in spans if span.name not in ("build", "simulation")]
    assert sorted({span.name for span in phases}) == ["control_plane", "energy_math", "feedback"]
    assert len(phases) == 3 * ROUNDS
    assert all(span.parent_id == simulation.span_id for span in phases)
