"""Tests for the batch runner: executors, result store and spec-hash caching."""

import dataclasses
import json
import os
import subprocess
import sys
import warnings

import pytest

from legacy_jsonl import append_jsonl
from repro.exceptions import ConfigurationError, ExecutionError, ValidationError
from repro.experiments.harness import run_simulation
from repro.experiments.runner import (
    BatchRunner,
    ExperimentResult,
    MultiprocessExecutor,
    SerialExecutor,
    StaleResultWarning,
    StoreBackend,
    build_simulation,
    get_executor,
    run_experiment,
)
from repro.experiments.spec import ExperimentSpec, Sweep
from repro.service.store import ArtifactStore, open_store
from repro.sim.scenarios import ScenarioSpec

#: A line written under spec schema 1 (its hash can never be looked up again).
STALE_LINE = '{"hash": "deadbeef", "spec": {"schema": 1}, "summaries": []}\n'


@pytest.fixture
def base():
    return ExperimentSpec(
        scenario=ScenarioSpec(num_devices=30, max_rounds=8, seed=3),
        policy="fedavg-random",
    )


@pytest.fixture
def sweep(base):
    return Sweep(base, policy=["fedavg-random", "performance"], setting=["S3", "S4"])


class TestRunExperiment:
    def test_matches_the_harness_driver(self, base):
        result = run_experiment(base)
        reference = run_simulation(base.scenario, base.policy)
        assert result.summaries == (reference.summary(),)

    def test_seed_replication_averages(self, base):
        replicated = run_experiment(base.with_axis("n_seeds", 2))
        singles = [run_experiment(unit) for unit in base.with_axis("n_seeds", 2).seed_specs()]
        assert replicated.summaries == tuple(s.summaries[0] for s in singles)
        assert replicated.n_seeds == 2
        assert 0.0 <= replicated.convergence_rate <= 1.0

    def test_build_simulation_validates(self, base):
        with pytest.raises(ConfigurationError, match="unknown workload"):
            build_simulation(base.with_axis("workload", "resnet"))

    def test_result_roundtrip(self, base):
        result = run_experiment(base)
        clone = ExperimentResult.from_dict(result.to_dict())
        assert clone.spec == result.spec
        assert clone.summaries == result.summaries


class TestExecutors:
    def test_multiprocess_matches_serial(self, sweep):
        specs = sweep.expand()
        serial = SerialExecutor().map(specs)
        parallel = MultiprocessExecutor(max_workers=2).map(specs)
        assert [r.summaries for r in parallel] == [r.summaries for r in serial]
        assert [r.spec for r in parallel] == specs

    def test_get_executor(self):
        assert isinstance(get_executor("serial"), SerialExecutor)
        executor = get_executor("process", jobs=3)
        assert isinstance(executor, MultiprocessExecutor)
        assert executor.max_workers == 3
        with pytest.raises(ConfigurationError, match="unknown executor"):
            get_executor("threads")

    def test_bad_worker_count_rejected(self):
        with pytest.raises(ConfigurationError, match="max_workers"):
            MultiprocessExecutor(max_workers=0)


class TestResultStore:
    """The result store behind ``open_store``, and its import of JSONL store files."""

    def test_put_get_roundtrip(self, tmp_path, base):
        store = open_store(tmp_path / "results.sqlite")
        assert store.get(base) is None
        result = run_experiment(base)
        store.put(result)
        assert base in store
        cached = store.get(base)
        assert cached.cached and cached.summaries == result.summaries

    def test_reload_from_disk(self, tmp_path, base):
        path = tmp_path / "results.sqlite"
        open_store(path).put(run_experiment(base))
        reloaded = open_store(path)
        assert len(reloaded) == 1
        assert reloaded.get(base.spec_hash()) is not None

    def test_corrupt_line_reports_location(self, tmp_path, base):
        path = append_jsonl(tmp_path / "results.jsonl", run_experiment(base))
        with path.open("a", encoding="utf-8") as handle:
            handle.write("not json\n")
        with pytest.raises(ConfigurationError, match="line 2"):
            open_store(path)

    def test_line_missing_hash_reports_location(self, tmp_path):
        path = tmp_path / "results.jsonl"
        path.write_text('{"schema": 1, "spec": {}, "summaries": []}\n')
        with pytest.raises(ConfigurationError, match="line 1"):
            open_store(path)

    def test_stale_spec_schema_entries_warn_with_both_versions(self, tmp_path, base):
        # A schema bump must not brick existing stores: stale lines (whose hashes can
        # never be looked up again) are skipped — but loudly, naming both versions, so
        # users understand the resulting cache misses.
        path = append_jsonl(tmp_path / "results.jsonl", run_experiment(base))
        with path.open("a", encoding="utf-8") as handle:
            handle.write(STALE_LINE)
        with pytest.warns(StaleResultWarning, match=r"schema 1.*reads schema 3"):
            reloaded = open_store(path)
        assert len(reloaded) == 1
        assert reloaded.get(base.spec_hash()) is not None

    def test_current_schema_store_loads_without_warning(self, tmp_path, base):
        path = append_jsonl(tmp_path / "results.jsonl", run_experiment(base))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # Any warning fails the test.
            reloaded = open_store(path)
        assert len(reloaded) == 1

    def test_last_line_wins_for_a_duplicate_hash(self, tmp_path, base):
        result = run_experiment(base)
        recomputed = dataclasses.replace(result, elapsed_s=result.elapsed_s + 1.0)
        path = append_jsonl(tmp_path / "results.jsonl", result, recomputed)
        reloaded = open_store(path)
        assert len(reloaded) == 1
        assert reloaded.get(base).elapsed_s == recomputed.elapsed_s

    def test_cache_hit_and_miss_paths(self, tmp_path, base):
        # Explicit hit/miss coverage: a fresh spec misses, a stored one hits (flagged
        # cached), a stale-schema line stays a miss for its hash.
        path = append_jsonl(tmp_path / "results.jsonl", run_experiment(base))
        with path.open("a", encoding="utf-8") as handle:
            handle.write(STALE_LINE)
        with pytest.warns(StaleResultWarning):
            store = open_store(path)
        hit = store.get(base)
        assert hit is not None and hit.cached  # Hit on the migrated entry.
        assert store.get("deadbeef") is None  # Stale entries never serve hits.
        other = base.with_axis("seed", 123)
        assert store.get(other) is None  # Different spec hash still misses.
        assert other not in store
        store.put(run_experiment(other))
        assert store.get(other).cached  # Hit after put.


class TestBatchRunner:
    def test_first_run_executes_second_run_hits_cache(self, tmp_path, sweep):
        path = tmp_path / "results.sqlite"
        first = BatchRunner(store=open_store(path)).run(sweep)
        assert (first.total, first.cache_hits, first.executed) == (4, 0, 4)
        second = BatchRunner(store=open_store(path)).run(sweep)
        assert (second.total, second.cache_hits, second.executed) == (4, 4, 0)
        assert all(result.cached for result in second.results)
        assert [r.summaries for r in second.results] == [r.summaries for r in first.results]

    def test_duplicate_points_run_once(self, base):
        report = BatchRunner().run([base, base])
        assert report.total == 2
        assert report.executed == 1
        assert report.results[0].summaries == report.results[1].summaries

    def test_runs_without_store(self, base):
        report = BatchRunner().run([base])
        assert report.cache_hits == 0 and report.executed == 1

    def test_results_preserve_grid_order(self, sweep):
        report = BatchRunner().run(sweep)
        assert [r.spec for r in report.results] == sweep.expand()


class TestValidateHook:
    """BatchRunner(validate=True) self-checks every executed grid point."""

    @pytest.fixture
    def flaky(self):
        # A dynamics-heavy spec so the validated path exercises faults and availability.
        return ExperimentSpec(
            scenario=ScenarioSpec(
                num_devices=30,
                max_rounds=5,
                seed=3,
                setting="S4",
                availability="bernoulli",
                dropout_rate=0.2,
            ),
            policy="fedavg-random",
            stop_at_convergence=False,
        )

    def test_validated_run_matches_unvalidated(self, flaky):
        # Auditing must be an observer: attaching it never perturbs the trajectory.
        assert run_experiment(flaky, validate=True).summaries == run_experiment(flaky).summaries

    def test_batch_runner_validates_executed_points(self, flaky):
        report = BatchRunner(validate=True).run([flaky])
        assert report.executed == 1
        assert report.results[0].summaries

    def test_validate_threads_through_the_process_executor(self, flaky):
        results = MultiprocessExecutor(max_workers=2).map(
            [flaky, flaky.with_axis("seed", 4)], validate=True
        )
        assert len(results) == 2

    def test_violation_raises_validation_error(self, flaky, monkeypatch):
        # Corrupt the assembled records to prove the hook actually audits them.
        from repro.sim.results import SimulationResult

        original = SimulationResult.append

        def corrupting_append(self, record):
            import dataclasses as dc

            original(self, dc.replace(record, accuracy=2.0))

        monkeypatch.setattr(SimulationResult, "append", corrupting_append)
        with pytest.raises(ValidationError, match="accuracy"):
            run_experiment(flaky, validate=True)
        # The unvalidated path still accepts the tainted run (nothing audits it).
        assert run_experiment(flaky).summaries


def _crashing_spec(base):
    """A spec that passes registry validation but fails inside the worker.

    The tier counts contradict the fleet size, which only surfaces when the
    environment is built — i.e. in the executing process, exactly where an opaque
    ``BrokenProcessPool``/pickle error used to come from.
    """
    return base.with_axis("tier_counts", {"low": 1, "mid": 1, "high": 1})


class TestMultiprocessFailureIsolation:
    """A crashing grid point must not take down the batch — nor hide its traceback."""

    def test_failure_names_the_spec_and_keeps_the_original_traceback(self, base):
        bogus = _crashing_spec(base)
        with pytest.raises(ExecutionError) as excinfo:
            MultiprocessExecutor(max_workers=2).map([base, bogus])
        error = excinfo.value
        assert [failure.spec_hash for failure in error.failures] == [bogus.spec_hash()]
        failure = error.failures[0]
        assert failure.error_type == "ConfigurationError"
        assert "tier_counts" in failure.message
        assert "Traceback" in failure.traceback  # the worker's own, not a pickle artefact
        # The message names the failing hash and how many points survived.
        assert bogus.spec_hash()[:12] in str(error)
        assert "1 completed" in str(error)

    def test_other_specs_keep_running_and_are_reported_completed(self, base):
        bogus = _crashing_spec(base)
        others = [base, base.with_axis("seed", 7)]
        with pytest.raises(ExecutionError) as excinfo:
            MultiprocessExecutor(max_workers=2).map([others[0], bogus, others[1]])
        completed = excinfo.value.completed
        assert sorted(r.spec.spec_hash() for r in completed) == sorted(
            spec.spec_hash() for spec in others
        )

    def test_batch_runner_flushes_completed_points_before_reraising(self, base, tmp_path):
        bogus = _crashing_spec(base)
        store = ArtifactStore(tmp_path / "results.sqlite")
        runner = BatchRunner(executor=MultiprocessExecutor(max_workers=2), store=store)
        with pytest.raises(ExecutionError):
            runner.run([base, bogus])
        assert store.get(base) is not None  # the good point survived the failure
        assert store.get(bogus) is None

    def test_on_result_callback_sees_each_success(self, sweep):
        specs = sweep.expand()
        seen = []
        results = MultiprocessExecutor(max_workers=2).map(specs, on_result=seen.append)
        assert sorted(r.spec.spec_hash() for r in seen) == sorted(
            r.spec.spec_hash() for r in results
        )


class TestKeyboardInterruptFlush:
    """An interrupted sweep must keep its finished points: resumable, not lost."""

    def test_serial_interrupt_flushes_then_reraises_and_resumes(
        self, base, tmp_path, monkeypatch
    ):
        import repro.experiments.runner as runner_module

        other = base.with_axis("seed", 42)
        real = run_experiment
        ran = []

        def interrupt_after_first(spec, validate=False):
            if ran:
                raise KeyboardInterrupt
            ran.append(spec)
            return real(spec, validate=validate)

        monkeypatch.setattr(runner_module, "run_experiment", interrupt_after_first)
        store = ArtifactStore(tmp_path / "results.sqlite")
        with pytest.raises(KeyboardInterrupt):
            BatchRunner(store=store).run([base, other])
        assert store.get(base) is not None  # completed before the interrupt: flushed
        assert store.get(other) is None

        monkeypatch.setattr(runner_module, "run_experiment", real)
        resumed = BatchRunner(store=ArtifactStore(tmp_path / "results.sqlite")).run(
            [base, other]
        )
        assert resumed.cache_hits == 1  # the flushed point is served from cache
        assert resumed.executed == 1


class TestStoreBackendProtocol:
    def test_jsonl_store_satisfies_the_protocol(self, tmp_path):
        # A .jsonl path opens its SQLite sibling, which is a StoreBackend like any other.
        assert isinstance(open_store(tmp_path / "results.jsonl"), StoreBackend)

    def test_any_backend_works_as_the_runner_cache(self, base, dict_store):
        assert isinstance(dict_store, StoreBackend)
        first = BatchRunner(store=dict_store).run([base])
        second = BatchRunner(store=dict_store).run([base])
        assert first.executed == 1 and second.cache_hits == 1


class TestSpecHashAcrossProcesses:
    def test_hash_is_stable_in_a_fresh_interpreter(self, base):
        """The cache key must not depend on interpreter state (e.g. dict order, PYTHONHASHSEED)."""
        import repro

        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        payload = json.dumps(base.to_dict())
        code = (
            "import json, sys\n"
            "from repro.experiments.spec import ExperimentSpec\n"
            "spec = ExperimentSpec.from_dict(json.loads(sys.stdin.read()))\n"
            "print(spec.spec_hash())\n"
        )
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="12345")
        child = subprocess.run(
            [sys.executable, "-c", code],
            input=payload,
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        assert child.stdout.strip() == base.spec_hash()
