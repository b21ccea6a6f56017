"""Concurrent-access tests: same-hash writers, claim races and parallel migration.

These run real child processes (not threads) against one store/queue directory — the
exact topology of several ``repro serve`` worker pools sharing a cache — and assert
the two promises the service makes: the store never corrupts, and no job ever runs
twice.
"""

import json
import multiprocessing

import pytest

from legacy_jsonl import append_jsonl
from repro.experiments.runner import run_experiment
from repro.experiments.spec import ExperimentSpec
from repro.service.events import EventLog
from repro.service.jobs import JobState, make_job
from repro.service.queue import JobQueue
from repro.service.scheduler import Scheduler
from repro.service.store import ArtifactStore, open_store
from repro.sim.scenarios import ScenarioSpec

pytestmark = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="these tests fork in-test worker functions into real processes",
)


def _spec(seed=0):
    return ExperimentSpec(
        scenario=ScenarioSpec(num_devices=25, max_rounds=4, seed=seed), policy="fedavg-random"
    )


def _run_procs(targets_and_args):
    processes = [
        multiprocessing.Process(target=target, args=args) for target, args in targets_and_args
    ]
    for process in processes:
        process.start()
    for process in processes:
        process.join(timeout=120)
    assert all(process.exitcode == 0 for process in processes)


class TestSameHashWriters:
    def test_two_processes_writing_the_same_spec_hash(self, tmp_path):
        path = tmp_path / "results.sqlite"
        result = run_experiment(_spec())
        barrier = multiprocessing.Barrier(2)

        def hammer(repeats):
            store = ArtifactStore(path)
            barrier.wait()  # maximise overlap
            for _ in range(repeats):
                store.put(result)

        _run_procs([(hammer, (25,)), (hammer, (25,))])
        store = ArtifactStore(path)
        assert len(store) == 1  # one row, not fifty
        hit = store.get(_spec())
        assert hit is not None and hit.summaries == result.summaries


class TestClaimLease:
    def test_racing_workers_never_double_claim(self, tmp_path):
        queue = JobQueue(tmp_path / "queue")
        ids = [queue.submit(make_job(_spec(seed))) for seed in range(10)]
        claims_log = tmp_path / "claims"
        claims_log.mkdir()
        barrier = multiprocessing.Barrier(3)

        def grab(worker_id):
            queue = JobQueue(tmp_path / "queue")
            barrier.wait()
            while True:
                job = queue.claim(worker_id)
                if job is None:
                    return
                # Record the claim, then complete so the drain terminates.
                (claims_log / f"{job.job_id}-{worker_id}").touch()
                queue.complete(job, JobState.DONE)

        _run_procs([(grab, (f"w{n}",)) for n in range(3)])
        claimed = [entry.name.rsplit("-", 1)[0] for entry in claims_log.iterdir()]
        assert sorted(claimed) == sorted(ids)  # every job claimed exactly once

    def test_two_scheduler_pools_run_each_job_exactly_once(self, tmp_path):
        queue = JobQueue(tmp_path / "queue")
        ids = [queue.submit(make_job(_spec(seed))) for seed in range(6)]
        store_path = tmp_path / "results.sqlite"
        ArtifactStore(store_path)  # pre-create so both pools open the same schema

        def pool(tag):
            scheduler = Scheduler(
                queue=JobQueue(tmp_path / "queue"),
                store=ArtifactStore(store_path),
                events=EventLog(tmp_path / "events.jsonl"),
                poll_s=0.05,
                worker_prefix=tag,
            )
            scheduler.serve(workers=2, drain=True)

        _run_procs([(pool, ("p0",)), (pool, ("p1",))])
        for job_id in ids:
            job = queue.get(job_id)
            assert job.state is JobState.DONE
            assert job.attempts == 1  # claimed by exactly one worker across both pools
        assert len(ArtifactStore(store_path)) == 6


class TestParallelMigration:
    def test_concurrent_jsonl_migration_neither_corrupts_nor_duplicates(self, tmp_path):
        results = [run_experiment(_spec(seed)) for seed in range(4)]
        append_jsonl(tmp_path / "results.jsonl", *results)
        sqlite_path = tmp_path / "results.sqlite"
        barrier = multiprocessing.Barrier(2)

        def migrate():
            barrier.wait()
            store = open_store(sqlite_path)
            assert len(store) == 4

        _run_procs([(migrate, ()), (migrate, ())])
        store = ArtifactStore(sqlite_path)
        assert len(store) == 4
        for result in results:
            hit = store.get(result.spec.spec_hash())
            assert hit is not None and hit.summaries == result.summaries
        # The receipt is informational: concurrent migrators may split the copy
        # between them (per-entry dedup), so any partial count is legitimate — the
        # correctness claim is the store content above, not who copied what.
        receipt = store.get_meta("migrated:results.jsonl")
        assert 0 <= json.loads(receipt)["migrated"] <= 4


class TestFirstOpenRace:
    def test_concurrent_first_opens_of_a_fresh_store_all_succeed(self, tmp_path):
        # Every opener switches the same fresh file to WAL at once; a loser of that race
        # must wait its turn, never fail with "database is locked".  Two openers lose
        # most often, so most trials use two.
        for trial, openers in enumerate([2, 2, 2, 8] * 8):
            path = tmp_path / f"trial-{trial}" / "results.sqlite"
            barrier = multiprocessing.Barrier(openers)

            def open_fresh():
                barrier.wait()
                ArtifactStore(path)

            _run_procs([(open_fresh, ())] * openers)
            assert len(ArtifactStore(path)) == 0
