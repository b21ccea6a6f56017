"""Reproduction of *AutoFL: Enabling Heterogeneity-Aware Energy Efficient Federated Learning*.

The package is organised as a set of substrates (devices, network, interference, data,
neural networks, federated learning, simulator) plus the paper's primary contribution — the
AutoFL reinforcement-learning controller — in :mod:`repro.core`.  Experiments are
declarative: an :class:`ExperimentSpec` names a point in the paper's evaluation space, a
:class:`Sweep` expands cartesian grids over any axis, and a :class:`BatchRunner` executes
them with spec-hash caching (also exposed as the ``python -m repro`` CLI).  The
orchestration service (:mod:`repro.service`) adds a durable job queue, a lease-based
scheduler and a shared SQLite-indexed result store so many worker pools can drive the
simulator concurrently (``python -m repro {submit,serve,status,watch,cancel}``).

Quickstart
----------
>>> from repro import build_default_experiment
>>> result = build_default_experiment(policy="autofl", rounds=30).run()
>>> result.summary()  # doctest: +SKIP
"""

from repro.api import build_default_experiment, run_policy_comparison
from repro.config import GlobalParams, SimulationConfig
from repro.experiments.runner import (
    BatchRunner,
    ExperimentResult,
    MultiprocessExecutor,
    SerialExecutor,
    run_experiment,
)
from repro.experiments.spec import ExperimentSpec, Sweep
from repro.service import ArtifactStore, Job, JobQueue, Scheduler, make_job, open_store
from repro.sim.scenarios import ScenarioSpec
from repro.version import __version__

__all__ = [
    "__version__",
    "ArtifactStore",
    "BatchRunner",
    "ExperimentResult",
    "ExperimentSpec",
    "GlobalParams",
    "Job",
    "JobQueue",
    "MultiprocessExecutor",
    "ScenarioSpec",
    "Scheduler",
    "SerialExecutor",
    "SimulationConfig",
    "Sweep",
    "build_default_experiment",
    "make_job",
    "open_store",
    "run_experiment",
    "run_policy_comparison",
]
