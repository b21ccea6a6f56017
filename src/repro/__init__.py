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

from repro._lazy import lazy_exports

# Names resolve on first access: ``import repro`` loads none of the layers below.
_EXPORTS = {
    "repro.api": ("build_default_experiment", "run_policy_comparison"),
    "repro.config": ("GlobalParams", "SimulationConfig"),
    "repro.experiments.runner": (
        "BatchRunner",
        "ExperimentResult",
        "MultiprocessExecutor",
        "SerialExecutor",
        "run_experiment",
    ),
    "repro.experiments.spec": ("ExperimentSpec", "Sweep"),
    "repro.service.jobs": ("Job", "make_job"),
    "repro.service.queue": ("JobQueue",),
    "repro.service.scheduler": ("Scheduler",),
    "repro.service.store": ("ArtifactStore", "open_store"),
    "repro.sim.scenarios": ("ScenarioSpec",),
    "repro.version": ("__version__",),
}

__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
