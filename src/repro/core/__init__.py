"""AutoFL: the paper's primary contribution.

A Q-learning agent running on the aggregation server that, every round, selects the K
participant devices and each participant's execution target (CPU DVFS step or GPU) to
maximise energy efficiency while preserving convergence and accuracy (paper Section 4).
Baseline selection policies (random / power / performance / static clusters) and the two
oracle policies (``Oparticipant``, ``OFL``) used as comparison points also live here.
"""

from repro.core.actions import ActionCatalog, IDLE_ACTION
from repro.core.agent import QLearningConfig
from repro.core.controller import AutoFLPolicy
from repro.core.dbscan import DBSCAN1D, derive_bins
from repro.core.oracle import OracleFLPolicy, OracleParticipantPolicy
from repro.core.reward import RewardCalculator, RewardWeights
from repro.core.selection import (
    Policy,
    PerformancePolicy,
    PowerPolicy,
    RandomPolicy,
    StaticClusterPolicy,
    make_policy,
)
from repro.core.state import GlobalState, LocalState, StateEncoder

__all__ = [
    "ActionCatalog",
    "AutoFLPolicy",
    "DBSCAN1D",
    "GlobalState",
    "IDLE_ACTION",
    "LocalState",
    "OracleFLPolicy",
    "OracleParticipantPolicy",
    "PerformancePolicy",
    "Policy",
    "PowerPolicy",
    "QLearningConfig",
    "RandomPolicy",
    "RewardCalculator",
    "RewardWeights",
    "StateEncoder",
    "StaticClusterPolicy",
    "derive_bins",
    "make_policy",
]
