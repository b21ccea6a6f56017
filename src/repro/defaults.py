"""Default paths, timings and choices that the command line shows in its help.

Each value is defined here once.  The module that uses it imports it from here and
keeps its old name (``repro.service.scheduler.DEFAULT_POLL_S`` and so on), so building
the ``python -m repro`` parser reads the same values as the code they describe without
importing the scheduler, the SQLite store, the golden runner or the warehouse.
"""

from __future__ import annotations

from pathlib import Path

# ---------------------------------------------------------------------- service
#: Default on-disk location of the service root (queue + event log).
DEFAULT_SERVICE_ROOT = Path(".repro-service")

#: Default on-disk location of the SQLite store (the service-era default backend).
DEFAULT_SQLITE_STORE_PATH = Path(".repro-results") / "results.sqlite"

#: Default lease duration; workers renew at half this interval while a job runs.
DEFAULT_LEASE_S = 60.0

#: Default idle-poll interval of a worker with an empty queue.
DEFAULT_POLL_S = 0.5

#: How long a graceful drain (SIGTERM/SIGINT) lets an in-flight grid point keep
#: running before it is terminated and the job requeued without spending a retry.
DEFAULT_DRAIN_GRACE_S = 30.0

#: What a saturated queue does with a new submission: refuse it outright, or shed
#: a strictly-lower-priority queued job to make room (refusing when none exists).
SHED_POLICIES = ("reject", "drop-lowest-priority")

# ---------------------------------------------------------------------- validation
#: Default on-disk location of the golden store (relative to the repository root).
DEFAULT_GOLDEN_DIR = Path("goldens")

#: Rounds recorded per preset golden: enough to exercise selection, faults and
#: availability while keeping a full golden-check run well under a CI minute.
GOLDEN_MAX_ROUNDS = 5

# ---------------------------------------------------------------------- analytics
#: Default on-disk location of the warehouse (relative to the working directory).
DEFAULT_WAREHOUSE_ROOT = Path(".repro-warehouse")

#: Supported aggregation names, in their rendered column order.
AGGREGATIONS: tuple[str, ...] = ("mean", "p50", "p95", "sum", "min", "max", "count")
