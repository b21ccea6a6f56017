"""Experiment orchestration service: durable jobs, scheduling and an indexed store.

The service turns the simulator from a foreground batch tool into a long-lived system
that many clients can drive concurrently:

* :mod:`repro.service.jobs` — the :class:`Job` model: an
  :class:`~repro.experiments.spec.ExperimentSpec` batch with priority, retry budget,
  timeout, provenance and an enforced ``queued → running → done/failed/cancelled``
  state machine;
* :mod:`repro.service.queue` — a crash-safe on-disk priority queue whose atomic
  rename-based claims and expiry leases let any number of worker processes pull
  safely;
* :mod:`repro.service.scheduler` — the worker pool: dedupes grid points against the
  store by spec hash, enforces per-job timeouts, honours cancellation, retries
  failures and attaches validation reports to failed jobs;
* :mod:`repro.service.store` — the SQLite :class:`ArtifactStore` (and its sharded
  form), the indexed result store behind every cache, plus job artifacts and the
  one-shot import of retired flat-file JSONL stores;
* :mod:`repro.service.events` — the append-only JSONL event log behind
  ``python -m repro watch``, with durable cursors and cross-process seq counters;
* :mod:`repro.service.eventbus` — push-based fan-out over that log, and the one HTTP
  server of ``serve --port``: ``/metrics``, ``/healthz``, the ``/events`` long-poll and
  the ``/events/stream`` SSE feed;
* :mod:`repro.service.webhooks` — signed at-least-once HTTP callbacks with retry,
  backoff and a dead-letter log.

The CLI front-ends are ``python -m repro {serve,submit,status,watch,events,webhooks,cancel}``.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.defaults": (
        "DEFAULT_DRAIN_GRACE_S",
        "DEFAULT_LEASE_S",
        "DEFAULT_POLL_S",
        "DEFAULT_SERVICE_ROOT",
        "DEFAULT_SQLITE_STORE_PATH",
        "SHED_POLICIES",
    ),
    "repro.service.eventbus": (
        "DEFAULT_MAX_SUBSCRIBER_QUEUE",
        "EventBus",
        "ServiceHttpServer",
        "Subscription",
    ),
    "repro.service.events": (
        "EVENT_SCHEMA_VERSION",
        "EVENTS_FILENAME",
        "EventIndex",
        "EventLog",
        "SeqCounter",
        "event_matches",
        "format_event",
        "read_events_since",
        "tail_events",
    ),
    "repro.service.jobs": (
        "JOB_SCHEMA_VERSION",
        "TERMINAL_STATES",
        "Job",
        "JobState",
        "derive_lane",
        "hash_lane",
        "make_job",
        "submit_provenance",
    ),
    "repro.service.queue": (
        "ADMISSION_FILENAME",
        "CLAIM_GRACE_S",
        "AdmissionPolicy",
        "JobQueue",
    ),
    "repro.service.scheduler": ("Scheduler",),
    "repro.service.store": (
        "DEFAULT_STORE_SHARDS",
        "STORE_SCHEMA_VERSION",
        "ArtifactStore",
        "ShardedStore",
        "migrate_jsonl",
        "open_store",
    ),
    "repro.service.webhooks": (
        "DEADLETTER_FILENAME",
        "WEBHOOKS_FILENAME",
        "Webhook",
        "WebhookDispatcher",
        "WebhookRegistry",
        "deliver_once",
        "sign_payload",
        "verify_signature",
    ),
}

__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
