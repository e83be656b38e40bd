"""Persistent synthesis service: job queue, result store, batch, API.

The CLI's ``synthesize`` command is one-shot: it rebuilds its
evaluation memo from scratch and throws the explored landscape away on
exit. This package is the long-lived layer that amortizes that work
across requests — the shape a production deployment serving many
workloads through one cached engine needs:

- :mod:`repro.serve.job` — the job model: request, content key
  (same fingerprint scheme as the executor memo), lifecycle record;
- :mod:`repro.serve.store` — persistent content-addressed result
  store; repeated requests replay from disk with zero evaluator calls,
  and an interrupted job's evaluation memo lets its resubmission
  resume;
- :mod:`repro.serve.scheduler` — stdlib worker pool draining a
  FIFO + priority queue through :class:`repro.core.synthesizer.Pimsyn`
  with crash-isolated workers and graceful shutdown;
- :mod:`repro.serve.batch` — YAML/JSON manifests of
  (model x power x config) grids, deduplicated through the store;
- :mod:`repro.serve.api` — JSON API (``POST /jobs``,
  ``GET /jobs/<id>``, ``GET /results/<key>``, ``GET /store/stats``,
  ``GET /scheduler/stats``, ``POST /store/gc``) behind one
  single-event-loop asyncio front end, with per-client quotas and
  bounded-queue backpressure (429 + ``Retry-After``).

Entry points: ``python -m repro serve`` and ``python -m repro batch``.
"""

from repro.serve.api import (
    AsyncSynthesisServer,
    ClientQuotas,
    make_server,
)
from repro.serve.batch import (
    BatchReport,
    BatchRow,
    expand_manifest,
    load_manifest,
    run_batch,
    run_batch_file,
)
from repro.serve.job import (
    JobRecord,
    JobRequest,
    JobState,
    job_content_key,
    result_payload,
)
from repro.serve.scheduler import JobScheduler
from repro.serve.store import (
    GCReport,
    ResultStore,
    StoreStats,
    shard_of,
)

__all__ = [
    "AsyncSynthesisServer",
    "ClientQuotas",
    "make_server",
    "BatchReport",
    "BatchRow",
    "expand_manifest",
    "load_manifest",
    "run_batch",
    "run_batch_file",
    "JobRecord",
    "JobRequest",
    "JobState",
    "job_content_key",
    "result_payload",
    "JobScheduler",
    "GCReport",
    "ResultStore",
    "StoreStats",
    "shard_of",
]
