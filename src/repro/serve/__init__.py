"""Characterisation-as-a-service: a multi-tenant job server over the flow.

The batch CLI runs one stage and exits; this package keeps the pipeline
warm and serves it.  A :class:`~repro.serve.server.JobServer` accepts
characterise/fit-area/optimize/evaluate submissions from any number of
tenants, schedules them through a deterministic admission-controlled
queue (:mod:`repro.serve.queue`), executes them on a bounded worker pool
via the shared stage bodies in :mod:`repro.stages`, and places every
design through one warm shared
:class:`~repro.parallel.cache.PlacedDesignCache`.

Headline guarantee, enforced by ``tests/serve``: a job submitted through
the server produces **byte-identical** artefacts to the same run through
``repro-flow``, at any concurrency, under either kernel.

See ``docs/serving.md`` for the API, quota/backpressure and SLO story.
"""

from typing import Any

from .._lazy import load_export

_EXPORTS = (
    (".client", ("ServeClient",)),
    (".jobs", (
        "CANCELLED",
        "DEGRADED",
        "DONE",
        "FAILED",
        "JOB_KINDS",
        "JOB_STATES",
        "JobRecord",
        "JobSpec",
        "QUEUED",
        "RUNNING",
        "TERMINAL_STATES",
        "job_id_for",
    )),
    (".queue", ("AdmissionQueue", "QueueEntry", "REASON_QUEUE_FULL", "REASON_TENANT_QUOTA")),
    (".server", ("JobServer",)),
    (".settings", ("ServeSettings",)),
)

__all__ = [
    "AdmissionQueue",
    "CANCELLED",
    "DEGRADED",
    "DONE",
    "FAILED",
    "JOB_KINDS",
    "JOB_STATES",
    "JobRecord",
    "JobServer",
    "JobSpec",
    "QUEUED",
    "QueueEntry",
    "REASON_QUEUE_FULL",
    "REASON_TENANT_QUOTA",
    "RUNNING",
    "ServeClient",
    "ServeSettings",
    "TERMINAL_STATES",
    "job_id_for",
]


def __getattr__(name: str) -> Any:
    return load_export(__name__, _EXPORTS, name)
