"""Job execution: one stage run on a worker thread, byte-equal to batch.

:func:`execute_job` is the only code path served jobs go through, and it
is a thin adapter over :mod:`repro.stages` — the very functions the
``repro-flow`` CLI calls.  That shared body is what makes the headline
guarantee (server artefacts byte-identical to batch artefacts) true *by
construction*; the tests in ``tests/serve`` then enforce it end to end.

Runs on a plain worker thread (the server dispatches through a bounded
``ThreadPoolExecutor``), so everything here is synchronous.  The
module-level function keeps the dispatch fork-safe by construction — no
bound methods or closures cross the executor boundary.
"""

from __future__ import annotations

import time
from dataclasses import replace
from threading import Event
from typing import Any

from ..circuits.domains import Domain
from ..config import ResilienceSettings, TableISettings, get_resilience_settings
from ..errors import ConfigError, ReproError, ServeError, SweepFailedError
from ..faults.plan import FaultPlan
from ..fabric.device import make_device
from ..obs import runtime as obs
from ..parallel.cache import PlacedDesignCache
from ..stages import (
    ProgressFn,
    characterize_workspace,
    evaluate_workspace,
    fit_area_workspace,
    optimize_workspace,
)
from ..workspace import Workspace
from .jobs import (
    CANCELLED,
    DEGRADED,
    DONE,
    FAILED,
    JobCancelled,
    JobRecord,
)

__all__ = ["execute_job"]

#: FAILED-state exit codes, matching repro-flow's process exit codes.
_EXIT_SWEEP_FAILED = 3
_EXIT_CONFIG = 2
_EXIT_OTHER = 1


def _resilience_from_params(params: dict[str, Any]) -> ResilienceSettings:
    """The job's resilience policy: process-wide settings + spec overrides."""
    settings = get_resilience_settings()
    overrides: dict[str, Any] = {}
    if params.get("shard_timeout") is not None:
        overrides["shard_timeout_s"] = float(params["shard_timeout"])
    if params.get("max_retries") is not None:
        overrides["max_retries"] = int(params["max_retries"])
    if params.get("allow_degraded"):
        overrides["allow_degraded"] = True
    return replace(settings, **overrides) if overrides else settings


def _faults_from_params(params: dict[str, Any]) -> FaultPlan | None:
    raw = params.get("faults")
    if raw is None:
        return None
    if isinstance(raw, str):
        return FaultPlan.from_json(raw)
    if isinstance(raw, dict):
        return FaultPlan.from_dict(raw)
    raise ServeError("job param 'faults' must be a chaos-plan JSON object or string")


def _maybe_initialize(ws: Workspace, params: dict[str, Any]) -> None:
    """Create the workspace when the spec carries an ``init`` block.

    Idempotent (``exist_ok=True``): any number of jobs naming the same
    workspace + init block cooperate instead of racing.
    """
    init = params.get("init")
    if init is None:
        return
    if not isinstance(init, dict):
        raise ServeError("job param 'init' must be an object: {serial, scale}")
    serial = int(init.get("serial", 42))
    scale = float(init.get("scale", 0.05))
    ws.initialize(
        make_device(serial),
        TableISettings().scaled(scale),
        seed=serial,
        exist_ok=True,
    )


def _jobs_param(params: dict[str, Any]) -> int | None:
    raw = params.get("jobs")
    return None if raw is None else int(raw)


def _executor_param(params: dict[str, Any]) -> str | None:
    raw = params.get("executor")
    return None if raw is None else str(raw)


def _run_stage(
    record: JobRecord,
    ws: Workspace,
    cache: PlacedDesignCache,
    progress: ProgressFn,
) -> dict[str, Any]:
    """Dispatch one stage; returns the job's result payload."""
    params = record.spec.params
    kind = record.spec.kind
    if kind == "characterize":
        paths = characterize_workspace(
            ws,
            jobs=_jobs_param(params),
            resilience=_resilience_from_params(params),
            cache=cache,
            faults=_faults_from_params(params),
            progress=progress,
            executor=_executor_param(params),
        )
        return {
            "paths": [str(p) for p in paths],
            "sweep_health": {
                str(wl): health for wl, health in sorted(ws.sweep_health().items())
            },
        }
    if kind == "fit_area":
        model, path = fit_area_workspace(
            ws, n_runs=int(params.get("n_runs", 6)), progress=progress
        )
        return {"path": str(path), "residual_sigma": model.residual_sigma}
    if kind == "optimize":
        result, path = optimize_workspace(
            ws,
            name=str(params.get("name", "run1")),
            beta=float(params.get("beta", 4.0)),
            jobs=_jobs_param(params),
            cache=cache,
            progress=progress,
        )
        return {"path": str(path), "n_designs": len(result.designs)}
    if kind == "evaluate":
        rows = evaluate_workspace(
            ws,
            name=str(params.get("name", "run1")),
            domain=Domain(str(params.get("domain", "actual"))),
            jobs=_jobs_param(params),
            cache=cache,
            progress=progress,
        )
        return {"rows": rows}
    raise ServeError(f"unknown job kind {kind!r}")  # unreachable: spec validates


def execute_job(record: JobRecord, cache: PlacedDesignCache, cancel: Event) -> None:
    """Run one job to a terminal state; never raises.

    The worker-side half of the server: stage execution through
    :mod:`repro.stages` against a :class:`~repro.workspace.Workspace`
    wired to the server's shared warm ``cache``.  Cancellation is
    cooperative — the ``cancel`` event is checked at every progress
    milestone (for characterisation: between word-length sweeps), so a
    cancelled job stops at an artefact boundary and everything already
    archived stays valid.
    """
    started = time.perf_counter()

    def progress(event: dict[str, Any]) -> None:
        if cancel.is_set():
            raise JobCancelled(record.job_id)
        record.progress.append(event)

    with obs.span(
        "serve.job",
        kind=record.spec.kind,
        tenant=record.spec.tenant,
        job_id=record.job_id,
    ):
        try:
            if cancel.is_set():
                raise JobCancelled(record.job_id)
            ws = Workspace(record.spec.workspace, cache=cache)
            _maybe_initialize(ws, record.spec.params)
            record.result = _run_stage(record, ws, cache, progress)
            health = record.result.get("sweep_health")
            degraded = isinstance(health, dict) and any(
                entry.get("status") != "complete" for entry in health.values()
            )
            record.state = DEGRADED if degraded else DONE
        except JobCancelled:
            record.state = CANCELLED
            record.error = "cancelled by tenant"
        except SweepFailedError as exc:
            record.state = FAILED
            record.error = str(exc)
            record.exit_code = _EXIT_SWEEP_FAILED
        except ConfigError as exc:
            record.state = FAILED
            record.error = str(exc)
            record.exit_code = _EXIT_CONFIG
        except ReproError as exc:
            record.state = FAILED
            record.error = str(exc)
            record.exit_code = _EXIT_OTHER
    obs.observe("serve.job.seconds", time.perf_counter() - started)
    obs.counter_add(f"serve.job.{record.state}")
