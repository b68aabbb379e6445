"""Shared stage implementations behind ``repro-flow`` and ``repro.serve``.

The batch CLI (:mod:`repro.cli_flow`) and the job server
(:mod:`repro.serve`) must produce *byte-identical* artefacts for the same
workspace and stage — that guarantee is only cheap to keep if both front
ends execute the very same code.  This module is that code: one function
per flow stage, operating on a :class:`~repro.workspace.Workspace`, with
front-end concerns (printing, job states, telemetry export) injected
through a ``progress`` callback instead of being baked in.

Progress events are plain dicts (``{"stage", "event", ...}``) so they can
be printed by the CLI, streamed over a socket by the server, or dropped.
A ``progress`` callback may raise to abort a stage between unit of works
(the server's cancellation path); whatever was already saved stays valid
on disk — every workspace write is atomic.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .characterization.harness import characterize_multiplier
from .circuits.domains import Domain
from .config import ResilienceSettings
from .core.design import LinearProjectionDesign
from .core.optimizer import OptimizationResult
from .errors import ConfigError
from .faults.plan import FaultPlan
from .framework import (
    OptimizationFramework,
    characterization_config,
    fit_flow_area_model,
    train_test_split,
)
from .models.area_model import AreaModel
from .parallel.cache import PlacedDesignCache
from .parallel.jobs import resolve_jobs
from .workspace import Workspace

__all__ = [
    "ProgressFn",
    "characterization_config",
    "characterize_workspace",
    "evaluate_workspace",
    "fit_area_workspace",
    "optimize_workspace",
    "training_data",
]

#: Stage progress callback: receives one plain-dict event per milestone.
ProgressFn = Callable[[dict], None]


def _emit(progress: ProgressFn | None, event: dict) -> None:
    if progress is not None:
        progress(event)


def characterize_workspace(
    ws: Workspace,
    jobs: int | None = None,
    resilience: ResilienceSettings | None = None,
    cache: PlacedDesignCache | None = None,
    faults: FaultPlan | None = None,
    progress: ProgressFn | None = None,
    executor: str | None = None,
) -> list[Path]:
    """Characterise every configured word-length and archive the sweeps.

    Deterministic in the workspace identity (device serial, settings,
    seed): the ``jobs`` worker count, the ``cache`` temperature, the
    ``executor`` topology (``pool``, ``serial`` or ``file-queue``) and
    the calling front end never change the archived bytes.
    ``cache=None`` uses the workspace's own disk-backed cache; a server
    passes its warm shared cache instead.  Returns the archive paths in
    sweep order.
    """
    device = ws.device()
    settings = ws.settings()
    n_jobs = resolve_jobs(jobs)
    placed = cache if cache is not None else ws.placed_cache()
    cfg = characterization_config(settings)
    paths: list[Path] = []
    for wl in settings.coeff_wordlengths:
        _emit(progress, {
            "stage": "characterize",
            "event": "wordlength.start",
            "w_data": settings.input_wordlength,
            "wl": wl,
        })
        result = characterize_multiplier(
            device,
            settings.input_wordlength,
            wl,
            cfg,
            seed=ws.seed(),
            jobs=n_jobs,
            cache=placed,
            resilience=resilience,
            faults=faults,
            executor=executor,
        )
        path = ws.save_characterization(wl, result)
        paths.append(path)
        status = result.outcome.status if result.outcome is not None else "complete"
        quarantined = (
            [list(shard) for shard in result.outcome.quarantined]
            if result.outcome is not None
            else []
        )
        _emit(progress, {
            "stage": "characterize",
            "event": "wordlength.done",
            "wl": wl,
            "path": str(path),
            "status": status,
            "quarantined": quarantined,
        })
    return paths


def fit_area_workspace(
    ws: Workspace,
    n_runs: int = 6,
    progress: ProgressFn | None = None,
) -> tuple[AreaModel, Path]:
    """Fit and archive the LE-cost model from synthesis samples."""
    _emit(progress, {"stage": "fit_area", "event": "fit.start", "n_runs": n_runs})
    model = fit_flow_area_model(ws.device(), ws.settings(), ws.seed(), n_runs)
    path = ws.save_area_model(model)
    _emit(progress, {
        "stage": "fit_area",
        "event": "fit.done",
        "path": str(path),
        "residual_sigma": model.residual_sigma,
    })
    return model, path


def training_data(ws: Workspace) -> tuple[np.ndarray, np.ndarray]:
    """The deterministic (train, test) split derived from the workspace seed."""
    return train_test_split(ws.settings(), ws.seed())


def _archived_framework(
    ws: Workspace,
    jobs: int | None,
    cache: PlacedDesignCache | None,
    need_area_model: bool,
) -> OptimizationFramework:
    """The workspace's framework, refusing artefacts that were never archived.

    A framework with missing error models or area model would rebuild
    them in memory, unsaved, behind the caller's back; the earlier stage
    has to run first instead.
    """
    missing = sorted(
        set(ws.settings().coeff_wordlengths) - set(ws.characterized_wordlengths())
    )
    if missing:
        raise ConfigError(
            f"workspace {ws.root} has no characterisation for word-lengths "
            f"{missing}; run `repro-flow characterize` first"
        )
    if need_area_model and not ws.area_model_path.exists():
        raise ConfigError(
            f"workspace {ws.root} has no area model; run `repro-flow fit-area` first"
        )
    fw = ws.framework(jobs=resolve_jobs(jobs))
    if cache is not None:
        fw.cache = cache
    return fw


def optimize_workspace(
    ws: Workspace,
    name: str,
    beta: float,
    jobs: int | None = None,
    cache: PlacedDesignCache | None = None,
    progress: ProgressFn | None = None,
) -> tuple[OptimizationResult, Path]:
    """Run Algorithm 1 on the workspace's training data; archive the designs."""
    _emit(progress, {"stage": "optimize", "event": "optimize.start", "beta": beta})
    fw = _archived_framework(ws, jobs, cache, need_area_model=True)
    x_train, _ = training_data(ws)
    result = fw.optimize(x_train, beta=beta)
    path = ws.save_design_set(name, result.designs)
    _emit(progress, {
        "stage": "optimize",
        "event": "optimize.done",
        "name": name,
        "n_designs": len(result.designs),
        "path": str(path),
    })
    return result, path


def evaluate_workspace(
    ws: Workspace,
    name: str,
    domain: Domain,
    jobs: int | None = None,
    cache: PlacedDesignCache | None = None,
    progress: ProgressFn | None = None,
) -> list[dict]:
    """Evaluate a stored design set in one domain.

    Returns one row dict per design, sorted by area — the CLI renders
    them as a table, the server ships them back as the job result.
    """
    designs: Sequence[LinearProjectionDesign] = ws.load_design_set(name)
    fw = _archived_framework(ws, jobs, cache, need_area_model=False)
    _, x_test = training_data(ws)
    rows: list[dict] = []
    for d in sorted(designs, key=lambda d: d.area_le or 0):
        _emit(progress, {
            "stage": "evaluate",
            "event": "design.start",
            "wordlengths": list(d.wordlengths),
        })
        ev = fw.evaluate(d, x_test, domain)
        rows.append({
            "wordlengths": list(d.wordlengths),
            "area_le": float(ev.area_le),
            "mse": float(ev.mse),
            "domain": domain.value,
        })
    _emit(progress, {"stage": "evaluate", "event": "evaluate.done", "n_designs": len(rows)})
    return rows
