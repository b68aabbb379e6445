"""Shared experiment context.

Several figures consume the same expensive artefacts (device,
characterisation-derived error models, area model, optimised designs).
:class:`ExperimentContext` builds them once per (seed, scale) and caches
them, so a bench session does the heavy work a single time.

``scale`` multiplies the paper's Table-I sample counts; benches default to
a small fraction and EXPERIMENTS.md records the scale each reported number
was produced at.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import TableISettings
from ..core.design import LinearProjectionDesign
from ..core.optimizer import OptimizationResult
from ..fabric.device import FPGADevice, make_device
from ..framework import OptimizationFramework, train_test_split

__all__ = ["ExperimentContext"]

_CONTEXT_CACHE: dict[tuple, "ExperimentContext"] = {}


@dataclass
class ExperimentContext:
    """Everything the figure drivers need, built once.

    Use :meth:`get` to obtain a cached instance.
    """

    seed: int
    scale: float
    settings: TableISettings
    device: FPGADevice
    framework: OptimizationFramework
    x_train: np.ndarray
    x_test: np.ndarray
    _of_results: dict[float, OptimizationResult] = field(default_factory=dict)
    _klt_designs: list[LinearProjectionDesign] | None = None

    @classmethod
    def get(
        cls,
        seed: int = 42,
        scale: float = 0.05,
        device_serial: int | None = None,
    ) -> "ExperimentContext":
        """Build (or fetch) the context for ``(seed, scale)``.

        ``scale`` scales Table I's sample counts; 1.0 is the paper's full
        experiment.
        """
        key = (seed, scale, device_serial)
        if key in _CONTEXT_CACHE:
            return _CONTEXT_CACHE[key]
        settings = TableISettings().scaled(scale)
        device = make_device(device_serial if device_serial is not None else seed)
        x_train, x_test = train_test_split(settings, seed)
        ctx = cls(
            seed=seed,
            scale=scale,
            settings=settings,
            device=device,
            framework=OptimizationFramework(device, settings, seed=seed),
            x_train=x_train,
            x_test=x_test,
        )
        _CONTEXT_CACHE[key] = ctx
        return ctx

    # ------------------------------------------------------------------
    def of_result(self, beta: float | None = None) -> OptimizationResult:
        """Algorithm-1 result for ``beta`` (cached)."""
        b = beta if beta is not None else self.settings.betas[0]
        if b not in self._of_results:
            self._of_results[b] = self.framework.optimize(self.x_train, beta=b)
        return self._of_results[b]

    def klt_designs(self) -> list[LinearProjectionDesign]:
        """KLT baseline designs across the word-length sweep (cached)."""
        if self._klt_designs is None:
            self._klt_designs = self.framework.klt_baselines(self.x_train)
        return self._klt_designs
