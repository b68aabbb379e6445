"""Timing substrate: static analysis and over-clocking simulation.

:mod:`repro.timing.sta` answers "how fast could this placed design go
error-free" (the device's true data-path Fmax, paper Fig. 1's fB bound);
:mod:`repro.timing.simulator` answers "what exactly comes out of the
register when you clock it faster than that" (the error-prone regime the
characterisation step measures).
"""

from typing import Any

from .._lazy import load_export

_EXPORTS = (
    (".sta", ("StaticTimingResult", "static_timing")),
    (".simulator", ("TransitionTimingResult", "simulate_transitions")),
    (".capture", ("CaptureResult", "capture_stream")),
    (".razor", ("RazorConfig", "RazorResult", "razor_execute", "razor_optimal_frequency")),
)

__all__ = [
    "StaticTimingResult",
    "static_timing",
    "TransitionTimingResult",
    "simulate_transitions",
    "CaptureResult",
    "capture_stream",
    "RazorConfig",
    "RazorResult",
    "razor_execute",
    "razor_optimal_frequency",
]


def __getattr__(name: str) -> Any:
    return load_export(__name__, _EXPORTS, name)
