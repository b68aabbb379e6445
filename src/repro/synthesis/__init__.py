"""Mini synthesis flow: place a netlist on a device and report timing/area.

This package plays the role of the vendor tool in the paper's Fig. 2 flow:
it produces (i) a placed, delay-annotated design that the timing simulator
can execute against the *actual* device, and (ii) the conservative reports
(Tool Fmax, LE count) that the paper's methodology deliberately outperforms.
"""

from typing import Any

from .._lazy import load_export

_EXPORTS = (
    (".placer", ("Placement", "place_netlist")),
    (".timing_report", ("ToolTimingReport", "tool_timing_report")),
    (".area_report", ("AreaReport", "area_report")),
    (".flow", ("PlacedDesign", "SynthesisFlow")),
)

__all__ = [
    "Placement",
    "place_netlist",
    "ToolTimingReport",
    "tool_timing_report",
    "AreaReport",
    "area_report",
    "PlacedDesign",
    "SynthesisFlow",
]


def __getattr__(name: str) -> Any:
    return load_export(__name__, _EXPORTS, name)
