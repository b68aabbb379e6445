"""Experiment drivers regenerating every figure/table of the paper.

Each ``figN``/``tableN`` driver returns a plain-dict result holding the
numeric rows/series the corresponding paper figure plots, and
:mod:`repro.eval.report` renders them as ASCII tables.  The benchmark
suite wraps these drivers one-to-one.
"""

from typing import Any

from .._lazy import load_export

_EXPORTS = (
    (".context", ("ExperimentContext",)),
    (".figures", ("fig1", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11")),
    (".tables", ("runtime_model_table", "table1")),
    (".report", ("render_series", "render_table")),
)

__all__ = [
    "ExperimentContext",
    "fig1",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "table1",
    "runtime_model_table",
    "render_series",
    "render_table",
]


def __getattr__(name: str) -> Any:
    return load_export(__name__, _EXPORTS, name)
