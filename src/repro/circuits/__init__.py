"""Projection datapath circuits and the three evaluation domains.

The paper evaluates every design in three domains (Sec. VI):

* **predicted** — what the optimisation framework's own models expect
  (reconstruction MSE on data + error-model variance);
* **simulated** — characterised errors injected into a software execution
  of the fixed-point datapath on the test data;
* **actual** — the datapath run "on the device": every multiplication
  goes through the placed, over-clocked multiplier timing simulation.
"""

from typing import Any

from .._lazy import load_export

_EXPORTS = (
    (".domains", ("Domain",)),
    (".datapath", ("ProjectionDatapath",)),
    (".executor", ("DomainEvaluation", "evaluate_design", "evaluate_domains")),
)

__all__ = [
    "Domain",
    "ProjectionDatapath",
    "DomainEvaluation",
    "evaluate_design",
    "evaluate_domains",
]


def __getattr__(name: str) -> Any:
    return load_export(__name__, _EXPORTS, name)
