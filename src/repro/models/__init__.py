"""Analytical models distilled from characterisation and synthesis data.

* :mod:`repro.models.error_model` — the E(m, f) over-clocking error
  variance structure (paper Fig. 5, Sec. V-B1);
* :mod:`repro.models.area_model` — LE cost vs coefficient word-length
  (paper Figs. 6 and 9, Sec. V-B2);
* :mod:`repro.models.prior` — the coefficient prior
  ``g(E) = cE (1 + E)^-beta`` (paper eq. 6, Fig. 7);
* :mod:`repro.models.runtime` — the optimisation-framework run-time model
  (paper eqs. 7-8, Sec. VI-E).
"""

from typing import Any

from .._lazy import load_export

_EXPORTS = (
    (".error_model", ("ErrorModel", "ErrorModelSet", "build_error_model")),
    (".area_model", ("AreaModel", "AreaSample", "fit_area_model", "collect_area_samples")),
    (".prior", ("CoefficientPrior", "prior_over_magnitudes")),
    (".runtime", ("RuntimeModel", "predict_runtime_seconds")),
)

__all__ = [
    "ErrorModel",
    "ErrorModelSet",
    "build_error_model",
    "AreaModel",
    "AreaSample",
    "fit_area_model",
    "collect_area_samples",
    "CoefficientPrior",
    "prior_over_magnitudes",
    "RuntimeModel",
    "predict_runtime_seconds",
]


def __getattr__(name: str) -> Any:
    return load_export(__name__, _EXPORTS, name)
