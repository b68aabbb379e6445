"""The paper's primary contribution: linear-projection design optimisation.

* :mod:`repro.core.klt` — classical KLT/PCA estimation (paper eqs. 1-4)
  and the reference "KLT then quantise" designs the paper compares against;
* :mod:`repro.core.quantize` — sign-magnitude fixed-point coefficient and
  data quantisation;
* :mod:`repro.core.bayesian` — the Gibbs sampler drawing projection
  vectors from the posterior shaped by the over-clocking prior;
* :mod:`repro.core.objective` — the single objective T combining
  reconstruction MSE and over-clocking error variance (paper eq. 5);
* :mod:`repro.core.pareto` — Pareto extraction and Q-bin candidate
  selection (Alg. 1's survivor scheme);
* :mod:`repro.core.optimizer` — Algorithm 1 end to end;
* :mod:`repro.core.design` — the design records everything else consumes.
"""

from typing import Any

from .._lazy import load_export

_EXPORTS = (
    (".design", ("DesignPoint", "LinearProjectionDesign")),
    (".klt", ("fit_klt", "fit_klt_deflation", "klt_reference_design")),
    (".quantize", (
        "dequantize_magnitudes",
        "quantize_coefficients",
        "quantize_data",
        "QuantizedMatrix",
    )),
    (".bayesian", ("GibbsConfig", "sample_projection_vector", "SampledProjection")),
    (".objective", ("objective_t", "overclocking_variance", "reconstruction_mse")),
    (".pareto", ("pareto_front", "select_q_bins")),
    (".optimizer", ("OptimizerConfig", "OptimizationResult", "optimize_designs")),
)

__all__ = [
    "DesignPoint",
    "LinearProjectionDesign",
    "fit_klt",
    "fit_klt_deflation",
    "klt_reference_design",
    "quantize_coefficients",
    "quantize_data",
    "dequantize_magnitudes",
    "QuantizedMatrix",
    "GibbsConfig",
    "sample_projection_vector",
    "SampledProjection",
    "objective_t",
    "overclocking_variance",
    "reconstruction_mse",
    "pareto_front",
    "select_q_bins",
    "OptimizerConfig",
    "OptimizationResult",
    "optimize_designs",
]


def __getattr__(name: str) -> Any:
    return load_export(__name__, _EXPORTS, name)
