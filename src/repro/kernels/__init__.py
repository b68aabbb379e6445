"""Bit-sliced kernel compiler for the LUT-DAG hot path.

This package turns a :class:`~repro.netlist.core.CompiledNetlist` into a
cached :class:`~repro.kernels.plan.ExecutionPlan`: every ≤4-input LUT
truth table is lowered once to a minimal boolean expression
(:mod:`~repro.kernels.lower`), node values are packed 64 samples per
``uint64`` word, and evaluation becomes a short sequence of whole-array
bitwise operations (:mod:`~repro.kernels.execute`).

The kernel is selected process-wide via
:func:`repro.config.get_kernel_mode` (``REPRO_KERNEL={packed,interp}``);
the interpreted path remains the golden reference and the packed kernel
is proven bit-identical to it by the test suite and the
``BENCH_compile`` contract.  See docs/performance.md, "The kernel
compiler".
"""

from typing import Any

from .._lazy import load_export

_EXPORTS = (
    (
        ".execute",
        ("evaluate_packed", "evaluate_tile", "pack_bits", "stream_values", "unpack_plane"),
    ),
    (".lower", ("LoweredLUT", "lower_tt")),
    (".plan", (
        "ExecutionPlan",
        "clear_plan_cache",
        "netlist_fingerprint",
        "plan_cache_size",
        "plan_for",
    )),
)

__all__ = [
    "ExecutionPlan",
    "LoweredLUT",
    "clear_plan_cache",
    "evaluate_packed",
    "evaluate_tile",
    "lower_tt",
    "netlist_fingerprint",
    "pack_bits",
    "plan_cache_size",
    "plan_for",
    "stream_values",
    "unpack_plane",
]


def __getattr__(name: str) -> Any:
    return load_export(__name__, _EXPORTS, name)
