"""Behavioural FPGA fabric model (the paper's device substrate).

This package stands in for the physical Cyclone III device of the paper: a
rectangular grid of logic elements whose delays carry device-specific
process variation, a routing-delay model, operating-condition scaling, and
clock generation (PLL + jitter).

The key property the rest of the library relies on is that *two devices
(seeds) differ* and *two locations on one device differ* — which is exactly
what makes per-device, per-location characterisation (paper Sec. III)
worthwhile.
"""

from typing import Any

from .._lazy import load_export

_EXPORTS = (
    (".conditions", ("OperatingConditions",)),
    (".device", ("CYCLONE_III_3C16", "DeviceFamily", "FPGADevice", "make_device")),
    (".jitter", ("JitterModel",)),
    (".pll", ("PLL", "PLLConfig")),
    (".routing", ("RoutingModel",)),
    (".variation", ("VariationConfig", "VariationField", "generate_variation_field")),
)

__all__ = [
    "CYCLONE_III_3C16",
    "DeviceFamily",
    "FPGADevice",
    "make_device",
    "OperatingConditions",
    "JitterModel",
    "PLL",
    "PLLConfig",
    "RoutingModel",
    "VariationConfig",
    "VariationField",
    "generate_variation_field",
]


def __getattr__(name: str) -> Any:
    return load_export(__name__, _EXPORTS, name)
