"""Gate-level netlist substrate.

Everything the paper synthesises — LUT-based generic multipliers, CCMs,
MAC blocks — is generated here as a DAG of 4-input LUT nodes, the same
primitive a Cyclone III logic element provides.  The structural properties
the paper's observations rest on fall out of the construction:

* the most-significant product bits sit at the end of the longest
  carry/sum chains, so they fail first under over-clocking (Sec. III-C);
* multiplicands with few '1' bits excite fewer partial products, so their
  products settle earlier (Fig. 5).
"""

from typing import Any

from .._lazy import load_export

_EXPORTS = (
    (".core", ("CompiledNetlist", "Netlist", "NetlistStats", "bits_from_ints", "ints_from_bits")),
    (".adders", ("add_ripple_carry", "add_ripple_carry_with_const")),
    (".multipliers", (
        "baugh_wooley_multiplier",
        "sign_magnitude_multiplier",
        "unsigned_array_multiplier",
    )),
    (".ccm", ("ccm_multiplier", "csd_digits")),
    (".wallace", ("wallace_tree_multiplier",)),
    (".mac", ("mac_block",)),
    (".generators", ("GENERATORS", "generate")),
)

__all__ = [
    "CompiledNetlist",
    "Netlist",
    "NetlistStats",
    "bits_from_ints",
    "ints_from_bits",
    "add_ripple_carry",
    "add_ripple_carry_with_const",
    "unsigned_array_multiplier",
    "baugh_wooley_multiplier",
    "sign_magnitude_multiplier",
    "ccm_multiplier",
    "csd_digits",
    "wallace_tree_multiplier",
    "mac_block",
    "GENERATORS",
    "generate",
]


def __getattr__(name: str) -> Any:
    return load_export(__name__, _EXPORTS, name)
