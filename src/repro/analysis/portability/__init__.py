"""Distribution-readiness auditor: static location-transparency proofs.

The third analysis layer next to the noise-floor (``NLxxx``) and the
determinism sanitizer (``DTxxx``): before the ROADMAP's distributed
sweep fabric can ship ``(location, chunk)`` shards to cross-host
workers, the codebase must be *location transparent* — payloads pure
data, cache keys complete, artefacts host-independent, wire schemas
frozen.  The ``DXnnn`` family proves each property statically, over the
same single-parse :class:`~repro.analysis.sanitizer.auditor.ModuleIndex`
the DT audit uses.

* :mod:`~repro.analysis.portability.rules` — the stable ``DXnnn`` rule
  registry and the generated docs table;
* :mod:`~repro.analysis.portability.catalog` — boundary types,
  impure-type tables, cache-key contracts, artefact entry points and
  the DX allowance policy;
* :mod:`~repro.analysis.portability.contracts` — frozen wire-schema
  fingerprints and the drift check behind ``repro audit --contracts``;
* :mod:`~repro.analysis.portability.auditor` — the analysis engine
  (:func:`audit_portability`).

Exposed on the command line as ``repro audit --family dx`` and gated to
zero findings in ``scripts/check.sh``.  Suppressions use the shared
pragma grammar (``# repro: allow[DXnnn] -- reason``) and are policed by
the shared ``DT000`` meta-rule.
"""

from typing import Any

from ..._lazy import load_export

_EXPORTS = (
    (".auditor", ("audit_portability",)),
    (".catalog", (
        "ARTEFACT_ENTRY_POINTS",
        "BOUNDARY_TYPES",
        "CACHE_KEY_CONTRACTS",
        "DX_ALLOWANCES",
        "CacheKeyContract",
    )),
    (".contracts", (
        "CONTRACTS",
        "FROZEN_CONTRACTS",
        "ContractDrift",
        "WireContract",
        "contract_shapes",
        "fingerprint",
        "verify_contracts",
        "wire_contracts_markdown",
    )),
    (".rules", (
        "DX_REGISTRY",
        "DXRule",
        "dx_rule_for_effect",
        "dx_rule_table",
        "dx_rule_table_markdown",
    )),
)

__all__ = [
    "ARTEFACT_ENTRY_POINTS",
    "BOUNDARY_TYPES",
    "CACHE_KEY_CONTRACTS",
    "CONTRACTS",
    "CacheKeyContract",
    "ContractDrift",
    "DXRule",
    "DX_ALLOWANCES",
    "DX_REGISTRY",
    "FROZEN_CONTRACTS",
    "WireContract",
    "audit_portability",
    "contract_shapes",
    "dx_rule_for_effect",
    "dx_rule_table",
    "dx_rule_table_markdown",
    "fingerprint",
    "verify_contracts",
    "wire_contracts_markdown",
]


def __getattr__(name: str) -> Any:
    return load_export(__name__, _EXPORTS, name)
