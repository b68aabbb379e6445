"""Netlist static analysis: a pass-based linter over netlist DAGs.

The subsystem guards the characterisation/optimisation pipeline against
structurally unsound generated netlists (paper Fig. 2: every design the
framework characterises or places passes through here first).  It offers:

* :func:`lint_netlist` — run all passes, get a typed
  :class:`LintReport` of severity-ranked :class:`Diagnostic` findings;
* :func:`check_netlist` — the gate form: raise
  :class:`~repro.errors.LintError` on findings at/above the threshold;
* :class:`LintConfig` — rule suppression, severity overrides, budgets;
* the rule registry in :mod:`repro.analysis.passes` (stable ``NLxxx``
  IDs, catalogued in ``docs/static_analysis.md``).

The gate is wired into :meth:`repro.synthesis.flow.SynthesisFlow.run`
(on by default) and :func:`repro.netlist.generators.generate` (behind
``repro.config.AnalysisSettings.lint_generated``), and is exposed on the
command line as ``repro lint``.

On top of the structural layer sits the word-level semantic layer:

* :mod:`repro.analysis.dataflow` — known-bits/range abstract
  interpretation (:func:`analyze_dataflow`), feeding the ``WL0xx`` lint
  rules;
* :mod:`repro.analysis.equivalence` — :func:`prove_multiplier`
  certificates against golden integer arithmetic;
* :mod:`repro.analysis.sensitization` — false-path-aware STA and the
  per-coefficient timing profiles consumed by
  :meth:`repro.models.prior.CoefficientPrior.from_static_profile`;

exposed on the command line as ``repro analyze``.

Orthogonal to both: :mod:`repro.analysis.sanitizer` audits the repo's
*own Python source* (not netlists) for determinism and concurrency
hazards — the ``DTnnn`` rules behind ``repro audit`` — and
:mod:`repro.analysis.portability` extends the same machinery with the
``DXnnn`` location-transparency rules and frozen wire-schema contracts
(``repro audit --family dx`` / ``--contracts``).
"""

from typing import Any

from .._lazy import load_export

_EXPORTS = (
    (".context", ("AnalysisContext",)),
    (".dataflow", (
        "BIT_ONE",
        "BIT_TOP",
        "BIT_ZERO",
        "DataflowResult",
        "IntRange",
        "ProbeReport",
        "analyze_dataflow",
        "probe_dataflow",
    )),
    (".diagnostics", ("Diagnostic", "LintReport", "Severity")),
    (".equivalence", ("EquivalenceCertificate", "prove_multiplier", "prove_multiplier_family")),
    (".linter", ("LintConfig", "LintWarning", "check_netlist", "lint_netlist")),
    (".passes", ("REGISTRY", "Finding", "LintRule", "rule_table", "rule_table_markdown")),
    (".portability", (
        "DX_REGISTRY",
        "DXRule",
        "audit_portability",
        "dx_rule_table_markdown",
        "verify_contracts",
        "wire_contracts_markdown",
    )),
    (".sanitizer", (
        "AuditFinding",
        "AuditReport",
        "DT_REGISTRY",
        "DTRule",
        "ModuleIndex",
        "audit_paths",
        "build_module_index",
        "dt_rule_table_markdown",
        "effect_catalogue_markdown",
    )),
    (".sensitization", (
        "CoefficientTimingProfile",
        "agreement_report",
        "coefficient_timing_profile",
        "sensitized_sta",
    )),
)

__all__ = [
    "AnalysisContext",
    "Diagnostic",
    "LintReport",
    "Severity",
    "LintConfig",
    "LintWarning",
    "check_netlist",
    "lint_netlist",
    "REGISTRY",
    "Finding",
    "LintRule",
    "rule_table",
    "rule_table_markdown",
    "BIT_ZERO",
    "BIT_ONE",
    "BIT_TOP",
    "IntRange",
    "DataflowResult",
    "analyze_dataflow",
    "ProbeReport",
    "probe_dataflow",
    "EquivalenceCertificate",
    "prove_multiplier",
    "prove_multiplier_family",
    "CoefficientTimingProfile",
    "sensitized_sta",
    "coefficient_timing_profile",
    "agreement_report",
    "AuditFinding",
    "AuditReport",
    "DTRule",
    "DT_REGISTRY",
    "DXRule",
    "DX_REGISTRY",
    "ModuleIndex",
    "audit_paths",
    "audit_portability",
    "build_module_index",
    "dt_rule_table_markdown",
    "dx_rule_table_markdown",
    "effect_catalogue_markdown",
    "verify_contracts",
    "wire_contracts_markdown",
]


def __getattr__(name: str) -> Any:
    return load_export(__name__, _EXPORTS, name)
