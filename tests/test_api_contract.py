"""API-contract tests: every public name is real and importable.

Guards against the usual bit-rot failure modes of a library this size:
``__all__`` entries that no longer exist, subpackages that fail to import,
and documented CLI experiments that the dispatcher does not know.
"""

import importlib
import pkgutil

import pytest

import repro

SUBMODULES = [
    "repro.config",
    "repro.errors",
    "repro.rng",
    "repro.datasets",
    "repro.io",
    "repro.cli",
    "repro.framework",
    "repro.fabric",
    "repro.netlist",
    "repro.timing",
    "repro.synthesis",
    "repro.characterization",
    "repro.models",
    "repro.core",
    "repro.circuits",
    "repro.dsp",
    "repro.eval",
]


class TestImports:
    @pytest.mark.parametrize("name", SUBMODULES)
    def test_submodule_imports(self, name):
        importlib.import_module(name)

    def test_every_module_in_package_imports(self):
        failures = []
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
            try:
                importlib.import_module(info.name)
            except Exception as exc:  # pragma: no cover - report below
                failures.append((info.name, exc))
        assert not failures, failures

    @pytest.mark.parametrize("name", SUBMODULES)
    def test_all_entries_exist(self, name):
        mod = importlib.import_module(name)
        for entry in getattr(mod, "__all__", []):
            assert hasattr(mod, entry), f"{name}.__all__ lists missing {entry!r}"

    def test_every_package_export_resolves(self):
        # Package __init__s resolve their exports lazily (repro/_lazy.py), so
        # a wrong submodule in an _EXPORTS table only fails on first access.
        missing = []
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
            if not info.ispkg:
                continue
            mod = importlib.import_module(info.name)
            names = set(getattr(mod, "__all__", []))
            names.update(n for _, group in getattr(mod, "_EXPORTS", ()) for n in group)
            missing += [f"{info.name}.{n}" for n in sorted(names) if not hasattr(mod, n)]
        assert not missing, missing

    def test_top_level_all(self):
        for entry in repro.__all__:
            assert hasattr(repro, entry)


class TestCliContract:
    def test_cli_knows_every_figure_driver(self):
        from repro.cli import _FIGURES
        from repro.eval import figures

        for name in figures.__all__:
            assert name in _FIGURES, f"CLI missing driver {name!r}"

    def test_version_string(self):
        assert repro.__version__.count(".") == 2
