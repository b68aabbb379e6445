"""Lazy package exports (PEP 562).

Each package ``__init__`` maps its submodules to the public names they
provide and resolves a name on first access through this helper, so
``import repro.<anything>`` imports only the modules that code path
actually uses.  A cold ``repro-flow status`` or pool worker therefore
does not pay for the whole flow, the audit tooling or the serving layer.
"""

from __future__ import annotations

import importlib
import sys
from collections.abc import Sequence
from typing import Any

__all__ = ["load_export"]


def load_export(
    package: str, exports: Sequence[tuple[str, tuple[str, ...]]], name: str
) -> Any:
    """Import and return ``name`` from the submodule of ``package`` that provides it.

    ``exports`` pairs each relative submodule path (``".linter"``) with the
    names it provides.  The value is cached on the package, so the module-level
    ``__getattr__`` calling this runs once per name.  Unknown names raise
    :class:`AttributeError`, as a plain attribute miss would.
    """
    for module, names in exports:
        if name in names:
            value = getattr(importlib.import_module(module, package), name)
            setattr(sys.modules[package], name, value)
            return value
    raise AttributeError(f"module {package!r} has no attribute {name!r}")
