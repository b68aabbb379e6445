"""Lint-style audit: no dataclass shares a mutable default between instances.

A shared mutable default is the classic Python aliasing bug: one instance
mutates state that silently belongs to every instance.  ``dataclasses``
rejects plain ``list``/``dict``/``set`` defaults at class-creation time,
but NOT mutable values smuggled in via ``field(default=...)`` or mutable
types it does not recognise (``np.ndarray``, user classes).  This test
walks every module under :mod:`repro` and enforces isolation mechanically
so a regression cannot land unnoticed.
"""

import dataclasses
import importlib
import pkgutil

import numpy as np
import pytest

import repro

#: Types whose sharing across instances is an aliasing hazard.
_MUTABLE_TYPES = (list, dict, set, bytearray, np.ndarray)


def _walk_dataclasses():
    """Every dataclass defined in the repro package, with its module."""
    seen = set()
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        module = importlib.import_module(info.name)
        for obj in vars(module).values():
            if (
                isinstance(obj, type)
                and dataclasses.is_dataclass(obj)
                and obj.__module__ == info.name
                and obj not in seen
            ):
                seen.add(obj)
                yield obj


ALL_DATACLASSES = sorted(_walk_dataclasses(), key=lambda c: f"{c.__module__}.{c.__qualname__}")


def test_the_walk_finds_the_known_config_classes():
    names = {c.__qualname__ for c in ALL_DATACLASSES}
    # Canary: if the walk silently broke, these would vanish and every
    # other test here would pass vacuously.
    assert {"TableISettings", "ResilienceSettings", "FaultSpec", "Shard"} <= names


@pytest.mark.parametrize(
    "cls", ALL_DATACLASSES, ids=lambda c: f"{c.__module__}.{c.__qualname__}"
)
def test_no_directly_mutable_field_default(cls):
    for f in dataclasses.fields(cls):
        if f.default is not dataclasses.MISSING:
            assert not isinstance(f.default, _MUTABLE_TYPES), (
                f"{cls.__qualname__}.{f.name} has a mutable default "
                f"({type(f.default).__name__}) shared by every instance; "
                f"use field(default_factory=...)"
            )


def _constructible(cls):
    try:
        cls(), cls()
    except Exception:
        return False
    return True


#: The dataclasses whose every field has a default, chosen at collection
#: time so classes that need arguments are not collected as skips.
CONSTRUCTIBLE_DATACLASSES = [c for c in ALL_DATACLASSES if _constructible(c)]


def test_some_dataclasses_are_no_arg_constructible():
    # Canary for the parametrisation below, like the walk canary above.
    names = {c.__qualname__ for c in CONSTRUCTIBLE_DATACLASSES}
    assert {"TableISettings", "ResilienceSettings"} <= names


@pytest.mark.parametrize(
    "cls", CONSTRUCTIBLE_DATACLASSES, ids=lambda c: f"{c.__module__}.{c.__qualname__}"
)
def test_factory_fields_are_isolated_per_instance(cls):
    """Two no-arg instances must not alias any mutable field value."""
    a, b = cls(), cls()
    for f in dataclasses.fields(cls):
        va, vb = getattr(a, f.name, None), getattr(b, f.name, None)
        if isinstance(va, _MUTABLE_TYPES):
            assert va is not vb, (
                f"{cls.__qualname__}.{f.name}: both instances hold the "
                f"same {type(va).__name__} object — mutation on one leaks "
                f"into the other"
            )
