"""Shared benchmark fixtures.

The figure benches share one :class:`ExperimentContext` at ``BENCH_SCALE``
of the paper's Table-I sample counts (EXPERIMENTS.md records the scale
next to every reported number).  Set ``REPRO_BENCH_SCALE`` to run closer
to the paper's full experiment.
"""

from __future__ import annotations

import os

import pytest

from repro.eval.context import ExperimentContext

#: Fraction of Table I's sample counts used by the benches by default.
BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.05"))
BENCH_SEED = int(os.environ.get("REPRO_BENCH_SEED", "42"))


@pytest.fixture(scope="session")
def ctx():
    return ExperimentContext.get(seed=BENCH_SEED, scale=BENCH_SCALE)


def run_once(benchmark, fn, *args, **kwargs):
    """Run a figure driver exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
