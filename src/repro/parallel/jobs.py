"""Worker-count resolution and the shard-executor catalogue.

One knob, three sources, in priority order: an explicit ``jobs`` argument
(CLI ``--jobs``), the ``REPRO_JOBS`` environment variable, and a default
of 1 — so serial behaviour is unchanged unless parallelism is asked for.

The executor catalogue lives here rather than in
:mod:`repro.parallel.executors` so ``repro-flow`` can offer the names as
``--executor`` choices without importing the sweep machinery.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from ..errors import ConfigError

__all__ = [
    "EXECUTOR_CATALOG",
    "EXECUTOR_NAMES",
    "REPRO_EXECUTOR_ENV",
    "REPRO_JOBS_ENV",
    "ExecutorInfo",
    "resolve_jobs",
]

#: Environment variable consulted when no explicit ``jobs`` is given.
REPRO_JOBS_ENV = "REPRO_JOBS"


def resolve_jobs(jobs: int | None = None) -> int:
    """Resolve a worker count from an argument or the environment.

    Parameters
    ----------
    jobs:
        Explicit worker count; ``None`` falls back to ``REPRO_JOBS`` and
        then to 1 (serial).

    Raises
    ------
    ConfigError
        If the resolved value is not a positive integer.
    """
    source = "jobs"
    if jobs is None:
        raw = os.environ.get(REPRO_JOBS_ENV)
        if raw is None:
            return 1
        source = REPRO_JOBS_ENV
        try:
            jobs = int(raw)
        except ValueError:
            raise ConfigError(
                f"{REPRO_JOBS_ENV}={raw!r} is not an integer"
            ) from None
    if isinstance(jobs, bool) or not isinstance(jobs, int):
        raise ConfigError(f"{source} must be an integer, got {jobs!r}")
    if jobs < 1:
        raise ConfigError(f"{source} must be >= 1, got {jobs}")
    return jobs


#: Environment variable naming the default executor (``run_sweep``'s
#: ``executor=None``); unset means ``pool``.
REPRO_EXECUTOR_ENV = "REPRO_EXECUTOR"


@dataclass(frozen=True)
class ExecutorInfo:
    """One row of the executor reference (docs generator input)."""

    name: str
    topology: str
    description: str


EXECUTOR_CATALOG: tuple[ExecutorInfo, ...] = (
    ExecutorInfo(
        "pool",
        "one host, N forked processes",
        "Default.  First attempts fan out over a `ProcessPoolExecutor`; "
        "timeouts or a broken pool degrade the sweep to the inline loop. "
        "At `jobs=1` every attempt runs in the inline loop, the reference "
        "the other topologies are byte-diffed against.",
    ),
    ExecutorInfo(
        "file-queue",
        "coordinator + N spawnable `repro worker` processes",
        "Shard descriptors spool to a directory; stateless workers lease "
        "them by atomic rename, share one checksummed placed-design "
        "cache, and write outcome sidecars.  Stale leases (killed or "
        "stalled workers) are requeued; a vanished fleet degrades to the "
        "inline loop.",
    ),
)

EXECUTOR_NAMES: tuple[str, ...] = tuple(info.name for info in EXECUTOR_CATALOG)
