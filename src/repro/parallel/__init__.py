"""Performance layer: pluggable sweep executors and the placed-design cache.

Coordinated pieces (see ``docs/performance.md`` and ``docs/distributed.md``):

* :func:`resolve_jobs` / ``REPRO_JOBS`` — one worker-count knob shared by
  the library, the CLIs and the benchmarks (default 1: serial);
* :class:`PlacedDesignCache` — memory + disk memoisation of
  :class:`~repro.synthesis.flow.PlacedDesign` keyed by device identity,
  geometry, anchor and seed; the disk tier is a checksummed
  content-addressed store any number of processes (or hosts sharing the
  directory) can use concurrently;
* :mod:`repro.parallel.engine` — deterministic ``(location, chunk)``
  sharding of characterisation sweeps, bit-identical to the serial path
  at any worker count and executor topology;
* :mod:`repro.parallel.executors` — the pluggable :class:`ShardExecutor`
  interface behind :func:`run_sweep` (``pool`` / ``file-queue``,
  selectable via ``REPRO_EXECUTOR`` or ``--executor``);
* :mod:`repro.parallel.spool` + :mod:`repro.parallel.worker` — the
  file-queue wire: atomic-rename shard leases in a spool directory and
  the stateless ``repro worker`` CLI that drains them;
* :mod:`repro.parallel.retry` — the resilience layer's bookkeeping:
  per-shard attempt histories, quarantine dispositions and the typed
  :class:`SweepOutcome` returned by :func:`run_sweep` (see
  ``docs/resilience.md``);
* :mod:`repro.parallel.sanitize` — the ``REPRO_SANITIZE=1`` runtime
  cache-race detector guarding the shared disk tier (see
  ``docs/static_analysis.md``).
"""

from typing import Any

from .._lazy import load_export

_EXPORTS = (
    (".cache", (
        "REPRO_CACHE_DIR_ENV",
        "CacheStats",
        "PlacedDesignCache",
        "PlacedKey",
        "get_default_cache",
        "multiplier_netlist",
        "set_default_cache",
    )),
    (".engine", ("Shard", "ShardResult", "SweepPlan", "execute_shards", "run_shard", "run_sweep")),
    (".executors", (
        "FileQueueExecutor",
        "PoolExecutor",
        "ShardExecutor",
        "SweepContext",
        "executors_table_markdown",
        "resolve_executor",
    )),
    (".jobs", (
        "EXECUTOR_CATALOG",
        "EXECUTOR_NAMES",
        "REPRO_EXECUTOR_ENV",
        "REPRO_JOBS_ENV",
        "ExecutorInfo",
        "resolve_jobs",
    )),
    (".retry", ("ShardAttempt", "ShardReport", "SweepOutcome", "backoff_delay")),
    (".sanitize", (
        "REPRO_SANITIZE_ENV",
        "CacheSanitizer",
        "SanitizerViolation",
        "read_journal",
        "sanitize_enabled",
    )),
    (".spool", ("WorkerOutcome",)),
    (".worker", ("drain_spool", "worker_main")),
)

__all__ = [
    "EXECUTOR_CATALOG",
    "EXECUTOR_NAMES",
    "REPRO_CACHE_DIR_ENV",
    "REPRO_EXECUTOR_ENV",
    "REPRO_JOBS_ENV",
    "REPRO_SANITIZE_ENV",
    "CacheSanitizer",
    "ExecutorInfo",
    "FileQueueExecutor",
    "PoolExecutor",
    "SanitizerViolation",
    "ShardExecutor",
    "SweepContext",
    "WorkerOutcome",
    "read_journal",
    "sanitize_enabled",
    "CacheStats",
    "PlacedDesignCache",
    "PlacedKey",
    "Shard",
    "ShardAttempt",
    "ShardReport",
    "ShardResult",
    "SweepOutcome",
    "SweepPlan",
    "backoff_delay",
    "drain_spool",
    "execute_shards",
    "executors_table_markdown",
    "get_default_cache",
    "multiplier_netlist",
    "resolve_executor",
    "resolve_jobs",
    "run_shard",
    "run_sweep",
    "set_default_cache",
    "worker_main",
]


def __getattr__(name: str) -> Any:
    return load_export(__name__, _EXPORTS, name)
