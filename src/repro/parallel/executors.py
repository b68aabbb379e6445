"""Pluggable shard executors: *where* a sweep's first attempts run.

:func:`repro.parallel.engine.run_sweep` splits execution into a
first-attempt pass and an inline retry loop.  The retry loop — backoff,
quarantine, DEGRADED bookkeeping — always runs in the parent and is
identical for every topology; only the first-attempt pass is pluggable,
through the :class:`ShardExecutor` interface:

``pool``
    The default: fork a :class:`~concurrent.futures.ProcessPoolExecutor`
    and dispatch shards to it (no-op at ``jobs=1``, where the inline
    loop — the reference path — performs the first attempts itself).
``file-queue``
    A coordinator that spools DX009-frozen shard descriptors into a
    directory (:mod:`repro.parallel.spool`) and spawns N stateless
    ``repro worker`` processes that lease shards via atomic rename,
    share one checksummed content-addressed placed-design cache, and
    write outcome sidecars the coordinator folds back into the retry
    ledger.  Workers are separately spawnable and host-agnostic: any
    process that can see the spool directory can drain it.

The project invariant holds across both: shard numerics are pure in
``(device, plan, shard)`` with pre-drawn stimulus, so artefacts are
byte-identical for any executor, worker count, or worker join/leave
timing — the executor only moves wall-clock around.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from abc import ABC, abstractmethod
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from ..config import ResilienceSettings, get_kernel_mode
from ..errors import ConfigError
from ..fabric.device import FPGADevice
from ..faults.injector import FaultInjector
from ..faults.plan import FaultPlan
from ..obs import runtime as obs
from . import spool
from .cache import PlacedDesignCache
from .engine import (
    Shard,
    SweepPlan,
    _harvest_future,
    _init_worker,
    _run_shard_in_worker,
    _SweepState,
)
from .jobs import EXECUTOR_CATALOG, EXECUTOR_NAMES, REPRO_EXECUTOR_ENV
from .retry import ATTEMPT_ERROR, ATTEMPT_OK

__all__ = [
    "FileQueueExecutor",
    "PoolExecutor",
    "ShardExecutor",
    "SweepContext",
    "executors_table_markdown",
    "resolve_executor",
]

@dataclass
class SweepContext:
    """Everything an executor needs for one first-attempt pass.

    Assembled by :func:`~repro.parallel.engine.run_sweep`; executors
    record attempts into ``state`` (via ``record_at``/``accept_at``) and
    must never raise for per-shard failures — an unrecorded shard simply
    falls through to the inline loop, a recorded failure is retried.
    """

    device: FPGADevice
    plan: SweepPlan
    shards: list[Shard]
    jobs: int
    cache: PlacedDesignCache
    settings: ResilienceSettings
    faults: FaultPlan | None
    injector: FaultInjector | None
    state: _SweepState


class ShardExecutor(ABC):
    """Strategy for the first-attempt pass of a sweep.

    Implementations execute (some or all) shards exactly once each,
    recording outcomes into ``ctx.state``.  Retries never happen here:
    the engine's inline loop owns every attempt after the first, so all
    executors share one backoff/quarantine/DEGRADED policy.
    """

    name = "abstract"

    @abstractmethod
    def run_pass(self, ctx: SweepContext) -> None:
        """Run the first attempt of every shard this executor covers."""


class PoolExecutor(ShardExecutor):
    """One host, N forked processes (the historical ``jobs > 1`` path).

    Dispatches every shard to a :class:`ProcessPoolExecutor` whose
    workers hold the sweep-invariant state from the pool initializer.  A
    hung shard (timeout) or a broken pool abandons the pass: finished
    futures are harvested, everything else falls through to the inline
    loop — the sweep degrades to serial rather than aborting.
    """

    name = "pool"

    def run_pass(self, ctx: SweepContext) -> None:
        n = len(ctx.shards)
        if ctx.jobs <= 1 or n <= 1:
            return  # the inline loop is strictly better at this size
        state = ctx.state
        with obs.span("sweep.pool", jobs=min(ctx.jobs, n), shards=n) as pool_span:
            directory = (
                str(ctx.cache.directory) if ctx.cache.directory is not None else None
            )
            pool = ProcessPoolExecutor(
                max_workers=min(ctx.jobs, n),
                initializer=_init_worker,
                initargs=(ctx.device, ctx.plan, directory, ctx.faults),
            )
            abandon = None
            try:
                futures = [
                    pool.submit(_run_shard_in_worker, shard, 0)
                    for shard in ctx.shards
                ]
                for i, future in enumerate(futures):
                    abandon = _harvest_future(
                        state, ctx.plan, ctx.shards, i, future,
                        ctx.settings.shard_timeout_s,
                    )
                    if abandon is not None:
                        break
                if abandon is not None:
                    state.fallback_inline = True
                    state.pool_broken = abandon == "broken"
                    # Harvest whatever already finished without waiting on the
                    # sick pool; everything else retries inline.
                    for j, future in enumerate(futures):
                        if not state.attempts[j] and future.done():
                            _harvest_future(state, ctx.plan, ctx.shards, j, future, 0)
            finally:
                # wait=True would block forever on a hung worker; leaked
                # workers either finish their (finite) injected hang or die
                # with the parent.
                pool.shutdown(wait=not state.fallback_inline, cancel_futures=True)
            pool_span.set(abandoned=abandon or "")


class FileQueueExecutor(ShardExecutor):
    """Coordinator + N spawnable ``repro worker`` processes over a spool.

    The coordinator materialises a spool directory
    (:mod:`repro.parallel.spool`), spawns ``workers`` stateless worker
    processes against it, then polls: folding worker outcome sidecars
    into the sweep state as they appear and requeueing leases that
    outlive ``lease_timeout_s`` (a worker killed mid-shard leaves its
    lease behind; the bumped generation lets another worker redo the
    shard without re-firing ``times``-bounded chaos faults).  If the
    whole fleet exits with shards unaccounted for, those shards get a
    recorded error attempt and the inline retry loop finishes them — the
    same degrade-to-serial guarantee the pool gives.

    Parameters
    ----------
    workers:
        Worker processes to spawn; ``None`` uses the sweep's ``jobs``.
    spool_dir:
        Spool location; ``None`` creates (and afterwards removes) a
        temporary directory.  Pass a path to keep the spool for
        inspection or to point externally-launched workers at it.
    lease_timeout_s:
        Age at which a lease is presumed dead and requeued; ``None``
        uses the sweep's ``shard_timeout_s`` (and 30 s when that is
        unset).
    poll_s:
        Coordinator poll interval.
    """

    name = "file-queue"

    def __init__(
        self,
        workers: int | None = None,
        spool_dir: str | Path | None = None,
        lease_timeout_s: float | None = None,
        poll_s: float = 0.05,
    ) -> None:
        self.workers = workers
        self.spool_dir = spool_dir
        self.lease_timeout_s = lease_timeout_s
        self.poll_s = poll_s
        self.last_stats: dict[str, int] = {}

    def run_pass(self, ctx: SweepContext) -> None:
        n = len(ctx.shards)
        if n == 0:
            return
        workers = self.workers if self.workers is not None else ctx.jobs
        workers = max(1, min(int(workers), n))
        with obs.span(
            "sweep.executor", executor=self.name, workers=workers, shards=n
        ) as span:
            created = self.spool_dir is None
            root = (
                Path(tempfile.mkdtemp(prefix="repro-spool-"))
                if created
                else Path(self.spool_dir)  # type: ignore[arg-type]
            )
            try:
                stats = self._coordinate(ctx, root, workers)
            finally:
                if created:
                    shutil.rmtree(root, ignore_errors=True)
            span.set(**stats)
            self.last_stats = stats

    # ------------------------------------------------------------------
    def _coordinate(
        self, ctx: SweepContext, root: Path, workers: int
    ) -> dict[str, int]:
        n = len(ctx.shards)
        cache_dir = (
            str(ctx.cache.directory) if ctx.cache.directory is not None
            else str(root / "cache")  # memory-only parent: workers still share
        )
        spool.create_spool(
            root, ctx.device, ctx.plan, ctx.shards,
            cache_dir=cache_dir, faults=ctx.faults, kernel=get_kernel_mode(),
        )
        obs.counter_add("executor.shards.dispatched", n)
        timeout = self.lease_timeout_s
        if timeout is None:
            timeout = ctx.settings.shard_timeout_s
        if timeout is None:
            timeout = 30.0
        procs = [self._spawn_worker(root, i) for i in range(workers)]
        obs.counter_add("executor.workers.spawned", len(procs))
        folded: set[int] = set()
        lease_first_seen: dict[str, float] = {}
        requeued = 0
        try:
            while True:
                self._fold_new_outcomes(ctx, root, folded)
                if len(folded) >= n:
                    break
                requeued += self._requeue_stale(root, lease_first_seen, timeout)
                if all(proc.poll() is not None for proc in procs):
                    # Fleet gone.  Harvest stragglers' sidecars, then record
                    # an error attempt for anything unaccounted — the inline
                    # retry loop finishes those shards in the parent.
                    self._fold_new_outcomes(ctx, root, folded)
                    for i in range(n):
                        if i not in folded:
                            ctx.state.record_at(
                                i, ATTEMPT_ERROR, 0.0,
                                "worker fleet exited before executing shard",
                            )
                            folded.add(i)
                    ctx.state.fallback_inline = True
                    break
                time.sleep(self.poll_s)
        finally:
            spool.request_stop(root)
            self._reap(procs)
        return {"workers": workers, "requeued": requeued, "folded": len(folded)}

    def _spawn_worker(self, root: Path, index: int) -> "subprocess.Popen[bytes]":
        """Launch one ``repro worker`` child against the spool.

        The exact command any operator could run by hand on another host
        sharing the directory — the coordinator has no private channel to
        its workers beyond the spool itself.  The child's ``PYTHONPATH``
        is prefixed with the directory this very ``repro`` package was
        imported from, so a source checkout that is on ``sys.path`` but
        not installed (benchmarks, ``PYTHONPATH``-less shells) still
        spawns importable workers instead of a silently dead fleet.
        """
        log_dir = root / "workers"
        log_dir.mkdir(exist_ok=True)
        pkg_root = str(Path(__file__).resolve().parents[2])
        env = os.environ.copy()
        current = env.get("PYTHONPATH")
        if current is None:
            env["PYTHONPATH"] = pkg_root
        elif pkg_root not in current.split(os.pathsep):
            env["PYTHONPATH"] = pkg_root + os.pathsep + current
        with (log_dir / f"w{index}.log").open("ab") as log:
            return subprocess.Popen(
                [
                    sys.executable, "-m", "repro.cli", "worker", str(root),
                    "--worker-id", f"w{index}",
                ],
                stdout=log,
                stderr=subprocess.STDOUT,
                env=env,
            )

    def _fold_new_outcomes(
        self, ctx: SweepContext, root: Path, folded: set[int]
    ) -> None:
        """Fold unseen worker sidecars into the sweep state.

        At most one outcome per shard counts toward the first-attempt
        pass: a requeue can race a slow-but-alive worker into executing a
        shard twice, but both produce bit-identical results, so the first
        sidecar observed wins and the duplicate is ignored.
        """
        for outcome in spool.read_outcomes(root):
            if outcome.index in folded or not 0 <= outcome.index < len(ctx.shards):
                continue
            folded.add(outcome.index)
            if outcome.outcome == ATTEMPT_OK:
                result = spool.read_result(root, outcome.index)
                if result is None:
                    ctx.state.record_at(
                        outcome.index, ATTEMPT_ERROR, outcome.latency_s,
                        "worker reported ok but wrote no result",
                    )
                else:
                    ctx.state.accept_at(
                        ctx.plan, ctx.shards, outcome.index, result,
                        outcome.latency_s,
                    )
            else:
                ctx.state.record_at(
                    outcome.index, ATTEMPT_ERROR, outcome.latency_s,
                    outcome.detail or "worker reported failure",
                )

    def _requeue_stale(
        self, root: Path, first_seen: dict[str, float], timeout: float
    ) -> int:
        """Requeue leases older (by coordinator clock) than the timeout."""
        now = time.perf_counter()
        current = spool.leased_names(root)
        requeued = 0
        for name in current:
            seen = first_seen.setdefault(name, now)
            if now - seen > timeout:
                first_seen.pop(name, None)
                if spool.requeue_lease(root, name) is not None:
                    requeued += 1
                    obs.counter_add("executor.leases.requeued")
        for name in list(first_seen):
            if name not in current:  # finished or already requeued
                first_seen.pop(name, None)
        return requeued

    def _reap(self, procs: list["subprocess.Popen[bytes]"]) -> None:
        """Collect workers; escalate terminate → kill on the unresponsive."""
        for proc in procs:
            try:
                proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                proc.terminate()
                try:
                    proc.wait(timeout=2.0)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()


# ----------------------------------------------------------------------
# Registry.

def resolve_executor(spec: "str | ShardExecutor | None") -> ShardExecutor:
    """The executor to use for a sweep.

    ``None`` consults ``REPRO_EXECUTOR`` and falls back to ``pool`` —
    exactly the historical behaviour.  Strings name catalogue entries;
    an already-constructed :class:`ShardExecutor` passes through, which
    is how callers tune file-queue knobs (worker count, spool location,
    lease timeout).
    """
    if isinstance(spec, ShardExecutor):
        return spec
    if spec is None:
        spec = os.environ.get(REPRO_EXECUTOR_ENV) or "pool"
    if spec == "pool":
        return PoolExecutor()
    if spec == "file-queue":
        return FileQueueExecutor()
    raise ConfigError(
        f"unknown shard executor {spec!r}; expected one of {EXECUTOR_NAMES}"
    )


def executors_table_markdown() -> str:
    """The executor catalogue as a markdown table (docs generator)."""
    lines = [
        "| Executor | Topology | Semantics |",
        "|---|---|---|",
    ]
    for info in EXECUTOR_CATALOG:
        lines.append(f"| `{info.name}` | {info.topology} | {info.description} |")
    return "\n".join(lines) + "\n"
