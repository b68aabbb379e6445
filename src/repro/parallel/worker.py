"""Stateless file-queue worker: drain shards from a spool directory.

The execution half of the file-queue executor
(:class:`repro.parallel.executors.FileQueueExecutor`), runnable as
``repro worker SPOOL`` from any process — including on another host —
that can see the spool directory.  A worker is stateless and
host-agnostic: everything it needs (device snapshot, sweep plan, cache
directory, fault plan, kernel mode) comes from the spool manifest, and
everything it produces (results, outcome sidecars) is canonical JSON
whose bytes are pure in the shard descriptor.

Drain loop: claim the lowest-numbered pending shard by atomic rename,
execute it through :func:`repro.parallel.engine.run_shard` against the
shared placed-design cache, install the result then the outcome sidecar
(in that order, so an ``ok`` sidecar always has its result on disk),
release the lease, repeat.  When nothing is claimable the worker polls
until the coordinator writes the ``stop`` sentinel.  The lease
generation from the descriptor filename is passed to the fault injector
as the attempt number, so ``times``-bounded chaos faults behave across
requeues exactly as they do across retries.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from pathlib import Path

from ..config import set_kernel_mode
from ..errors import ConfigError
from ..faults.injector import FaultInjector
from ..faults.plan import FaultPlan
from ..netlist.core import EvalScratch
from . import spool
from .cache import PlacedDesignCache
from .engine import run_shard
from .retry import ATTEMPT_ERROR, ATTEMPT_OK

__all__ = ["drain_spool", "worker_main"]


def drain_spool(
    root: str | Path,
    worker_id: str = "w0",
    poll_s: float = 0.05,
    max_shards: int | None = None,
) -> int:
    """Claim/execute/report until the spool stops; returns shards executed.

    ``worker_id`` is a caller-assigned label stamped into outcome
    sidecars (never a hostname or pid — artefact bytes stay
    host-independent).  ``max_shards`` bounds the drain for tests and
    scale-down drills.
    """
    root = Path(root)
    try:
        manifest = spool.read_manifest(root)
    except FileNotFoundError:
        raise ConfigError(f"no spool manifest at {root}")
    if manifest.get("version") != spool.SPOOL_VERSION:
        raise ConfigError(
            f"spool speaks version {manifest.get('version')!r}, "
            f"this worker speaks {spool.SPOOL_VERSION}"
        )
    plan = spool.plan_from_descriptor(manifest["plan"])
    device = spool.load_device(root)
    set_kernel_mode(manifest["kernel"])
    cache = PlacedDesignCache(manifest.get("cache_dir"))
    injector = None
    faults_dict = manifest.get("faults")
    if faults_dict is not None:
        fault_plan = FaultPlan.from_dict(faults_dict)
        if not fault_plan.is_empty:
            injector = FaultInjector(fault_plan)

    scratch = EvalScratch()
    executed = 0
    while True:
        claim = spool.claim_next(root)
        if claim is None:
            if spool.stop_requested(root):
                break
            time.sleep(poll_s)
            continue
        index, generation, lease = claim
        try:
            shard = spool.shard_from_descriptor(
                json.loads(lease.read_text("utf-8"))
            )
        except Exception as exc:
            # A torn or foreign descriptor must not kill the worker: report
            # it like any failed attempt and let the retry ledger decide.
            spool.write_outcome(root, spool.WorkerOutcome(
                index=index, generation=generation, outcome=ATTEMPT_ERROR,
                latency_s=0.0,
                detail=f"unreadable descriptor — {type(exc).__name__}: {exc}",
                worker=worker_id,
            ))
            spool.release_lease(root, lease.name)
            continue
        if injector is not None:
            action = injector.worker_action(shard, generation)
            if action == "worker-exit":
                # Abrupt mid-shard death (the chaos stand-in for SIGKILL /
                # host loss): the lease stays behind for the coordinator's
                # stale-lease requeue to recover.
                os._exit(17)
            if action == "lease-stall":
                # Stuck-worker drill: abandon the lease without a result
                # and move on; only the requeue can free the shard.
                continue
        t0 = time.perf_counter()
        try:
            result = run_shard(
                device, plan, shard, cache,
                injector=injector, attempt=generation, scratch=scratch,
            )
        except Exception as exc:
            spool.write_outcome(root, spool.WorkerOutcome(
                index=index, generation=generation, outcome=ATTEMPT_ERROR,
                latency_s=time.perf_counter() - t0,
                detail=f"{type(exc).__name__}: {exc}", worker=worker_id,
            ))
            spool.release_lease(root, lease.name)
            continue
        spool.write_result(root, index, result)
        spool.write_outcome(root, spool.WorkerOutcome(
            index=index, generation=generation, outcome=ATTEMPT_OK,
            latency_s=time.perf_counter() - t0, worker=worker_id,
        ))
        spool.release_lease(root, lease.name)
        executed += 1
        if max_shards is not None and executed >= max_shards:
            break
    return executed


def worker_main(argv: list[str] | None = None) -> int:
    """``repro worker`` — drain one spool directory, then exit.

    Exit codes: 0 drained until stop (or ``--max-shards``), 2 unusable
    spool (missing manifest, version mismatch).
    """
    parser = argparse.ArgumentParser(
        prog="repro worker",
        description=(
            "Stateless file-queue sweep worker: lease shard descriptors "
            "from SPOOL, execute them against the shared placed-design "
            "cache, write results and outcome sidecars."
        ),
    )
    parser.add_argument(
        "spool", help="spool directory created by the file-queue coordinator"
    )
    parser.add_argument(
        "--worker-id", default="w0",
        help="label stamped into outcome sidecars (default: w0)",
    )
    parser.add_argument(
        "--poll", type=float, default=0.05, metavar="SECONDS",
        help="idle poll interval while waiting for claimable shards",
    )
    parser.add_argument(
        "--max-shards", type=int, default=None, metavar="N",
        help="exit after executing N shards (default: drain until stop)",
    )
    args = parser.parse_args(argv)
    try:
        executed = drain_spool(
            args.spool, worker_id=args.worker_id,
            poll_s=args.poll, max_shards=args.max_shards,
        )
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"worker {args.worker_id}: executed {executed} shard(s)")
    return 0
