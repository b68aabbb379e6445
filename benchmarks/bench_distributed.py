#!/usr/bin/env python
"""Benchmark the distributed sweep fabric against the in-process paths.

Runs one characterisation sweep serially (``jobs=1``, the inline
reference loop) and under every shard executor — ``pool`` (forked
processes) and ``file-queue`` (coordinator + spawned ``repro worker``
processes over a spool directory) — and records wall-clock plus the
overhead relative to the pool.  A chaos section kills a file-queue worker mid-shard
(``worker-exit`` fault) and demands the stale-lease requeue recover the
sweep.

Every timing rides on a verified contract: the statistic grids of every
executor (chaos run included) must be **bit-identical** to the serial
reference — a payload with any ``bit_identical_vs_serial: false`` fails
validation, so the committed JSON doubles as a byte-identity certificate
for the topology matrix it reports.

Writes ``BENCH_distributed.json``.  ``--smoke`` shrinks the sweep and
worker counts for the ``scripts/check.sh`` gate.

Usage::

    python benchmarks/bench_distributed.py
    python benchmarks/bench_distributed.py --smoke
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.characterization import CharacterizationConfig, characterize_multiplier
from repro.fabric import make_device
from repro.faults import FaultPlan, FaultSpec
from repro.parallel.executors import FileQueueExecutor

SCHEMA_VERSION = 1

_TOP_KEYS = {
    "schema_version",
    "benchmark",
    "smoke",
    "cpus",
    "sweep",
    "executors",
    "chaos",
}
_EXECUTOR_KEYS = {"seconds", "bit_identical_vs_serial", "overhead_vs_pool"}


def _grid_bytes(result) -> bytes:
    return (
        result.variance.tobytes()
        + result.mean.tobytes()
        + result.error_rate.tobytes()
    )


def _run(device, cfg, seed, **kwargs):
    t0 = time.perf_counter()
    result = characterize_multiplier(device, 8, 8, cfg, seed=seed, **kwargs)
    return time.perf_counter() - t0, result


def _validate(payload: dict) -> None:
    missing = _TOP_KEYS - payload.keys()
    if missing:
        raise AssertionError(f"payload missing keys: {sorted(missing)}")
    for name, entry in payload["executors"].items():
        lacking = _EXECUTOR_KEYS - entry.keys()
        if lacking:
            raise AssertionError(
                f"executor entry {name} missing keys: {sorted(lacking)}"
            )
        if not entry["bit_identical_vs_serial"]:
            raise AssertionError(
                f"executor {name} diverged from the serial reference"
            )
    chaos = payload["chaos"]
    if not chaos["bit_identical_vs_serial"]:
        raise AssertionError("chaos run diverged from the serial reference")
    if chaos["leases_requeued"] < 1:
        raise AssertionError(
            "worker-exit chaos fired but no stale lease was requeued"
        )
    if chaos["status"] != "complete":
        raise AssertionError(f"chaos sweep did not complete: {chaos['status']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--smoke", action="store_true", help="smaller sizes for CI")
    parser.add_argument(
        "--output",
        default="BENCH_distributed.json",
        help="where to write the results JSON",
    )
    args = parser.parse_args(argv)

    n_samples = 40 if args.smoke else 160
    n_mult = 8 if args.smoke else 16
    workers = 2 if args.smoke else 4
    seed = 7
    device = make_device(1234)
    cfg = CharacterizationConfig(
        freqs_mhz=(300.0, 360.0, 420.0),
        n_samples=n_samples,
        multiplicands=tuple(range(n_mult)),
        n_locations=2,
    )

    print(f"distributed fabric bench ({'smoke' if args.smoke else 'reference'})")
    serial_s, reference = _run(device, cfg, seed, jobs=1)
    reference_bytes = _grid_bytes(reference)
    print(f"  serial (jobs=1): {serial_s:.2f}s (reference)")

    pool_s, pooled = _run(device, cfg, seed, jobs=workers, executor="pool")
    print(f"  pool({workers} jobs): {pool_s:.2f}s")

    fq = FileQueueExecutor(workers=workers)
    fq_s, queued = _run(device, cfg, seed, executor=fq)
    print(
        f"  file-queue({workers} workers): {fq_s:.2f}s "
        f"({fq_s / pool_s:.2f}x pool)"
    )

    executors = {
        "serial": {
            "seconds": round(serial_s, 3),
            "bit_identical_vs_serial": True,
            "overhead_vs_pool": round(serial_s / pool_s, 2),
        },
        "pool": {
            "seconds": round(pool_s, 3),
            "bit_identical_vs_serial": _grid_bytes(pooled) == reference_bytes,
            "overhead_vs_pool": 1.0,
            "jobs": workers,
        },
        "file-queue": {
            "seconds": round(fq_s, 3),
            "bit_identical_vs_serial": _grid_bytes(queued) == reference_bytes,
            "overhead_vs_pool": round(fq_s / pool_s, 2),
            "workers": workers,
            "shards_folded": fq.last_stats.get("folded", 0),
        },
    }

    # Chaos: kill one worker mid-shard; the coordinator's stale-lease
    # requeue must hand the shard to a surviving worker and still
    # reproduce the reference bytes.
    faults = FaultPlan(
        specs=(FaultSpec(kind="worker-exit", li=0, start=0, times=1),),
        seed=seed,
    )
    chaos_exec = FileQueueExecutor(workers=workers, lease_timeout_s=1.0)
    chaos_s, survived = _run(device, cfg, seed, executor=chaos_exec, faults=faults)
    chaos = {
        "fault": "worker-exit li=0 start=0 times=1",
        "workers": workers,
        "seconds": round(chaos_s, 3),
        "leases_requeued": chaos_exec.last_stats.get("requeued", 0),
        "bit_identical_vs_serial": _grid_bytes(survived) == reference_bytes,
        "status": survived.outcome.status if survived.outcome else "",
    }
    print(
        f"  chaos (worker kill): {chaos_s:.2f}s, "
        f"{chaos['leases_requeued']} lease(s) requeued"
    )

    payload = {
        "schema_version": SCHEMA_VERSION,
        "benchmark": "distributed_fabric",
        "smoke": args.smoke,
        "cpus": os.cpu_count() or 1,
        "sweep": {
            "n_samples": n_samples,
            "n_multiplicands": n_mult,
            "n_locations": 2,
            "n_freqs": 3,
            "seed": seed,
        },
        "executors": executors,
        "chaos": chaos,
    }
    _validate(payload)
    Path(args.output).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
