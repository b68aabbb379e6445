"""On-disk spool: the work queue behind the file-queue shard executor.

A spool directory is the entire coordination surface between a sweep's
coordinator and its stateless ``repro worker`` processes — there is no
socket, no broker, no shared memory.  Every file is installed atomically
(write-to-temp + ``os.replace``) and every payload is canonical JSON
(sorted keys, no whitespace), so any number of processes on any hosts
sharing the directory observe only whole, byte-stable artefacts::

    <spool>/
      manifest.json                  sweep-invariant header (plan, cache, faults, kernel)
      device.pkl                     pickled FPGADevice snapshot
      pending/shard-NNNNN.gG.json    claimable shard descriptors (G = lease generation)
      leased/shard-NNNNN.gG.json     in-flight leases (claimed via atomic rename)
      results/shard-NNNNN.json       canonical ShardResult records
      outcomes/shard-NNNNN.gG.json   per-lease WorkerOutcome sidecars
      stop                           sentinel: idle workers exit when present

The lease protocol is a single ``os.rename`` from ``pending/`` to
``leased/``: the filesystem guarantees exactly one claimant wins each
descriptor, losers observe ``FileNotFoundError`` and move on.  A worker
that dies mid-shard leaves its lease in ``leased/``; the coordinator
renames stale leases back to ``pending/`` with a bumped generation
suffix.  The generation lives in the *filename*, never in the descriptor
bytes — the descriptor payload stays exactly the frozen DX009
``shard.descriptor.v1`` shape — and doubles as the fault-injection
attempt number, so ``times``-bounded chaos faults fire once per shard
across requeues, exactly like pool/inline retries.

Determinism: shard numerics never pass through this module — descriptors
carry the parent's pre-drawn stimulus as exact int64 lists, results carry
float64 statistics as ``repr`` round-trippable JSON numbers, so a result
read back from the spool is bit-identical to one computed in process.
"""

from __future__ import annotations

import json
import os
import pickle
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..fabric.device import FPGADevice
from ..faults.plan import FaultPlan
from .engine import Shard, ShardResult, SweepPlan

__all__ = [
    "SPOOL_VERSION",
    "SpoolEntry",
    "SPOOL_LAYOUT",
    "WorkerOutcome",
    "canonical_json",
    "claim_next",
    "create_spool",
    "descriptor_fields_markdown",
    "descriptor_name",
    "load_device",
    "parse_descriptor_name",
    "plan_descriptor",
    "plan_from_descriptor",
    "read_manifest",
    "read_outcomes",
    "read_result",
    "release_lease",
    "requeue_lease",
    "request_stop",
    "result_record",
    "result_from_record",
    "shard_descriptor",
    "shard_from_descriptor",
    "spool_layout_markdown",
    "stop_requested",
    "write_manifest",
    "write_outcome",
    "write_result",
]

#: Spool wire-format version; a worker refuses a spool it cannot speak.
SPOOL_VERSION = 1

MANIFEST_NAME = "manifest.json"
DEVICE_NAME = "device.pkl"
STOP_NAME = "stop"
PENDING_DIR = "pending"
LEASED_DIR = "leased"
RESULTS_DIR = "results"
OUTCOMES_DIR = "outcomes"

_DESCRIPTOR_NAME_RE = re.compile(r"^shard-(\d{5})\.g(\d+)\.json$")


# ----------------------------------------------------------------------
# Canonical serialisation.

def canonical_json(obj: object) -> str:
    """Canonical JSON: sorted keys, no whitespace, trailing newline.

    Byte-stable across writers — two processes serialising the same value
    produce identical bytes, which is what makes duplicate installs (a
    requeued shard executed twice) harmless.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def shard_descriptor(shard: Shard) -> dict:
    """JSON-ready form of one shard (the frozen ``shard.descriptor.v1``).

    Integer payloads are exact in JSON; :func:`shard_from_descriptor`
    restores the int64 arrays bit for bit.
    """
    return {
        "li": int(shard.li),
        "location": [int(shard.location[0]), int(shard.location[1])],
        "start": int(shard.start),
        "multiplicands": [int(v) for v in shard.multiplicands],
        "stimulus": [int(v) for v in shard.stimulus],
    }


def shard_from_descriptor(data: dict) -> Shard:
    return Shard(
        li=int(data["li"]),
        location=(int(data["location"][0]), int(data["location"][1])),
        start=int(data["start"]),
        multiplicands=np.asarray(data["multiplicands"], dtype=np.int64),
        stimulus=np.asarray(data["stimulus"], dtype=np.int64),
    )


def plan_descriptor(plan: SweepPlan) -> dict:
    """JSON-ready form of the sweep-invariant plan (manifest payload)."""
    return {
        "w_data": int(plan.w_data),
        "w_coeff": int(plan.w_coeff),
        "seed": int(plan.seed),
        "freqs_mhz": [float(f) for f in plan.freqs_mhz],
        "achieved_mhz": [float(f) for f in plan.achieved_mhz],
        "n_samples": int(plan.n_samples),
        "max_stream_depth": int(plan.max_stream_depth),
    }


def plan_from_descriptor(data: dict) -> SweepPlan:
    return SweepPlan(
        w_data=int(data["w_data"]),
        w_coeff=int(data["w_coeff"]),
        seed=int(data["seed"]),
        freqs_mhz=tuple(float(f) for f in data["freqs_mhz"]),
        achieved_mhz=tuple(float(f) for f in data["achieved_mhz"]),
        n_samples=int(data["n_samples"]),
        max_stream_depth=int(data["max_stream_depth"]),
    )


def result_record(result: ShardResult) -> dict:
    """JSON-ready form of one shard result.

    Python's shortest-``repr`` float serialisation round-trips every
    float64 exactly (including the NaN a ``corrupt`` chaos fault plants),
    so a spooled result is bit-identical to the in-process original.
    """
    return {
        "li": int(result.li),
        "start": int(result.start),
        "variance": [[float(v) for v in row] for row in result.variance],
        "mean": [[float(v) for v in row] for row in result.mean],
        "error_rate": [[float(v) for v in row] for row in result.error_rate],
    }


def result_from_record(data: dict) -> ShardResult:
    return ShardResult(
        li=int(data["li"]),
        start=int(data["start"]),
        variance=np.asarray(data["variance"], dtype=np.float64),
        mean=np.asarray(data["mean"], dtype=np.float64),
        error_rate=np.asarray(data["error_rate"], dtype=np.float64),
    )


@dataclass(frozen=True)
class WorkerOutcome:
    """Sidecar a worker writes after finishing (or failing) one lease.

    ``outcome`` uses the :mod:`repro.parallel.retry` attempt vocabulary
    (``ok``/``error``); the coordinator folds these into the same retry
    ledger the pool and inline paths feed, so dispositions and DEGRADED
    semantics are executor-independent.  ``worker`` is a coordinator-
    assigned label (``w0``, ``w1``, …) — never a hostname or pid, so
    outcome bytes stay host-independent.
    """

    index: int
    generation: int
    outcome: str
    latency_s: float
    detail: str = ""
    worker: str = ""

    def as_dict(self) -> dict:
        return {
            "index": self.index,
            "generation": self.generation,
            "outcome": self.outcome,
            "latency_s": self.latency_s,
            "detail": self.detail,
            "worker": self.worker,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "WorkerOutcome":
        return cls(
            index=int(data["index"]),
            generation=int(data["generation"]),
            outcome=str(data["outcome"]),
            latency_s=float(data["latency_s"]),
            detail=str(data.get("detail", "")),
            worker=str(data.get("worker", "")),
        )


# ----------------------------------------------------------------------
# Atomic installs.

def _writer_tag() -> str:
    """Per-process temp-name disambiguator (never reaches artefact bytes)."""
    return str(os.getpid())


def _write_atomic(path: Path, data: bytes) -> None:
    """Install ``data`` at ``path`` atomically.

    Concurrent writers cannot collide on the temp name (it carries the
    writer tag) and readers see either the old file or the new one, never
    a torn write.  Duplicate installs are benign: every spool artefact is
    bit-deterministic in its name, so last-writer-wins installs identical
    bytes.
    """
    tmp = path.with_name(f".{path.name}.tmp.{_writer_tag()}")
    with tmp.open("wb") as fh:
        fh.write(data)
    # repro: allow[DT007] -- artefacts are bit-deterministic in their name, so racing installs replace identical bytes
    os.replace(tmp, path)


# ----------------------------------------------------------------------
# Spool creation and the manifest.

def write_manifest(
    root: Path,
    plan: SweepPlan,
    n_shards: int,
    cache_dir: str | None,
    faults: FaultPlan | None,
    kernel: str,
) -> None:
    """Install the sweep-invariant spool header."""
    manifest = {
        "version": SPOOL_VERSION,
        "plan": plan_descriptor(plan),
        "n_shards": int(n_shards),
        "cache_dir": cache_dir,
        "faults": faults.as_dict() if faults is not None else None,
        "kernel": kernel,
    }
    _write_atomic(Path(root) / MANIFEST_NAME, canonical_json(manifest).encode("utf-8"))


def read_manifest(root: Path) -> dict:
    return json.loads((Path(root) / MANIFEST_NAME).read_text("utf-8"))


def load_device(root: Path) -> FPGADevice:
    return pickle.loads((Path(root) / DEVICE_NAME).read_bytes())


def create_spool(
    root: Path,
    device: FPGADevice,
    plan: SweepPlan,
    shards: list[Shard],
    cache_dir: str | None,
    faults: FaultPlan | None,
    kernel: str,
) -> None:
    """Materialise a complete spool: layout, header, device, descriptors.

    Descriptors land in ``pending/`` at generation 0, in shard order; the
    manifest is installed last so a worker that sees it can rely on the
    rest of the spool being in place.
    """
    root = Path(root)
    for sub in (PENDING_DIR, LEASED_DIR, RESULTS_DIR, OUTCOMES_DIR):
        (root / sub).mkdir(parents=True, exist_ok=True)
    _write_atomic(
        root / DEVICE_NAME, pickle.dumps(device, protocol=pickle.HIGHEST_PROTOCOL)
    )
    for index, shard in enumerate(shards):
        _write_atomic(
            root / PENDING_DIR / descriptor_name(index, 0),
            canonical_json(shard_descriptor(shard)).encode("utf-8"),
        )
    write_manifest(root, plan, len(shards), cache_dir, faults, kernel)


# ----------------------------------------------------------------------
# The lease protocol.

def descriptor_name(index: int, generation: int) -> str:
    return f"shard-{index:05d}.g{generation}.json"


def parse_descriptor_name(name: str) -> tuple[int, int] | None:
    """``(index, generation)`` of a descriptor filename, else ``None``."""
    match = _DESCRIPTOR_NAME_RE.match(name)
    if match is None:
        return None
    return int(match.group(1)), int(match.group(2))


def pending_names(root: Path) -> list[str]:
    return _listing(Path(root) / PENDING_DIR)


def leased_names(root: Path) -> list[str]:
    return _listing(Path(root) / LEASED_DIR)


def _listing(directory: Path) -> list[str]:
    try:
        return sorted(
            p.name for p in directory.iterdir()
            if parse_descriptor_name(p.name) is not None
        )
    except FileNotFoundError:
        return []


def claim_next(root: Path) -> tuple[int, int, Path] | None:
    """Lease the lowest-numbered pending shard via atomic rename.

    Returns ``(index, generation, leased_path)``, or ``None`` when
    nothing is claimable.  Racing claimants all attempt the same rename;
    the filesystem lets exactly one win, the rest observe
    ``FileNotFoundError`` and try the next descriptor.
    """
    root = Path(root)
    for name in pending_names(root):
        parsed = parse_descriptor_name(name)
        if parsed is None:
            continue
        target = root / LEASED_DIR / name
        try:
            # repro: allow[DT007] -- the rename IS the lock: one claimant wins, losers get FileNotFoundError
            os.rename(root / PENDING_DIR / name, target)
        except FileNotFoundError:
            continue
        return parsed[0], parsed[1], target
    return None


def requeue_lease(root: Path, name: str) -> tuple[int, int] | None:
    """Return a (presumed dead) lease to ``pending/``, generation + 1.

    Returns the new ``(index, generation)``, or ``None`` if the lease
    vanished first (its worker finished or another requeue won).  The
    bumped generation keeps ``times``-bounded chaos faults from re-firing
    on the re-executed shard, mirroring retry-attempt numbering.
    """
    parsed = parse_descriptor_name(name)
    if parsed is None:
        return None
    index, generation = parsed
    root = Path(root)
    try:
        # repro: allow[DT007] -- rename-as-lock: a finished worker's unlink or racing requeue makes this a no-op, never a tear
        os.rename(
            root / LEASED_DIR / name,
            root / PENDING_DIR / descriptor_name(index, generation + 1),
        )
    except FileNotFoundError:
        return None
    return index, generation + 1


def release_lease(root: Path, name: str) -> None:
    """Drop a finished lease; a concurrent requeue winning is fine."""
    (Path(root) / LEASED_DIR / name).unlink(missing_ok=True)


# ----------------------------------------------------------------------
# Results and outcomes.

def result_name(index: int) -> str:
    return f"shard-{index:05d}.json"


def write_result(root: Path, index: int, result: ShardResult) -> None:
    _write_atomic(
        Path(root) / RESULTS_DIR / result_name(index),
        canonical_json(result_record(result)).encode("utf-8"),
    )


def read_result(root: Path, index: int) -> ShardResult | None:
    path = Path(root) / RESULTS_DIR / result_name(index)
    try:
        return result_from_record(json.loads(path.read_text("utf-8")))
    except FileNotFoundError:
        return None


def write_outcome(root: Path, outcome: WorkerOutcome) -> None:
    _write_atomic(
        Path(root) / OUTCOMES_DIR / descriptor_name(outcome.index, outcome.generation),
        canonical_json(outcome.as_dict()).encode("utf-8"),
    )


def read_outcomes(root: Path) -> list[WorkerOutcome]:
    """All outcome sidecars, sorted by ``(index, generation)`` filename."""
    directory = Path(root) / OUTCOMES_DIR
    outcomes = []
    for name in _listing(directory):
        outcomes.append(
            WorkerOutcome.from_dict(json.loads((directory / name).read_text("utf-8")))
        )
    return outcomes


# ----------------------------------------------------------------------
# The stop sentinel.

def request_stop(root: Path) -> None:
    """Tell idle workers to exit (claimed shards still finish)."""
    _write_atomic(Path(root) / STOP_NAME, b"stop\n")


def stop_requested(root: Path) -> bool:
    return (Path(root) / STOP_NAME).exists()


# ----------------------------------------------------------------------
# Generated documentation (drift-tested in docs/distributed.md).

@dataclass(frozen=True)
class SpoolEntry:
    """One row of the spool-directory layout reference."""

    path: str
    writer: str
    description: str


SPOOL_LAYOUT: tuple[SpoolEntry, ...] = (
    SpoolEntry(
        "manifest.json",
        "coordinator",
        "Sweep-invariant header: spool version, plan descriptor, shard "
        "count, shared cache directory, fault plan, kernel mode. "
        "Installed last, so its presence implies a complete spool.",
    ),
    SpoolEntry(
        "device.pkl",
        "coordinator",
        "Pickled `FPGADevice` snapshot every worker characterises "
        "against (same payload the in-process pool ships to forked "
        "workers).",
    ),
    SpoolEntry(
        "pending/shard-NNNNN.gG.json",
        "coordinator (`g0`; requeues bump `G`)",
        "Claimable shard descriptors in canonical JSON — exactly the "
        "frozen `shard.descriptor.v1` payload; the lease generation `G` "
        "lives in the filename, never in the bytes.",
    ),
    SpoolEntry(
        "leased/shard-NNNNN.gG.json",
        "worker (atomic rename from `pending/`)",
        "In-flight leases.  The rename is the mutual exclusion: exactly "
        "one claimant wins each descriptor.  A lease that outlives the "
        "lease timeout is presumed dead and requeued.",
    ),
    SpoolEntry(
        "results/shard-NNNNN.json",
        "worker",
        "Canonical-JSON `ShardResult` record; bit-identical no matter "
        "which worker, host or lease generation produced it.",
    ),
    SpoolEntry(
        "outcomes/shard-NNNNN.gG.json",
        "worker",
        "`WorkerOutcome` sidecar per executed lease (ok/error, latency, "
        "worker label) that the coordinator folds into the retry ledger.",
    ),
    SpoolEntry(
        "stop",
        "coordinator",
        "Stop sentinel: workers exit once it exists and nothing is "
        "claimable.",
    ),
)


def spool_layout_markdown() -> str:
    """The spool-directory layout as a markdown table (docs generator)."""
    lines = [
        "| Path | Written by | Contents |",
        "|---|---|---|",
    ]
    for entry in SPOOL_LAYOUT:
        lines.append(f"| `{entry.path}` | {entry.writer} | {entry.description} |")
    return "\n".join(lines) + "\n"


def descriptor_fields_markdown() -> str:
    """Shard-descriptor field reference as a markdown table (docs generator).

    Field names and order come straight from the :class:`Shard` dataclass
    — the same source the frozen ``shard.descriptor.v1`` wire contract is
    derived from — so this table cannot drift from the code.
    """
    import dataclasses

    encodings = {
        "li": "JSON integer — location index within the sweep's anchor list.",
        "location": "two-element JSON array `[row, col]` — placement anchor.",
        "start": "JSON integer — first multiplicand index of this chunk.",
        "multiplicands": "JSON array of exact integers (int64 round-trip).",
        "stimulus": (
            "JSON array of exact integers — the parent's pre-drawn "
            "stimulus stream, so workers never touch an RNG."
        ),
    }
    lines = [
        "| Field | Encoding |",
        "|---|---|",
    ]
    for field in dataclasses.fields(Shard):
        lines.append(f"| `{field.name}` | {encodings[field.name]} |")
    return "\n".join(lines) + "\n"
