#!/usr/bin/env bash
# Repository quality gate: style lint, type check, tier-1 test suite,
# chaos drills, smoke benches, the determinism audit and the cache
# stress test.
#
# Gates whose tool (ruff, mypy, pytest-cov) is not installed are skipped,
# so the script works in minimal offline environments; the pytest tier-1
# run is mandatory.  The script ends with one line per gate: passed,
# FAILED, or NOT VERIFIED (skipped for a missing tool).  Only failures
# make it exit non-zero.
#
# Usage: scripts/check.sh  (from the repository root)

set -u
cd "$(dirname "$0")/.."

failures=0
skipped=0
summary=()

run_gate() {
    local label="$1"
    shift
    echo "==== ${label}: $*"
    if "$@"; then
        echo "==== ${label}: OK"
        summary+=("passed        ${label}")
    else
        echo "==== ${label}: FAILED"
        summary+=("FAILED        ${label}")
        failures=$((failures + 1))
    fi
}

skip_gate() {
    local label="$1" reason="$2"
    echo "==== ${label}: NOT VERIFIED (${reason})"
    summary+=("NOT VERIFIED  ${label} (${reason})")
    skipped=$((skipped + 1))
}

# tool_gate TOOL LABEL CMD...: run_gate when TOOL is installed, otherwise
# report the gate NOT VERIFIED, so every gate is declared exactly once.
tool_gate() {
    local tool="$1" label="$2"
    shift 2
    if command -v "${tool}" >/dev/null 2>&1; then
        run_gate "${label}" "$@"
    else
        skip_gate "${label}" "${tool} not installed"
    fi
}

tool_gate ruff "ruff" ruff check src tests scripts benchmarks examples
# The analysis package is held to a stricter bar: pylint-parity and
# ruff-specific rules are hard failures there, warn-only elsewhere.
tool_gate ruff "ruff (analysis, strict)" ruff check --select PL,RUF src/repro/analysis
tool_gate ruff "ruff (obs, strict)" ruff check --select PL,RUF src/repro/obs
tool_gate ruff "ruff (kernels, strict)" ruff check --select PL,RUF src/repro/kernels
tool_gate ruff "ruff (serve, strict)" ruff check --select PL,RUF src/repro/serve
# Promoted from warn-only: the whole library now holds the
# pylint-parity + ruff-specific bar, not just the newer subsystems.
tool_gate ruff "ruff (library, strict)" ruff check --select PL,RUF src/repro

tool_gate mypy "mypy" mypy src/repro
# New analysis/observability modules carry full annotations; keep them strict.
tool_gate mypy "mypy (analysis, strict)" mypy --strict src/repro/analysis
tool_gate mypy "mypy (obs, strict)" mypy --strict src/repro/obs
tool_gate mypy "mypy (kernels, strict)" mypy --strict src/repro/kernels
tool_gate mypy "mypy (serve, strict)" mypy --strict src/repro/serve

if python -c "import pytest_cov" >/dev/null 2>&1; then
    # Coverage-gated tier-1 run.  COV_FAIL_UNDER pins the seed baseline;
    # lowering it needs a deliberate edit here, not a quiet regression.
    run_gate "pytest (tier-1 + coverage)" env PYTHONPATH=src python -m pytest -x -q \
        --cov=repro --cov-report=term-missing:skip-covered \
        --cov-fail-under="${COV_FAIL_UNDER:-80}"
else
    skip_gate "coverage (tier-1 >= ${COV_FAIL_UNDER:-80}%)" "pytest-cov not installed"
    run_gate "pytest (tier-1)" env PYTHONPATH=src python -m pytest -x -q
fi

# Slow process-pool tests are deselected from default runs by marker
# hygiene elsewhere; this job makes sure they still run somewhere.
run_gate "pytest (slow pool)" env PYTHONPATH=src python -m pytest -x -q -m slow

# Chaos gate: the tier-1 suite must survive a deterministic fault plan.
# The plan injects transient failures (a one-shot crash and a one-shot
# corrupted result) into every characterisation sweep; the retry layer
# must absorb them, so the whole suite passes bit-identically.
chaos_plan='{"seed": 7, "specs": [
    {"kind": "crash",   "li": 0, "start": 0, "times": 1},
    {"kind": "corrupt", "li": 1, "times": 1}
]}'
run_gate "pytest (chaos: transient faults armed)" env PYTHONPATH=src \
    REPRO_FAULTS="${chaos_plan}" \
    python -m pytest -x -q tests/parallel tests/characterization tests/faults

# Degraded-mode drill: a persistent fault must quarantine exactly its
# target shard and still yield a usable (NaN-celled) sweep.
run_gate "chaos (degraded-mode drill)" env PYTHONPATH=src python - <<'PY'
import numpy as np
from repro.characterization import CharacterizationConfig, characterize_multiplier
from repro.config import ResilienceSettings
from repro.fabric import make_device
from repro.faults import FaultPlan

plan = FaultPlan.from_json(
    '{"seed": 7, "specs": [{"kind": "crash", "li": 0, "start": 0, "times": -1}]}'
)
cfg = CharacterizationConfig(
    freqs_mhz=(280.0, 320.0), n_samples=40,
    multiplicands=tuple(range(8)), n_locations=2, segment_chunk=4,
)
policy = ResilienceSettings(
    max_retries=1, backoff_base_s=0.0, backoff_jitter=0.0, allow_degraded=True
)
result = characterize_multiplier(
    make_device(1234), 9, 3, cfg, seed=3, resilience=policy, faults=plan
)
assert result.outcome.status == "degraded", result.outcome.status
assert result.outcome.quarantined == ((0, 0),), result.outcome.quarantined
assert np.all(np.isnan(result.variance[0, 0:4, :]))
assert np.all(np.isfinite(result.variance[1]))
print("degraded-mode drill OK:", result.outcome.as_dict()["status"],
      "quarantined", result.outcome.quarantined)
PY

# Characterisation-engine smoke bench: asserts the engine is bit-identical
# to the legacy path across worker counts and the JSON schema is intact.
bench_json="$(mktemp -t bench_characterization.XXXXXX.json)"
run_gate "bench (smoke)" python benchmarks/bench_parallel_characterization.py \
    --smoke --jobs 1,2 --output "${bench_json}"
run_gate "bench schema" python - "${bench_json}" <<'PY'
import json, sys
payload = json.load(open(sys.argv[1]))
assert payload["schema_version"] == 1
assert payload["smoke"] is True
assert payload["sweep"]["bit_identical_across_jobs"] is True
assert payload["sweep"]["matches_legacy"] is True
assert payload["cache"]["speedup"] > 1.0
print("bench schema OK")
PY
rm -f "${bench_json}"

# Dataflow-analysis smoke bench: the interpreter's exactness probes and
# the CCM equivalence certificates are asserted inside the benchmark.
dataflow_json="$(mktemp -t bench_dataflow.XXXXXX.json)"
run_gate "bench (dataflow smoke)" python benchmarks/bench_dataflow.py \
    --smoke --output "${dataflow_json}"
rm -f "${dataflow_json}"

# Observability smoke bench: asserts telemetry is bit-transparent (grids
# identical on/off), the trace/metrics cover the pipeline stages, and the
# disabled path stays within its per-call-site cost bound.
obs_json="$(mktemp -t bench_observability.XXXXXX.json)"
run_gate "bench (observability smoke)" python benchmarks/bench_observability.py \
    --smoke --output "${obs_json}"
run_gate "bench (observability schema)" python - "${obs_json}" <<'PY'
import json, sys
payload = json.load(open(sys.argv[1]))
assert payload["schema_version"] == 1
assert payload["smoke"] is True
assert payload["sweep"]["bit_identical"] is True
assert "sweep.shard" in payload["sweep"]["span_names"]
assert payload["noop"]["ns_per_call"] > 0
print("observability bench schema OK")
PY
rm -f "${obs_json}"

# Kernel-compiler smoke bench: asserts the packed kernel is bit-identical
# to the interpreted reference on every consumer (functional, timing,
# full sweep, tiled family) and the speedup floor holds.
compile_json="$(mktemp -t bench_compile.XXXXXX.json)"
run_gate "bench (kernel compiler smoke)" python benchmarks/bench_compile.py \
    --smoke --output "${compile_json}"
run_gate "bench (kernel compiler schema)" python - "${compile_json}" <<'PY'
import json, sys
payload = json.load(open(sys.argv[1]))
assert payload["schema_version"] == 1
assert payload["smoke"] is True
assert payload["functional"]["bit_identical_vs_interp"] is True
assert payload["timing"]["bit_identical_vs_interp"] is True
assert all(e["bit_identical_vs_interp"] for e in payload["sweep"]["jobs"].values())
assert payload["tile"]["bit_identical_vs_interp"] is True
assert payload["functional"]["speedup"] > 1.0
assert payload["plan"]["cache_hit_seconds"] < payload["plan"]["compile_seconds"]
print("kernel compiler bench schema OK")
PY
rm -f "${compile_json}"

# Telemetry docs drift: the generated reference in docs/observability.md
# must match the catalogue (same contract as the lint-rule table).
run_gate "docs drift (telemetry reference)" env PYTHONPATH=src \
    python -m pytest -x -q tests/obs/test_docs_drift.py

# Determinism audit: the library's own source must be clean under the
# DTxxx sanitizer — zero unsuppressed findings, every pragma justified.
run_gate "audit (determinism sanitizer)" env PYTHONPATH=src \
    python -m repro.cli audit --family dt src/repro

# Distribution-readiness audit: the DXxxx portability family must also
# be clean — pure boundary payloads, complete cache keys, no host
# identity reaching artefacts.
run_gate "audit (distribution readiness)" env PYTHONPATH=src \
    python -m repro.cli audit --family dx src/repro

# Wire-contract gate: every frozen wire-schema fingerprint must match
# the shape derived from source; schema changes land with an explicit
# FROZEN_CONTRACTS update or they fail here.
run_gate "audit (wire contracts)" env PYTHONPATH=src \
    python -m repro.cli audit --contracts src/repro

# Serve gate: the characterisation-as-a-service suite (byte-equality vs
# the batch CLI, admission properties, chaos parity, cancellation).
run_gate "pytest (serve suite)" env PYTHONPATH=src \
    python -m pytest -x -q tests/serve

# Serve smoke: boot a real server on a socket, submit a characterise
# job through the thin client, and require the archive byte-equal to a
# batch `repro-flow characterize` of the same workspace identity.
serve_dir="$(mktemp -d -t serve_smoke.XXXXXX)"
run_gate "serve (boot-submit-byte-check)" env PYTHONPATH=src \
    SERVE_SMOKE_DIR="${serve_dir}" python - <<'PY'
import os, threading
from pathlib import Path

from repro.cli_flow import main as flow_main
from repro.serve import JobServer, ServeClient

root = Path(os.environ["SERVE_SMOKE_DIR"])
cli_ws, srv_ws = root / "cli_ws", root / "srv_ws"
assert flow_main(["init", str(cli_ws), "--serial", "7", "--scale", "0.012"]) == 0
assert flow_main(["characterize", str(cli_ws)]) == 0

server = JobServer(root / "serve.sock", cache_dir=root / "cache")
ready = threading.Event()
thread = threading.Thread(target=server.run_blocking, args=(ready,), daemon=True)
thread.start()
assert ready.wait(10.0), "server did not boot"
client = ServeClient(root / "serve.sock")
job = client.submit(
    "smoke", "characterize", srv_ws,
    params={"init": {"serial": 7, "scale": 0.012}},
)
done = client.wait(job["job_id"], timeout_s=600.0)
assert done["state"] == "done", done
mismatches = []
for path in sorted((cli_ws / "characterization").glob("wl*.npz")):
    twin = srv_ws / "characterization" / path.name
    if twin.read_bytes() != path.read_bytes():
        mismatches.append(path.name)
assert not mismatches, f"served archives differ from batch: {mismatches}"
client.shutdown()
thread.join(60.0)
print("serve smoke OK: served archives byte-equal the batch CLI's")
PY
rm -rf "${serve_dir}"

# Cache-race gate: the runtime sanitizer's unit layer plus the
# multi-process stress test (N processes racing one on-disk cache with
# REPRO_SANITIZE=1: zero lost updates, bit-identical placements).
run_gate "pytest (cache sanitizer + stress)" env PYTHONPATH=src \
    python -m pytest -x -q tests/parallel/test_sanitize.py

# Audit smoke bench: re-asserts the clean/justified/deterministic
# contracts and records audit wall time.
audit_json="$(mktemp -t bench_audit.XXXXXX.json)"
run_gate "bench (audit smoke)" python benchmarks/bench_audit.py \
    --smoke --output "${audit_json}"
rm -f "${audit_json}"

# Sanitizer docs drift: the DT/DX rule tables, effect catalogue and
# wire-contract registry in docs/static_analysis.md must match the
# registries.
run_gate "docs drift (DT-rule reference)" env PYTHONPATH=src \
    python -m pytest -x -q tests/analysis/sanitizer/test_docs_drift.py
run_gate "docs drift (DX-rule + contracts reference)" env PYTHONPATH=src \
    python -m pytest -x -q tests/analysis/portability/test_docs_drift.py

# Distributed-fabric smoke bench: every executor topology (serial, pool,
# file-queue) must produce bit-identical grids, and the worker-kill
# chaos drill must recover via a lease requeue.
dist_json="$(mktemp -t bench_distributed.XXXXXX.json)"
run_gate "bench (distributed fabric smoke)" python benchmarks/bench_distributed.py \
    --smoke --output "${dist_json}"
run_gate "bench (distributed fabric schema)" python - "${dist_json}" <<'PY'
import json, sys
payload = json.load(open(sys.argv[1]))
assert payload["schema_version"] == 1
assert payload["smoke"] is True
assert set(payload["executors"]) == {"serial", "pool", "file-queue"}
assert all(e["bit_identical_vs_serial"] for e in payload["executors"].values())
assert payload["chaos"]["bit_identical_vs_serial"] is True
assert payload["chaos"]["leases_requeued"] >= 1
assert payload["chaos"]["status"] == "complete"
print("distributed fabric bench schema OK")
PY
rm -f "${dist_json}"

# File-queue byte-diff gate: a 2-worker file-queue characterisation of a
# real workspace must archive byte-identical wl*.npz to the default
# in-process pool run.
fq_dir="$(mktemp -d -t fq_bytediff.XXXXXX)"
run_gate "file-queue (2-worker byte-diff vs pool)" env PYTHONPATH=src \
    FQ_BYTEDIFF_DIR="${fq_dir}" python - <<'PY'
import os
from pathlib import Path

from repro.cli_flow import main as flow_main

root = Path(os.environ["FQ_BYTEDIFF_DIR"])
pool_ws, fq_ws = root / "pool_ws", root / "fq_ws"
for ws in (pool_ws, fq_ws):
    assert flow_main(["init", str(ws), "--serial", "7", "--scale", "0.012"]) == 0
assert flow_main(["characterize", str(pool_ws), "--jobs", "2"]) == 0
assert flow_main(
    ["characterize", str(fq_ws), "--executor", "file-queue", "--jobs", "2"]
) == 0
pool_npz = sorted((pool_ws / "characterization").glob("wl*.npz"))
assert pool_npz, "pool run archived nothing"
mismatches = [
    p.name for p in pool_npz
    if (fq_ws / "characterization" / p.name).read_bytes() != p.read_bytes()
]
assert not mismatches, f"file-queue archives differ from pool: {mismatches}"
print(f"file-queue byte-diff OK: {len(pool_npz)} archives identical to pool")
PY
rm -rf "${fq_dir}"

# Distributed docs drift: the generated executor/spool/descriptor tables
# in docs/distributed.md must match their renderers, and the operator
# guide must keep naming the surfaces it documents.
run_gate "docs drift (distributed fabric)" env PYTHONPATH=src \
    python -m pytest -x -q tests/parallel/test_distributed_docs.py

# EXPERIMENTS drift: regenerating EXPERIMENTS.md at its recorded scale and
# seed must reproduce the shipped file on every row except the date line
# and the rows marked (wall-clock), which are timings of this run.
exp_md="$(mktemp -t experiments.XXXXXX.md)"
run_gate "docs drift (EXPERIMENTS.md)" env PYTHONPATH=src EXP_MD="${exp_md}" \
    python - <<'PY'
import difflib, os, subprocess, sys
from pathlib import Path

out = Path(os.environ["EXP_MD"])
subprocess.run(
    [sys.executable, "scripts/generate_experiments.py",
     "--scale", "0.05", "--seed", "42", "--out", str(out)],
    check=True, stdout=subprocess.DEVNULL,
)

def rows(path):
    return [
        line for line in path.read_text().splitlines()
        if not line.startswith("Generated by") and "(wall-clock)" not in line
    ]

diff = list(difflib.unified_diff(
    rows(Path("EXPERIMENTS.md")), rows(out),
    "EXPERIMENTS.md", "regenerated", lineterm="",
))
if diff:
    print("\n".join(diff))
    sys.exit("EXPERIMENTS.md is stale: run scripts/generate_experiments.py")
print("EXPERIMENTS.md drift OK: every deterministic row regenerates")
PY
rm -f "${exp_md}"

echo
echo "==== summary: ${#summary[@]} gates, $((${#summary[@]} - failures - skipped)) passed," \
    "${failures} failed, ${skipped} not verified"
printf '  %s\n' "${summary[@]}"
if [ "${failures}" -ne 0 ]; then
    exit 1
fi
