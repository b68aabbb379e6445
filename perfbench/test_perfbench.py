"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

The smoke runs take about a minute (more on the first run in a checkout,
which computes the quality-of-result panel).
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import workloads  # noqa: E402


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.fixture(scope="module")
def smoke() -> dict[int, dict]:
    """Untraced and traced results of the cheapest workload, one flow each."""
    out = {}
    for trace in (0, 1):
        proc = run_bench(
            "--workload", "characterize-heavy", "--seed", "3", "--seconds", "1",
            "--trace", str(trace),
        )
        assert proc.returncode == 0, proc.stderr
        out[trace] = json.loads(proc.stdout.strip().splitlines()[-1])
    return out


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_matches_benchmark_json(smoke, trace, section):
    result = smoke[trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC[section]]
    for m in SPEC[section]:
        metric = result["metrics"][m["name"]]
        assert metric["unit"] == m["unit"]
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])


def test_end_to_end_metrics_are_never_zero(smoke):
    assert all(m["value"] > 0 for m in smoke[0]["metrics"].values())


def test_unattributed_time_is_not_negative(smoke):
    assert smoke[1]["metrics"]["unattributed_s"]["value"] >= 0


TINY = workloads.Profile(
    n_characterization=50, betas=(4.0,), burn_in=5, n_samples=10, n_test=50, n_train=20
)


def test_wrappers_leave_artefacts_unchanged(tmp_path):
    template = workloads.setup_in_process(tmp_path / "setup", 5, TINY)
    plain, plain_rows = workloads.run_in_process(tmp_path / "plain", 5, TINY, template)
    recorder = layers.SpanRecorder(tmp_path / "spans")
    recorder.install()
    try:
        traced, traced_rows = workloads.run_in_process(tmp_path / "traced", 5, TINY, template)
    finally:
        recorder.uninstall()
        recorder.dump()
    for flow, rows in ((plain, plain_rows), (traced, traced_rows)):
        workloads.check_in_process(flow, rows, TINY)
        assert flow.problems == []
    assert traced.digests == plain.digests
    recorded = {s["name"] for p in layers.load_processes(tmp_path / "spans") for s in p["spans"]}
    wrapped = {name for _, _, name in layers.ENTRY_POINTS}
    wrapped |= {name for _, name in layers.WORKSPACE_METHODS}
    assert wrapped <= recorded


def test_self_times_and_unattributed_time():
    def span(name, t0, t1, **attrs):
        return {"name": name, "t0": t0, "t1": t1, "attrs": attrs}

    coordinator = {"worker": False, "counters": {"sweep.shards.total": 2}, "spans": [
        span("sweep.run", 0.0, 4.0, jobs=2),
        span("sweep.pool", 0.5, 3.5),
        span("timing.simulate", 5.0, 6.0, transitions=10, plane_bytes=40),
        span("kernel.eval", 5.2, 5.6),
    ]}
    worker = {"worker": True, "counters": {}, "spans": [
        span("parallel.shard", 1.0, 3.0),
        span("timing.simulate", 1.5, 2.5, transitions=20, plane_bytes=80),
    ]}
    m = layers.layer_metrics(
        [coordinator, worker], flow_s=7.0, untraced_flow_s=7.0,
        gibbs_iterations=1, workspace_bytes=1, import_s=1.0,
    )
    assert m["unattributed_s"] == pytest.approx(7.0 - 4.0 - 1.0)
    assert m["timing.simulate_s"] == pytest.approx(1.0 + 0.6)
    assert m["timing.transitions"] == 30
    assert m["parallel.shard_self_s"] == pytest.approx(1.0)
    assert m["parallel.idle_s"] == pytest.approx(2 * 4.0 - 2.0)
    assert m["parallel.attempts_per_shard"] == 0.0


def test_fails_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(
        "--workload", "quickstart-cli", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
