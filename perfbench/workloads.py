"""The benchmark's workloads: the per-device flow, end to end.

Every workload runs the whole flow of the paper — initialise a device
workspace, characterise E(m, f) for every coefficient word-length, fit
the area model, run Algorithm 1, evaluate the designs — so every
end-to-end metric exists on every workload.  They differ in where the
work goes (see README.md for why each was chosen):

* ``quickstart-cli``: the quickstart flow as seven fresh ``repro-flow``
  processes at ``--scale 0.05``, ``jobs=1``, starting from an empty
  workspace and an empty placed-design cache;
* ``characterize-heavy``: in-process, a characterisation at 8% of
  Table I's sample count with ``jobs=2`` and a warm placed-design cache,
  followed by a light optimisation and evaluation;
* ``optimize-heavy``: in-process, a light characterisation, then
  Algorithm 1 for both Table-I betas and an evaluation of every OF and
  KLT design on 1000 test vectors.

The workload seed is the device serial and the workspace seed, so it
fixes the device, the data and every random stream of the flow.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LAUNCHER = Path(__file__).resolve().parent / "launch.py"

#: Cores the in-process workloads' sweeps may use (the box has 2).
JOBS = 2
#: Placed-design cache directory inside a workspace (repro-flow's layout).
CACHE_SUBDIR = Path("cache") / "placed"


def hermetic_env() -> dict[str, str]:
    """The environment for every process the benchmark starts.

    Every ``REPRO_*`` variable is dropped (jobs, cache dir, kernel,
    executor, faults, sanitizer, telemetry, retry policy, lint switches),
    so ambient settings cannot change what is measured.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass(frozen=True)
class Profile:
    """Sizes of one in-process workload's flow (Table I overrides)."""

    n_characterization: int
    betas: tuple[float, ...]
    burn_in: int
    n_samples: int
    n_test: int
    n_train: int = 100
    area_runs: int = 6  # synthesis runs per word-length for the area model

    def settings(self):
        from repro.config import TableISettings

        return replace(
            TableISettings(),
            n_characterization=self.n_characterization,
            betas=self.betas,
            burn_in=self.burn_in,
            n_samples=self.n_samples,
            n_test=self.n_test,
            n_train=self.n_train,
        )


#: In-process workloads.  Table I: 4900 characterisation cases, betas
#: {4, 8}, burn-in 1000, 3000 samples, 5000 test and 100 training cases.
#: Twice the quickstart's area-model runs keep that short stage long
#: enough to time steadily.
PROFILES = {
    "characterize-heavy": Profile(
        n_characterization=392, betas=(4.0,), burn_in=25, n_samples=75, n_test=250,
        area_runs=12,
    ),
    "optimize-heavy": Profile(
        n_characterization=98, betas=(4.0, 8.0), burn_in=30, n_samples=90, n_test=1000,
        area_runs=12,
    ),
    # Reference only, not a benchmark workload: Table I itself, traced
    # once to compare the layer mix with the scaled workloads.
    "table1-reference": Profile(
        n_characterization=4900, betas=(4.0, 8.0), burn_in=1000, n_samples=3000, n_test=5000
    ),
}
CLI_WORKLOAD = "quickstart-cli"
CLI_SCALE = 0.05
WORKLOADS = (CLI_WORKLOAD, *PROFILES)

#: Devices of the quality-of-result panel, independent of the workload
#: seed (see README.md, "Quality of result"), and the flow each runs: the
#: quickstart's sizes (Table I scaled by 0.05) with both betas.
QOR_SERIALS = (101, 202, 303)
QOR_PROFILE = Profile(
    n_characterization=245, betas=(4.0, 8.0), burn_in=50, n_samples=150, n_test=250, n_train=20
)


def gibbs_iterations(workload: str) -> int:
    """Burn-in plus samples of one Gibbs chain of ``workload``."""
    from repro.config import TableISettings

    if workload == CLI_WORKLOAD:
        s = TableISettings().scaled(CLI_SCALE)
        return s.burn_in + s.n_samples
    p = PROFILES[workload]
    return p.burn_in + p.n_samples


@dataclass
class FlowRun:
    """One timed pass of the flow and what it produced."""

    stages: dict[str, float]
    flow_s: float
    cpu_s: float
    workspace: Path
    digests: dict[str, str] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


def _cpu() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def peak_rss_mb() -> float:
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def artefact_paths(ws_root: Path) -> list[Path]:
    """Every artefact the flow archives, excluding the placed-design cache.

    Sweep-outcome sidecars are left out: they record shard latencies.
    """
    out = [ws_root / "workspace.json", ws_root / "area_model.json"]
    out += sorted((ws_root / "characterization").glob("wl*.npz"))
    out += sorted((ws_root / "designs").glob("*.json"))
    return out


def artefact_digests(ws_root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(ws_root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in artefact_paths(ws_root)
        if p.exists()
    }


def workspace_bytes(ws_root: Path) -> int:
    return sum(p.stat().st_size for p in artefact_paths(ws_root) if p.exists())


# ----------------------------------------------------------------------
# Set-up
def setup_in_process(work: Path, seed: int, profile: Profile) -> Path:
    """A workspace template whose placed-design cache holds every
    characterisation circuit of the seed's device; returns its cache dir."""
    from repro.characterization.harness import characterize_multiplier
    from repro.fabric.device import make_device
    from repro.parallel.cache import PlacedDesignCache
    from repro.stages import characterization_config

    settings = profile.settings()
    device = make_device(seed)
    cache = PlacedDesignCache(work / CACHE_SUBDIR)
    # One multiplicand, two samples: places every circuit, simulates ~nothing.
    cfg = replace(characterization_config(settings), n_samples=2, multiplicands=(0,))
    for wl in settings.coeff_wordlengths:
        characterize_multiplier(
            device, settings.input_wordlength, wl, cfg, seed=seed, jobs=1, cache=cache
        )
    return work / CACHE_SUBDIR


def setup_cli(work: Path) -> None:
    """Start one ``repro-flow`` interpreter: warms file and byte-code caches."""
    work.mkdir(parents=True, exist_ok=True)
    run_repro_flow(["--help"], work)


# ----------------------------------------------------------------------
# The in-process flow
def _designs_in_row_order(ws, name: str):
    """Designs in the order ``evaluate_workspace`` returns their rows."""
    return sorted(ws.load_design_set(name), key=lambda d: d.area_le or 0)


def run_in_process(
    work: Path, seed: int, profile: Profile, cache_template: Path
) -> tuple[FlowRun, dict]:
    """One timed in-process flow; returns it with its evaluation rows.

    Check it afterwards with :func:`check_in_process`.
    """
    from repro.circuits.domains import Domain
    from repro.fabric.device import make_device
    from repro.stages import (
        characterize_workspace,
        evaluate_workspace,
        fit_area_workspace,
        optimize_workspace,
        training_data,
    )
    from repro.workspace import Workspace

    shutil.copytree(cache_template, work / CACHE_SUBDIR)
    stages: dict[str, float] = {}
    rows: dict = {}
    cpu0 = _cpu()
    t_start = time.perf_counter()
    ws = Workspace(work)
    ws.initialize(make_device(seed), profile.settings(), seed=seed)

    t = time.perf_counter()
    characterize_workspace(ws, jobs=JOBS)
    stages["characterize_s"] = time.perf_counter() - t

    t = time.perf_counter()
    fit_area_workspace(ws, n_runs=profile.area_runs)
    stages["fit_area_s"] = time.perf_counter() - t

    t = time.perf_counter()
    for beta in profile.betas:
        optimize_workspace(ws, f"of-b{beta:g}", beta, jobs=JOBS)
    x_train, _ = training_data(ws)
    ws.save_design_set("klt", ws.framework(jobs=JOBS).klt_baselines(x_train))
    stages["optimize_s"] = time.perf_counter() - t

    t = time.perf_counter()
    for beta in profile.betas:
        for domain in Domain:
            rows[(f"of-b{beta:g}", domain.value)] = evaluate_workspace(
                ws, f"of-b{beta:g}", domain, jobs=JOBS
            )
    rows[("klt", "actual")] = evaluate_workspace(ws, "klt", Domain.ACTUAL, jobs=JOBS)
    stages["evaluate_s"] = time.perf_counter() - t

    flow = FlowRun(
        stages=stages,
        flow_s=time.perf_counter() - t_start,
        cpu_s=_cpu() - cpu0,
        workspace=work,
    )
    return flow, rows


def check_in_process(flow: FlowRun, rows: dict, profile: Profile) -> None:
    from repro.workspace import Workspace

    check_flow(flow, Workspace(flow.workspace), rows, [f"of-b{b:g}" for b in profile.betas])


# ----------------------------------------------------------------------
# The shell flow
def cli_commands(seed: int) -> list[tuple[list[str], str | None]]:
    """The shell flow: each ``repro-flow`` command with the stage it times."""
    evaluate = [
        (["evaluate", "ws", "--name", "run1", "--domain", d, "--jobs", "1"], "evaluate_s")
        for d in ("actual", "simulated", "predicted")
    ]
    return [
        (["init", "ws", "--serial", str(seed), "--scale", str(CLI_SCALE)], None),
        (["characterize", "ws", "--jobs", "1"], "characterize_s"),
        (["fit-area", "ws"], "fit_area_s"),
        (["optimize", "ws", "--beta", "4", "--name", "run1", "--jobs", "1"], "optimize_s"),
        *evaluate,
    ]


def run_repro_flow(args: list[str], cwd: Path, trace_dir: Path | None = None) -> float:
    """One fresh ``repro-flow`` process; returns its wall time."""
    cmd = [sys.executable, str(LAUNCHER)]
    if trace_dir is not None:
        cmd += ["--trace-dir", str(trace_dir)]
    t = time.perf_counter()
    proc = subprocess.run(
        cmd + args, env=hermetic_env(), cwd=cwd,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    wall = time.perf_counter() - t
    if proc.returncode != 0:
        last = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        raise RuntimeError(f"repro-flow {args[0]} exited {proc.returncode}: {last}")
    return wall


def run_cli(work: Path, seed: int, trace_dir: Path | None = None) -> FlowRun:
    """The quickstart flow as seven ``repro-flow`` processes.

    Check it afterwards with :func:`verify_cli`.
    """
    work.mkdir(parents=True, exist_ok=True)
    stages = {"characterize_s": 0.0, "fit_area_s": 0.0, "optimize_s": 0.0, "evaluate_s": 0.0}
    cpu0 = _cpu()
    t_start = time.perf_counter()
    for args, stage in cli_commands(seed):
        wall = run_repro_flow(args, work, trace_dir)
        if stage is not None:
            stages[stage] += wall
    return FlowRun(
        stages=stages,
        flow_s=time.perf_counter() - t_start,
        cpu_s=_cpu() - cpu0,
        workspace=work / "ws",
    )


def verify_cli(flow: FlowRun) -> None:
    """Check a finished shell flow in-process (untimed): KLT baselines,
    then the paper relationship on the OF and 9-bit KLT designs."""
    from repro.circuits.domains import Domain
    from repro.stages import evaluate_workspace, training_data
    from repro.workspace import Workspace

    ws = Workspace(flow.workspace)
    x_train, _ = training_data(ws)
    ws.save_design_set("klt", ws.framework(jobs=1).klt_baselines(x_train))
    rows = {
        ("run1", "actual"): evaluate_workspace(ws, "run1", Domain.ACTUAL, jobs=1),
        ("klt", "actual"): evaluate_workspace(ws, "klt", Domain.ACTUAL, jobs=1),
    }
    check_flow(flow, ws, rows, ["run1"])


# ----------------------------------------------------------------------
# Correctness
def check_flow(flow: FlowRun, ws, rows: dict, of_sets: list[str]) -> None:
    """Record the flow's artefact digests and any broken expectation.

    Every sweep must be ``complete`` (not degraded) and, at the target
    clock, the best OF design (lowest objective) of each design set must
    have a lower actual-domain MSE than the 9-bit KLT design.
    """
    settings = ws.settings()
    health = ws.sweep_health()
    if sorted(health) != list(settings.coeff_wordlengths):
        flow.problems.append(f"characterised word-lengths {sorted(health)}")
    for wl, h in sorted(health.items()):
        if h["status"] != "complete":
            flow.problems.append(f"wl{wl} sweep {h['status']}")
    klt = rows[("klt", "actual")]
    klt9 = klt[-1]["mse"]  # KLT designs ascend in word-length and area
    for name in of_sets:
        designs = _designs_in_row_order(ws, name)
        best = min(range(len(designs)), key=lambda i: designs[i].metadata["objective_t"])
        of_mse = rows[(name, "actual")][best]["mse"]
        if not of_mse < klt9:
            flow.problems.append(f"{name}: OF actual MSE {of_mse:.3e} >= KLT-9 {klt9:.3e}")
    flow.digests = artefact_digests(flow.workspace)
    evaluation = json.dumps(
        {f"{k[0]}/{k[1]}": [r["mse"] for r in v] for k, v in sorted(rows.items())},
        sort_keys=True,
    )
    flow.digests["evaluation"] = hashlib.sha256(evaluation.encode()).hexdigest()


# ----------------------------------------------------------------------
# Quality of result
def _geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def qor_key() -> str:
    """Identity of everything the quality-of-result panel depends on."""
    import numpy
    import scipy

    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + [Path(__file__)]:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    h.update(f"{sys.version} numpy {numpy.__version__} scipy {scipy.__version__}".encode())
    return h.hexdigest()


def quality_of_result(work: Path) -> dict[str, float]:
    """Actual-domain quality at 310 MHz over the fixed device panel.

    The panel does not depend on the workload seed: design quality varies
    by a factor of several from one device to the next, which would swamp
    any regression.  The values are a pure function of the code, so they
    are computed once per source tree and kept under ``work``.
    """
    key = qor_key()
    memo = work / f"qor-{key[:16]}.json"
    if memo.exists():
        return json.loads(memo.read_text())
    of_actual: list[float] = []
    of_predicted: list[float] = []
    klt_actual: list[float] = []
    for serial in QOR_SERIALS:
        root = work / f"qor-{serial}"
        shutil.rmtree(root, ignore_errors=True)
        template = setup_in_process(root / "setup", serial, QOR_PROFILE)
        flow, rows = run_in_process(root / "flow", serial, QOR_PROFILE, template)
        check_in_process(flow, rows, QOR_PROFILE)
        if flow.problems:
            raise RuntimeError(f"quality-of-result flow of device {serial}: {flow.problems}")
        for beta in QOR_PROFILE.betas:
            of_actual += [r["mse"] for r in rows[(f"of-b{beta:g}", "actual")]]
            of_predicted += [r["mse"] for r in rows[(f"of-b{beta:g}", "predicted")]]
        klt_actual += [r["mse"] for r in rows[("klt", "actual")]]
        shutil.rmtree(root)
    qor = {
        "qor.of_mse": _geomean(of_actual),
        "qor.klt_mse": _geomean(klt_actual),
        # Geometric-mean factor by which the E(m, f) model misses the device.
        "qor.model_gap": math.exp(
            sum(abs(math.log(p / a)) for p, a in zip(of_predicted, of_actual)) / len(of_actual)
        ),
    }
    tmp = memo.with_suffix(".tmp")
    tmp.write_text(json.dumps(qor))
    os.replace(tmp, memo)
    return qor
