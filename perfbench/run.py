"""End-to-end benchmark of the per-device flow.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  ``--trace 0`` sets up the
workload at least three times and for at least a second, runs the timed
flow until ``--seconds`` have passed (at least once), times three fresh
``repro-flow status`` calls and prints the end-to-end metrics.  ``--trace 1`` runs the flow untraced,
traced and untraced again, and prints the per-layer metrics of the
traced flow.  Every flow is checked (``workloads.check_flow``), and its
artefact digests must agree with the run's other flows, traced or not,
and with ``pins.json``.  The last line of standard output is the JSON
result.  A result file with every sample and the run's environment goes
to ``.perfbench_work/results/``.  ``--pin`` records this run's artefact
digests in ``pins.json`` (for a deliberate change of the flow's output).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

import workloads
from layers import SpanRecorder, layer_metrics, load_processes

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
PINS = HERE / "pins.json"
#: Set up at least this many times, and for at least this long.
SETUPS = 3
SETUP_MIN_S = 1.0
NOOP_CALLS = 3


def units(section: str) -> dict[str, str]:
    """Metric name -> unit of one section of ``BENCHMARK.json``, in order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--pin", action="store_true", help="record this run's digests in pins.json")
    return p.parse_args(argv)


def environment() -> dict:
    import multiprocessing

    import numpy
    import scipy
    from repro.config import get_kernel_mode

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kernel_mode": get_kernel_mode(),
        "start_method": multiprocessing.get_start_method(),
    }


class Run:
    """One benchmark invocation: samples, checks and the failure count."""

    def __init__(self, workload: str, seed: int, work: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.flows: list = []
        self.reference: dict | None = None
        pins = json.loads(PINS.read_text()) if PINS.exists() else {}
        self.pinned = pins.get(workload, {}).get(str(seed))

    # ------------------------------------------------------------------
    def setup(self, index: int) -> Path | None:
        target = self.work / f"setup{index}"
        if self.workload == workloads.CLI_WORKLOAD:
            workloads.setup_cli(target)
            return None
        return workloads.setup_in_process(target, self.seed, workloads.PROFILES[self.workload])

    def flow(self, index: int, template: Path | None, recorder=None):
        """One checked flow, or ``None`` if it raised.

        ``recorder`` traces it: a trace directory for the shell flow's
        launchers, a :class:`layers.SpanRecorder` for the in-process flow.
        """
        self.attempted += 1
        try:
            flow = self._flow(self.work / f"flow{index}", template, recorder)
        except Exception as exc:  # a broken flow is a failed operation, not a crash
            self.failed += 1
            self.problems.append(f"flow {index}: {type(exc).__name__}: {exc}")
            return None
        if self.reference is None:
            self.reference = flow.digests
        elif flow.digests != self.reference:
            flow.problems.append("artefact digests differ from this run's first flow")
        if self.pinned is not None and flow.digests != self.pinned:
            flow.problems.append("artefact digests differ from pins.json")
        if flow.problems:
            self.failed += 1
            self.problems += [f"flow {index}: {p}" for p in flow.problems]
        self.flows.append(flow)
        return flow

    def _flow(self, target: Path, template: Path | None, recorder):
        if self.workload == workloads.CLI_WORKLOAD:
            flow = workloads.run_cli(target, self.seed, trace_dir=recorder)
            workloads.verify_cli(flow)
            return flow
        profile = workloads.PROFILES[self.workload]
        if recorder is not None:
            recorder.install()
        try:
            flow, rows = workloads.run_in_process(target, self.seed, profile, template)
        finally:
            if recorder is not None:
                recorder.uninstall()
                recorder.dump()
        workloads.check_in_process(flow, rows, profile)
        return flow

    def noop(self, ws_root: Path) -> float | None:
        """Wall time of a fresh ``repro-flow status``, or ``None`` if it failed."""
        self.attempted += 1
        try:
            return workloads.run_repro_flow(["status", str(ws_root)], self.work)
        except RuntimeError as exc:
            self.failed += 1
            self.problems.append(f"status: {exc}")
            return None

    def quality_of_result(self) -> dict[str, float]:
        """The QoR metrics; NaN, and a failed operation, if their flows fail."""
        self.attempted += 1
        try:
            return workloads.quality_of_result(WORK)
        except Exception as exc:  # reported as a failed operation
            self.failed += 1
            self.problems.append(f"quality of result: {type(exc).__name__}: {exc}")
            return dict.fromkeys(("qor.of_mse", "qor.klt_mse", "qor.model_gap"), float("nan"))


class FlowFailed(Exception):
    """No flow of the run finished, so there is nothing to report."""


def summary(samples: list[float]) -> dict:
    return {
        "median": statistics.median(samples),
        "max": max(samples),
        "n": len(samples),
        "values": samples,
    }


def measure(run: Run, seconds: float) -> tuple[dict, dict]:
    """The end-to-end metrics: values for the result line, samples for the record."""
    samples: dict[str, list[float]] = {"setup_s": []}
    template = None
    setup_end = time.perf_counter() + SETUP_MIN_S
    while len(samples["setup_s"]) < SETUPS or time.perf_counter() < setup_end:
        t = time.perf_counter()
        template = run.setup(len(samples["setup_s"]))
        samples["setup_s"].append(time.perf_counter() - t)

    walls: list[float] = []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        flow = run.flow(len(walls), template)
        if flow is None:
            break
        walls.append(time.perf_counter() - t)
        for name, value in {**flow.stages, "flow_s": flow.flow_s, "cpu_s": flow.cpu_s}.items():
            samples.setdefault(name, []).append(value)
        if len(walls) > 1:
            shutil.rmtree(run.flows[-2].workspace, ignore_errors=True)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(walls) > seconds:
            break
    if not walls:
        raise FlowFailed
    samples["peak_rss_mb"] = [workloads.peak_rss_mb()]
    noops = [run.noop(run.flows[-1].workspace) for _ in range(NOOP_CALLS)]
    samples["cli_noop_s"] = [t for t in noops if t is not None] or [float("nan")]
    for name, value in run.quality_of_result().items():
        samples[name] = [value]
    metrics = {
        name: {"value": statistics.median(samples[name]), "unit": unit}
        for name, unit in units("end_to_end").items()
    }
    return metrics, {name: summary(v) for name, v in samples.items()}


def measure_layers(run: Run, import_s: float) -> tuple[dict, dict]:
    """The per-layer metrics of one traced flow, against two untraced flows."""
    template = run.setup(0)
    trace_dir = run.work / "spans"
    recorder = trace_dir if run.workload == workloads.CLI_WORKLOAD else SpanRecorder(trace_dir)
    # Untraced flows on both sides of the traced one, so neither side
    # alone pays the process's first-flow costs.
    flows = [run.flow(0, template), run.flow(1, template, recorder), run.flow(2, template)]
    if None in flows:
        raise FlowFailed
    traced = flows[1]
    untraced_s = (flows[0].flow_s + flows[2].flow_s) / 2
    processes = load_processes(trace_dir)
    imports = [
        s["t1"] - s["t0"] for p in processes for s in p["spans"] if s["name"] == "process.import"
    ]
    values = layer_metrics(
        processes,
        flow_s=traced.flow_s,
        untraced_flow_s=untraced_s,
        gibbs_iterations=workloads.gibbs_iterations(run.workload),
        workspace_bytes=workloads.workspace_bytes(traced.workspace),
        import_s=statistics.median(imports) if imports else import_s,
    )
    metrics = {
        name: {"value": values[name], "unit": unit} for name, unit in units("per_layer").items()
    }
    return metrics, {"flow_s": summary([f.flow_s for f in flows])}


def print_table(metrics: dict, samples: dict) -> None:
    print(f"{'metric':32} {'unit':6} {'median':>14} {'max':>14} {'n':>3}")
    for name, m in metrics.items():
        s = samples.get(name, {"median": m["value"], "max": m["value"], "n": 1})
        print(f"{name:32} {m['unit']:6} {s['median']:14.6g} {s['max']:14.6g} {s['n']:3d}")


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import repro  # noqa: F401

    import_s = time.perf_counter() - t0
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    run = Run(args.workload, args.seed, work)
    try:
        if args.trace:
            metrics, samples = measure_layers(run, import_s)
        else:
            metrics, samples = measure(run, args.seconds)
    except FlowFailed:
        metrics, samples = {}, {}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.pin and not run.problems:
        pins = json.loads(PINS.read_text()) if PINS.exists() else {}
        pins.setdefault(args.workload, {})[str(args.seed)] = run.reference
        PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "samples": samples,
        "metrics": metrics,
        "digests": run.reference,
        "pinned": run.pinned is not None,
        "problems": run.problems,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print_table(metrics, samples)
    for problem in run.problems:
        print(f"FAILED: {problem}")
    print(f"result file: {path.relative_to(ROOT)}", file=sys.stderr)
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
