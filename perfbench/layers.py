"""Per-layer tracing for the benchmark, recorded from outside the program.

The benchmark times calls into each layer's public entry points with
wrappers defined here, next to the spans and counters the program
already records through ``repro.obs``.  Nothing under ``src/`` changes:
:meth:`SpanRecorder.install` rebinds each entry point, in every loaded
``repro`` module that imported it, to a wrapper that records one span and
returns the original result untouched.  The wrappers pass every argument
through and draw no random numbers, so traced artefacts are
byte-identical to untraced ones (``test_perfbench.py`` checks this).

Spans stay in memory.  Each process writes its spans once, when it is
done, to ``<trace_dir>/spans-<pid>.json``; :func:`layer_metrics` folds
the files of one traced flow into the per-layer metrics.  Pool workers
forked during a sweep inherit the wrappers, start with an empty span list
and a fresh ``repro.obs`` observer, and write their file from
``multiprocessing``'s exit hook.
"""

from __future__ import annotations

import functools
import json
import multiprocessing
import os
import sys
import time
from multiprocessing import util as mp_util
from pathlib import Path

#: (module, attribute, span name) of every wrapped entry point.
ENTRY_POINTS = (
    ("repro.timing.simulator", "simulate_transitions", "timing.simulate"),
    ("repro.timing.capture", "capture_stream_batch", "capture.batch"),
    ("repro.timing.capture", "capture_stream", "capture.batch"),
    ("repro.analysis.linter", "lint_netlist", "synthesis.lint"),
    ("repro.characterization.harness", "plan_characterization", "characterize.plan"),
    ("repro.parallel.engine", "run_shard", "parallel.shard"),
    ("repro.models.area_model", "collect_area_samples", "models.area_samples"),
    ("repro.models.error_model", "build_error_model", "models.error_model"),
    ("repro.circuits.executor", "evaluate_design", "evaluate.design"),
)

#: Workspace methods timed as artefact saves and loads.
WORKSPACE_METHODS = (
    ("save_characterization", "workspace.save"),
    ("save_area_model", "workspace.save"),
    ("save_design_set", "workspace.save"),
    ("load_error_models", "workspace.load"),
    ("load_area_model", "workspace.load"),
    ("load_design_set", "workspace.load"),
)


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _span_attrs(name: str, args: tuple, kwargs: dict, result: object) -> dict:
    """Work counts of one call, read from its arguments and result."""
    if name == "timing.simulate":
        settle = result.settle  # (nodes, transitions) float32
        return {"transitions": int(settle.shape[1]), "plane_bytes": int(settle.nbytes)}
    if name == "capture.batch":
        timing = _arg(args, kwargs, 0, "timing")
        freqs = args[2] if len(args) > 2 else kwargs.get("freqs_mhz", kwargs.get("freq_mhz"))
        n_freqs = len(freqs) if hasattr(freqs, "__len__") else 1  # batch or one clock
        return {"cycles": timing.n_transitions * n_freqs}
    if name == "evaluate.design":
        return {"domain": _arg(args, kwargs, 2, "domain").value}
    return {}


class SpanRecorder:
    """One process's spans, plus the ``repro.obs`` observer feeding it."""

    def __init__(self, trace_dir: str | os.PathLike) -> None:
        self.trace_dir = Path(trace_dir)
        self.spans: list[tuple[str, float, float, dict]] = []
        self.active = False
        self._observer = None
        self._origin = 0.0
        self._restore: list[tuple[object, str, object]] = []

    def _fresh_observer(self) -> None:
        from repro.obs import MetricsRegistry, Observer, Tracer, set_observer

        # Tracer offsets are relative to its construction; perf_counter is
        # system-wide, so origin + offset is comparable across processes.
        self._origin = time.perf_counter()
        self._observer = Observer(
            tracer=Tracer(), metrics=MetricsRegistry(), trace_on=True, metrics_on=True
        )
        set_observer(self._observer)

    def _after_fork(self) -> None:
        if not self.active:
            return
        self.spans = []
        self._fresh_observer()
        mp_util.Finalize(None, self.dump, exitpriority=0)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            t1 = time.perf_counter()
            self.spans.append((name, t0, t1, _span_attrs(name, args, kwargs, result)))
            return result

        return timed

    def add_span(self, name: str, t0: float, t1: float) -> None:
        self.spans.append((name, t0, t1, {}))

    def install(self) -> None:
        """Enable ``repro.obs`` and wrap every entry point (before any fork)."""
        import repro  # noqa: F401  (loads every module holding a binding)
        from repro.workspace import Workspace

        self._fresh_observer()
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "repro"]
        for module_name, attr, span_name in ENTRY_POINTS:
            original = getattr(sys.modules[module_name], attr)
            wrapped = self._wrap(span_name, original)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapped)
        for method, span_name in WORKSPACE_METHODS:
            original = getattr(Workspace, method)
            self._restore.append((Workspace, method, original))
            setattr(Workspace, method, self._wrap(span_name, original))
        mp_util.register_after_fork(self, SpanRecorder._after_fork)
        self.active = True

    def uninstall(self) -> None:
        """Restore every binding and switch ``repro.obs`` back off."""
        from repro.obs import disable_observability

        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        self.active = False
        disable_observability()

    def dump(self) -> Path:
        """Write this process's spans and ``repro.obs`` counters."""
        records = [
            {"name": n, "t0": t0, "t1": t1, "attrs": a} for n, t0, t1, a in self.spans
        ]
        counters: dict[str, int] = {}
        if self._observer is not None:
            for rec in self._observer.tracer.records:
                t0 = self._origin + rec.start_s
                records.append({
                    "name": rec.name, "t0": t0, "t1": t0 + rec.duration_s,
                    "attrs": dict(rec.attrs),
                })
            counters = dict(self._observer.metrics.snapshot().counters)
        self.trace_dir.mkdir(parents=True, exist_ok=True)
        path = self.trace_dir / f"spans-{os.getpid()}.json"
        tmp = self.trace_dir / f".spans-{os.getpid()}.tmp"
        tmp.write_text(json.dumps({
            "pid": os.getpid(),
            "worker": multiprocessing.parent_process() is not None,
            "spans": records,
            "counters": counters,
        }))
        os.replace(tmp, path)
        return path


def load_processes(trace_dir: str | os.PathLike) -> list[dict]:
    return [json.loads(p.read_text()) for p in sorted(Path(trace_dir).glob("spans-*.json"))]


def _nest(spans: list[dict]) -> list[dict]:
    """Give every span of one process its ``self`` time and ``top`` flag.

    Spans of one single-threaded process nest by time interval, so the
    parent of a span is the innermost earlier span that contains it.
    """
    ordered = sorted(spans, key=lambda s: (s["t0"], -s["t1"]))
    stack: list[dict] = []
    for s in ordered:
        while stack and stack[-1]["t1"] <= s["t0"]:
            stack.pop()
        s["self"] = s["t1"] - s["t0"]
        s["top"] = not stack
        if stack:
            stack[-1]["self"] -= s["t1"] - s["t0"]
        stack.append(s)
    return ordered


def layer_metrics(
    processes: list[dict],
    flow_s: float,
    untraced_flow_s: float,
    gibbs_iterations: int,
    workspace_bytes: int,
    import_s: float,
) -> dict[str, float]:
    """The per-layer metrics of one traced flow.

    ``processes`` are the span files of every process the flow ran;
    ``gibbs_iterations`` is burn-in + samples of one chain.
    ``unattributed_s`` is the part of ``flow_s`` that no top-level span of
    a coordinating process (not a pool worker) covers.
    """
    spans: list[dict] = []
    counters: dict[str, int] = {}
    top_s = 0.0
    for proc in processes:
        nested = _nest(proc["spans"])
        spans.extend(nested)
        if not proc["worker"]:
            top_s += sum(s["t1"] - s["t0"] for s in nested if s["top"])
        for name, value in proc["counters"].items():
            counters[name] = counters.get(name, 0) + value

    def of(name: str) -> list[dict]:
        return [s for s in spans if s["name"] == name]

    def total(name: str, key: str = "dur") -> float:
        if key == "dur":
            return sum(s["t1"] - s["t0"] for s in of(name))
        if key == "self":
            return sum(s["self"] for s in of(name))
        return sum(s["attrs"].get(key, 0) for s in of(name))

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    hits = counters.get("cache.placed.hits", 0)
    misses = counters.get("cache.placed.misses", 0)
    sim_s = total("timing.simulate")
    transitions = total("timing.simulate", "transitions")
    busy = total("parallel.shard")
    capacity = sum((s["t1"] - s["t0"]) * int(s["attrs"].get("jobs", 1)) for s in of("sweep.run"))
    chains = len(of("gibbs.sample"))
    gibbs_s = total("gibbs.sample")
    shards = counters.get("sweep.shards.total", 0)
    by_domain = {"actual": 0.0, "simulated": 0.0, "predicted": 0.0}
    for s in of("evaluate.design"):
        by_domain[s["attrs"]["domain"]] += s["t1"] - s["t0"]
    return {
        "process.import_s": import_s,
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.hit_ratio": ratio(hits, hits + misses),
        "cache.place_s": total("cache.synthesize"),
        "synthesis.runs": counters.get("synthesis.runs", 0),
        "synthesis.run_s": total("synthesis.run"),
        "synthesis.lint_s": total("synthesis.lint"),
        "timing.simulate_calls": len(of("timing.simulate")),
        "timing.transitions": transitions,
        "timing.simulate_s": total("timing.simulate", "self"),
        "timing.transitions_per_s": ratio(transitions, sim_s),
        "timing.plane_bytes": total("timing.simulate", "plane_bytes"),
        "capture.cycles": total("capture.batch", "cycles"),
        "capture.batch_s": total("capture.batch"),
        "kernel.eval_s": total("kernel.eval"),
        "kernel.plan.cache_misses": counters.get("kernel.plan.cache_misses", 0),
        "characterize.plan_s": total("characterize.plan"),
        "parallel.shards": shards,
        "parallel.pool_starts": len(of("sweep.pool")),
        "parallel.shard_busy_s": busy,
        "parallel.shard_self_s": total("parallel.shard", "self"),
        "parallel.idle_s": capacity - busy,
        "parallel.utilisation": ratio(busy, capacity),
        "parallel.retries": counters.get("sweep.shards.retried", 0),
        "parallel.attempts_per_shard": ratio(counters.get("sweep.attempts.total", 0), shards),
        "gibbs.chains": chains,
        "gibbs.draws": chains * gibbs_iterations,
        "gibbs.sample_s": gibbs_s,
        "gibbs.iters_per_s": ratio(chains * gibbs_iterations, gibbs_s),
        "optimize.self_s": total("optimize.run", "self") + total("optimize.dimension", "self"),
        "evaluate.calls": len(of("evaluate.design")),
        "evaluate.actual_s": by_domain["actual"],
        "evaluate.simulated_s": by_domain["simulated"],
        "evaluate.predicted_s": by_domain["predicted"],
        "models.area_samples_s": total("models.area_samples"),
        "models.error_model_s": total("models.error_model"),
        "workspace.save_s": total("workspace.save"),
        "workspace.load_s": total("workspace.load"),
        "workspace.bytes": workspace_bytes,
        "obs.overhead_ratio": ratio(flow_s, untraced_flow_s),
        "unattributed_s": flow_s - top_s,
    }
