"""What a fresh flow process imports.

Every ``repro-flow`` step, pool worker and ``repro worker`` is a new
interpreter, so the import graph is paid once per process.  These checks
are structural (module sets, not wall-clock thresholds): the runtime flow
must not load scipy, and neither the flow nor the netlist lint gate may
drag in the source auditors behind ``repro audit``.  The one eager edge
kept on purpose: ``repro.workspace`` loads the whole flow, because the
benchmark's tracer wraps the flow's entry points when it imports it.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

AUDITORS = ("repro.analysis.sanitizer", "repro.analysis.portability")


def _modules_after(*statements: str) -> list[str]:
    code = "\n".join([*statements, "import json, sys", "print(json.dumps(sorted(sys.modules)))"])
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    return json.loads(proc.stdout)


def test_flow_entry_points_load_no_scipy_or_auditors():
    modules = _modules_after(
        "import repro, repro.cli_flow, repro.parallel.worker, repro.kernels"
    )
    assert [m for m in modules if m == "scipy" or m.startswith("scipy.")] == []
    assert [m for m in modules if m.startswith(AUDITORS)] == []


def test_lint_gate_loads_no_auditors():
    modules = _modules_after("from repro.analysis import check_netlist")
    assert "repro.analysis.linter" in modules
    assert [m for m in modules if m.startswith(AUDITORS)] == []


def test_flow_cli_defers_stage_code_to_subcommands():
    modules = _modules_after("import repro.cli_flow")
    for heavy in ("repro.stages", "repro.workspace", "repro.framework", "numpy"):
        assert heavy not in modules


def test_workspace_loads_every_benchmark_traced_module():
    # perfbench/layers.py (SpanRecorder.install) wraps its ENTRY_POINTS in
    # the modules that `import repro` and `from repro.workspace import
    # Workspace` load, and reads each from sys.modules; so the traced
    # shell flow needs Workspace to keep loading all of them eagerly.
    layers = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
    spec = importlib.util.spec_from_file_location("perfbench_layers", layers)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    wanted = sorted({name for name, _, _ in module.ENTRY_POINTS})
    modules = _modules_after(
        "import repro.cli_flow, repro", "from repro.workspace import Workspace"
    )
    assert [m for m in wanted if m not in modules] == []
