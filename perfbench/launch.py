"""Thin ``repro-flow`` launcher: ``python3 perfbench/launch.py [--trace-dir DIR] ARGS``.

Runs ``repro.cli_flow.main(ARGS)`` in this fresh process, exactly as the
``repro-flow`` script would.  With ``--trace-dir`` it first installs the
benchmark's layer wrappers and ``repro.obs`` (before any pool forks),
records the cold import of the flow as the ``process.import`` span, and
writes this process's spans to ``DIR`` when the command returns.
"""

import sys
import time


def main(argv: list[str]) -> int:
    trace_dir = None
    if argv[:1] == ["--trace-dir"]:
        trace_dir, argv = argv[1], argv[2:]
    t0 = time.perf_counter()
    from repro.cli_flow import main as flow_main

    t1 = time.perf_counter()
    if trace_dir is None:
        return flow_main(argv)
    from layers import SpanRecorder

    recorder = SpanRecorder(trace_dir)
    recorder.add_span("process.import", t0, t1)
    recorder.install()
    try:
        return flow_main(argv)
    finally:
        recorder.dump()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
