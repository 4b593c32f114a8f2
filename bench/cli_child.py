"""Run one `sumprod.cli` invocation under the tracer.

    python3 bench/cli_child.py SUMMARY_PATH SPAWN_NS [sumprod arguments...]

Behaves like `python -m sumprod.cli` (same stdout, stderr and exit code)
and writes the tracer's totals for the invocation to SUMMARY_PATH.
SPAWN_NS is the parent's time.perf_counter_ns() just before it started
this process; that clock is the system's monotonic clock, so the child's
start-up (SPAWN_NS to this file's first statement), its import of
`sumprod.cli` and its exit (from writing the totals until the parent has
reaped it) are booked to the cli layer as spans `cli.startup`,
`cli.import` and `cli.exit`.
"""

import time

started = time.perf_counter_ns()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

importing = time.perf_counter_ns()
import sumprod.cli  # noqa: E402

imported = time.perf_counter_ns()
sys.path.insert(0, str(Path(__file__).resolve().parent))
from tracer import Tracer  # noqa: E402

if __name__ == "__main__":
    tracer = Tracer()
    tracer.install()
    tracer.begin_op()
    tracer.add_span("cli.startup", int(sys.argv[2]), started)
    tracer.add_span("cli.import", importing, imported)
    # this file's own imports and the tracer's installation
    tracer.add_span("trace.overhead", started, importing)
    tracer.add_span("trace.overhead", imported, time.perf_counter_ns())
    code = sumprod.cli.run(sys.argv[3:])
    summary = tracer.summary(tracer.fold())
    # the parent books the time from here until it has reaped this process
    summary["exiting_ns"] = time.perf_counter_ns()
    Path(sys.argv[1]).write_text(json.dumps(summary))
    sys.exit(code)
