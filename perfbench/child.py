"""One measured cubic27 execution in a fresh interpreter.

    python3 perfbench/child.py --t0 <CLOCK_MONOTONIC at spawn> [--trace] JOB

JOB is JSON: ``{"cli": [...]}`` calls ``cubic27.cli.main`` with those
arguments; ``{}`` only sets up.

Sets up the state every command shares, runs the job and prints one JSON
object: ``setup_s`` (spawn to set-up done) and ``setup_at`` (its start and
end on CLOCK_MONOTONIC), ``wall_s`` (set-up done to the job's output) and
``job_at``, ``peak_rss_mb``, the exit code, the output and, with
``--trace``, the tracer's metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def execute(job: dict) -> tuple[int, str]:
    """Run the job; returns its exit code and standard output."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = sys.modules["cubic27.cli"].main(job["cli"])
    return code, buf.getvalue()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("job", type=json.loads)
    opts = parser.parse_args()

    run = execute
    tracer = None
    if opts.trace:
        sys.path.insert(0, HERE)
        from tracer import Tracer

        tracer = Tracer()
    import cubic27.cli  # noqa: F401  (imports every module)

    if tracer is not None:
        tracer.install()
        run = tracer.wrap_root(execute)
    lines = sys.modules["cubic27.lines"]
    lines.fermat_catalog()
    lines.incidence_graph()
    lines.weyl_group()
    lines.s4_group()
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    out: dict = {"setup_s": ready - opts.t0, "setup_at": [opts.t0, ready]}

    if opts.job:
        code, output = run(opts.job)
        done = time.clock_gettime(time.CLOCK_MONOTONIC)
        out.update(
            wall_s=done - ready,
            job_at=[ready, done],
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            exit_code=code,
            output=output,
        )
        if tracer is not None:
            out["trace"] = tracer.metrics()
    json.dump(out, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
