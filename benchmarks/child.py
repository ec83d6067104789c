"""One benchmark job: run a single ``kgd`` CLI verb in this fresh process.

Usage: child.py LAUNCH_TIME REPORT_PATH TRACE -- KGD_ARGS...

LAUNCH_TIME is the parent's ``time.monotonic()`` just before it started this
process. The job report (JSON at REPORT_PATH) holds:

- setup_s: launch until ``kgd.cli`` is imported, plus the input generation
  the CLI runs (``gen_lv_data`` / ``gen_mfnn_data``, timed by wrapping the
  names ``kgd.cli`` imports);
- run_s: wall time of ``kgd.cli.main`` minus that input generation;
- cpu_s and peak_rss_mb of this process;
- solver_points: the points passed to ``lv_sensitivities``, counted on
  every job for the output checks;
- layers: per-layer metrics when TRACE is 1, with the raw spans written
  next to the report.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    launch = float(sys.argv[1])
    import kgd.cli  # the import is part of setup_s

    imported = time.monotonic()
    import tracing

    report_path, trace, sep, *kgd_args = sys.argv[2:]
    if sep != "--":
        raise SystemExit("usage: child.py LAUNCH_TIME REPORT_PATH TRACE -- KGD_ARGS...")
    timers = {"gen_s": 0.0, "solver_points": 0}

    def timed_gen(fn):
        def gen(*args, **kwargs):
            start = time.monotonic()
            try:
                return fn(*args, **kwargs)
            finally:
                timers["gen_s"] += time.monotonic() - start

        return gen

    def counted_solver(fn):
        def solve(x, *args, **kwargs):
            timers["solver_points"] += tracing.rows(x)
            return fn(x, *args, **kwargs)

        return solve

    for name in ("gen_lv_data", "gen_mfnn_data"):
        setattr(kgd.cli, name, timed_gen(getattr(kgd.cli, name)))
    tracing.replace_function("kgd.models", "lv_sensitivities", counted_solver)
    tracer = tracing.Tracer()
    if trace == "1":
        tracer.install()

    start, origin = time.monotonic(), tracing.clock()
    code = kgd.cli.main(kgd_args)
    wall = time.monotonic() - start

    usage = resource.getrusage(resource.RUSAGE_SELF)
    report = {
        "exit_code": code,
        "setup_s": imported - launch + timers["gen_s"],
        "run_s": wall - timers["gen_s"],
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # Linux reports KiB
        "solver_points": timers["solver_points"],
    }
    if trace == "1":
        report["layers"] = tracing.summarize(tracer.spans)
        spans = [[n, s - origin, e - origin, p] for n, s, e, p, _ in tracer.spans]
        Path(report_path).with_name("spans.json").write_text(json.dumps(spans))
    Path(report_path).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
