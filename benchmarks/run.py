"""Benchmark of the kgd CLI: four batch-job workloads, timed end to end or
traced per layer.

Usage, from the repository root:

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

For about S seconds the benchmark runs the workload's ``kgd`` verb as a
batch job, each time in a fresh child process (``child.py``), with the seed
passed to kgd as ``--seed`` or ``run.seed``. It starts jobs while less than S
seconds have passed, and at least ``MIN_JOBS``, so the last job, or a long
workload, stretches the run past S. Then it checks
the outputs (``workloads.py``) and prints, as the last line of stdout, one
JSON object with ``correct``, ``attempted`` and ``failed`` (output checks)
and ``metrics``:

- ``--trace 0``: the end-to-end metrics, each the median over jobs: run_s,
  setup_s, cpu_s, peak_rss_mb (see ``child.py``), plus check_pass_ratio,
  the share of output checks that passed (1 - failed / attempted).
- ``--trace 1``: jobs alternate between untraced and traced. The metrics
  are the per-layer metrics of ``tracing.py``, each the median over traced
  jobs, plus trace.overhead_s (median traced run_s minus median untraced
  run_s) and trace.run_s (median traced run_s).

Every result also prints the environment (Python, numpy, BLAS and its thread
setting, nproc, CPU model, kgd commit or source hash, load average at start
and end, CPU time stolen by the hypervisor during the run) and one line per
job. ``--workload all`` runs every workload in turn and prints one combined
object, with metric names prefixed by the workload. Job outputs, reports and
spans of the latest run of each workload and mode stay under ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# One BLAS thread: on a 2-vCPU Xeon VM a second OpenBLAS thread left wall
# time unchanged on estimators-large and doubled cpu_s by spinning.
BLAS_THREADS = 1
JOB_TIMEOUT_S = 60
# Jobs per run, whatever the run length: a median of at least three, and in
# traced runs (which alternate) two traced and two untraced. lv-ode jobs take
# 9-12 s on a 2-vCPU Xeon VM, so a fourth job there would stretch its runs
# from about 37 s to 48 s.
MIN_JOBS = 3

E2E_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "check_pass_ratio": "ratio",
}
_LAYER_UNITS = {
    "self_s": "s", "total_s": "s", "overhead_s": "s", "run_s": "s",
    "bytes_computed": "B", "hit_ratio": "ratio", "points_per_call": "points/call",
}


def layer_unit(name: str) -> str:
    return _LAYER_UNITS.get(name.rsplit(".", 1)[-1], "count")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "kgd").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):  # numpy without structured build info
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "kgd_commit": git_commit(),
        "kgd_source_sha256": source_digest(),
    }


def run_job(kgd_args: list[str], jobdir: Path, trace: int, env: dict) -> tuple[dict | None, str]:
    """One child process; returns its report, or None and the reason."""
    jobdir.mkdir(parents=True)
    report_path = jobdir / "report.json"
    child = [sys.executable, str(BENCH / "child.py")]
    with open(jobdir / "output.txt", "w") as log:
        launch = time.monotonic()
        try:
            proc = subprocess.run(
                [*child, repr(launch), str(report_path), str(trace), "--", *kgd_args],
                env=env, stdout=log, stderr=subprocess.STDOUT, timeout=JOB_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return None, f"timed out after {JOB_TIMEOUT_S} s"
    if proc.returncode != 0 or not report_path.exists():
        return None, f"child exited with {proc.returncode}, see {jobdir / 'output.txt'}"
    report = json.loads(report_path.read_text())
    if report["exit_code"] != 0:
        return None, f"kgd exited with {report['exit_code']}, see {jobdir / 'output.txt'}"
    return report, ""


def steal_s() -> float | None:
    """CPU time the hypervisor gave to other guests, summed over CPUs."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def measure(workload, seed: int, seconds: float, trace: int, env: dict, workdir: Path):
    """Start jobs until ``seconds`` have passed and at least ``MIN_JOBS``
    have run; traced jobs alternate with untraced."""
    modes = (0,) if trace == 0 else (0, 1)
    jobs: list[tuple[int, Path, dict | None, str]] = []
    start = time.monotonic()
    while (len(jobs) < MIN_JOBS or len(jobs) % len(modes)
           or time.monotonic() - start < seconds):
        mode = modes[len(jobs) % len(modes)]
        jobdir = workdir / f"job{len(jobs)}"
        out = jobdir / "out"
        kgd_args = workload.argv(seed, out, workdir)
        report, why = run_job(kgd_args, jobdir, mode, env)
        jobs.append((mode, out, report, why))
        if report is None:  # a failed job fails the run; do not repeat it
            break
    return jobs, time.monotonic() - start, kgd_args


def run_workload(workload, seed: int, seconds: float, trace: int, env: dict) -> dict:
    """Measure one workload for about ``seconds``, check its outputs, print
    the per-job lines and return the result object."""
    from workloads import Checks, Context, deterministic_bytes

    workdir = WORK / f"{workload.name}-trace{trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    load_start, steal_start = os.getloadavg(), steal_s()
    env_info = environment()

    # Warm the interpreter's bytecode cache and the page cache: users do not
    # pay a first-import compile on every run.
    subprocess.run([sys.executable, "-c", "import kgd.cli"], env=env, check=True, timeout=JOB_TIMEOUT_S)

    jobs, measured_s, kgd_args = measure(workload, seed, seconds, trace, env, workdir)

    checks = Checks()
    for k, (_, _, report, why) in enumerate(jobs):
        checks.add(f"job{k}-exit", report is not None, why)
    _, first_out, first_report, _ = jobs[0]
    if first_report is not None:
        reference = deterministic_bytes(first_out)
        for k, (_, out, report, _) in enumerate(jobs[1:], start=1):
            if report is not None:
                checks.add(f"job{k}-deterministic", deterministic_bytes(out) == reference,
                           "particles.csv and trace.csv (without wall_time_s) match job0")

        def kgd(cli_args: list[str]) -> subprocess.CompletedProcess:
            return subprocess.run([sys.executable, "-m", "kgd.cli", *cli_args], env=env,
                                  capture_output=True, text=True, timeout=JOB_TIMEOUT_S)

        workload.check(Context(first_out, first_report, seed, workdir, kgd), checks)
    attempted, failed = len(checks.results), checks.failed

    untraced = [r for mode, _, r, _ in jobs if r is not None and mode == 0]
    traced = [r for mode, _, r, _ in jobs if r is not None and mode == 1]
    metrics: dict[str, dict] = {}
    if trace == 0 and untraced:
        for name in ("run_s", "setup_s", "cpu_s", "peak_rss_mb"):
            metrics[name] = {"value": statistics.median(r[name] for r in untraced),
                             "unit": E2E_UNITS[name]}
        metrics["check_pass_ratio"] = {"value": 1.0 - failed / attempted, "unit": E2E_UNITS["check_pass_ratio"]}
    elif trace == 1 and traced and untraced:
        for name in traced[0]["layers"]:
            metrics[name] = {"value": statistics.median(r["layers"][name] for r in traced),
                             "unit": layer_unit(name)}
        traced_run = statistics.median(r["run_s"] for r in traced)
        metrics["trace.run_s"] = {"value": traced_run, "unit": "s"}
        metrics["trace.overhead_s"] = {
            "value": traced_run - statistics.median(r["run_s"] for r in untraced), "unit": "s"}

    steal_end = steal_s()
    env_info |= {
        "load_avg_start": load_start,
        "load_avg_end": os.getloadavg(),
        "cpu_steal_s": None if steal_start is None or steal_end is None else steal_end - steal_start,
    }
    print("environment " + json.dumps(env_info, sort_keys=True))
    print(f"workload {workload.name} seed {seed} trace {trace}: {len(jobs)} jobs in "
          f"{measured_s:.1f} s; kgd {' '.join(kgd_args)}")
    for k, (mode, _, report, why) in enumerate(jobs):
        kind = "traced" if mode else "untraced"
        if report is None:
            print(f"job{k} {kind} FAILED: {why}")
        else:
            print(f"job{k} {kind} " + " ".join(
                f"{name} {report[name]:.4f}" for name in ("run_s", "setup_s", "cpu_s", "peak_rss_mb")))
    for name, ok, detail in checks.results:
        if not ok:
            print(f"check FAILED {name}: {detail}")
    print(f"checks: {attempted - failed}/{attempted} passed")
    return {"correct": failed == 0 and bool(metrics), "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "kgd" / "cli.py").is_file():
        print(f"error: no kgd sources under {SRC}; run from a kgd checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if not set(names) <= set(WORKLOADS):
        print(f"error: unknown workload {args.workload!r}; choose from {list(WORKLOADS)} or 'all'",
              file=sys.stderr)
        return 2
    env = child_env()
    # Checks run numpy in this process; keep it to the same thread count.
    os.environ.update({k: env[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})

    results = {name: run_workload(WORKLOADS[name], args.seed, args.seconds, args.trace, env)
               for name in names}
    if len(results) == 1:
        (result,) = results.values()
    else:  # one object for all workloads, metric names prefixed by workload
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
        for key, value in result["metrics"].items():
            print(f"{key} {value['value']:.6g} {value['unit']}")
    print(json.dumps(result))
    return 0 if all(r["metrics"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
