"""The four benchmark workloads: how each one calls the ``kgd`` CLI, and the
output checks that hold for any seed.

Each workload is one ``kgd`` verb call, shaped like a user batch job. Why
each one is in the benchmark, and which layer it stresses:

- ``estimators-large``: the ``clt-study`` preset with fewer replicates.
  Replicated V/U statistics at n up to 800, d in {2, 5}. Nearly all time
  goes to ``kernels.pairwise``, the quadratic-interaction score and Stein
  assembly on (n, n, d) arrays; the ODE and sampler layers are idle.
- ``lv-ode``: the ``lv-compare`` preset with all three arms (MFLD, VGD,
  greedy), cut to two points per arm and two flow steps. The only workload
  that reaches the ODE solver, the solve cache and predictive pair blocks.
  Each flow arm's first step hits the cache (the step-0 trace solved its
  atoms); its second step and final trace miss. Greedy re-looks-up its
  points. Greedy keeps the preset's 120 candidates, so pair blocks stay a
  measurable share once the solver gets cheaper.
- ``mfnn-small``: the ``mfnn-compare`` preset at its defaults. Thousands of
  Gram and score calls at n = 20-50 (finite-difference KGDD, the
  finite-difference parametric-VI arm, MFLD): the kernel, score and assembly
  layers of ``estimators-large``, but bound by per-call overhead.
- ``sample-matrix``: ``kgd sample`` with VGD + Adam, the weighted matrix
  kernel and a linear-quadratic loss, n = 300, d = 3, tracing every 10
  steps. The only workload that reaches ``scalar_pairwise``, the ``sample``
  verb and the sampler-loop trace at n in the hundreds.

The workload seed reaches the program only through ``--seed`` (presets) or
``run.seed`` (the sample config); data seeds stay at their defaults.

Tolerances. ``REL_TOL`` is used wherever two computations of one number are
compared. It admits relative changes of 1e-7, the size that planned solver
and assembly rewrites may introduce, yet an actual bug moves these numbers by
far more than 1e-6. Descent checks are strict inequalities between the first
and last trace rows of one arm. Counts are compared exactly.
"""

from __future__ import annotations

import json
import math
import subprocess
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

REL_TOL = 1e-6

# clt-study: the V-statistic away from stationarity has spread ~ n^(-1/2).
# With 20 replicates per size the fitted slopes of 26 seeds had mean -0.53
# and standard deviation 0.08 (range -0.70 to -0.37), so 0.35 leaves over four
# standard deviations. A wrong rate (a stationary sample gives -1; a wrong
# 1/n^2 normalisation shifts the slope by 1) falls outside it.
CLT_REPLICATES = 20
CLT_SLOPE = -0.5
CLT_SLOPE_TOL = 0.35

# Oracle configuration for the classical-equivalence check: a linear tilt
# of the standard reference, evaluated on the particles clt-study writes.
ORACLE_CENTER = 0.5
ORACLE_WEIGHTS = (0.5, 1.0, 1.5, 2.0, 2.5)
ORACLE_LENGTHSCALE = 1.0

# Two points per arm and two flow steps keep a job at eight solver calls:
# three per flow arm and one per greedy point. The preset traces every 5
# steps, so a run traces steps 0 and 2: the first flow step reuses the atoms
# the step-0 trace solved (a cache hit), the second flow step and the final
# trace solve new atoms (misses).
LV_KNOBS = {"particles": 2, "steps": 2, "refine_rounds": 0, "n_candidates": 120}

SAMPLE_STEPS = 100
SAMPLE_TRACE_EVERY = 10
SAMPLE_PARTICLES = 300
SAMPLE_KERNEL = {"family": "weighted-matrix", "c": 1.0, "exponent": 0.5,
                 "base": {"family": "imq", "lengthscale": 1.0}}

# Finite-difference check of the sample kernel's Stein assembly on the first
# FD_SUBSET particles, compared at REL_TOL. With central differences of step
# FD_STEP the V-statistic came out within 2e-9 relative of kgd's on each of
# 30 random 12-point sets; a 1e-4 relative error in one term of
# scalar_pairwise moved it by 1.5e-6.
FD_SUBSET = 12
FD_STEP = 1e-4


def sample_config(seed: int) -> dict:
    return {
        "run": {"seed": seed},
        "kernel": SAMPLE_KERNEL,
        "reference": {"dimension": 3},
        "loss": {
            "family": "linear-quadratic",
            "center": [1.0, -1.0, 0.5],
            "weights": [1.0, 2.0, 0.5],
        },
        "sampler": {
            "algorithm": "vgd",
            "optimizer": "adam",
            "particles": SAMPLE_PARTICLES,
            "steps": SAMPLE_STEPS,
            "step_size": 0.05,
            "trace_every": SAMPLE_TRACE_EVERY,
            "init": {"kind": "gaussian", "mean": 2.0, "variance": 1.0},
        },
    }


class Checks:
    """Collects named pass/fail output checks."""

    def __init__(self) -> None:
        self.results: list[tuple[str, bool, str]] = []

    def add(self, name: str, ok: bool, detail: str = "") -> bool:
        self.results.append((name, bool(ok), detail))
        return bool(ok)

    def close(self, name: str, got: float, want: float, tol: float = REL_TOL) -> bool:
        ok = math.isfinite(got) and abs(got - want) <= tol * max(abs(want), 1e-300)
        return self.add(name, ok, f"got {got!r}, want {want!r}, rel tol {tol:g}")

    @property
    def failed(self) -> int:
        return sum(not ok for _, ok, _ in self.results)


@dataclass(frozen=True)
class Context:
    """What a check may use: the job's output, its child report, the seed,
    and a way to call the kgd CLI outside the timed region."""

    out: Path
    report: dict
    seed: int
    workdir: Path
    kgd: Callable[[list[str]], subprocess.CompletedProcess]


@dataclass(frozen=True)
class Workload:
    name: str
    argv: Callable[[int, Path, Path], list[str]]  # (seed, out, workdir) -> kgd args
    check: Callable[[Context, Checks], None]


# -- output readers ----------------------------------------------------------


def read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:] if line]


def deterministic_bytes(out: Path) -> dict[str, bytes]:
    """particles.csv and trace.csv, with any wall_time_s column removed."""
    header, rows = read_table(out / "trace.csv")
    keep = [i for i, col in enumerate(header) if col != "wall_time_s"]
    trace = "\n".join(",".join(r[i] for i in keep) for r in [header, *rows])
    return {"particles.csv": (out / "particles.csv").read_bytes(), "trace.csv": trace.encode()}


def read_particles(path: Path):
    import numpy as np

    return np.loadtxt(path, delimiter=",", comments="#", ndmin=2)


def arm_series(out: Path, value_col: str) -> dict[str, list[float]]:
    header, rows = read_table(out / "trace.csv")
    arm, val = header.index("arm"), header.index(value_col)
    series: dict[str, list[float]] = {}
    for row in rows:
        series.setdefault(row[arm], []).append(float(row[val]))
    return series


def parse_eval(stdout: str) -> dict[str, float]:
    return {k: float(v) for k, v in (line.split() for line in stdout.splitlines() if line)}


def eval_particles(ctx: Context, checks: Checks, name: str, config: dict,
                   particles: Path) -> float | None:
    """``kgd eval`` of a particle file under ``config``; its kgd_v2, or None
    (a failed check) if the command failed."""
    cfg_path = ctx.workdir / f"{name}.yaml"
    cfg_path.write_text(json.dumps(config))  # JSON is valid YAML
    proc = ctx.kgd(["eval", "--config", str(cfg_path), "--particles", str(particles)])
    if not checks.add(f"{name}-exit", proc.returncode == 0, proc.stderr.strip()):
        return None
    return parse_eval(proc.stdout)["kgd_v2"]


def check_particles(checks: Checks, out: Path, shape: tuple[int, int]):
    atoms = read_particles(out / "particles.csv")
    checks.add("particles-shape", atoms.shape == shape, f"{atoms.shape} vs {shape}")
    checks.add("particles-finite", bool((abs(atoms) < math.inf).all()))
    return atoms


def check_arms(checks: Checks, series: dict[str, list[float]], arms: tuple[str, ...]) -> None:
    for name in arms:
        values = series.get(name, [])
        finite = len(values) >= 2 and all(math.isfinite(v) for v in values)
        checks.add(f"{name}-finite", finite, f"{len(values)} rows")
        checks.add(
            f"{name}-descent",
            finite and values[-1] < values[0],
            f"first {values[0] if values else None!r}, last {values[-1] if values else None!r}",
        )


# -- estimators-large ----------------------------------------------------------


def _clt_argv(seed: int, out: Path, _work: Path) -> list[str]:
    return ["experiment", "--preset", "clt-study", "--seed", str(seed),
            "--set", f"replicates={CLT_REPLICATES}", "--output", str(out)]


def _clt_check(ctx: Context, checks: Checks) -> None:
    import numpy as np

    from kgd.oracles import reference_ksd_squared

    meta = json.loads((ctx.out / "meta.json").read_text())
    sizes, dims = meta["knobs"]["sizes"], meta["knobs"]["dimensions"]
    header, rows = read_table(ctx.out / "trace.csv")
    sds = [float(r[header.index("sd_v2")]) for r in rows]
    checks.add("trace-rows", len(rows) == len(sizes) * len(dims), f"{len(rows)} rows")
    checks.add("sd-positive", all(math.isfinite(v) and v > 0 for v in sds))
    for d in dims:
        slope = float(meta["summary"][f"slope_sd_d{d}"])
        checks.add(
            f"slope-sd-d{d}",
            abs(slope - CLT_SLOPE) <= CLT_SLOPE_TOL,
            f"slope {slope:.4f}, want {CLT_SLOPE} +- {CLT_SLOPE_TOL}",
        )

    # Classical equivalence: for a loss whose score has a closed form, the
    # discrepancy `kgd eval` reports is the textbook kernel Stein discrepancy
    # of that score. The linear tilt reaches LinearLoss; the quadratic
    # interaction reaches InteractionLoss.var_grad, this workload's hot path,
    # whose score at x is -x - 2 (x - mean of the atoms).
    atoms = check_particles(checks, ctx.out, (max(sizes), dims[-1]))
    d = atoms.shape[1]
    weights = np.asarray(ORACLE_WEIGHTS[:d], dtype=float)
    kernel = {"family": "imq", "lengthscale": ORACLE_LENGTHSCALE}
    cases = {
        "linear-tilt": (
            {"family": "linear-quadratic", "center": ORACLE_CENTER, "weights": weights.tolist()},
            lambda x: -x - weights * (x - ORACLE_CENTER),
        ),
        "interaction": (
            {"family": "interaction-quadratic"},
            lambda x: -x - 2.0 * (x - atoms.mean(axis=0)),
        ),
    }
    for case, (loss, score) in cases.items():
        config = {"kernel": kernel, "reference": {"dimension": d}, "loss": loss}
        got = eval_particles(ctx, checks, f"oracle-{case}", config, ctx.out / "particles.csv")
        if got is not None:
            want = reference_ksd_squared(score, SimpleNamespace(**kernel), atoms)
            checks.close(f"oracle-{case}-ksd", got, want)


# -- lv-ode ------------------------------------------------------------------------


def _lv_argv(seed: int, out: Path, _work: Path) -> list[str]:
    sets = [arg for k, v in LV_KNOBS.items() for arg in ("--set", f"{k}={v}")]
    return ["experiment", "--preset", "lv-compare", "--seed", str(seed), *sets, "--output", str(out)]


def _lv_check(ctx: Context, checks: Checks) -> None:
    series = arm_series(ctx.out, "kgd_v2")
    check_arms(checks, series, ("greedy",))
    # Two flow steps from two points are not a descent run for the assessed
    # discrepancy: at the preset step sizes it rose over the run on 7 of 12
    # seeds for MFLD and 3 of 12 for VGD. The flow arms are checked to have
    # run and moved; greedy descended on all 12.
    for arm in ("mfld", "vgd"):
        values = series.get(arm, [])
        checks.add(f"{arm}-finite", len(values) >= 2 and all(map(math.isfinite, values)),
                   f"{len(values)} rows")
        checks.add(f"{arm}-moved", len(values) >= 2 and values[-1] != values[0], f"{values}")
    check_particles(checks, ctx.out, (3 * LV_KNOBS["particles"], 2))
    solves = json.loads((ctx.out / "meta.json").read_text())["summary"]["ode_solves"]
    counted = ctx.report["solver_points"]
    checks.add("ode-solves-counted", solves == counted,
               f"meta ode_solves {solves}, points passed to the solver {counted}")


# -- mfnn-small ---------------------------------------------------------------------


def _mfnn_argv(seed: int, out: Path, _work: Path) -> list[str]:
    return ["experiment", "--preset", "mfnn-compare", "--seed", str(seed), "--output", str(out)]


def _mfnn_check(ctx: Context, checks: Checks) -> None:
    arms = ("mfld", "kgdd", "param-vi")
    series = arm_series(ctx.out, "kgd_v2")
    check_arms(checks, series, arms)
    meta = json.loads((ctx.out / "meta.json").read_text())
    knobs = meta["knobs"]
    for arm in arms:
        if series.get(arm):
            checks.close(f"{arm}-summary", float(meta["summary"]["final_kgd_v2"][arm]), series[arm][-1])
    rows = knobs["particles"] + knobs["kgdd_particles"] + knobs["vi_sample"]
    check_particles(checks, ctx.out, (rows, 4))


# -- sample-matrix ------------------------------------------------------------------


def _sample_argv(seed: int, out: Path, work: Path) -> list[str]:
    cfg = work / f"sample-seed{seed}.yaml"
    if not cfg.exists():
        cfg.write_text(json.dumps(sample_config(seed)))  # JSON is valid YAML
    return ["sample", "--config", str(cfg), "--output", str(out)]


def _weighted_matrix_value(x, y):
    """The scalar part of the sample kernel, from its definition: w(x) w(y)
    (imq(x, y) + (c^2 + x.y) u(x) u(y)) with w = s^(exponent / 2),
    u = s^(-1/2) and s(x) = c^2 + |x|^2."""
    import numpy as np

    c2, exponent = SAMPLE_KERNEL["c"] ** 2, SAMPLE_KERNEL["exponent"]
    ell = SAMPLE_KERNEL["base"]["lengthscale"]
    sx, sy = c2 + np.sum(x * x, axis=-1), c2 + np.sum(y * y, axis=-1)
    imq = (1.0 + np.sum((x - y) ** 2, axis=-1) / ell**2) ** -0.5
    linear = (c2 + np.sum(x * y, axis=-1)) / np.sqrt(sx * sy)
    return (sx * sy) ** (exponent / 2.0) * (imq + linear)


def fd_stein_v2(value, score, atoms) -> float:
    """V-statistic of the Stein kernel of the scalar kernel ``value`` over all
    pairs of ``atoms``, with every kernel derivative a central difference."""
    import numpy as np

    h = FD_STEP
    x, y = atoms[:, None, :], atoms[None, :, :]
    bx, by = score(x), score(y)
    total = value(x, y) * np.sum(bx * by, axis=-1)
    for a, e in enumerate(np.eye(atoms.shape[1]) * h):
        total += by[..., a] * (value(x + e, y) - value(x - e, y)) / (2.0 * h)
        total += bx[..., a] * (value(x, y + e) - value(x, y - e)) / (2.0 * h)
        total += (value(x + e, y + e) - value(x + e, y - e)
                  - value(x - e, y + e) + value(x - e, y - e)) / (4.0 * h * h)
    return float(np.mean(total))


def _sample_check(ctx: Context, checks: Checks) -> None:
    import numpy as np

    header, rows = read_table(ctx.out / "trace.csv")
    steps = [int(r[header.index("step")]) for r in rows]
    values = [float(r[header.index("kgd_v2")]) for r in rows]
    want_steps = list(range(0, SAMPLE_STEPS + 1, SAMPLE_TRACE_EVERY))
    checks.add("trace-steps", steps == want_steps, f"{steps}")
    check_arms(checks, {"vgd": values}, ("vgd",))
    atoms = check_particles(checks, ctx.out, (SAMPLE_PARTICLES, 3))
    config = sample_config(ctx.seed)
    got = eval_particles(ctx, checks, "eval", config, ctx.out / "particles.csv")
    if got is not None and values:
        checks.close("eval-matches-trace", got, values[-1])

    # The trace and `kgd eval` share scalar_pairwise, and kgd has no second
    # implementation of it. On a subset of the particles the Stein kernel is
    # rebuilt from the kernel's value alone, its derivatives by differences.
    subset = atoms[:FD_SUBSET]
    path = ctx.workdir / "subset.csv"
    np.savetxt(path, subset, delimiter=",", fmt="%.17g")
    got = eval_particles(ctx, checks, "eval-subset", config, path)
    if got is not None:
        loss = config["loss"]
        center, weights = np.asarray(loss["center"]), np.asarray(loss["weights"])
        want = fd_stein_v2(_weighted_matrix_value, lambda x: -x - weights * (x - center), subset)
        checks.close("subset-fd-stein", got, want)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("estimators-large", _clt_argv, _clt_check),
        Workload("lv-ode", _lv_argv, _lv_check),
        Workload("mfnn-small", _mfnn_argv, _mfnn_check),
        Workload("sample-matrix", _sample_argv, _sample_check),
    )
}
