"""Command-line front end: one-shot evaluation, sampler runs, bundled
experiment presets, and a self-check battery.

Verbs:

    kgd eval --config CFG --particles CSV   one-shot discrepancy of a file
    kgd sample --config CFG [--output DIR]  run a sampler from a config
    kgd experiment --preset NAME [--seed S] [--set k=v ...] [--output DIR]
    kgd self-check                          fast internal cross-checks

Exit codes: 0 success, 2 configuration error, 3 numeric failure (divergence,
a non-finite Stein Gram or a failed self-check). Output CSVs are
deterministic for a fixed config and seed except for the wall_time_s column.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

import numpy as np
import yaml

from . import __version__
from .core import DiagonalGaussian, EmpiricalMeasure, seeded_stream
from .discrepancy import (
    ScalingStudy,
    clt_scaling_study,
    gen_score,
    kgd_u_squared,
    kgd_v_squared,
    particle_grad,
)
from .kernels import IMQ, Gaussian, Mixture, NormalizedLinear, WeightedMatrixKernel
from .losses import (
    InteractionLoss,
    LinearLoss,
    MeanFieldRegressionLoss,
    PredictiveKernelLoss,
    ZeroLoss,
)
from .models import gen_lv_data, gen_mfnn_data, lv_sensitivities
# The oracles serve only ``self-check``, but they load with the CLI:
# ``benchmarks/tracing.py`` wraps ``kgd.oracles.fd_gradient`` once ``kgd.cli``
# is imported.
from .oracles import (euclid_identity_check, fd_gradient, gauss_hermite_2d, gaussian_overlap,
                      kernel_derivatives, lv_solve, reference_drift, reference_ksd_squared,
                      reference_stein_kernel)
from .samplers import (
    OptimizerSpec,
    SamplerDivergence,
    SamplerRun,
    SearchSpec,
    Stepper,
    drive,
    greedy_extend,
    greedy_stepper,
    kgdd_run,
    mfld_run,
    mfld_stepper,
    optimizer_apply,
    optimizer_init,
    vgd_drift,
    vgd_run,
    vgd_stepper,
)


class ConfigError(ValueError):
    """Invalid or unknown configuration content; maps to exit code 2."""


# ---------------------------------------------------------------------------
# Config loading. Every section has an explicit allowed-key table so a typo
# like "kernell" or "lenghtscale" fails loudly with the offending path.
# ---------------------------------------------------------------------------

_TOP_KEYS = {"run", "kernel", "reference", "loss", "sampler"}
_RUN_KEYS = {"seed", "output"}
_KERNEL_KEYS = {"family", "lengthscale", "members", "weights", "c", "exponent", "base"}
_REFERENCE_KEYS = {"dimension", "mean", "variance"}
_LOSS_KEYS = {
    "family",
    "center",
    "weights",
    "data_seed",
    "n_data",
    "lam",
    "sigma",
}
_SAMPLER_KEYS = {
    "algorithm",
    "particles",
    "steps",
    "step_size",
    "optimizer",
    "trace_every",
    "init",
    "points",
    "proposal_mean",
    "proposal_scale",
    "n_candidates",
    "refine_rounds",
}
_INIT_KEYS = {"kind", "mean", "variance"}


def _require_mapping(value: Any, path: str) -> dict:
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"section '{path}' must be a mapping")
    return value


def _check_keys(mapping: Mapping[str, Any], allowed: set[str], path: str) -> None:
    for key in mapping:
        if key not in allowed:
            raise ConfigError(
                f"unknown key '{path}.{key}'; allowed keys: {sorted(allowed)}"
            )


def parse_config(source: str | Path | Mapping[str, Any]) -> dict:
    """Load and validate a config file (or pre-parsed mapping).

    Returns the resolved configuration with defaults filled in; any key not
    in the schema is a hard error naming the full path of the offender.
    """
    if isinstance(source, (str, Path)):
        text = Path(source).read_text()
        raw = yaml.safe_load(text)
    else:
        raw = dict(source)
    raw = _require_mapping(raw, "<top>")
    _check_keys(raw, _TOP_KEYS, "<top>")

    run = _require_mapping(raw.get("run"), "run")
    _check_keys(run, _RUN_KEYS, "run")
    kernel = _require_mapping(raw.get("kernel"), "kernel")
    _check_keys(kernel, _KERNEL_KEYS, "kernel")
    if "base" in kernel:
        _check_keys(
            _require_mapping(kernel["base"], "kernel.base"),
            {"family", "lengthscale"},
            "kernel.base",
        )
    for i, member in enumerate(kernel.get("members") or []):
        _check_keys(
            _require_mapping(member, f"kernel.members[{i}]"),
            {"family", "lengthscale"},
            f"kernel.members[{i}]",
        )
    reference = _require_mapping(raw.get("reference"), "reference")
    _check_keys(reference, _REFERENCE_KEYS, "reference")
    loss = _require_mapping(raw.get("loss"), "loss")
    _check_keys(loss, _LOSS_KEYS, "loss")
    sampler = _require_mapping(raw.get("sampler"), "sampler")
    _check_keys(sampler, _SAMPLER_KEYS, "sampler")
    init = _require_mapping(sampler.get("init"), "sampler.init")
    _check_keys(init, _INIT_KEYS, "sampler.init")

    resolved = {
        "run": {"seed": int(run.get("seed", 0)), "output": run.get("output")},
        "kernel": {"family": "imq", "lengthscale": 1.0} | kernel,
        "reference": {"dimension": 2, "mean": 0.0, "variance": 1.0} | reference,
        "loss": {"family": "zero"} | loss,
        "sampler": {
            "algorithm": "mfld",
            "particles": 50,
            "steps": 100,
            "step_size": 1e-3,
            "optimizer": "euler",
            "trace_every": 1,
            "points": 10,
            "proposal_scale": 1.0,
            "n_candidates": 200,
            "refine_rounds": 4,
        }
        | sampler
        | {"init": {"kind": "reference", "mean": 0.0, "variance": 1.0} | init},
    }
    return resolved


def build_kernel(cfg: Mapping[str, Any], path: str = "kernel"):
    """Kernel from its config section; a value the kernel rejects is a
    config error naming the section."""
    family = cfg.get("family", "imq")
    try:
        if family == "imq":
            return IMQ(float(cfg.get("lengthscale", 1.0)))
        if family == "gaussian":
            return Gaussian(float(cfg.get("lengthscale", 1.0)))
        if family == "mixture":
            members = tuple(
                build_kernel(member, f"{path}.members[{i}]")
                for i, member in enumerate(cfg.get("members") or ())
            )
            if not members:
                raise ConfigError(f"{path}.members must be a non-empty list")
            weights = cfg.get("weights")
            return Mixture(members, None if weights is None else tuple(weights))
        if family == "weighted-matrix":
            base = build_kernel(cfg.get("base") or {"family": "imq"}, f"{path}.base")
            return WeightedMatrixKernel(
                c=float(cfg.get("c", 1.0)),
                exponent=float(cfg.get("exponent", 0.0)),
                base=base,
            )
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from None
    raise ConfigError(f"unknown {path}.family '{family}'")


def _count(cfg: Mapping[str, Any], key: str, default: int, path: str) -> int:
    """``cfg[key]`` as a whole number of at least 1."""
    raw = cfg.get(key, default)
    try:
        value = int(raw)
        ok = not isinstance(raw, bool) and value == raw and value >= 1
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise ConfigError(f"{path}.{key} must be a whole number of at least 1, got {raw!r}")
    return value


def _per_axis(cfg: Mapping[str, Any], key: str, default: float, dim: int, path: str) -> np.ndarray:
    """``cfg[key]`` as a fresh (dim,) array, given as one finite number for
    all axes or as a list of one per axis."""
    raw = cfg.get(key, default)
    try:
        values = np.atleast_1d(np.asarray(raw, dtype=float))
        ok = values.ndim == 1 and values.size in (1, dim) and bool(np.all(np.isfinite(values)))
    except (TypeError, ValueError):
        ok = False
    if not ok:
        raise ConfigError(
            f"{path}.{key} must be a finite number or a list of {dim} of them, got {raw!r}"
        )
    return np.broadcast_to(values, (dim,)).copy()


def build_reference(cfg: Mapping[str, Any]) -> DiagonalGaussian:
    dim = _count(cfg, "dimension", 2, "reference")
    mean = _per_axis(cfg, "mean", 0.0, dim, "reference")
    var = _per_axis(cfg, "variance", 1.0, dim, "reference")
    return DiagonalGaussian(mean, var)


def build_loss(cfg: Mapping[str, Any], dim: int):
    family = cfg.get("family", "zero")
    if family == "zero":
        return ZeroLoss()
    if family == "linear-quadratic":
        center = _per_axis(cfg, "center", 0.0, dim, "loss")
        weights = _per_axis(cfg, "weights", 1.0, dim, "loss")
        return LinearLoss(center, weights)
    if family == "interaction-quadratic":
        return InteractionLoss()
    if family == "mean-field-regression":
        if dim != 4:
            raise ConfigError("mean-field-regression needs reference.dimension = 4")
        data = gen_mfnn_data(int(cfg.get("data_seed", 0)), int(cfg.get("n_data", 300)))
        return MeanFieldRegressionLoss(
            data.covariates, data.responses, lam=float(cfg.get("lam", 300.0))
        )
    if family == "predictive-kernel":
        if dim != 2:
            raise ConfigError("predictive-kernel needs reference.dimension = 2")
        series = gen_lv_data(int(cfg.get("data_seed", 1)))
        lam = cfg.get("lam")
        return PredictiveKernelLoss(
            series.times,
            series.observations,
            sigma=float(cfg.get("sigma", 1.0)),
            lam=None if lam is None else float(lam),
        )
    raise ConfigError(f"unknown loss.family '{family}'")


def build_init(
    cfg: Mapping[str, Any], ref: DiagonalGaussian, n: int, rng: np.random.Generator
) -> np.ndarray:
    kind = cfg.get("kind", "reference")
    if kind == "reference":
        return ref.sample(rng, n)
    if kind == "gaussian":
        mean = _per_axis(cfg, "mean", 0.0, ref.dim, "sampler.init")
        var = _per_axis(cfg, "variance", 1.0, ref.dim, "sampler.init")
        return mean + np.sqrt(var) * rng.standard_normal((n, ref.dim))
    raise ConfigError(f"unknown sampler.init.kind '{kind}'")


# ---------------------------------------------------------------------------
# Output helpers. Floats are written with repr-level precision so identical
# runs produce identical bytes.
# ---------------------------------------------------------------------------


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence[Any]]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def write_particles(
    path: Path, atoms: np.ndarray, groups: Sequence[tuple[str, int]] | None = None
) -> None:
    """One row per particle, d float columns; metadata only in leading '#'
    lines. ``groups`` annotates contiguous row ranges, e.g. per-arm blocks."""
    atoms = np.asarray(atoms, dtype=float)
    lines = [f"# columns: {','.join(f'x{j}' for j in range(atoms.shape[1]))}"]
    if groups:
        row = 0
        for name, count in groups:
            lines.append(f"# rows {row}..{row + count - 1}: {name}")
            row += count
    lines.extend(",".join(_fmt(float(v)) for v in row) for row in atoms)
    path.write_text("\n".join(lines) + "\n")


def read_particles(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", comments="#", ndmin=2)


def _environment() -> dict:
    """Python and numpy versions, the BLAS numpy was built against, and the
    core count."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in ("name", "version")}
    except (TypeError, KeyError):  # numpy without structured build info
        blas = None
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "cpu_count": os.cpu_count()}


def write_meta(path: Path, payload: Mapping[str, Any]) -> None:
    body = {"version": __version__, "environment": _environment()} | dict(payload)
    path.write_text(json.dumps(body, indent=2, sort_keys=True, default=str) + "\n")


# ---------------------------------------------------------------------------
# Verb: eval
# ---------------------------------------------------------------------------


def cmd_eval(args: argparse.Namespace) -> int:
    cfg = parse_config(args.config)
    kernel = build_kernel(cfg["kernel"])
    ref = build_reference(cfg["reference"])
    loss = build_loss(cfg["loss"], ref.dim)
    atoms = read_particles(Path(args.particles))
    if atoms.shape[1] != ref.dim:
        raise ConfigError(
            f"particle dimension {atoms.shape[1]} != reference dimension {ref.dim}"
        )
    measure = EmpiricalMeasure(atoms)
    v = kgd_v_squared(kernel, ref, loss, measure)
    print(f"n {measure.n}")
    print(f"kgd_v2 {_fmt(v.value2)}")
    print(f"kgd_v {_fmt(v.value)}")
    if measure.n >= 2:
        u = kgd_u_squared(kernel, ref, loss, measure)
        print(f"kgd_u2 {_fmt(u.value2)}")
    return 0


# ---------------------------------------------------------------------------
# Verb: sample
# ---------------------------------------------------------------------------


def _step_size(raw: Any) -> float:
    try:
        value = float(raw)
    except (TypeError, ValueError):
        value = float("nan")
    if not (np.isfinite(value) and value > 0.0):
        raise ConfigError(f"sampler.step_size must be a finite positive number, got {raw!r}")
    return value


def cmd_sample(args: argparse.Namespace) -> int:
    cfg = parse_config(args.config)
    if args.output is not None:
        cfg["run"]["output"] = args.output
    if cfg["run"]["output"] is None:
        raise ConfigError("no output directory: set run.output or pass --output")
    out = Path(cfg["run"]["output"])
    out.mkdir(parents=True, exist_ok=True)

    kernel = build_kernel(cfg["kernel"])
    ref = build_reference(cfg["reference"])
    loss = build_loss(cfg["loss"], ref.dim)
    s_cfg = cfg["sampler"]
    seed = cfg["run"]["seed"]
    algorithm = s_cfg["algorithm"]
    trace_every = _count(s_cfg, "trace_every", 1, "sampler")

    start = time.perf_counter()
    if algorithm == "greedy":
        search = SearchSpec(
            proposal_mean=_per_axis(s_cfg, "proposal_mean", 0.0, ref.dim, "sampler"),
            proposal_scale=float(s_cfg["proposal_scale"]),
            n_candidates=_count(s_cfg, "n_candidates", 200, "sampler"),
            refine_rounds=int(s_cfg["refine_rounds"]),
        )
        run = greedy_extend(
            kernel, ref, loss, search, _count(s_cfg, "points", 10, "sampler"), seed=seed
        )
    else:
        n = _count(s_cfg, "particles", 50, "sampler")
        step_size = _step_size(s_cfg["step_size"])
        init_rng = seeded_stream(seed, "init")
        atoms0 = build_init(s_cfg["init"], ref, n, init_rng)
        try:
            spec = OptimizerSpec(method=s_cfg["optimizer"], step_size=step_size)
        except ValueError as exc:
            raise ConfigError(f"sampler.optimizer: {exc}; use 'euler' or 'adam'") from None
        n_steps = _count(s_cfg, "steps", 100, "sampler")
        if algorithm == "mfld":
            run = mfld_run(
                atoms0, ref, loss, step_size, n_steps,
                seeded_stream(seed, "mfld"), trace_kernel=kernel, trace_every=trace_every,
            )
        elif algorithm == "vgd":
            run = vgd_run(
                atoms0, kernel, ref, loss, spec, n_steps,
                trace_kernel=kernel, trace_every=trace_every,
            )
        elif algorithm == "kgdd":
            if isinstance(loss, PredictiveKernelLoss):
                raise ConfigError("sampler.algorithm 'kgdd' needs a loss with "
                                  "var_grad_vjp; loss.family 'predictive-kernel' has none")
            run = kgdd_run(
                atoms0, kernel, ref, loss, spec, n_steps,
                trace_kernel=kernel, trace_every=trace_every,
            )
        else:
            raise ConfigError(f"unknown sampler.algorithm '{algorithm}'")
    elapsed = time.perf_counter() - start

    write_csv(
        out / "trace.csv",
        ["step", "kgd_v2", "wall_time_s"],
        [
            [int(s), float(k), float(w)]
            for s, k, w in zip(run.steps, run.kgd2, run.wall)
        ],
    )
    write_particles(out / "particles.csv", run.atoms)
    write_meta(out / "meta.json", {"config": cfg, "elapsed_s": elapsed})
    print(f"final kgd_v2 {_fmt(float(run.kgd2[-1])) if len(run.kgd2) else 'n/a'}")
    return 0


# ---------------------------------------------------------------------------
# Experiment presets. Each preset declares its knob defaults; --set overrides
# by dotted key and unknown knobs are configuration errors.
# ---------------------------------------------------------------------------


def _apply_overrides(knobs: dict, overrides: Sequence[str]) -> dict:
    result = dict(knobs)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got '{item}'")
        key, text = item.split("=", 1)
        key = key.strip()
        if key not in result:
            raise ConfigError(
                f"unknown override '{key}'; available: {sorted(result)}"
            )
        current = result[key]
        try:
            if isinstance(current, int):
                value: Any = int(text)
            elif isinstance(current, float):
                value = float(text)
            elif isinstance(current, (list, tuple)):
                value = type(current)(
                    type(current[0])(part) if current else float(part)
                    for part in text.split(";")
                )
            else:
                value = text
        except ValueError as exc:
            raise ConfigError(f"cannot parse override '{item}': {exc}") from None
        result[key] = value
    return result


def _scaling_study(*args) -> ScalingStudy:
    """``clt_scaling_study`` with its size and replicate checks as config errors."""
    try:
        return clt_scaling_study(*args)
    except ValueError as exc:
        raise ConfigError(f"scaling study: {exc}") from None


def _preset_gauss_identity(seed: int, knobs: dict, out: Path) -> dict:
    sizes = [int(v) for v in knobs["sizes"]]
    kernel = IMQ(float(knobs["lengthscale"]))
    ref = DiagonalGaussian.standard(int(knobs["dimension"]))
    study = _scaling_study(
        kernel,
        ref,
        ZeroLoss(),
        lambda rng, n: ref.sample(rng, n),
        sizes,
        int(knobs["replicates"]),
        seed,
    )
    rows = [
        [int(n), float(vm), float(vs), float(um), float(se)]
        for n, vm, vs, um, se in zip(
            study.sizes, study.v_mean, study.v_sd, study.u_mean, study.u_se
        )
    ]
    write_csv(out / "trace.csv", ["n", "mean_v2", "sd_v2", "mean_u2", "se_u2"], rows)
    final_rng = seeded_stream(seed, "scaling", int(study.sizes[-1]), 0)
    write_particles(out / "particles.csv", ref.sample(final_rng, int(study.sizes[-1])))
    return {
        "slope_v_mean": study.slope_v_mean,
        "slope_v_sd": study.slope_v_sd,
    }


def _preset_clt_study(seed: int, knobs: dict, out: Path) -> dict:
    sizes = [int(v) for v in knobs["sizes"]]
    kernel = IMQ(float(knobs["lengthscale"]))
    offset = float(knobs["offset"])
    rows = []
    slopes = {}
    last_sample = None
    for d in [int(v) for v in knobs["dimensions"]]:
        ref = DiagonalGaussian.standard(d)
        study = _scaling_study(
            kernel,
            ref,
            InteractionLoss(),
            lambda rng, n: offset + rng.standard_normal((n, d)),
            sizes,
            int(knobs["replicates"]),
            seed,
        )
        for n, vs in zip(study.sizes, study.v_sd):
            rows.append([d, int(n), float(vs)])
        slopes[f"slope_sd_d{d}"] = study.slope_v_sd
        last_sample = offset + seeded_stream(seed, "scaling", int(study.sizes[-1]), 0).standard_normal(
            (int(study.sizes[-1]), d)
        )
    write_csv(out / "trace.csv", ["dimension", "n", "sd_v2"], rows)
    assert last_sample is not None
    write_particles(out / "particles.csv", last_sample)
    return slopes


def _mfnn_setup(knobs: dict):
    data = gen_mfnn_data(int(knobs["data_seed"]), int(knobs["n_data"]))
    loss = MeanFieldRegressionLoss(data.covariates, data.responses, lam=float(knobs["lam"]))
    ref = DiagonalGaussian.standard(4)
    kernel = IMQ(float(knobs["lengthscale"]))
    return loss, ref, kernel


def _preset_mfnn_stepsize(seed: int, knobs: dict, out: Path) -> dict:
    loss, ref, kernel = _mfnn_setup(knobs)
    n = int(knobs["particles"])
    n_steps = int(knobs["steps"])
    reps = int(knobs["replicates"])
    rows = []
    final_atoms = None
    for idx, eps in enumerate([float(v) for v in knobs["step_sizes"]]):
        finals = []
        for rep in range(reps):
            atoms0 = ref.sample(seeded_stream(seed, "init", idx, rep), n)
            try:
                run = mfld_run(
                    atoms0, ref, loss, eps, n_steps,
                    seeded_stream(seed, "mfld", idx, rep), trace_kernel=None,
                )
                final = kgd_v_squared(
                    kernel, ref, loss, EmpiricalMeasure(run.atoms)
                ).value
                final_atoms = run.atoms
            except SamplerDivergence:
                final = float("inf")
            finals.append(final)
        arr = np.asarray(finals)
        # Rank-based percentiles: interpolation against inf (diverged runs)
        # would produce nan.
        quant = lambda q: float(np.quantile(arr, q, method="closest_observation"))
        rows.append(
            [eps, quant(0.5), quant(0.05), quant(0.95), int(np.sum(~np.isfinite(arr)))]
        )
    write_csv(
        out / "trace.csv", ["step_size", "median_kgd", "p5_kgd", "p95_kgd", "n_diverged"], rows
    )
    if final_atoms is not None:
        write_particles(out / "particles.csv", final_atoms)
    medians = {row[0]: row[1] for row in rows}
    return {"median_kgd_by_step_size": medians}


def _preset_mfnn_compare(seed: int, knobs: dict, out: Path) -> dict:
    loss, ref, kernel = _mfnn_setup(knobs)
    rows: list[list[Any]] = []
    all_atoms: list[np.ndarray] = []
    groups: list[tuple[str, int]] = []

    def record(arm: str, steps, kgd2, evals_per_step: float) -> None:
        for s, k in zip(steps, kgd2):
            rows.append([arm, int(s), float(s * evals_per_step), float(k)])

    # Langevin arm
    n = int(knobs["particles"])
    init = 3.0 * seeded_stream(seed, "init", "mfld").standard_normal((n, 4))
    run = mfld_run(
        init, ref, loss, float(knobs["mfld_step_size"]), int(knobs["mfld_steps"]),
        seeded_stream(seed, "mfld"), trace_kernel=kernel, trace_every=int(knobs["trace_every"]),
    )
    record("mfld", run.steps, run.kgd2, evals_per_step=n)
    all_atoms.append(run.atoms)
    groups.append(("mfld", n))

    # Descent-on-discrepancy arm; each analytic gradient scores n atoms.
    n_kgdd = int(knobs["kgdd_particles"])
    init = 3.0 * seeded_stream(seed, "init", "kgdd").standard_normal((n_kgdd, 4))
    spec = OptimizerSpec(method="adam", step_size=float(knobs["kgdd_step_size"]))
    run = kgdd_run(
        init, kernel, ref, loss, spec, int(knobs["kgdd_steps"]),
        trace_kernel=kernel, trace_every=1,
    )
    record("kgdd", run.steps, run.kgd2, evals_per_step=n_kgdd)
    all_atoms.append(run.atoms)
    groups.append(("kgdd", n_kgdd))

    # Parametric arm: affine map x = A z + c of a frozen base sample, tuned by
    # the U-statistic's particle gradient G chained through the map:
    # dA = G^T Z and dc = sum_i G_i.
    m = int(knobs["vi_sample"])
    base = seeded_stream(seed, "vi", "base").standard_normal((m, 4))
    theta = np.concatenate([np.eye(4).ravel() * 3.0, np.zeros(4)])

    def push(th: np.ndarray) -> np.ndarray:
        return base @ th[:16].reshape(4, 4).T + th[16:]

    vi_spec = OptimizerSpec(method="adam", step_size=float(knobs["vi_step_size"]))
    state = optimizer_init(theta.shape)
    vi_steps = int(knobs["vi_steps"])
    evals_per_step = float(m)
    record("param-vi", [0], [kgd_v_squared(kernel, ref, loss, EmpiricalMeasure(push(theta))).value2], evals_per_step)
    for step in range(1, vi_steps + 1):
        g = particle_grad(kernel, ref, loss, push(theta), u_statistic=True)
        grad = np.concatenate([(g.T @ base).ravel(), g.sum(axis=0)])
        delta, state = optimizer_apply(vi_spec, state, -grad)
        theta = theta + delta
        if step % int(knobs["trace_every"]) == 0 or step == vi_steps:
            k2 = kgd_v_squared(kernel, ref, loss, EmpiricalMeasure(push(theta))).value2
            rows.append(["param-vi", step, float(step * evals_per_step), float(k2)])
    all_atoms.append(push(theta))
    groups.append(("param-vi", m))

    write_csv(out / "trace.csv", ["arm", "step", "score_evals", "kgd_v2"], rows)
    write_particles(out / "particles.csv", np.vstack(all_atoms), groups)
    finals = {}
    for arm in ("mfld", "kgdd", "param-vi"):
        arm_rows = [r for r in rows if r[0] == arm]
        finals[arm] = arm_rows[-1][3]
    return {"final_kgd_v2": finals}


def _lv_arms(seed: int, knobs: dict, loss: PredictiveKernelLoss) -> list[tuple[str, Stepper]]:
    """The three lv-compare arms as steppers on ``loss``."""
    ref = DiagonalGaussian.standard(2)
    # Assessment kernel: two inverse multiquadrics on the short scales where
    # the posterior mass concentrates.
    assess = Mixture((IMQ(np.sqrt(0.03)), IMQ(np.sqrt(0.1))), weights=(1.0, 1.0))
    n = int(knobs["particles"])
    n_steps = int(knobs["steps"])
    trace_every = int(knobs["trace_every"])
    truth = np.array([-1.0, float(knobs["true_x2"])])

    # Langevin arm from a tight cloud at the data-generating parameters.
    init = truth + 1e-3 * seeded_stream(seed, "init", "mfld").standard_normal((n, 2))
    mfld = mfld_stepper(
        init, ref, loss, float(knobs["mfld_step_size"]), n_steps,
        seeded_stream(seed, "mfld"), trace_kernel=assess, trace_every=trace_every,
    )

    # Deterministic flow arm from the reference.
    flow_kernel = Mixture((IMQ(0.01), IMQ(0.1), IMQ(1.0)))
    init = ref.sample(seeded_stream(seed, "init", "vgd"), n)
    spec = OptimizerSpec(method="adam", step_size=float(knobs["vgd_step_size"]))
    vgd = vgd_stepper(
        init, flow_kernel, ref, loss, spec, n_steps,
        trace_kernel=assess, trace_every=trace_every,
    )

    # Greedy extensible arm.
    search = SearchSpec(
        proposal_mean=np.array([-1.0, 1.6]),
        proposal_scale=float(knobs["proposal_scale"]),
        n_candidates=int(knobs["n_candidates"]),
        refine_rounds=int(knobs["refine_rounds"]),
    )
    greedy = greedy_stepper(assess, ref, loss, search, n, seed=seed)
    return [("mfld", mfld), ("vgd", vgd), ("greedy", greedy)]


def _write_arm_runs(out: Path, arms: Sequence[str], runs: Sequence[SamplerRun]) -> None:
    rows = [[arm, int(s), float(k)]
            for arm, run in zip(arms, runs) for s, k in zip(run.steps, run.kgd2)]
    write_csv(out / "trace.csv", ["arm", "step", "kgd_v2"], rows)
    write_particles(out / "particles.csv", np.vstack([run.atoms for run in runs]),
                    [(arm, len(run.atoms)) for arm, run in zip(arms, runs)])


def _preset_lv_compare(seed: int, knobs: dict, out: Path) -> dict:
    series = gen_lv_data(int(knobs["data_seed"]))
    loss = PredictiveKernelLoss(series.times, series.observations)
    # The arms run in lockstep: each round, one solver call serves them all.
    arms = _lv_arms(seed, knobs, loss)
    runs, rounds = drive([stepper for _, stepper in arms], loss)
    _write_arm_runs(out, [arm for arm, _ in arms], runs)
    return {"ode_solves": loss.n_solves, "solver_calls": loss.solver_calls,
            "driver_rounds": rounds, "cache_hits": loss.cache_hits,
            "cache_misses": loss.cache_misses, "cache_clears": loss.cache_clears}


_PRESETS: dict[str, tuple[Callable[[int, dict, Path], dict], dict]] = {
    "gauss-identity": (
        _preset_gauss_identity,
        {
            "sizes": [25, 50, 100, 200, 400, 800],
            "replicates": 100,
            "dimension": 2,
            "lengthscale": 1.0,
        },
    ),
    "clt-study": (
        _preset_clt_study,
        {
            "sizes": [50, 100, 200, 400, 800],
            "replicates": 200,
            "dimensions": [2, 5],
            "offset": 1.0,
            "lengthscale": 1.0,
        },
    ),
    "mfnn-stepsize": (
        _preset_mfnn_stepsize,
        {
            "data_seed": 0,
            "n_data": 300,
            "lam": 300.0,
            "lengthscale": 1.0,
            "particles": 50,
            "steps": 200,
            "replicates": 5,
            "step_sizes": [1e-6, 1e-5, 1e-4, 10 ** -3.5, 1e-3, 1e-2, 1e-1],
        },
    ),
    "mfnn-compare": (
        _preset_mfnn_compare,
        {
            "data_seed": 0,
            "n_data": 300,
            "lam": 300.0,
            "lengthscale": 1.0,
            "particles": 50,
            "mfld_step_size": 1e-4,
            "mfld_steps": 300,
            "kgdd_particles": 20,
            "kgdd_step_size": 1e-2,
            "kgdd_steps": 25,
            "vi_sample": 50,
            "vi_step_size": 1e-3,
            "vi_steps": 60,
            "trace_every": 10,
        },
    ),
    "lv-compare": (
        _preset_lv_compare,
        {
            "data_seed": 1,
            "particles": 8,
            "steps": 40,
            "mfld_step_size": 1e-5,
            "vgd_step_size": 1e-3,
            "proposal_scale": 0.5,
            "n_candidates": 120,
            "refine_rounds": 3,
            "trace_every": 5,
            "true_x2": -1.5413248546129177,
        },
    ),
}


def cmd_experiment(args: argparse.Namespace) -> int:
    if args.preset not in _PRESETS:
        raise ConfigError(
            f"unknown preset '{args.preset}'; available: {sorted(_PRESETS)}"
        )
    runner, defaults = _PRESETS[args.preset]
    knobs = _apply_overrides(defaults, args.set or [])
    out = Path(args.output or f"{args.preset}-out")
    out.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    summary = runner(int(args.seed), knobs, out)
    elapsed = time.perf_counter() - start
    write_meta(
        out / "meta.json",
        {
            "preset": args.preset,
            "seed": int(args.seed),
            "knobs": knobs,
            "summary": summary,
            "elapsed_s": elapsed,
        },
    )
    print(f"wrote {out}/trace.csv, particles.csv, meta.json")
    return 0


# ---------------------------------------------------------------------------
# Verb: self-check
# ---------------------------------------------------------------------------


def cmd_self_check(_args: argparse.Namespace) -> int:
    from .discrepancy import _BLOCK, _stein_sums, stein_drift, stein_gram

    failures = 0

    def report(name: str, ok: bool, metric: str) -> None:
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'} {name} ({metric})")
        failures += 0 if ok else 1

    rng = np.random.default_rng(0)

    # The oracle derivative table's gradients against central differences
    # of the kernels' values in each argument.
    worst = 0.0
    kernels = [IMQ(0.7), Gaussian(1.3), Mixture((IMQ(0.5), Gaussian(2.0))),
               Mixture((IMQ(1.0), NormalizedLinear(1.2)), weights=(1.0, 1.0)),
               WeightedMatrixKernel(c=1.2, exponent=0.5, base=IMQ(0.9))]
    for kern in kernels:
        for _ in range(5):
            x, y = rng.normal(size=3), rng.normal(size=3)
            table = kernel_derivatives(kern, x[None], y[None])
            fd1 = fd_gradient(lambda t: kern.value(t, y), x)
            fd2 = fd_gradient(lambda t: kern.value(x, t), y)
            worst = max(worst, float(np.max(np.abs(table.grad1[0, 0] - fd1))),
                        float(np.max(np.abs(table.grad2[0, 0] - fd2))))
    report("kernel-derivatives", worst < 1e-6, f"max grad error {worst:.2e}")

    # The Gram built from the kernels' terms against the oracle Gram, as the
    # summed entry error relative to sum |h|.
    atoms = np.random.default_rng(2).normal(size=(12, 3))
    mea = EmpiricalMeasure(atoms)
    ref, loss = DiagonalGaussian.standard(3), InteractionLoss()
    worst = 0.0
    for kern in kernels:
        want = reference_stein_kernel(kern, lambda p: gen_score(ref, loss, mea, p), atoms, atoms)
        err = np.abs(stein_gram(kern, ref, loss, mea) - want).sum()
        worst = max(worst, float(err / np.abs(want).sum()))
    report("stein-gram", worst < 1e-12, f"worst rel {worst:.2e}")

    # Equivalence with the classical discrepancy under a linear tilt.
    worst = 0.0
    for _ in range(5):
        d, n = 3, 12
        atoms = rng.normal(size=(n, d))
        ref = DiagonalGaussian.standard(d)
        w = rng.uniform(0.5, 1.5, size=d)
        loss = LinearLoss(np.zeros(d), w)
        kern = IMQ(1.0)
        mine = kgd_v_squared(kern, ref, loss, EmpiricalMeasure(atoms)).value2
        orc = reference_ksd_squared(lambda X: ref.log_grad(X) - w * X, kern, atoms)
        worst = max(worst, abs(mine - orc) / abs(orc))
    report("classical-equivalence", worst < 1e-12, f"worst rel {worst:.2e}")

    # Closed-form Gaussian overlap against quadrature.
    kap = lambda y, yp: float(np.exp(-((y - yp) ** 2) / 2.0))
    err = abs(
        gaussian_overlap(0.4, -0.2, 1.0) - gauss_hermite_2d(kap, (0.4, -0.2), 1.0)
    )
    report("gaussian-overlap", err < 1e-8, f"abs err {err:.2e}")

    # Finite-particle identity for the quadratic interaction.
    mea = EmpiricalMeasure(rng.normal(size=(6, 2)))
    resid = max(
        euclid_identity_check(InteractionLoss(), mea, i) for i in range(6)
    )
    report("variation-identity", resid < 1e-4, f"residual {resid:.2e}")

    # Oracle Gram symmetry and near-positive spectrum, under the standard
    # normal score.
    gram = reference_stein_kernel(IMQ(1.0), np.negative, mea.atoms, mea.atoms)
    sym = float(np.max(np.abs(gram - gram.T)))
    min_eig = float(np.linalg.eigvalsh(gram).min())
    scale = float(np.linalg.norm(gram, 2))
    ok = sym < 1e-12 and min_eig > -1e-10 * scale
    report("gram-spectrum", ok, f"asym {sym:.2e}, min eig {min_eig:.2e}")

    # Radial Gram route on a translated cloud against the classical form.
    worst = 0.0
    atoms = 1e3 + rng.normal(size=(12, 3))
    ref = DiagonalGaussian.standard(3)
    for kern in (IMQ(0.8), Gaussian(1.5)):
        mine = kgd_v_squared(
            kern, ref, InteractionLoss(), EmpiricalMeasure(atoms)
        ).value2
        orc = reference_ksd_squared(
            lambda X: -X - 2.0 * (X - X.mean(axis=0)), kern, atoms
        )
        worst = max(worst, abs(mine - orc) / abs(orc))
    report("radial-gram", worst < 1e-12, f"worst rel {worst:.2e}")

    # Tilted kernels' row-block route against the oracle Stein kernel and
    # flow velocity: V-statistic and drift.
    worst = 0.0
    atoms = rng.normal(size=(12, 3))
    mea = EmpiricalMeasure(atoms)
    loss = InteractionLoss()
    score = lambda p: gen_score(ref, loss, mea, p)
    for kern in (WeightedMatrixKernel(c=1.2, exponent=0.5, base=IMQ(0.9)),
                 Mixture((IMQ(1.0), NormalizedLinear(1.2)))):
        h = reference_stein_kernel(kern, score, atoms, atoms)
        mine = kgd_v_squared(kern, ref, loss, mea).value2
        worst = max(worst, abs(mine - h.mean()) / abs(h.mean()))
        drift = reference_drift(kern, score, atoms)
        err = np.max(np.abs(vgd_drift(kern, ref, loss, mea) - drift))
        worst = max(worst, float(err / np.max(np.abs(drift))))
    report("tilted-gram", worst < 1e-12, f"worst rel {worst:.2e}")

    # Row-block sums and drift against the oracle Gram's sum and trace
    # (relative to sum |h|) and the oracle drift (relative to its max), on
    # a translated cloud of two full blocks and a ragged one. An order-3
    # pass on a larger cloud runs first, so these read slabs of the shared
    # workspace that it has already filled.
    big = np.random.default_rng(1).normal(size=(600, 3))
    particle_grad(IMQ(1.0), ref, loss, big)
    worst = 0.0
    atoms = 1e3 + rng.normal(size=(2 * _BLOCK + 44, 3))
    mea = EmpiricalMeasure(atoms)
    score = lambda p: gen_score(ref, loss, mea, p)
    scores = score(atoms)
    for kern in (IMQ(1.0), WeightedMatrixKernel(c=1.2, exponent=0.5, base=IMQ(0.9))):
        gram = reference_stein_kernel(kern, score, atoms, atoms)
        total, trace = _stein_sums(kern, atoms, scores)
        scale = float(np.abs(gram).sum())
        worst = max(worst, abs(total - gram.sum()) / scale, abs(trace - np.trace(gram)) / scale)
        drift = reference_drift(kern, score, atoms)
        err = np.max(np.abs(stein_drift(kern, atoms, scores) - drift))
        worst = max(worst, float(err / np.max(np.abs(drift))))
    report("stein-sums", worst < 1e-12, f"worst rel {worst:.2e}")

    # Particle gradients of V and U against central differences: on six
    # atoms, one block, and on a cloud of two blocks, the second ragged,
    # whose rows past the first block get their sums from the transposed
    # slab products, the order-3 a slab's among them.
    worst = 0.0
    data = gen_mfnn_data(0, n_data=30)
    clouds = [(rng.normal(size=(6, 4)), (LinearLoss(np.zeros(4), np.full(4, 0.5)),
                                         MeanFieldRegressionLoss(data.covariates, data.responses))),
              (np.random.default_rng(3).normal(size=(_BLOCK + 5, 2)), (InteractionLoss(),))]
    for atoms, cloud_losses in clouds:
        ref = DiagonalGaussian.standard(atoms.shape[1])
        for kern in (IMQ(1.0), WeightedMatrixKernel(c=1.2, exponent=0.5)):
            for loss in cloud_losses:
                for u_stat, est in ((False, kgd_v_squared), (True, kgd_u_squared)):
                    fd = fd_gradient(lambda f: est(kern, ref, loss, EmpiricalMeasure(
                        f.reshape(atoms.shape))).value2, atoms.ravel())
                    err = np.max(np.abs(particle_grad(kern, ref, loss, atoms, u_stat).ravel() - fd))
                    worst = max(worst, float(err / max(1.0, np.max(np.abs(fd)))))
    report("particle-gradient", worst < 1e-6, f"worst scaled error {worst:.2e}")

    # Forward ODE sensitivities against central differences of the solver.
    x = np.array([-0.8, -1.2])
    times = np.array([5.0, 20.0])
    _, sens = lv_sensitivities(x, times)
    paths: dict[bytes, np.ndarray] = {}  # one solve per perturbed point

    def path(t: np.ndarray) -> np.ndarray:
        key = t.tobytes()
        if key not in paths:
            paths[key] = lv_solve(t, times)
        return paths[key]

    worst = 0.0
    for k in range(times.size):
        for species in range(2):
            fd = fd_gradient(lambda t: float(path(t)[k, species]), x, 1e-6)
            scale = max(float(np.max(np.abs(sens[k, species]))), 1.0)
            worst = max(worst, float(np.max(np.abs(sens[k, species] - fd))) / scale)
    report("ode-sensitivities", worst < 1e-6, f"worst scaled error {worst:.2e}")

    # The solver is batch-invariant: calls on the splits of a batch, tail
    # sizes and single points included, give its bytes.
    xs = np.array([-1.0, 1.6]) + 0.5 * np.random.default_rng(5).standard_normal((244, 2))
    times = np.array([0.5, 2.0, 3.0])
    u, sens = lv_sensitivities(xs, times)
    bounds = [np.cumsum((0,) + split) for split in ((1, 2, 4, 7, 9, 221), (240, 4))]
    parts = [slice(lo, hi) for b in bounds for lo, hi in zip(b[:-1], b[1:])]
    parts += [slice(i, i + 1) for i in (0, 121, 243)]
    same = sum(all(map(np.array_equal, lv_sensitivities(xs[part], times), (u[part], sens[part])))
               for part in parts)
    report("ode-batch-invariance", same == len(parts),
           f"{same} of {len(parts)} split calls bitwise equal")

    # Predictive pair blocks on LV trajectories against the broadcast double
    # sum over (time, time) pairs, relative to the largest value and gradient.
    series = gen_lv_data(1)
    loss = PredictiveKernelLoss(series.times, series.observations)
    pts = np.array([-1.0, 1.6]) + 0.3 * rng.normal(size=(4, 2))
    values, grads = loss.pair_block(pts, pts)
    means, sens = loss.prefetch(pts)
    v = 1.0 + 2.0 * loss.sigma**2
    n_obs = series.times.size
    diff = means[:, None, :, None, :] - means[None, :, None, :, :]
    a = v ** (-0.5 * means.shape[-1]) * np.exp(-np.sum(diff**2, axis=-1) / (2.0 * v))
    cross = a.sum(axis=(2, 3)) / n_obs**2
    cross_grad = -np.einsum("cpij,cpijs,cisd->cpd", a, diff, sens) / (v * n_obs**2)
    var = 1.0 + loss.sigma**2
    resid = series.observations - means  # (m, N, s)
    fit = np.prod(np.exp(-(resid**2) / (2.0 * var)) / np.sqrt(var), axis=-1)
    resid /= var
    fit_grad = np.einsum("mn,mns,mnsd->md", fit, resid, sens) / n_obs
    want = cross - fit.mean(axis=1)[:, None] - fit.mean(axis=1)[None, :]
    want_grad = cross_grad - fit_grad[:, None, :]
    worst = max(float(np.max(np.abs(values - want)) / np.max(np.abs(want))),
                float(np.max(np.abs(grads - want_grad)) / np.max(np.abs(want_grad))))
    report("predictive-pair-block", worst < 1e-12, f"worst rel {worst:.2e}")

    # Stream independence and determinism.
    a = seeded_stream(1, "x").standard_normal(4)
    b = seeded_stream(1, "x").standard_normal(4)
    c = seeded_stream(1, "y").standard_normal(4)
    ok = bool(np.all(a == b) and np.any(a != c))
    report("stream-addressing", ok, "labelled substreams")

    return 0 if failures == 0 else 3


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kgd",
        description="Kernel gradient discrepancy estimators and particle samplers.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_eval = sub.add_parser("eval", help="one-shot discrepancy of a particle file")
    p_eval.add_argument("--config", required=True)
    p_eval.add_argument("--particles", required=True)
    p_eval.set_defaults(func=cmd_eval)

    p_sample = sub.add_parser("sample", help="run a sampler from a config")
    p_sample.add_argument("--config", required=True)
    p_sample.add_argument("--output")
    p_sample.set_defaults(func=cmd_sample)

    p_exp = sub.add_parser("experiment", help="run a bundled experiment preset")
    p_exp.add_argument("--preset", required=True)
    p_exp.add_argument("--seed", default=0, type=int)
    p_exp.add_argument("--output")
    p_exp.add_argument("--set", action="append", metavar="KEY=VALUE")
    p_exp.set_defaults(func=cmd_experiment)

    p_check = sub.add_parser("self-check", help="fast internal cross-checks")
    p_check.set_defaults(func=cmd_self_check)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SamplerDivergence, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except FileNotFoundError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
