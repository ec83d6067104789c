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
import math
import os
import platform
import sys
import time
import traceback
import warnings
from functools import partial
from pathlib import Path
from typing import Any, Callable, Mapping, NamedTuple, Sequence

import numpy as np
import yaml

from . import __version__
from .core import DiagonalGaussian, EmpiricalMeasure, seeded_stream
from .discrepancy import (ScalingStudy, _stein_sums, clt_scaling_study, gen_score,
                          kgd_v_squared, particle_grad)
from .kernels import IMQ, Gaussian, Mixture, WeightedMatrixKernel
from .losses import (
    InteractionLoss,
    LinearLoss,
    MeanFieldRegressionLoss,
    PredictiveKernelLoss,
    ZeroLoss,
)
from .models import LV_TRUE_X2, _TAYLOR_ORDER, _TAYLOR_STEP, gen_lv_data, gen_mfnn_data
# Unused here, but ``benchmarks/tracing.py`` wraps ``kgd.oracles.fd_gradient`` once
# ``kgd.cli`` is imported; this goes when its ``replace_function`` skips unloaded modules.
from . import oracles  # noqa: F401
from .samplers import (
    OptimizerSpec,
    SamplerDivergence,
    SamplerRun,
    SearchSpec,
    Stepper,
    drive,
    flow_stepper,
    greedy_extend,
    greedy_stepper,
    kgdd_run,
    kgdd_stepper,
    mfld_run,
    mfld_stepper,
    vgd_run,
    vgd_stepper,
)


class ConfigError(ValueError):
    """Invalid or unknown configuration content; maps to exit code 2."""


# ---------------------------------------------------------------------------
# Config loading. Each section, and each family a section can pick, lists
# the keys it reads, each with its default and its parser, as the preset knob
# tables do. ``_resolve`` reads every section, nested section and knob table:
# a key the table does not list, like "kernell" or "lenghtscale", fails
# loudly with its full path, and every value is parsed before any work.
# ---------------------------------------------------------------------------

Parser = Callable[[Any, str], Any]
Table = Mapping[str, tuple[Any, Parser]]  # each key's default and parser


def _require_mapping(value: Any, path: str) -> dict:
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"section '{path}' must be a mapping")
    return value


def _resolve(raw: Any, path: str, table: Table, chosen: str = "") -> dict:
    """Section ``raw`` at ``path`` ('' for the top level) read by ``table``:
    each key's value, or else its default, read by the key's parser. Any
    other key is an error naming its path."""
    section = _require_mapping(raw, path or "<top>")
    prefix = f"{path}." if path else ""
    for key in section:
        if key not in table:
            raise ConfigError(f"unknown key '{prefix}{key}'{chosen}; available: {sorted(table)}")
    return {key: parse(section.get(key, default), prefix + key)
            for key, (default, parse) in table.items()}


def _one_of(choices: Sequence[str]) -> Parser:
    """Parser of a name from ``choices``."""
    def parse_choice(raw: Any, name: str) -> str:
        if not isinstance(raw, str) or raw not in choices:
            raise ConfigError(f"unknown {name} {raw!r}; available: {sorted(choices)}")
        return raw

    return parse_choice


def _family(table: tuple) -> Parser:
    """Parser of a section that reads the keys of the family it picks from
    ``table``: (selecting key, default family, each family's key table)."""
    selector, default, families = table
    choice = _one_of(families)

    def parse_family(raw: Any, path: str) -> dict:
        name = choice(_require_mapping(raw, path).get(selector, default), f"{path}.{selector}")
        return _resolve(raw, path, {selector: (name, choice)} | families[name],
                        f" for {path}.{selector} '{name}'")

    return parse_family


def _count(raw: Any, name: str, least: int = 1) -> int:
    """``raw``, the config value ``name``, as a whole number from ``least`` to
    2**53, up to which a float such as 1e3 holds every whole number exactly."""
    try:
        value = int(raw)
        ok = not isinstance(raw, bool) and value == raw and least <= value <= 2**53
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise ConfigError(f"{name} must be a whole number from {least} to 2**53, got {raw!r}")
    return value


_count0 = partial(_count, least=0)


def _real(raw: Any) -> float:
    """``raw`` as a float, or nan if it is not a number. A boolean (YAML's
    true, false, yes, no) is not a number."""
    try:
        return math.nan if isinstance(raw, (bool, np.bool_)) else float(raw)
    except (TypeError, ValueError, OverflowError):
        return math.nan


def _positive(raw: Any, name: str, zero: bool = False, square: bool = False) -> float:
    """``raw``, the config value ``name``, as a finite positive number, or
    non-negative if ``zero``; with ``square``, its square is finite too (the
    kernels and the predictive loss square a scale as a Python float, which
    raises OverflowError), and positive unless ``zero`` (a kernel divides by
    it)."""
    value = _real(raw)
    checked = value * value if square else value
    if not (np.isfinite(checked) and (value >= 0.0 if zero else value > 0.0 and checked > 0.0)):
        sign = "non-negative" if zero else "positive"
        square_is = "finite" if zero else "finite, non-zero"
        bound = f"with a {square_is} square" if square else "and finite"
        raise ConfigError(f"{name} must be {sign} {bound}, got {raw!r}")
    return value


_non_negative = partial(_positive, zero=True)
_scale = partial(_positive, square=True)


def _finite(raw: Any, name: str) -> float:
    """``raw``, the config value ``name``, as a finite number."""
    value = _real(raw)
    if not np.isfinite(value):
        raise ConfigError(f"{name} must be a finite number, got {raw!r}")
    return value


def _list(parse: Parser) -> Parser:
    """Parser of a non-empty list of values ``parse`` reads; a single value
    is a list of one."""
    def parse_list(raw: Any, name: str) -> list:
        items = raw if isinstance(raw, list) else [raw]
        if not items:
            raise ConfigError(f"{name} must be a non-empty list")
        return [parse(item, f"{name}[{i}]") for i, item in enumerate(items)]

    return parse_list


def _optional(parse: Parser) -> Parser:
    """Parser of None or a value ``parse`` reads."""
    return lambda raw, name: None if raw is None else parse(raw, name)


def _axes(parse: Parser) -> Parser:
    """Parser of a per-axis value: one value ``parse`` reads for all axes, or
    a list of them, one per axis (``_per_axis`` checks the length)."""
    return lambda raw, name: (_list(parse) if isinstance(raw, list) else parse)(raw, name)


def _per_axis(value: float | list, dim: int, name: str) -> np.ndarray:
    """The parsed per-axis value ``name`` as a fresh (dim,) array."""
    if not isinstance(value, list):
        return np.full(dim, value)
    if len(value) not in (1, dim):
        raise ConfigError(f"{name} must be a number or a list of {dim} of them, got {value!r}")
    return np.broadcast_to(value, (dim,)).copy()


def _directory(raw: Any, name: str) -> str:
    if not isinstance(raw, str):
        raise ConfigError(f"{name} must be a directory path string, got {raw!r}")
    return raw


def _members(raw: Any, name: str) -> list:
    if not isinstance(raw, list):
        raise ConfigError(f"{name} must be a non-empty list")
    return _list(_family(_RADIAL))(raw, name)


_RUN = {"seed": (0, _count0), "output": (None, _optional(_directory))}
_REFERENCE = {"dimension": (2, _count), "mean": (0.0, _axes(_finite)),
              "variance": (1.0, _axes(_positive))}
# Per family: the selecting key, the default family, and each family's keys.
# A nested kernel (a mixture member, a weighted kernel's base) is radial.
_RADIAL = ("family", "imq", {"imq": {"lengthscale": (1.0, _scale)},
                             "gaussian": {"lengthscale": (1.0, _scale)}})
_KERNELS = ("family", "imq", _RADIAL[2] | {
    "mixture": {"members": ([], _members), "weights": (None, _optional(_list(_positive)))},
    "weighted-matrix": {"c": (1.0, _scale), "exponent": (0.0, _finite),
                        "base": ({}, _family(_RADIAL))},
})
# The mean-field loss's keys, also knobs of the two mean-field presets.
_MEAN_FIELD = {"data_seed": (0, _count0), "n_data": (300, _count), "lam": (300.0, _positive)}
_LOSSES = ("family", "zero", {
    "zero": {},
    "linear-quadratic": {"center": (0.0, _axes(_finite)), "weights": (1.0, _axes(_finite))},
    "interaction-quadratic": {},
    "mean-field-regression": _MEAN_FIELD,
    "predictive-kernel": {"data_seed": (1, _count0), "sigma": (1.0, partial(_scale, zero=True)),
                          "lam": (None, _optional(_positive))},
})
_INITS = ("kind", "reference", {"reference": {}, "gaussian": {
    "mean": (0.0, _axes(_finite)), "variance": (1.0, _axes(_non_negative))}})
_FLOW = {"particles": (50, _count), "steps": (100, _count), "step_size": (1e-3, _positive),
         "trace_every": (1, _count), "init": ({}, _family(_INITS))}
_OPTIMIZER = {"optimizer": ("euler", _one_of(("euler", "adam")))}
_SAMPLERS = ("algorithm", "mfld", {
    "mfld": _FLOW,
    "vgd": _FLOW | _OPTIMIZER,
    "kgdd": _FLOW | _OPTIMIZER,
    "greedy": {"points": (10, _count), "proposal_mean": (0.0, _axes(_finite)),
               "proposal_scale": (1.0, _positive), "n_candidates": (200, _count),
               "refine_rounds": (4, _count0)},
})
_CONFIG = {"run": ({}, partial(_resolve, table=_RUN)), "kernel": ({}, _family(_KERNELS)),
           "reference": ({}, partial(_resolve, table=_REFERENCE)), "loss": ({}, _family(_LOSSES)),
           "sampler": ({}, _family(_SAMPLERS))}


def parse_config(source: str | Path | Mapping[str, Any]) -> dict:
    """Load and validate a config file (or pre-parsed mapping).

    Returns the resolved configuration: each section holds exactly the keys
    its chosen family reads, each value parsed, defaults filled in. Any
    other key or any value its parser rejects is a hard error naming the
    full path of the offender.
    """
    if isinstance(source, (str, Path)):
        try:
            with open(source, "rb") as stream:
                raw = yaml.safe_load(stream)
        except OSError as exc:
            raise ConfigError(f"config file '{source}': {exc.strerror}") from None
        except yaml.YAMLError as exc:  # one line: the problem and where
            mark = getattr(exc, "problem_mark", None)
            where = f" (line {mark.line + 1}, column {mark.column + 1})" if mark else ""
            problem = getattr(exc, "problem", None) or str(exc).splitlines()[0]
            raise ConfigError(f"config file '{source}': {problem}{where}") from None
    else:
        raw = dict(source)
    return _resolve(raw, "", _CONFIG)


def build_kernel(cfg: Mapping[str, Any]):
    """Kernel from its resolved config section; a value the kernel rejects
    is a config error naming the section."""
    family = cfg["family"]
    try:
        if family == "mixture":
            weights = cfg["weights"]
            return Mixture(tuple(build_kernel(member) for member in cfg["members"]),
                           None if weights is None else tuple(weights))
        if family == "weighted-matrix":
            return WeightedMatrixKernel(c=cfg["c"], exponent=cfg["exponent"],
                                        base=build_kernel(cfg["base"]))
        return (IMQ if family == "imq" else Gaussian)(cfg["lengthscale"])
    except ValueError as exc:
        raise ConfigError(f"kernel: {exc}") from None


def build_reference(cfg: Mapping[str, Any]) -> DiagonalGaussian:
    dim = cfg["dimension"]
    return DiagonalGaussian(_per_axis(cfg["mean"], dim, "reference.mean"),
                            _per_axis(cfg["variance"], dim, "reference.variance"))


def build_loss(cfg: Mapping[str, Any], dim: int):
    family = cfg["family"]
    if family == "linear-quadratic":
        return LinearLoss(_per_axis(cfg["center"], dim, "loss.center"),
                          _per_axis(cfg["weights"], dim, "loss.weights"))
    if family == "interaction-quadratic":
        return InteractionLoss()
    if family == "mean-field-regression":
        if dim != 4:
            raise ConfigError("mean-field-regression needs reference.dimension = 4")
        data = gen_mfnn_data(cfg["data_seed"], cfg["n_data"])
        return MeanFieldRegressionLoss(data.covariates, data.responses, lam=cfg["lam"])
    if family == "predictive-kernel":
        if dim != 2:
            raise ConfigError("predictive-kernel needs reference.dimension = 2")
        series = gen_lv_data(cfg["data_seed"])
        return PredictiveKernelLoss(series.times, series.observations, sigma=cfg["sigma"],
                                    lam=cfg["lam"])
    return ZeroLoss()


def build_init(
    cfg: Mapping[str, Any], ref: DiagonalGaussian, n: int, rng: np.random.Generator
) -> np.ndarray:
    if cfg["kind"] == "reference":
        return ref.sample(rng, n)
    mean = _per_axis(cfg["mean"], ref.dim, "sampler.init.mean")
    var = _per_axis(cfg["variance"], ref.dim, "sampler.init.variance")
    return mean + np.sqrt(var) * rng.standard_normal((n, ref.dim))


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
    """The (n, d) atoms of a particles file; a file that is not one is a
    config error naming it."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # loadtxt's warning of no rows
            atoms = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    except UserWarning:
        raise ConfigError(f"particles file '{path}': no particle rows") from None
    except (OSError, ValueError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ConfigError(f"particles file '{path}': {reason}") from None
    if not np.isfinite(atoms).all():
        raise ConfigError(f"particles file '{path}': a coordinate is not finite")
    return atoms


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


def _meta_json(payload: Mapping[str, Any]) -> str:
    """The text of ``meta.json``: version and environment, then the payload.

    Raises FloatingPointError for a non-finite number in the payload, which
    strict JSON cannot hold (``json`` would write a bare NaN or Infinity).
    """
    body = {"version": __version__, "environment": _environment()} | dict(payload)
    try:
        return json.dumps(body, indent=2, sort_keys=True, default=str, allow_nan=False) + "\n"
    except ValueError as exc:
        raise FloatingPointError(f"meta.json would hold a non-finite number ({exc})") from None


def write_meta(path: Path, text: str) -> None:
    """Write the text ``_meta_json`` made."""
    path.write_text(text)


def _output_dir(path: str | Path, name: str) -> Path:
    """The output directory ``path``, checked before any work: it may not be
    empty, and it, or else its nearest existing ancestor, must be a
    directory. ``name`` is the setting it came from, for the error."""
    if path == "":
        raise ConfigError(f"{name} is empty: give an output directory path")
    out = Path(path)
    existing = next(p for p in (out, *out.parents) if p.exists())
    if not existing.is_dir():
        raise ConfigError(f"{name} '{out}': '{existing}' exists and is not a directory")
    return out


class Outputs(NamedTuple):
    """What a finished run writes besides its meta: the ``trace.csv`` header
    and rows, and the ``particles.csv`` atoms (None: no file) with their
    per-arm row groups."""

    header: Sequence[str]
    rows: list[list[Any]]
    atoms: np.ndarray | None
    groups: Sequence[tuple[str, int]] | None = None


def write_outputs(out: Path, outputs: Outputs, meta: Mapping[str, Any]) -> list[str]:
    """Create ``out`` and write a finished run's files into it; their names.
    A meta that is not valid JSON fails before ``out`` is created."""
    text = _meta_json(meta)
    out.mkdir(parents=True, exist_ok=True)
    names = ["trace.csv"]
    write_csv(out / "trace.csv", outputs.header, outputs.rows)
    if outputs.atoms is not None:
        names.append("particles.csv")
        write_particles(out / "particles.csv", outputs.atoms, outputs.groups)
    write_meta(out / "meta.json", text)
    return names + ["meta.json"]


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
        raise ConfigError(f"particles file '{args.particles}': particle dimension "
                          f"{atoms.shape[1]} != reference dimension {ref.dim}")
    measure = EmpiricalMeasure(atoms)
    n, atoms = measure.n, measure.atoms
    # One Stein pass gives both statistics, as in kgd_v_squared and kgd_u_squared.
    total, trace = _stein_sums(kernel, atoms, gen_score(ref, loss, measure, atoms))
    v2 = total / n**2
    print(f"n {n}")
    print(f"kgd_v2 {_fmt(v2)}")
    print(f"kgd_v {_fmt(math.sqrt(max(v2, 0.0)))}")  # V is nonnegative up to roundoff
    if n >= 2:
        print(f"kgd_u2 {_fmt((total - trace) / (n * (n - 1)))}")
    return 0


# ---------------------------------------------------------------------------
# Verb: sample
# ---------------------------------------------------------------------------


def run_sampler(cfg: Mapping[str, Any], kernel, ref: DiagonalGaussian, loss,
                seed: int) -> SamplerRun:
    """The run a resolved ``sampler`` section describes, traced with ``kernel``."""
    algorithm = cfg["algorithm"]
    if algorithm == "greedy":
        search = SearchSpec(
            proposal_mean=_per_axis(cfg["proposal_mean"], ref.dim, "sampler.proposal_mean"),
            proposal_scale=cfg["proposal_scale"],
            n_candidates=cfg["n_candidates"],
            refine_rounds=cfg["refine_rounds"],
        )
        return greedy_extend(kernel, ref, loss, search, cfg["points"], seed=seed)
    n_steps, step_size, trace_every = cfg["steps"], cfg["step_size"], cfg["trace_every"]
    atoms0 = build_init(cfg["init"], ref, cfg["particles"], seeded_stream(seed, "init"))
    if algorithm == "mfld":
        return mfld_run(atoms0, ref, loss, step_size, n_steps, seeded_stream(seed, "mfld"),
                        trace_kernel=kernel, trace_every=trace_every)
    spec = OptimizerSpec(method=cfg["optimizer"], step_size=step_size)
    if algorithm == "vgd":
        return vgd_run(atoms0, kernel, ref, loss, spec, n_steps,
                       trace_kernel=kernel, trace_every=trace_every)
    if isinstance(loss, PredictiveKernelLoss):
        raise ConfigError("sampler.algorithm 'kgdd' needs a loss with "
                          "var_grad_vjp; loss.family 'predictive-kernel' has none")
    return kgdd_run(atoms0, kernel, ref, loss, spec, n_steps,
                    trace_kernel=kernel, trace_every=trace_every)


def cmd_sample(args: argparse.Namespace) -> int:
    cfg = parse_config(args.config)
    if args.output is not None:
        cfg["run"]["output"] = args.output
    if cfg["run"]["output"] is None:
        raise ConfigError("no output directory: set run.output or pass --output")
    out = _output_dir(cfg["run"]["output"], "--output" if args.output is not None else "run.output")
    kernel = build_kernel(cfg["kernel"])
    ref = build_reference(cfg["reference"])
    loss = build_loss(cfg["loss"], ref.dim)
    start = time.perf_counter()
    run = run_sampler(cfg["sampler"], kernel, ref, loss, cfg["run"]["seed"])
    elapsed = time.perf_counter() - start
    rows = [[int(s), float(k), float(w)] for s, k, w in zip(run.steps, run.kgd2, run.wall)]
    outputs = Outputs(["step", "kgd_v2", "wall_time_s"], rows, run.atoms)
    write_outputs(out, outputs, {"config": cfg, "elapsed_s": elapsed})
    print(f"final kgd_v2 {_fmt(float(run.kgd2[-1])) if len(run.kgd2) else 'n/a'}")
    return 0


# ---------------------------------------------------------------------------
# Experiment presets. Each preset's knob table pairs every default with its
# parser; ``--set key=value`` overrides by name, and every knob, default or
# override, is parsed before any work starts. Unknown knobs are
# configuration errors. A preset's runner maps (seed, knobs) to the outputs
# and summary of its run and writes nothing: its files are written once it
# has finished, so a run that fails leaves no directory.
# ---------------------------------------------------------------------------


def _text_number(text: str) -> int | float:
    try:
        return int(text)
    except ValueError:
        return float(text)


def _apply_overrides(table: Table, overrides: Sequence[str]) -> dict:
    """The knobs of ``table``, each its ``--set key=value`` override (list
    items separated by ';') or else its default, read by its parser."""
    raw = {}
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got '{item}'")
        key, text = item.split("=", 1)
        try:
            parts = [_text_number(part) for part in text.split(";")]
        except ValueError as exc:
            raise ConfigError(f"cannot parse override '{item}': {exc}") from None
        raw[key.strip()] = parts if len(parts) > 1 else parts[0]
    return _resolve(raw, "", table)


def _scaling_study(*args) -> ScalingStudy:
    """``clt_scaling_study`` with its size and replicate checks as config errors."""
    try:
        return clt_scaling_study(*args)
    except ValueError as exc:
        raise ConfigError(f"scaling study: {exc}") from None


def _preset_gauss_identity(seed: int, knobs: dict) -> tuple[Outputs, dict]:
    kernel = IMQ(knobs["lengthscale"])
    ref = DiagonalGaussian.standard(knobs["dimension"])
    study = _scaling_study(kernel, ref, ZeroLoss(), lambda rng, n: ref.sample(rng, n),
                           knobs["sizes"], knobs["replicates"], seed)
    rows = [
        [int(n), float(vm), float(vs), float(um), float(se)]
        for n, vm, vs, um, se in zip(
            study.sizes, study.v_mean, study.v_sd, study.u_mean, study.u_se
        )
    ]
    outputs = Outputs(["n", "mean_v2", "sd_v2", "mean_u2", "se_u2"], rows, study.largest_draw)
    return outputs, {"slope_v_mean": study.slope_v_mean, "slope_v_sd": study.slope_v_sd}


def _preset_clt_study(seed: int, knobs: dict) -> tuple[Outputs, dict]:
    kernel = IMQ(knobs["lengthscale"])
    offset = knobs["offset"]
    rows = []
    slopes = {}
    for d in knobs["dimensions"]:
        ref = DiagonalGaussian.standard(d)
        study = _scaling_study(kernel, ref, InteractionLoss(),
                               lambda rng, n: offset + rng.standard_normal((n, d)),
                               knobs["sizes"], knobs["replicates"], seed)
        for n, vs in zip(study.sizes, study.v_sd):
            rows.append([d, int(n), float(vs)])
        slopes[f"slope_sd_d{d}"] = study.slope_v_sd
    return Outputs(["dimension", "n", "sd_v2"], rows, study.largest_draw), slopes


def _preset_mfnn_stepsize(seed: int, knobs: dict) -> tuple[Outputs, dict]:
    loss = build_loss({**knobs, "family": "mean-field-regression"}, 4)
    ref = DiagonalGaussian.standard(4)
    kernel = IMQ(knobs["lengthscale"])
    n = knobs["particles"]
    rows = []
    final_atoms = None
    for idx, eps in enumerate(knobs["step_sizes"]):
        finals = []
        for rep in range(knobs["replicates"]):
            atoms0 = ref.sample(seeded_stream(seed, "init", idx, rep), n)
            try:
                run = mfld_run(
                    atoms0, ref, loss, eps, knobs["steps"],
                    seeded_stream(seed, "mfld", idx, rep), trace_kernel=None,
                )
                v2 = kgd_v_squared(kernel, ref, loss, EmpiricalMeasure(run.atoms))
                final = math.sqrt(max(v2, 0.0))
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
    # When every run diverged, there are no particles to write.
    outputs = Outputs(["step_size", "median_kgd", "p5_kgd", "p95_kgd", "n_diverged"], rows,
                      final_atoms)
    # A diverged median is null in meta.json; n_diverged is in its row.
    medians = {row[0]: row[1] if math.isfinite(row[1]) else None for row in rows}
    return outputs, {"median_kgd_by_step_size": medians, "network_fits": loss.fits}


def _mfnn_arms(seed: int, knobs: dict, loss: MeanFieldRegressionLoss) -> list[tuple[str, Stepper]]:
    """The three mfnn-compare arms as steppers on ``loss``."""
    ref = DiagonalGaussian.standard(4)
    kernel = IMQ(knobs["lengthscale"])
    trace_every = knobs["trace_every"]

    # Langevin arm.
    init = 3.0 * seeded_stream(seed, "init", "mfld").standard_normal((knobs["particles"], 4))
    mfld = mfld_stepper(
        init, ref, loss, knobs["mfld_step_size"], knobs["mfld_steps"],
        seeded_stream(seed, "mfld"), trace_kernel=kernel, trace_every=trace_every,
    )

    # Descent-on-discrepancy arm.
    init = 3.0 * seeded_stream(seed, "init", "kgdd").standard_normal((knobs["kgdd_particles"], 4))
    spec = OptimizerSpec(method="adam", step_size=knobs["kgdd_step_size"])
    kgdd = kgdd_stepper(init, kernel, ref, loss, spec, knobs["kgdd_steps"],
                        trace_kernel=kernel, trace_every=1)

    # Parametric arm: affine map x = A z + c of a frozen base sample, tuned by
    # the U-statistic's particle gradient G chained through the map:
    # dA = G^T Z and dc = sum_i G_i. It runs as a flow of the pushed sample.
    base = seeded_stream(seed, "vi", "base").standard_normal((knobs["vi_sample"], 4))
    theta = np.concatenate([np.eye(4).ravel() * 3.0, np.zeros(4)])
    update = OptimizerSpec(method="adam", step_size=knobs["vi_step_size"]).updates(theta.shape)

    def push(th: np.ndarray) -> np.ndarray:
        return base @ th[:16].reshape(4, 4).T + th[16:]

    def advance(atoms: np.ndarray) -> np.ndarray:
        nonlocal theta
        g = particle_grad(kernel, ref, loss, atoms, u_statistic=True)
        grad = np.concatenate([(g.T @ base).ravel(), g.sum(axis=0)])
        theta = theta + update(-grad)
        return push(theta)

    vi = flow_stepper(push(theta), knobs["vi_steps"], advance, kernel, ref, loss, trace_every)
    return [("mfld", mfld), ("kgdd", kgdd), ("param-vi", vi)]


def _preset_mfnn_compare(seed: int, knobs: dict) -> tuple[Outputs, dict]:
    loss = build_loss({**knobs, "family": "mean-field-regression"}, 4)
    outputs, runs, _ = _drive_arms(_mfnn_arms(seed, knobs, loss), loss)
    # Each step scores every particle of its arm once.
    rows = [[arm, step, float(step * len(runs[arm].atoms)), k] for arm, step, k in outputs.rows]
    finals = {arm: float(run.kgd2[-1]) for arm, run in runs.items()}
    return (outputs._replace(header=["arm", "step", "score_evals", "kgd_v2"], rows=rows),
            {"final_kgd_v2": finals, "network_fits": loss.fits})


def _lv_arms(seed: int, knobs: dict, loss: PredictiveKernelLoss) -> list[tuple[str, Stepper]]:
    """The three lv-compare arms as steppers on ``loss``."""
    ref = DiagonalGaussian.standard(2)
    # Assessment kernel: two inverse multiquadrics on the short scales where
    # the posterior mass concentrates.
    assess = Mixture((IMQ(np.sqrt(0.03)), IMQ(np.sqrt(0.1))), weights=(1.0, 1.0))
    n = knobs["particles"]
    n_steps = knobs["steps"]
    trace_every = knobs["trace_every"]
    truth = np.array([-1.0, knobs["true_x2"]])

    # Langevin arm from a tight cloud at the data-generating parameters.
    init = truth + 1e-3 * seeded_stream(seed, "init", "mfld").standard_normal((n, 2))
    mfld = mfld_stepper(
        init, ref, loss, knobs["mfld_step_size"], n_steps,
        seeded_stream(seed, "mfld"), trace_kernel=assess, trace_every=trace_every,
    )

    # Deterministic flow arm from the reference.
    flow_kernel = Mixture((IMQ(0.01), IMQ(0.1), IMQ(1.0)))
    init = ref.sample(seeded_stream(seed, "init", "vgd"), n)
    spec = OptimizerSpec(method="adam", step_size=knobs["vgd_step_size"])
    vgd = vgd_stepper(
        init, flow_kernel, ref, loss, spec, n_steps,
        trace_kernel=assess, trace_every=trace_every,
    )

    # Greedy extensible arm.
    search = SearchSpec(
        proposal_mean=np.array([-1.0, 1.6]),
        proposal_scale=knobs["proposal_scale"],
        n_candidates=knobs["n_candidates"],
        refine_rounds=knobs["refine_rounds"],
    )
    greedy = greedy_stepper(assess, ref, loss, search, n, seed=seed)
    return [("mfld", mfld), ("vgd", vgd), ("greedy", greedy)]


def _drive_arms(arms: Sequence[tuple[str, Stepper]],
                loss) -> tuple[Outputs, dict[str, SamplerRun], int]:
    """Drive the named arms in lockstep on ``loss``. Returns their (arm,
    step, kgd_v2) trace rows and stacked particles, one group per arm, with
    the runs by name and the number of rounds."""
    results, rounds = drive([stepper for _, stepper in arms], loss)
    runs = {name: run for (name, _), run in zip(arms, results)}
    rows = [[name, int(s), float(k)]
            for name, run in runs.items() for s, k in zip(run.steps, run.kgd2)]
    outputs = Outputs(["arm", "step", "kgd_v2"], rows,
                      np.vstack([run.atoms for run in runs.values()]),
                      [(name, len(run.atoms)) for name, run in runs.items()])
    return outputs, runs, rounds


def _preset_lv_compare(seed: int, knobs: dict) -> tuple[Outputs, dict]:
    series = gen_lv_data(knobs["data_seed"])
    loss = PredictiveKernelLoss(series.times, series.observations)
    # The arms run in lockstep: each round, one solver call serves them all.
    outputs, _, rounds = _drive_arms(_lv_arms(seed, knobs, loss), loss)
    return outputs, {"solver": {"method": "taylor", "order": _TAYLOR_ORDER, "step": _TAYLOR_STEP},
                     "ode_solves": loss.n_solves, "solver_calls": loss.solver_calls,
                     "pair_blocks": loss.pair_blocks,
                     "driver_rounds": rounds, "cache_hits": loss.cache_hits,
                     "cache_misses": loss.cache_misses, "cache_clears": loss.cache_clears}


_PRESETS: dict[str, tuple[Callable[[int, dict], tuple[Outputs, dict]], Table]] = {
    "gauss-identity": (
        _preset_gauss_identity,
        {
            "sizes": ([25, 50, 100, 200, 400, 800], _list(_count)),
            "replicates": (100, _count),
            "dimension": (2, _count),
            "lengthscale": (1.0, _scale),
        },
    ),
    "clt-study": (
        _preset_clt_study,
        {
            "sizes": ([50, 100, 200, 400, 800], _list(_count)),
            "replicates": (200, _count),
            "dimensions": ([2, 5], _list(_count)),
            "offset": (1.0, _finite),
            "lengthscale": (1.0, _scale),
        },
    ),
    "mfnn-stepsize": (
        _preset_mfnn_stepsize,
        _MEAN_FIELD | {
            "lengthscale": (1.0, _scale),
            "particles": (50, _count),
            "steps": (200, _count),
            "replicates": (5, _count),
            "step_sizes": ([1e-6, 1e-5, 1e-4, 10 ** -3.5, 1e-3, 1e-2, 1e-1], _list(_positive)),
        },
    ),
    "mfnn-compare": (
        _preset_mfnn_compare,
        _MEAN_FIELD | {
            "lengthscale": (1.0, _scale),
            "particles": (50, _count),
            "mfld_step_size": (1e-4, _positive),
            "mfld_steps": (300, _count),
            "kgdd_particles": (20, _count),
            "kgdd_step_size": (1e-2, _positive),
            "kgdd_steps": (25, _count),
            "vi_sample": (50, partial(_count, least=2)),  # the U-statistic needs two atoms
            "vi_step_size": (1e-3, _positive),
            "vi_steps": (60, _count),
            "trace_every": (10, _count),
        },
    ),
    "lv-compare": (
        _preset_lv_compare,
        {
            "data_seed": (1, _count0),
            "particles": (8, _count),
            "steps": (40, _count),
            "mfld_step_size": (1e-5, _positive),
            "vgd_step_size": (1e-3, _positive),
            "proposal_scale": (0.5, _positive),
            "n_candidates": (120, _count),
            "refine_rounds": (3, _count0),
            "trace_every": (5, _count),
            "true_x2": (LV_TRUE_X2, _finite),
        },
    ),
}


def cmd_experiment(args: argparse.Namespace) -> int:
    if args.preset not in _PRESETS:
        raise ConfigError(
            f"unknown preset '{args.preset}'; available: {sorted(_PRESETS)}"
        )
    runner, table = _PRESETS[args.preset]
    seed = _count0(args.seed, "--seed")
    knobs = _apply_overrides(table, args.set or [])
    out = _output_dir(f"{args.preset}-out" if args.output is None else args.output, "--output")
    start = time.perf_counter()
    outputs, summary = runner(seed, knobs)
    elapsed = time.perf_counter() - start
    meta = {"preset": args.preset, "seed": seed, "knobs": knobs, "summary": summary,
            "elapsed_s": elapsed}
    print(f"wrote {out}/{', '.join(write_outputs(out, outputs, meta))}")
    return 0


# ---------------------------------------------------------------------------
# Verb: self-check
# ---------------------------------------------------------------------------


def cmd_self_check(_args: argparse.Namespace) -> int:
    from .selfcheck import CHECKS

    failures = 0
    for name, check in CHECKS:
        try:
            ok, metric = check()
        except Exception as exc:  # a check that raises fails its own line only
            traceback.print_exc()
            ok, metric = False, f"{type(exc).__name__}: {exc}"
        print(f"{'PASS' if ok else 'FAIL'} {name} ({metric})")
        failures += not ok
    return 3 if failures else 0


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
    except MemoryError as exc:  # a count under its bound can still size an array past memory
        print(f"config error: the run needs more memory than is available ({exc})",
              file=sys.stderr)
        return 2
    except (SamplerDivergence, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
