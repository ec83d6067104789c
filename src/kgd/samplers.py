"""Particle samplers driven by the generalised score and the discrepancy:
noisy mean-field Langevin steps, the deterministic kernelised flow, direct
descent on the squared discrepancy, and greedy extensible point selection.

All updates are synchronous: every per-particle quantity for a step is
computed from the pre-step configuration before any particle moves.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .core import DiagonalGaussian, EmpiricalMeasure, seeded_stream
from .discrepancy import gen_score, kgd_u_squared, kgd_v_squared
from .losses import VariationalLoss

DIVERGENCE_NORM = 1e8


class SamplerDivergence(RuntimeError):
    """Raised when particles blow up; carries the offending step index."""

    def __init__(self, step: int, max_coord: float) -> None:
        super().__init__(
            f"particles diverged at step {step}: max |coordinate| = {max_coord:.3e}"
        )
        self.step = step
        self.max_coord = max_coord


def _check_finite(atoms: np.ndarray, step: int) -> None:
    max_coord = float(np.max(np.abs(atoms))) if atoms.size else 0.0
    if not np.isfinite(max_coord) or max_coord > DIVERGENCE_NORM:
        raise SamplerDivergence(step, max_coord)


# ---------------------------------------------------------------------------
# Optimizers. A spec plus immutable state; ``apply`` turns a flow direction
# into an additive particle update, so descent callers negate their gradient.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OptimizerSpec:
    method: str = "euler"  # "euler" or "adam"
    step_size: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self) -> None:
        if self.method not in ("euler", "adam"):
            raise ValueError(f"unknown optimizer method {self.method!r}")
        if not self.step_size > 0.0:
            raise ValueError("step_size must be positive")


@dataclass(frozen=True)
class OptimizerState:
    m: np.ndarray
    v: np.ndarray
    t: int


def optimizer_init(shape: tuple[int, ...]) -> OptimizerState:
    return OptimizerState(np.zeros(shape), np.zeros(shape), 0)


def optimizer_apply(
    spec: OptimizerSpec, state: OptimizerState, direction: np.ndarray
) -> tuple[np.ndarray, OptimizerState]:
    """Additive update for a flow direction; per-coordinate preconditioned
    when the method is adam."""
    if spec.method == "euler":
        return spec.step_size * direction, replace(state, t=state.t + 1)
    t = state.t + 1
    m = spec.beta1 * state.m + (1.0 - spec.beta1) * direction
    v = spec.beta2 * state.v + (1.0 - spec.beta2) * direction**2
    m_hat = m / (1.0 - spec.beta1**t)
    v_hat = v / (1.0 - spec.beta2**t)
    delta = spec.step_size * m_hat / (np.sqrt(v_hat) + spec.eps)
    return delta, OptimizerState(m, v, t)


@dataclass(frozen=True)
class SamplerRun:
    """Final configuration plus an optional discrepancy trace."""

    atoms: np.ndarray  # (n, d)
    steps: np.ndarray  # (k,) step indices where the discrepancy was recorded
    kgd2: np.ndarray  # (k,) squared-discrepancy values at those steps
    wall: np.ndarray  # (k,) seconds since the run started, measured per row


def _trace_value(trace_kernel, ref, loss, atoms: np.ndarray) -> float:
    measure = EmpiricalMeasure(atoms)
    return kgd_v_squared(trace_kernel, ref, loss, measure).value2


def _run_loop(
    atoms: np.ndarray,
    n_steps: int,
    advance: Callable[[np.ndarray, int], np.ndarray],
    trace_kernel,
    ref: DiagonalGaussian,
    loss: VariationalLoss,
    trace_every: int,
) -> SamplerRun:
    _check_finite(atoms, 0)
    start = time.perf_counter()
    steps: list[int] = []
    kgd2: list[float] = []
    wall: list[float] = []
    if trace_kernel is not None:
        steps.append(0)
        kgd2.append(_trace_value(trace_kernel, ref, loss, atoms))
        wall.append(time.perf_counter() - start)
    for step in range(1, n_steps + 1):
        atoms = advance(atoms, step)
        _check_finite(atoms, step)
        if trace_kernel is not None and (
            step % trace_every == 0 or step == n_steps
        ):
            if not steps or steps[-1] != step:
                steps.append(step)
                kgd2.append(_trace_value(trace_kernel, ref, loss, atoms))
                wall.append(time.perf_counter() - start)
    return SamplerRun(
        atoms, np.asarray(steps, dtype=int), np.asarray(kgd2), np.asarray(wall)
    )


# ---------------------------------------------------------------------------
# Mean-field Langevin: x_i <- x_i + eps b(x_i) + sqrt(2 eps) Z_i.
# ---------------------------------------------------------------------------


def mfld_step(
    atoms: np.ndarray,
    ref: DiagonalGaussian,
    loss: VariationalLoss,
    step_size: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """One Euler-Maruyama step of the mean-field Langevin dynamics.

    Scores are evaluated at the pre-step configuration for every particle,
    and one (n, d) block of standard normals is drawn from ``rng``.
    """
    measure = EmpiricalMeasure(atoms)
    scores = gen_score(ref, loss, measure, atoms)
    noise = rng.standard_normal(atoms.shape)
    return atoms + step_size * scores + np.sqrt(2.0 * step_size) * noise


def mfld_run(
    atoms: np.ndarray,
    ref: DiagonalGaussian,
    loss: VariationalLoss,
    step_size: float,
    n_steps: int,
    rng: np.random.Generator,
    trace_kernel=None,
    trace_every: int = 1,
) -> SamplerRun:
    def advance(current: np.ndarray, _step: int) -> np.ndarray:
        return mfld_step(current, ref, loss, step_size, rng)

    return _run_loop(
        np.asarray(atoms, dtype=float), n_steps, advance, trace_kernel, ref, loss, trace_every
    )


# ---------------------------------------------------------------------------
# Kernelised gradient flow: dx_i/dt = (1/n) sum_j [k(x_i,x_j) b(x_j)
# + grad_1 k(x_j, x_i)].
# ---------------------------------------------------------------------------


def vgd_drift(
    kernel,
    ref: DiagonalGaussian,
    loss: VariationalLoss,
    measure: EmpiricalMeasure,
) -> np.ndarray:
    """Flow velocity at each atom, shape (n, d)."""
    atoms = measure.atoms
    scores = gen_score(ref, loss, measure, atoms)
    pw = kernel.pairwise(atoms, atoms)
    # sum_j grad_1 k(x_j, x_i) is the column sum of the grad1 table.
    return (pw.value @ scores + np.sum(pw.grad1, axis=0)) / measure.n


def vgd_step(
    atoms: np.ndarray,
    kernel,
    ref: DiagonalGaussian,
    loss: VariationalLoss,
    spec: OptimizerSpec,
    state: OptimizerState,
) -> tuple[np.ndarray, OptimizerState]:
    drift = vgd_drift(kernel, ref, loss, EmpiricalMeasure(atoms))
    delta, state = optimizer_apply(spec, state, drift)
    return atoms + delta, state


def vgd_run(
    atoms: np.ndarray,
    kernel,
    ref: DiagonalGaussian,
    loss: VariationalLoss,
    spec: OptimizerSpec,
    n_steps: int,
    trace_kernel=None,
    trace_every: int = 1,
) -> SamplerRun:
    state = optimizer_init(np.shape(atoms))

    def advance(current: np.ndarray, _step: int) -> np.ndarray:
        nonlocal state
        moved, state = vgd_step(current, kernel, ref, loss, spec, state)
        return moved

    return _run_loop(
        np.asarray(atoms, dtype=float), n_steps, advance, trace_kernel, ref, loss, trace_every
    )


# ---------------------------------------------------------------------------
# Descent on the squared discrepancy as a function of particle positions.
# ---------------------------------------------------------------------------


def _kgdd_grad_fd(
    kernel,
    ref: DiagonalGaussian,
    loss: VariationalLoss,
    atoms: np.ndarray,
    base_step: float,
) -> np.ndarray:
    grad = np.empty_like(atoms)
    for i in range(atoms.shape[0]):
        for c in range(atoms.shape[1]):
            h = base_step * (1.0 + abs(atoms[i, c]))
            plus = atoms.copy()
            minus = atoms.copy()
            plus[i, c] += h
            minus[i, c] -= h
            fp = kgd_v_squared(kernel, ref, loss, EmpiricalMeasure(plus)).value2
            fm = kgd_v_squared(kernel, ref, loss, EmpiricalMeasure(minus)).value2
            grad[i, c] = (fp - fm) / (2.0 * h)
    return grad


def _kgdd_grad_analytic(
    kernel,
    ref: DiagonalGaussian,
    loss: VariationalLoss,
    atoms: np.ndarray,
) -> np.ndarray:
    """Closed-form gradient of the V-statistic in the particle positions.

    Splits into a positional channel (kernel arguments move, scores frozen)
    and a score channel (every score reacts to the move through the loss).
    Radial kernels only; the loss must provide its second-order blocks.
    """
    if not kernel.is_radial:
        raise NotImplementedError("analytic route requires a radial scalar kernel")
    if not loss.has_second_order:
        raise NotImplementedError("analytic route requires second-order loss blocks")
    measure = EmpiricalMeasure(atoms)
    n, d = atoms.shape
    scores = gen_score(ref, loss, measure, atoms)  # (n, d)
    diffs = atoms[:, None, :] - atoms[None, :, :]
    sq = np.sum(diffs**2, axis=-1)
    phi, dphi, d2phi, d3phi = kernel.profile(sq)

    rb_col = np.einsum("ijd,jd->ij", diffs, scores)  # diffs . b(x_j)
    rb_row = np.einsum("ijd,id->ij", diffs, scores)  # diffs . b(x_i)
    bxy = scores @ scores.T
    # d/ds of the mixed trace term: -(2d + 4) phi'' - 4 s phi'''
    tp = -(2.0 * d + 4.0) * d2phi - 4.0 * sq * d3phi
    coeff = 2.0 * tp + 4.0 * d2phi * (rb_col - rb_row) + 2.0 * dphi * bxy
    positional = coeff[..., None] * diffs + (2.0 * dphi)[..., None] * (
        scores[None, :, :] - scores[:, None, :]
    )
    pos_grad = (2.0 / n**2) * np.sum(positional, axis=1)

    # Sensitivity of the V-statistic to each score vector.
    grad1_colsum = np.sum((2.0 * dphi)[..., None] * diffs, axis=0)  # (n, d)
    u = (2.0 / n**2) * (grad1_colsum + phi.T @ scores)
    diag, cross = loss.var_grad_jacobian(measure)
    h0 = ref.log_grad_jacobian()  # (d, d), constant
    own = np.einsum("mba,mb->ma", h0[None, :, :] - diag, u)
    others = np.einsum("pmba,pb->ma", cross, u)
    return pos_grad + own - others


def kgdd_grad(
    kernel,
    ref: DiagonalGaussian,
    loss: VariationalLoss,
    atoms: np.ndarray,
    method: str = "fd",
    base_step: float = 1e-5,
) -> np.ndarray:
    """Gradient of the squared-discrepancy V-statistic in the positions.

    The default central-difference route works for any kernel/loss pair;
    the analytic route needs a radial kernel and second-order loss blocks.
    """
    atoms = np.asarray(atoms, dtype=float)
    if method == "fd":
        return _kgdd_grad_fd(kernel, ref, loss, atoms, base_step)
    if method == "analytic":
        return _kgdd_grad_analytic(kernel, ref, loss, atoms)
    raise ValueError(f"unknown gradient method {method!r}")


def kgdd_run(
    atoms: np.ndarray,
    kernel,
    ref: DiagonalGaussian,
    loss: VariationalLoss,
    spec: OptimizerSpec,
    n_steps: int,
    method: str = "fd",
    base_step: float = 1e-5,
    trace_kernel=None,
    trace_every: int = 1,
) -> SamplerRun:
    state = optimizer_init(np.shape(atoms))

    def advance(current: np.ndarray, _step: int) -> np.ndarray:
        nonlocal state
        grad = kgdd_grad(kernel, ref, loss, current, method, base_step)
        delta, state = optimizer_apply(spec, state, -grad)
        return current + delta

    return _run_loop(
        np.asarray(atoms, dtype=float), n_steps, advance, trace_kernel, ref, loss, trace_every
    )


# ---------------------------------------------------------------------------
# Greedy extensible sampling: each new point minimises the discrepancy of the
# configuration that includes it.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SearchSpec:
    """Candidate set plus coordinate-descent refinement.

    Stage one scores an explicit candidate array, or ``n_candidates`` draws
    from an isotropic Gaussian proposal when no candidates are given. Stage
    two runs ``refine_rounds`` sweeps of coordinate line search around the
    incumbent, shrinking the span each sweep, which sharpens the winner well
    beyond the candidate resolution.
    """

    candidates: np.ndarray | None = None  # (c, d)
    proposal_mean: np.ndarray | None = None  # (d,)
    proposal_scale: float = 1.0
    n_candidates: int = 200
    refine_rounds: int = 4
    refine_points: int = 9
    refine_span: np.ndarray | float | None = None

    def candidate_set(self, rng: np.random.Generator | None) -> np.ndarray:
        if self.candidates is not None:
            arr = np.asarray(self.candidates, dtype=float)
            return arr[:, None] if arr.ndim == 1 else arr
        if self.proposal_mean is None:
            raise ValueError("search needs candidates or a proposal_mean")
        if rng is None:
            raise ValueError("proposal sampling needs a random stream")
        mean = np.atleast_1d(np.asarray(self.proposal_mean, dtype=float))
        return mean + self.proposal_scale * rng.standard_normal(
            (self.n_candidates, mean.size)
        )

    def spans(self, candidates: np.ndarray) -> np.ndarray:
        if self.refine_span is not None:
            return np.broadcast_to(
                np.asarray(self.refine_span, dtype=float), (candidates.shape[1],)
            ).astype(float)
        c, d = candidates.shape
        per_axis = max(2, int(round(c ** (1.0 / d))))
        extent = candidates.max(axis=0) - candidates.min(axis=0)
        return np.maximum(extent / (per_axis - 1), 1e-12)


def greedy_next(
    kernel,
    ref: DiagonalGaussian,
    loss: VariationalLoss,
    search: SearchSpec,
    atoms: np.ndarray | None = None,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Location minimising the squared discrepancy with the candidate included.

    The objective for candidate x is the V-statistic of the configuration
    (x_1, ..., x_n, x); scores are re-evaluated per candidate because the
    candidate itself shifts the empirical measure.
    """
    existing = None if atoms is None else np.asarray(atoms, dtype=float)

    def objective(x: np.ndarray) -> float:
        pts = x[None, :] if existing is None else np.vstack([existing, x[None, :]])
        return kgd_v_squared(kernel, ref, loss, EmpiricalMeasure(pts)).value2

    candidates = search.candidate_set(rng)
    if hasattr(loss, "prefetch"):
        loss.prefetch(candidates)
    values = np.asarray([objective(c) for c in candidates])
    best = candidates[int(np.argmin(values))].copy()
    best_val = float(values.min())

    spans = search.spans(candidates)
    d = candidates.shape[1]
    for _ in range(search.refine_rounds):
        for j in range(d):
            offsets = np.linspace(-spans[j], spans[j], search.refine_points)
            line = np.repeat(best[None, :], search.refine_points, axis=0)
            line[:, j] += offsets
            if hasattr(loss, "prefetch"):
                loss.prefetch(line)
            line_vals = np.asarray([objective(p) for p in line])
            k = int(np.argmin(line_vals))
            if line_vals[k] < best_val:
                best = line[k].copy()
                best_val = float(line_vals[k])
        # Best grid point sits within one spacing of the line optimum.
        spans = 2.0 * spans / (search.refine_points - 1)
    return best


def greedy_extend(
    kernel,
    ref: DiagonalGaussian,
    loss: VariationalLoss,
    search: SearchSpec,
    n_points: int,
    seed: int = 0,
    init_atoms: np.ndarray | None = None,
) -> SamplerRun:
    """Grow a configuration one point at a time.

    The returned trace records the squared discrepancy after each addition,
    with ``steps`` counting configuration sizes. Proposal draws for stage one
    use substreams addressed by (seed, point index), so the sequence does not
    depend on evaluation order.
    """
    atoms = None if init_atoms is None else np.asarray(init_atoms, dtype=float)
    start = time.perf_counter()
    kgd2 = np.empty(n_points)
    wall = np.empty(n_points)
    for k in range(n_points):
        rng = seeded_stream(seed, "greedy", k)
        x_new = greedy_next(kernel, ref, loss, search, atoms, rng)
        atoms = x_new[None, :] if atoms is None else np.vstack([atoms, x_new[None, :]])
        kgd2[k] = kgd_v_squared(kernel, ref, loss, EmpiricalMeasure(atoms)).value2
        wall[k] = time.perf_counter() - start
    assert atoms is not None
    base = 0 if init_atoms is None else len(init_atoms)
    return SamplerRun(atoms, base + np.arange(1, n_points + 1), kgd2, wall)


def param_vi_objective(
    kernel,
    ref: DiagonalGaussian,
    loss: VariationalLoss,
    points: np.ndarray,
) -> float:
    """U-statistic objective for parametric fits: callers push a base sample
    through their map and hand the resulting points here."""
    return kgd_u_squared(kernel, ref, loss, EmpiricalMeasure(points)).value2
