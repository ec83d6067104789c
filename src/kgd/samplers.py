"""Particle samplers driven by the generalised score and the discrepancy:
noisy mean-field Langevin steps, the deterministic kernelised flow, direct
descent on the squared discrepancy, and greedy extensible point selection.

All updates are synchronous: every per-particle quantity for a step is
computed from the pre-step configuration before any particle moves. Each
sampler is a stepper that ``drive`` advances, alone (the ``*_run``
functions) or in lockstep with others that share its loss.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Generator, Sequence

import numpy as np

from .core import DiagonalGaussian, EmpiricalMeasure, seeded_stream
from .discrepancy import _stein_sums, gen_score, kgd_v_squared, particle_grad, stein_drift
from .losses import VariationalLoss

DIVERGENCE_NORM = 1e8
# Adam's moment decay rates and denominator floor (Kingma & Ba's defaults).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class SamplerDivergence(RuntimeError):
    """Raised when particles blow up. Carries the step, the offending
    particle's index, the kind of blow-up (``"non-finite"`` for a position
    with a nan or inf coordinate, ``"norm"`` for a coordinate over
    ``DIVERGENCE_NORM`` in absolute value) and the largest |coordinate|."""

    def __init__(self, step: int, particle: int, kind: str, max_coord: float) -> None:
        what = ("has a non-finite position" if kind == "non-finite"
                else f"has a coordinate over {DIVERGENCE_NORM:.0e}")
        super().__init__(
            f"particles diverged at step {step}: particle {particle} {what}; "
            f"max |coordinate| = {max_coord:.3e}"
        )
        self.step = step
        self.particle = particle
        self.kind = kind
        self.max_coord = max_coord


def _check_finite(atoms: np.ndarray, step: int) -> None:
    max_coord = float(np.max(np.abs(atoms))) if atoms.size else 0.0
    if np.isfinite(max_coord) and max_coord <= DIVERGENCE_NORM:
        return
    row_max = np.max(np.abs(atoms), axis=1)  # nan for a row holding one
    finite = np.isfinite(row_max)
    if not finite.all():
        particle, kind = int(np.argmin(finite)), "non-finite"
    else:
        particle, kind = int(np.argmax(row_max)), "norm"
    raise SamplerDivergence(step, particle, kind, max_coord)


# ---------------------------------------------------------------------------
# Optimizers. ``OptimizerSpec.updates`` gives each run its own update, which
# maps each flow direction to an additive particle update and keeps Adam's
# moments; descent callers negate their gradient.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OptimizerSpec:
    method: str = "euler"  # "euler" or "adam"
    step_size: float = 1e-3

    def __post_init__(self) -> None:
        if self.method not in ("euler", "adam"):
            raise ValueError(f"unknown optimizer method {self.method!r}")
        if not self.step_size > 0.0:
            raise ValueError("step_size must be positive")

    def updates(self, shape: tuple[int, ...]) -> Callable[[np.ndarray], np.ndarray]:
        """The additive update for each successive flow direction of
        ``shape``; per-coordinate preconditioned when the method is adam."""
        step_size = self.step_size
        if self.method == "euler":
            def euler(direction: np.ndarray) -> np.ndarray:
                with np.errstate(over="ignore", invalid="ignore"):  # _check_finite names it
                    return step_size * direction

            return euler
        m, v, t = np.zeros(shape), np.zeros(shape), 0

        def adam(direction: np.ndarray) -> np.ndarray:
            nonlocal m, v, t
            t += 1
            m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * direction
            v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * direction**2
            m_hat = m / (1.0 - ADAM_BETA1**t)
            v_hat = v / (1.0 - ADAM_BETA2**t)
            with np.errstate(over="ignore", invalid="ignore"):  # _check_finite names it
                return step_size * m_hat / (np.sqrt(v_hat) + ADAM_EPS)

        return adam


@dataclass(frozen=True)
class SamplerRun:
    """Final configuration plus an optional discrepancy trace."""

    atoms: np.ndarray  # (n, d)
    steps: np.ndarray  # (k,) step indices where the discrepancy was recorded
    kgd2: np.ndarray  # (k,) squared-discrepancy values at those steps
    # (k,) seconds since the run started, measured per row; in a lockstep
    # drive they include the other steppers' work.
    wall: np.ndarray


# ---------------------------------------------------------------------------
# Steppers and the lockstep driver. A stepper is a generator: it yields the
# (m, d) points its next evaluation needs, is resumed once the driver has
# handed them to the loss, and returns its result. ``drive`` advances several
# steppers in rounds and passes the union of each round's requests to
# ``loss.prefetch`` in one call, so a solver-backed loss pays one solve per
# round for all of them. Every sampler run is a one-stepper drive.
# ---------------------------------------------------------------------------

Stepper = Generator[np.ndarray, None, Any]


def drive(steppers: Sequence[Stepper], loss: VariationalLoss) -> tuple[list[Any], int]:
    """Run steppers in lockstep; their results, in order, and the number of
    rounds.

    Each round resumes every unfinished stepper up to its next request, then
    prefetches the union of the requests (a loss without ``prefetch`` skips
    this). A stepper's evaluations read only its own points, so with a
    batch-invariant solver its result does not depend on what it is driven
    with.
    """
    prefetch = getattr(loss, "prefetch", None)
    results: list[Any] = [None] * len(steppers)
    live = dict(enumerate(steppers))
    rounds = 0
    while live:
        requests = []
        for i, stepper in list(live.items()):
            try:
                requests.append(next(stepper))
            except StopIteration as done:
                results[i] = done.value
                del live[i]
        if requests:
            rounds += 1
            if prefetch is not None:
                prefetch(np.concatenate(requests))
    return results, rounds


def _drive_one(stepper: Stepper, loss: VariationalLoss) -> Any:
    (result,), _ = drive([stepper], loss)
    return result


def flow_stepper(
    atoms: np.ndarray,
    n_steps: int,
    advance: Callable[[np.ndarray], np.ndarray],
    trace_kernel,
    ref: DiagonalGaussian,
    loss: VariationalLoss,
    trace_every: int,
) -> Stepper:
    """Stepper of a particle flow: ``advance`` maps each configuration to
    the next. Requests each configuration that a trace row or the next step
    evaluates, checks each for divergence, and returns the ``SamplerRun``."""
    atoms = np.asarray(atoms, dtype=float)
    _check_finite(atoms, 0)
    start = time.perf_counter()
    steps: list[int] = []
    kgd2: list[float] = []
    wall: list[float] = []
    for step in range(n_steps + 1):
        if step:
            atoms = advance(atoms)
            _check_finite(atoms, step)
        traced = trace_kernel is not None and (step % trace_every == 0 or step == n_steps)
        if traced or step < n_steps:
            yield atoms
        if traced:
            steps.append(step)
            kgd2.append(kgd_v_squared(trace_kernel, ref, loss, EmpiricalMeasure(atoms)))
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
    with np.errstate(over="ignore", invalid="ignore"):  # _check_finite names it
        return atoms + step_size * scores + np.sqrt(2.0 * step_size) * noise


def mfld_stepper(
    atoms: np.ndarray,
    ref: DiagonalGaussian,
    loss: VariationalLoss,
    step_size: float,
    n_steps: int,
    rng: np.random.Generator,
    trace_kernel=None,
    trace_every: int = 1,
) -> Stepper:
    """``mfld_run`` as a stepper for ``drive``."""
    def advance(current: np.ndarray) -> np.ndarray:
        return mfld_step(current, ref, loss, step_size, rng)

    return flow_stepper(atoms, n_steps, advance, trace_kernel, ref, loss, trace_every)


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
    return _drive_one(
        mfld_stepper(atoms, ref, loss, step_size, n_steps, rng, trace_kernel, trace_every), loss
    )


# ---------------------------------------------------------------------------
# Kernelised gradient flow: dx_i/dt = (1/n) sum_j [k(x_i,x_j) b(x_j)
# + grad_1 k(x_j, x_i)].
# ---------------------------------------------------------------------------


def vgd_step(
    atoms: np.ndarray,
    kernel,
    ref: DiagonalGaussian,
    loss: VariationalLoss,
    update: Callable[[np.ndarray], np.ndarray],
) -> np.ndarray:
    """One flow step: the velocity at each atom (``stein_drift``) through ``update``."""
    measure = EmpiricalMeasure(atoms)
    drift = stein_drift(kernel, measure.atoms, gen_score(ref, loss, measure, measure.atoms))
    return atoms + update(drift)


def vgd_stepper(
    atoms: np.ndarray,
    kernel,
    ref: DiagonalGaussian,
    loss: VariationalLoss,
    spec: OptimizerSpec,
    n_steps: int,
    trace_kernel=None,
    trace_every: int = 1,
) -> Stepper:
    """``vgd_run`` as a stepper for ``drive``."""
    update = spec.updates(np.shape(atoms))

    def advance(current: np.ndarray) -> np.ndarray:
        return vgd_step(current, kernel, ref, loss, update)

    return flow_stepper(atoms, n_steps, advance, trace_kernel, ref, loss, trace_every)


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
    return _drive_one(
        vgd_stepper(atoms, kernel, ref, loss, spec, n_steps, trace_kernel, trace_every), loss
    )


# ---------------------------------------------------------------------------
# Descent on the squared discrepancy as a function of particle positions.
# ---------------------------------------------------------------------------


def kgdd_grad(
    kernel,
    ref: DiagonalGaussian,
    loss: VariationalLoss,
    atoms: np.ndarray,
) -> np.ndarray:
    """Gradient of the squared-discrepancy V-statistic in the positions
    (``discrepancy.particle_grad``)."""
    return particle_grad(kernel, ref, loss, atoms)


def kgdd_stepper(
    atoms: np.ndarray,
    kernel,
    ref: DiagonalGaussian,
    loss: VariationalLoss,
    spec: OptimizerSpec,
    n_steps: int,
    trace_kernel=None,
    trace_every: int = 1,
) -> Stepper:
    """``kgdd_run`` as a stepper for ``drive``."""
    update = spec.updates(np.shape(atoms))

    def advance(current: np.ndarray) -> np.ndarray:
        return current + update(-kgdd_grad(kernel, ref, loss, current))

    return flow_stepper(atoms, n_steps, advance, trace_kernel, ref, loss, trace_every)


def kgdd_run(
    atoms: np.ndarray,
    kernel,
    ref: DiagonalGaussian,
    loss: VariationalLoss,
    spec: OptimizerSpec,
    n_steps: int,
    trace_kernel=None,
    trace_every: int = 1,
) -> SamplerRun:
    return _drive_one(
        kgdd_stepper(atoms, kernel, ref, loss, spec, n_steps, trace_kernel, trace_every), loss
    )


# ---------------------------------------------------------------------------
# Greedy extensible sampling: each new point minimises the discrepancy of the
# configuration that includes it.
# ---------------------------------------------------------------------------


# Grid points per coordinate line search of the greedy refinement.
_REFINE_POINTS = 9


@dataclass(frozen=True)
class SearchSpec:
    """Gaussian candidate proposal plus coordinate-descent refinement.

    Stage one scores ``n_candidates`` draws from an isotropic Gaussian with
    mean ``proposal_mean`` and standard deviation ``proposal_scale``. Stage
    two runs ``refine_rounds`` sweeps of coordinate line search around the
    incumbent, shrinking the span each sweep, which sharpens the winner well
    beyond the candidate resolution.
    """

    proposal_mean: np.ndarray  # (d,)
    proposal_scale: float = 1.0
    n_candidates: int = 200
    refine_rounds: int = 4

    def candidate_set(self, rng: np.random.Generator) -> np.ndarray:
        """``n_candidates`` draws from ``rng``; raises FloatingPointError,
        naming the first, when a draw overflows."""
        mean = np.atleast_1d(np.asarray(self.proposal_mean, dtype=float))
        z = rng.standard_normal((self.n_candidates, mean.size))
        with np.errstate(over="ignore", invalid="ignore"):  # named just below
            draws = mean + self.proposal_scale * z
        if not np.isfinite(draws).all():
            i = int(np.argmin(np.isfinite(draws).all(axis=1)))
            raise FloatingPointError(f"non-finite candidate {i}: {draws[i]}; "
                                     "the proposal overflows")
        return draws

    def spans(self, candidates: np.ndarray) -> np.ndarray:
        c, d = candidates.shape
        per_axis = max(2, int(round(c ** (1.0 / d))))
        extent = candidates.max(axis=0) - candidates.min(axis=0)
        return np.maximum(extent / (per_axis - 1), 1e-12)


def _objective(kernel, ref: DiagonalGaussian, loss: VariationalLoss, atoms: np.ndarray):
    """The greedy objective at each of (m, d) points x, (m,): the V-statistic
    of ``atoms`` with x. The scores of every configuration come from the
    loss's ``extension``, and each configuration takes one pass of Stein
    sums, which names a non-finite score or Gram entry (``_stein_sums``)."""
    grads = loss.extension(atoms)
    n = atoms.shape[0]

    def values(points: np.ndarray) -> np.ndarray:
        configs = np.empty((points.shape[0], n + 1, points.shape[1]))
        configs[:, :n] = atoms
        configs[:, n] = points
        with np.errstate(over="ignore", invalid="ignore"):  # _stein_sums names them
            scores = ref.log_grad(configs) - grads(points)
        totals = [_stein_sums(kernel, pts, b)[0] for pts, b in zip(configs, scores)]
        return np.asarray(totals) / (n + 1) ** 2

    return values


def _greedy_point(
    kernel,
    ref: DiagonalGaussian,
    loss: VariationalLoss,
    search: SearchSpec,
    atoms: np.ndarray,
    candidates: np.ndarray,
) -> Generator[np.ndarray, None, tuple[np.ndarray, float]]:
    """Stepper of one greedy pick after its candidate set has been
    requested: requests each refinement line and returns the chosen point
    and the objective there, the V-statistic of ``atoms`` with it.

    Each candidate set and each line is scored at once (``_objective``);
    the returned value is the estimator's own at the chosen point."""
    objective = _objective(kernel, ref, loss, atoms)
    values = objective(candidates)
    best = candidates[int(np.argmin(values))].copy()
    best_val = float(values.min())

    spans = search.spans(candidates)
    d = candidates.shape[1]
    for _ in range(search.refine_rounds):
        for j in range(d):
            offsets = np.linspace(-spans[j], spans[j], _REFINE_POINTS)
            line = np.repeat(best[None, :], _REFINE_POINTS, axis=0)
            line[:, j] += offsets
            yield line
            line_vals = objective(line)
            k = int(np.argmin(line_vals))
            if line_vals[k] < best_val:
                best = line[k].copy()
                best_val = float(line_vals[k])
        # Best grid point sits within one spacing of the line optimum.
        spans = 2.0 * spans / (_REFINE_POINTS - 1)
    chosen = EmpiricalMeasure(np.vstack([atoms, best[None, :]]))
    return best, kgd_v_squared(kernel, ref, loss, chosen)


def greedy_next(
    kernel,
    ref: DiagonalGaussian,
    loss: VariationalLoss,
    search: SearchSpec,
    atoms: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Location minimising the squared discrepancy with the candidate included.

    The objective for candidate x is the V-statistic of the configuration
    (x_1, ..., x_n, x), for placed atoms of shape (n, d) with n possibly 0.
    The candidate shifts the empirical measure, so every atom's score
    depends on it: the loss's ``extension`` gives all of them
    (``_greedy_point``). The candidate set is drawn from ``rng``.
    """
    atoms = np.asarray(atoms, dtype=float)
    candidates = search.candidate_set(rng)

    def stepper() -> Generator[np.ndarray, None, np.ndarray]:
        yield candidates
        point, _ = yield from _greedy_point(kernel, ref, loss, search, atoms, candidates)
        return point

    return _drive_one(stepper(), loss)


def greedy_stepper(
    kernel,
    ref: DiagonalGaussian,
    loss: VariationalLoss,
    search: SearchSpec,
    n_points: int,
    seed: int = 0,
) -> Stepper:
    """``greedy_extend`` as a stepper for ``drive``."""
    start = time.perf_counter()
    # The candidate sets do not depend on earlier picks, so a solver-backed
    # loss can solve them all in one call.
    sets = [search.candidate_set(seeded_stream(seed, "greedy", k)) for k in range(n_points)]
    up_front = 0 < sum(len(c) for c in sets) <= loss.max_cache
    if up_front:
        yield np.vstack(sets)
    atoms = np.empty((0, np.size(search.proposal_mean)))
    kgd2 = np.empty(n_points)
    wall = np.empty(n_points)
    for k, candidates in enumerate(sets):
        if not up_front:
            yield candidates
        x_new, kgd2[k] = yield from _greedy_point(kernel, ref, loss, search, atoms, candidates)
        atoms = np.vstack([atoms, x_new[None, :]])
        wall[k] = time.perf_counter() - start
    return SamplerRun(atoms, np.arange(1, n_points + 1), kgd2, wall)


def greedy_extend(
    kernel,
    ref: DiagonalGaussian,
    loss: VariationalLoss,
    search: SearchSpec,
    n_points: int,
    seed: int = 0,
) -> SamplerRun:
    """Grow a configuration from empty, one point at a time.

    The returned trace records the squared discrepancy after each addition,
    with ``steps`` counting configuration sizes. Point k scores its
    candidate set, drawn once from the substream (seed, "greedy", k), so the
    sequence does not depend on evaluation order. A loss with a ``prefetch``
    (a solve cache) gets every point's candidate set in one call, when they
    fit its cache; otherwise each point requests its own.
    """
    return _drive_one(greedy_stepper(kernel, ref, loss, search, n_points, seed), loss)
