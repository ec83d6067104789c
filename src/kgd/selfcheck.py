"""The ``kgd self-check`` battery: one table, ``CHECKS``, of (name, check)
rows run in table order, holding the paper's identities and each fast path
to ``kgd.oracles``. A check takes no arguments and returns (ok, metric text)
at a bound fixed in its body. Its random inputs come from its own stream,
``seeded_stream(0, "self-check", name)`` (``ode-step-doubling`` keeps fixed
draws), so its numbers do not depend on the other rows.
"""

from __future__ import annotations

import functools
from typing import Callable

import numpy as np

from .core import DiagonalGaussian, EmpiricalMeasure, seeded_stream
from .discrepancy import (_BLOCK, _stein_sums, gen_score, kgd_u_squared, kgd_v_squared,
                          particle_grad, stein_drift, stein_gram)
from .kernels import IMQ, Gaussian, Mixture, NormalizedLinear, WeightedMatrixKernel
from .losses import InteractionLoss, LinearLoss, MeanFieldRegressionLoss, PredictiveKernelLoss
from .models import LV_TRUE_X2, _TAYLOR_STEP, gen_lv_data, gen_mfnn_data, lv_sensitivities
from .oracles import (euclid_identity_check, fd_gradient, gauss_hermite_2d, gaussian_overlap,
                      kernel_derivatives, lv_solve, reference_cross_term, reference_drift,
                      reference_ksd_squared, reference_mean_field, reference_stein_kernel)
from .samplers import _objective

Result = tuple[bool, str]

_KERNELS = (IMQ(0.7), Gaussian(1.3), Mixture((IMQ(0.5), Gaussian(2.0))),
            Mixture((IMQ(1.0), NormalizedLinear(1.2)), weights=(1.0, 1.0)),
            WeightedMatrixKernel(c=1.2, exponent=0.5, base=IMQ(0.9)))


def check_kernel_derivatives(rng: np.random.Generator) -> Result:
    """The oracle derivative table's gradients against central differences
    of the kernels' values in each argument."""
    worst = 0.0
    for kern in _KERNELS:
        for _ in range(5):
            x, y = rng.normal(size=3), rng.normal(size=3)
            table = kernel_derivatives(kern, x[None], y[None])
            fd1 = fd_gradient(lambda t: kern.value(t, y), x)
            fd2 = fd_gradient(lambda t: kern.value(x, t), y)
            worst = max(worst, float(np.max(np.abs(table.grad1[0, 0] - fd1))),
                        float(np.max(np.abs(table.grad2[0, 0] - fd2))))
    return worst < 1e-6, f"max grad error {worst:.2e}"


def check_stein_gram(rng: np.random.Generator) -> Result:
    """The Gram built from the kernels' terms against the oracle Gram, as the
    summed entry error relative to sum |h|."""
    atoms, ref, loss = rng.normal(size=(12, 3)), DiagonalGaussian.standard(3), InteractionLoss()
    mea, worst = EmpiricalMeasure(atoms), 0.0
    for kern in _KERNELS:
        want = reference_stein_kernel(kern, lambda p: gen_score(ref, loss, mea, p), atoms, atoms)
        err = np.abs(stein_gram(kern, ref, loss, mea) - want).sum()
        worst = max(worst, float(err / np.abs(want).sum()))
    return worst < 1e-12, f"worst rel {worst:.2e}"


def check_classical_equivalence(rng: np.random.Generator) -> Result:
    """Equivalence with the classical discrepancy under a linear tilt."""
    ref, kern, worst = DiagonalGaussian.standard(3), IMQ(1.0), 0.0
    for _ in range(5):
        atoms, w = rng.normal(size=(12, 3)), rng.uniform(0.5, 1.5, size=3)
        mine = kgd_v_squared(kern, ref, LinearLoss(np.zeros(3), w), EmpiricalMeasure(atoms))
        orc = reference_ksd_squared(lambda X: ref.log_grad(X) - w * X, kern, atoms)
        worst = max(worst, abs(mine - orc) / abs(orc))
    return worst < 1e-12, f"worst rel {worst:.2e}"


def check_gaussian_overlap(_rng: np.random.Generator) -> Result:
    """Closed-form Gaussian overlap against quadrature."""
    kap = lambda y, yp: float(np.exp(-((y - yp) ** 2) / 2.0))
    err = abs(gaussian_overlap(0.4, -0.2, 1.0) - gauss_hermite_2d(kap, (0.4, -0.2), 1.0))
    return err < 1e-8, f"abs err {err:.2e}"


def check_variation_identity(rng: np.random.Generator) -> Result:
    """Finite-particle identity for the quadratic interaction."""
    mea = EmpiricalMeasure(rng.normal(size=(6, 2)))
    resid = max(euclid_identity_check(InteractionLoss(), mea, i) for i in range(6))
    return resid < 1e-4, f"residual {resid:.2e}"


def check_gram_spectrum(rng: np.random.Generator) -> Result:
    """Oracle Gram symmetry and near-positive spectrum under the N(0, I) score."""
    atoms = rng.normal(size=(6, 2))
    gram = reference_stein_kernel(IMQ(1.0), np.negative, atoms, atoms)
    sym = float(np.max(np.abs(gram - gram.T)))
    min_eig = float(np.linalg.eigvalsh(gram).min())
    scale = float(np.linalg.norm(gram, 2))
    return sym < 1e-12 and min_eig > -1e-10 * scale, f"asym {sym:.2e}, min eig {min_eig:.2e}"


def check_radial_gram(rng: np.random.Generator) -> Result:
    """Radial Gram route on a translated cloud against the classical form."""
    atoms, ref, worst = 1e3 + rng.normal(size=(12, 3)), DiagonalGaussian.standard(3), 0.0
    for kern in (IMQ(0.8), Gaussian(1.5)):
        mine = kgd_v_squared(kern, ref, InteractionLoss(), EmpiricalMeasure(atoms))
        orc = reference_ksd_squared(lambda X: -X - 2.0 * (X - X.mean(axis=0)), kern, atoms)
        worst = max(worst, abs(mine - orc) / abs(orc))
    return worst < 1e-12, f"worst rel {worst:.2e}"


def check_tilted_gram(rng: np.random.Generator) -> Result:
    """Tilted kernels' row-block route against the oracle Stein kernel and
    flow velocity: V-statistic and drift."""
    atoms, ref, loss = rng.normal(size=(12, 3)), DiagonalGaussian.standard(3), InteractionLoss()
    mea, worst = EmpiricalMeasure(atoms), 0.0
    score = lambda p: gen_score(ref, loss, mea, p)
    for kern in (WeightedMatrixKernel(c=1.2, exponent=0.5, base=IMQ(0.9)),
                 Mixture((IMQ(1.0), NormalizedLinear(1.2)))):
        h = reference_stein_kernel(kern, score, atoms, atoms)
        mine = kgd_v_squared(kern, ref, loss, mea)
        worst = max(worst, abs(mine - h.mean()) / abs(h.mean()))
        drift = reference_drift(kern, score, atoms)
        err = np.max(np.abs(stein_drift(kern, atoms, score(atoms)) - drift))
        worst = max(worst, float(err / np.max(np.abs(drift))))
    return worst < 1e-12, f"worst rel {worst:.2e}"


def check_stein_sums(rng: np.random.Generator) -> Result:
    """Row-block sums and drift against the oracle Gram's sum and trace
    (relative to sum |h|) and the oracle drift (relative to its max), on a
    translated cloud of two full blocks and a ragged one, read from slabs of
    the shared workspace that an order-3 pass on a larger cloud filled."""
    ref, loss, worst = DiagonalGaussian.standard(3), InteractionLoss(), 0.0
    particle_grad(IMQ(1.0), ref, loss, rng.normal(size=(600, 3)))
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
    return worst < 1e-12, f"worst rel {worst:.2e}"


def check_particle_gradient(rng: np.random.Generator) -> Result:
    """Particle gradients of V and U against central differences: on six
    atoms, one block, and on two blocks, the second ragged, whose rows get
    their sums from the transposed slab products, the order-3 a slab's too."""
    data, worst = gen_mfnn_data(0, n_data=30), 0.0
    clouds = [(rng.normal(size=(6, 4)), (LinearLoss(np.zeros(4), np.full(4, 0.5)),
                                         MeanFieldRegressionLoss(data.covariates, data.responses))),
              (rng.normal(size=(_BLOCK + 5, 2)), (InteractionLoss(),))]
    for atoms, cloud_losses in clouds:
        ref = DiagonalGaussian.standard(atoms.shape[1])
        for kern in (IMQ(1.0), WeightedMatrixKernel(c=1.2, exponent=0.5)):
            for loss in cloud_losses:
                for u_stat, est in ((False, kgd_v_squared), (True, kgd_u_squared)):
                    fd = fd_gradient(lambda f: est(kern, ref, loss, EmpiricalMeasure(
                        f.reshape(atoms.shape))), atoms.ravel())
                    err = np.max(np.abs(particle_grad(kern, ref, loss, atoms, u_stat).ravel() - fd))
                    worst = max(worst, float(err / max(1.0, np.max(np.abs(fd)))))
    return worst < 1e-6, f"worst scaled error {worst:.2e}"


def check_mean_field_contractions(rng: np.random.Generator) -> Result:
    """The mean-field loss's (n, N) contractions against the network's
    stacked derivatives: the scores at the atoms and off them, and the VJP at
    the atoms, relative to the largest entry. Two shapes: 8 atoms drawn
    2 N(0, 1) on 30 data points, and mfnn-compare's 50 atoms drawn 3 N(0, 1)
    on 300, where many units saturate."""
    worst = 0.0
    for n_data, n, scale in ((30, 8, 2.0), (300, 50, 3.0)):
        data = gen_mfnn_data(0, n_data=n_data)
        loss = MeanFieldRegressionLoss(data.covariates, data.responses)
        atoms, xs, u = scale * rng.normal(size=(3, n, 4))
        mea = EmpiricalMeasure(atoms)
        for x in (atoms, xs):
            scores, vjp = reference_mean_field(atoms, data.covariates, data.responses, loss.lam,
                                               x, u)
            for got, want in ((loss.var_grad(mea, x), scores), (loss.var_grad_vjp(mea, u), vjp)):
                worst = max(worst, float(np.max(np.abs(got - want)) / np.max(np.abs(want))))
    return worst < 1e-12, f"worst rel {worst:.2e}"


def check_ode_sensitivities(_rng: np.random.Generator) -> Result:
    """Forward ODE sensitivities against central differences of the solver."""
    x, times, worst = np.array([-0.8, -1.2]), np.array([5.0, 20.0]), 0.0
    sens = lv_sensitivities(x[None], times)[1][0]
    path = functools.lru_cache(lambda key: lv_solve(np.frombuffer(key), times))  # one solve a point
    for k in range(times.size):
        for species in range(2):
            fd = fd_gradient(lambda t: float(path(t.tobytes())[k, species]), x, 1e-6)
            scale = max(float(np.max(np.abs(sens[k, species]))), 1.0)
            worst = max(worst, float(np.max(np.abs(sens[k, species] - fd))) / scale)
    return worst < 1e-6, f"worst scaled error {worst:.2e}"


def check_ode_batch_invariance(rng: np.random.Generator) -> Result:
    """The solver is batch-invariant: calls on the splits of a batch, tail
    sizes and single points included, give its bytes; at 244 points and at
    lv-compare's up-front 976, on a grid whose last segment takes steps of
    0.11 after the others' 0.1, so the drift tables are rebuilt mid-call."""
    xs = np.array([-1.0, 1.6]) + 0.5 * rng.standard_normal((976, 2))
    times, same, total = np.array([0.5, 2.0, 2.33]), 0, 0
    for m, splits, singles in ((244, ((1, 2, 4, 7, 9, 221), (240, 4)), (0, 121, 243)),
                               (976, ((1, 975),), ())):
        u, sens = lv_sensitivities(xs[:m], times)
        bounds = [np.cumsum((0,) + split) for split in splits]
        parts = [slice(lo, hi) for b in bounds for lo, hi in zip(b[:-1], b[1:])]
        parts += [slice(i, i + 1) for i in singles]
        same += sum(all(map(np.array_equal, lv_sensitivities(xs[part], times),
                            (u[part], sens[part]))) for part in parts)
        total += len(parts)
    return same == total, f"{same} of {total} split calls bitwise equal"


def check_ode_step_doubling(_rng: np.random.Generator) -> Result:
    """Step doubling: the solve at half the default step, whose error is
    2^12 times smaller, measures the default step's error at the
    data-generating parameters and three fixed proposal draws, as the worst
    per-point maximum error relative to the point's largest entry, against
    1e-8 in u and 1e-6 in sens. The draws are not this row's stream: in the
    proposal's far tail the step misses the u bound, 1.0e-7 at (0.53, 2.22)."""
    xs = np.vstack([[-1.0, LV_TRUE_X2],
                    np.array([-1.0, 1.6]) + 0.5 * np.random.default_rng(6).standard_normal((3, 2))])
    times = np.arange(0.0, 61.0)
    coarse = lv_sensitivities(xs, times)
    fine = lv_sensitivities(xs, times, step=0.5 * _TAYLOR_STEP)
    err_u, err_sens = (float(np.max(np.abs(c - f).reshape(4, -1).max(axis=1)
                                    / np.abs(f).reshape(4, -1).max(axis=1)))
                       for c, f in zip(coarse, fine))
    return err_u < 1e-8 and err_sens < 1e-6, f"worst rel u {err_u:.2e}, sens {err_sens:.2e}"


def check_predictive_pair_block(rng: np.random.Generator) -> Result:
    """Predictive pair blocks on LV trajectories against the oracle's double
    sum over (time, time) pairs and the data-fit terms, relative to the
    largest value and gradient; the self-pair block against its diagonal;
    the data terms and gradients the solve cache keeps against the data fit."""
    loss = PredictiveKernelLoss(*gen_lv_data(1)[:2])  # the data's times and observations
    pts = np.array([-1.0, 1.6]) + 0.3 * rng.normal(size=(4, 2))
    values, grads = loss.pair_block(pts, pts)
    self_values, self_grads = loss.self_pair_block(pts)
    means, sens, terms, term_grads = loss._solver_outputs(pts)
    cross, cross_grad = reference_cross_term(means, sens, means, loss.sigma)
    var = 1.0 + loss.sigma**2
    resid = loss.observations - means  # (m, N, s)
    fit = np.prod(np.exp(-(resid**2) / (2.0 * var)) / np.sqrt(var), axis=-1)
    fit_grad = np.einsum("mn,mns,mnsd->md", fit, resid / var, sens) / loss.times.size
    want = cross - fit.mean(axis=1)[:, None] - fit.mean(axis=1)[None, :]
    want_grad = cross_grad - fit_grad[:, None, :]
    worst = max(float(np.max(np.abs(got - w)) / np.max(np.abs(w)))
                for got, w in ((values, want), (grads, want_grad), (self_values, np.diagonal(want)),
                               (self_grads, np.diagonal(want_grad).T),
                               (terms, fit.mean(axis=1)), (term_grads, fit_grad)))
    return worst < 1e-12, f"worst rel {worst:.2e}"


def check_greedy_incremental(rng: np.random.Generator) -> Result:
    """The greedy objective from the placed atoms' sums against the estimator
    per point, relative to each value, with the same argmin: on a candidate
    set and the two lines through its best point, after 0, 1 and 4 atoms."""
    loss = PredictiveKernelLoss(*gen_lv_data(1)[:2])
    assess = Mixture((IMQ(np.sqrt(0.03)), IMQ(np.sqrt(0.1))), weights=(1.0, 1.0))
    ref, worst, argmins = DiagonalGaussian.standard(2), 0.0, 0
    for n in (0, 1, 4):
        atoms = np.array([-1.0, -1.5]) + 0.3 * rng.normal(size=(n, 2))
        candidates = np.array([-1.0, 1.6]) + 0.5 * rng.normal(size=(12, 2))
        loss.prefetch(np.vstack([atoms, candidates]))
        fast = _objective(assess, ref, loss, atoms)
        slow = lambda pts: np.array([kgd_v_squared(assess, ref, loss, EmpiricalMeasure(
            np.vstack([atoms, x[None, :]]))) for x in pts])
        best = candidates[np.argmin(slow(candidates))]
        lines = best + np.linspace(-0.1, 0.1, 9)[:, None, None] * np.eye(2)
        loss.prefetch(lines.reshape(-1, 2))
        for pts in (candidates, lines[:, 0], lines[:, 1]):
            got, want = fast(pts), slow(pts)
            worst = max(worst, float(np.max(np.abs(got - want) / np.abs(want))))
            argmins += int(np.argmin(got) == np.argmin(want))
    return worst < 1e-12 and argmins == 9, f"worst rel {worst:.2e}, {argmins} of 9 argmins equal"


def check_stream_addressing(_rng: np.random.Generator) -> Result:
    """Stream independence and determinism."""
    a, b, c = (seeded_stream(1, label).standard_normal(4) for label in ("x", "x", "y"))
    return bool(np.all(a == b) and np.any(a != c)), "labelled substreams"


def _seeded(name: str, check: Callable[[np.random.Generator], Result]):
    return name, lambda: check(seeded_stream(0, "self-check", name))


CHECKS: tuple[tuple[str, Callable[[], Result]], ...] = tuple(_seeded(*row) for row in (
    ("kernel-derivatives", check_kernel_derivatives),
    ("stein-gram", check_stein_gram),
    ("classical-equivalence", check_classical_equivalence),
    ("gaussian-overlap", check_gaussian_overlap),
    ("variation-identity", check_variation_identity),
    ("gram-spectrum", check_gram_spectrum),
    ("radial-gram", check_radial_gram),
    ("tilted-gram", check_tilted_gram),
    ("stein-sums", check_stein_sums),
    ("particle-gradient", check_particle_gradient),
    ("mean-field-contractions", check_mean_field_contractions),
    ("ode-sensitivities", check_ode_sensitivities),
    ("ode-batch-invariance", check_ode_batch_invariance),
    ("ode-step-doubling", check_ode_step_doubling),
    ("predictive-pair-block", check_predictive_pair_block),
    ("greedy-incremental", check_greedy_incremental),
    ("stream-addressing", check_stream_addressing),
))
