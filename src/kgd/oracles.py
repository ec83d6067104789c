"""Independent checking instruments: finite differences, a plain ODE solver,
quadrature, a reference kernel Stein discrepancy, and log-log slope fitting.

Everything in this module is deliberately written from first principles and
shares no code with the production paths it is used to validate. Keep it that
way: these functions are the ground truth the test suite leans on, so they
must stay boring, direct, and slow-but-sure.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .models import LV_DELTA, LV_GAMMA, LV_INIT, lv_params


def fd_gradient(
    f: Callable[[np.ndarray], float],
    x: np.ndarray,
    base_step: float = 1e-5,
) -> np.ndarray:
    """Central-difference gradient of a scalar function.

    The step for coordinate i is ``base_step * (1 + |x_i|)`` so that the
    relative truncation error stays controlled for coordinates far from the
    origin.

    Args:
        f: Scalar function of a vector argument.
        x: Evaluation point, shape (d,).
        base_step: Baseline step size.

    Returns:
        Gradient estimate, shape (d,).
    """
    x = np.asarray(x, dtype=float)
    grad = np.empty_like(x)
    for i in range(x.size):
        h = base_step * (1.0 + abs(x[i]))
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        grad[i] = (f(xp) - f(xm)) / (2.0 * h)
    return grad


def _lv_drift(u: np.ndarray, alpha: np.ndarray, beta: np.ndarray, gamma: float, delta: float) -> np.ndarray:
    u1 = u[..., 0]
    u2 = u[..., 1]
    return np.stack([alpha * u1 - beta * u1 * u2, delta * u1 * u2 - gamma * u2], axis=-1)


def lv_solve(
    x: np.ndarray,
    times: np.ndarray,
    step: float = 0.01,
    init: tuple[float, float] = LV_INIT,
    gamma: float = LV_GAMMA,
    delta: float = LV_DELTA,
) -> np.ndarray:
    """Lotka-Volterra population trajectories at the requested times.

    The plain RK4 solve, without sensitivities: the reference that finite
    differences turn into a check of ``models.lv_sensitivities``. It shares
    only the parameter map ``lv_params`` with it. Each inter-record segment
    is covered by round(dt / step) equal substeps, the same discrete map the
    sensitivity solver differentiates.

    Args:
        x: Unconstrained parameters, shape (m, 2) or (2,).
        times: Strictly increasing observation times, shape (N,).
        step: Target RK4 step size.

    Returns:
        Populations with shape (m, N, 2), or (N, 2) for a single x.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    xb = x[None, :] if single else x
    alpha, beta = lv_params(xb)
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or np.any(np.diff(times) <= 0.0) or times[0] < 0.0:
        raise ValueError("times must be strictly increasing and nonnegative")
    u = np.broadcast_to(np.asarray(init, dtype=float), (xb.shape[0], 2)).copy()
    path = np.empty((xb.shape[0], times.size, 2))
    t_prev = 0.0
    for k, t_k in enumerate(times):
        dt = t_k - t_prev
        if dt > 0.0:
            n_sub = max(1, int(round(dt / step)))
            h = dt / n_sub
            for _ in range(n_sub):
                k1 = _lv_drift(u, alpha, beta, gamma, delta)
                k2 = _lv_drift(u + 0.5 * h * k1, alpha, beta, gamma, delta)
                k3 = _lv_drift(u + 0.5 * h * k2, alpha, beta, gamma, delta)
                k4 = _lv_drift(u + h * k3, alpha, beta, gamma, delta)
                u = u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        path[:, k] = u
        t_prev = float(t_k)
    return path[0] if single else path


def euclid_identity_check(loss, measure, index: int, base_step: float = 1e-5) -> float:
    """Max-norm residual of ``loss.var_grad`` against n times the
    finite-difference gradient of the particle objective in atom ``index``.

    Checks the finite-particle identity
    var_grad(Q_n, x_i) = n * d/dx_i L(x_1, ..., x_n) for a loss with a value.
    """
    atoms = measure.atoms

    def objective(xi: np.ndarray) -> float:
        moved = atoms.copy()
        moved[index] = xi
        return loss.value(measure.with_atoms(moved))

    fd = fd_gradient(objective, atoms[index], base_step)
    vg = loss.var_grad(measure, atoms[index])
    return float(np.max(np.abs(vg - measure.n * fd)))


def gauss_hermite_2d(
    integrand: Callable[[float, float], float],
    means: Sequence[float],
    sigma: float,
    order: int = 30,
) -> float:
    """Tensorised Gauss-Hermite value of E[f(Y, Y')] for independent Gaussians.

    Computes the double integral of ``integrand(y, y')`` against
    N(means[0], sigma^2) x N(means[1], sigma^2) using an order x order
    tensor product rule. With smooth integrands (Gaussian-type kernels)
    order 30 is accurate to well below 1e-10.

    Args:
        integrand: Function of two scalar arguments.
        means: Pair (m, m') of Gaussian means.
        sigma: Common standard deviation, must be positive.
        order: Number of nodes per axis.

    Returns:
        Quadrature value of the double integral.
    """
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    nodes, weights = np.polynomial.hermite.hermgauss(order)
    # Change of variables y = m + sqrt(2) * sigma * t maps the physicists'
    # Hermite weight exp(-t^2) onto the Gaussian density.
    ys = means[0] + np.sqrt(2.0) * sigma * nodes
    yps = means[1] + np.sqrt(2.0) * sigma * nodes
    total = 0.0
    for wi, yi in zip(weights, ys):
        for wj, yj in zip(weights, yps):
            total += wi * wj * integrand(yi, yj)
    return total / np.pi


def reference_ksd_squared(
    score: Callable[[np.ndarray], np.ndarray],
    kernel,
    points: np.ndarray,
) -> float:
    """Textbook squared kernel Stein discrepancy of an empirical measure.

    Implements the classical V-statistic

        (1/n^2) sum_ij [ s(x_i).K s(x_j) + s(x_i).grad_2 K + s(x_j).grad_1 K
                         + trace(grad_1 grad_2 K) ]

    with the IMQ or Gaussian kernel closed forms re-derived inline. Only the
    family name and lengthscale are read off ``kernel``; no evaluation code is
    shared with the production discrepancy path.

    Args:
        score: Vector field mapping (n, d) points to (n, d) scores.
        kernel: Object exposing ``family`` ("imq" or "gaussian") and
            ``lengthscale``.
        points: Sample locations, shape (n, d).

    Returns:
        The squared discrepancy (V-statistic over all n^2 pairs).
    """
    x = np.asarray(points, dtype=float)
    if x.ndim != 2:
        raise ValueError("points must have shape (n, d)")
    n, d = x.shape
    ell = float(kernel.lengthscale)
    s = np.asarray(score(x), dtype=float)

    diffs = x[:, None, :] - x[None, :, :]  # (n, n, d)
    sq = np.sum(diffs**2, axis=-1)  # (n, n)

    family = kernel.family
    if family == "imq":
        base = 1.0 + sq / ell**2
        k = base**-0.5
        # grad wrt first argument, (n, n, d)
        g1 = -(diffs / ell**2) * base[..., None] ** -1.5
        trace12 = (d / ell**2) * base**-1.5 - (3.0 / ell**4) * sq * base**-2.5
    elif family == "gaussian":
        k = np.exp(-sq / ell**2)
        g1 = -(2.0 * diffs / ell**2) * k[..., None]
        trace12 = (2.0 * d / ell**2 - 4.0 * sq / ell**4) * k
    else:
        raise ValueError(f"unsupported kernel family for the reference path: {family!r}")
    g2 = -g1  # symmetric translation-invariant kernel

    cross = s @ s.T  # (n, n) of s(x_i).s(x_j)
    term_g1 = np.einsum("ijd,jd->ij", g1, s)  # grad_1 K . s(x_j)
    term_g2 = np.einsum("ijd,id->ij", g2, s)  # grad_2 K . s(x_i)
    h = trace12 + term_g1 + term_g2 + k * cross
    return float(np.sum(h) / n**2)


def slope_fit(xs: np.ndarray, ys: np.ndarray) -> tuple[float, float]:
    """Ordinary least squares slope with its standard error.

    Args:
        xs: Abscissae, shape (m,). Callers pass log-coordinates for rate fits.
        ys: Ordinates, shape (m,).

    Returns:
        Tuple (slope, stderr). The standard error uses the usual unbiased
        residual variance with m - 2 degrees of freedom; it is reported as 0
        when m == 2 (exact fit through two points).
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1 or xs.size < 2:
        raise ValueError("need matching 1-d arrays with at least two points")
    m = xs.size
    xbar = xs.mean()
    ybar = ys.mean()
    sxx = np.sum((xs - xbar) ** 2)
    if sxx == 0.0:
        raise ValueError("degenerate abscissae: all xs identical")
    slope = float(np.sum((xs - xbar) * (ys - ybar)) / sxx)
    intercept = ybar - slope * xbar
    if m == 2:
        return slope, 0.0
    resid = ys - (intercept + slope * xs)
    sigma2 = float(np.sum(resid**2) / (m - 2))
    return slope, float(np.sqrt(sigma2 / sxx))
