"""Independent checking instruments: finite differences, quadrature, a reference
kernel Stein discrepancy, and log-log slope fitting.

Everything in this module is deliberately written from first principles and
shares no code with the production paths it is used to validate. Keep it that
way: these functions are the ground truth the test suite leans on, so they
must stay boring, direct, and slow-but-sure.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np


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
