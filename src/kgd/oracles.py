"""Independent checking instruments: finite differences, a plain ODE solver
and the closed-form equilibrium of its drift, the mean-field network's
stacked output, gradient and Hessian-vector product, quadrature, the
Gaussian overlap and the predictive loss's double expectation built on it,
the kernels' derivative table, the Stein kernel and flow velocity built on
it, a reference kernel Stein discrepancy, and log-log slope fitting.

Everything in this module is deliberately written from first principles and
shares no code with the production paths it is used to validate. Keep it that
way: these functions are the ground truth the test suite leans on, so they
must stay boring, direct, and slow-but-sure. In particular
``kernel_derivatives`` is the kernels' derivative definition: it reads only
a kernel's family name and parameters and never calls ``kgd.kernels``, so a
wrong ``profile`` or tilt helper there cannot agree with itself here.
Likewise ``mfnn_grad`` and ``mfnn_hvp`` are the network's derivative
definition, as (..., N, 4) stacks that the loss's contractions never build,
and ``reference_mean_field`` assembles the loss's scores and VJP from them.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

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


def lv_equilibrium(x: np.ndarray) -> np.ndarray:
    """Coexistence fixed point (gamma / delta, alpha / beta) of the
    Lotka-Volterra drift at unconstrained coordinates (..., 2)."""
    alpha, beta = lv_params(x)
    return np.stack(
        [np.broadcast_to(LV_GAMMA / LV_DELTA, np.shape(alpha)), alpha / beta], axis=-1
    )


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
    is covered by round(dt / step) equal substeps. The sensitivity solver
    takes Taylor-series steps instead, so finite differences of this solver
    check its sens only to within RK4's own error at ``step``.

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


# ---------------------------------------------------------------------------
# Mean-field network: Phi(z, x) = w2 * tanh(w1 * z + b1) + b2 with
# parameter vector x = (w1, b1, w2, b2). Its output, gradient and
# Hessian-vector product as stacked arrays: the reference that
# ``kgd.losses.MeanFieldRegressionLoss``'s (n, N) contractions are held to.
# ---------------------------------------------------------------------------


def mfnn_forward(params: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Network outputs for each (parameter vector, covariate) pair.

    Args:
        params: Parameter vectors, shape (..., 4), ordered (w1, b1, w2, b2).
        z: Covariates, shape (N,).

    Returns:
        Outputs with shape (..., N).
    """
    params = np.asarray(params, dtype=float)
    z = np.asarray(z, dtype=float)
    w1, b1, w2, b2 = (params[..., i, None] for i in range(4))
    return w2 * np.tanh(w1 * z + b1) + b2


def mfnn_grad(params: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Gradient of the network output with respect to its parameters.

    Returns:
        Array of shape (..., N, 4); the last axis is (w1, b1, w2, b2).
    """
    params = np.asarray(params, dtype=float)
    z = np.asarray(z, dtype=float)
    w1, b1, w2, b2 = (params[..., i, None] for i in range(4))
    t = np.tanh(w1 * z + b1)  # (..., N)
    sech2 = 1.0 - t**2
    return np.stack(
        [w2 * sech2 * z, w2 * sech2, t, np.ones_like(t)],
        axis=-1,
    )


def mfnn_hvp(params: np.ndarray, z: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Hessian of the network output in its parameters times a direction.

    Args:
        params: Parameter vectors, shape (..., 4).
        z: Covariates, shape (N,).
        v: One direction per parameter vector, shape (..., 4).

    Returns:
        Array of shape (..., N, 4): the Hessian at (z_l, params) times v.
    """
    params = np.asarray(params, dtype=float)
    z = np.asarray(z, dtype=float)
    v = np.asarray(v, dtype=float)
    w1, b1, w2 = (params[..., i, None] for i in range(3))
    v1, v2, v3 = (v[..., i, None] for i in range(3))
    t = np.tanh(w1 * z + b1)
    sech2 = 1.0 - t**2
    q = z * v1 + v2  # v along the pre-activation w1 z + b1
    inner = sech2 * (v3 - 2.0 * w2 * t * q)
    return np.stack([z * inner, inner, sech2 * q, np.zeros_like(t)], axis=-1)


def reference_mean_field(
    atoms: np.ndarray,
    z: np.ndarray,
    y: np.ndarray,
    lam: float,
    x: np.ndarray,
    u: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """First-variation gradient at the (m, 4) points x, and its VJP at the
    (n, 4) atoms for weights u, of the mean-field risk
    L(Q) = (lam / N) sum_l r_l^2, r_l = y_l - E_Q[Phi(z_l, .)], from the
    stacked network derivatives:

        var_grad(x) = -(2 lam / N) sum_l r_l grad Phi(z_l, x),
        VJP_m = (2 lam / N) sum_l [a_l grad Phi(z_l, x_m) - r_l Hess Phi(z_l, x_m) u_m],
        a_l = (1/n) sum_i u_i . grad Phi(z_l, x_i).
    """
    resid = y - mfnn_forward(atoms, z).mean(axis=0)
    grads = mfnn_grad(atoms, z)  # (n, N, 4)
    along = np.einsum("mlp,mp->l", grads, u) / atoms.shape[0]
    scale = 2.0 * lam / z.size
    scores = -scale * np.einsum("l,mlp->mp", resid, mfnn_grad(x, z))
    vjp = scale * (np.einsum("l,mlp->mp", along, grads)
                   - np.einsum("l,mlp->mp", resid, mfnn_hvp(atoms, z, u)))
    return scores, vjp


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
        # A measure of the measure's own type, so no production type is imported.
        return loss.value(type(measure)(moved))

    fd = fd_gradient(objective, atoms[index], base_step)
    vg = loss.var_grad(measure, atoms[index:index + 1])[0]
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


def gaussian_overlap(a: np.ndarray, b: np.ndarray, sigma: float) -> np.ndarray:
    """E[exp(-(Y - Y')^2 / 2)] for independent Y ~ N(a, sigma^2), Y' ~ N(b, sigma^2).

    Closed form (1 + 2 sigma^2)^(-1/2) exp(-(a - b)^2 / (2 (1 + 2 sigma^2))),
    elementwise over broadcast inputs. The predictive loss writes its
    product over species inline in the pair blocks; this one-species form is
    the reference for assembling a pair term by loops, and is itself held to
    ``gauss_hermite_2d``.
    """
    v = 1.0 + 2.0 * sigma**2
    diff = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    return v**-0.5 * np.exp(-(diff**2) / (2.0 * v))


def reference_cross_term(
    means_x: np.ndarray, sens_x: np.ndarray, means_y: np.ndarray, sigma: float
) -> tuple[np.ndarray, np.ndarray]:
    """The predictive loss's double expectation between each x and each y,
    and its gradient in x, from ``gaussian_overlap`` over all (t_i, t_j).

    With solver outputs m_x (m, N, s), their sensitivities dm_x/dx
    (m, N, s, d) and outputs m_y (p, N, s), the term is
    C(x, y) = (1/N^2) sum_ij prod_s overlap(m_x(t_i)_s, m_y(t_j)_s), and
    each overlap factor differentiates to -(a - b) / (1 + 2 sigma^2) times
    itself. Returns values (m, p) and gradients (m, p, d), built on the full
    (m, p, N, N, s) difference tensor.
    """
    n_obs = means_x.shape[1]
    a = means_x[:, None, :, None, :]
    b = means_y[None, :, None, :, :]
    term = np.prod(gaussian_overlap(a, b, sigma), axis=-1)  # (m, p, N, N)
    dterm = -term[..., None] * (a - b) / (1.0 + 2.0 * sigma**2)  # d term / d m_x(t_i)_s
    values = term.sum(axis=(2, 3)) / n_obs**2
    grads = np.einsum("mpijs,misd->mpd", dterm, sens_x) / n_obs**2
    return values, grads


class KernelTable(NamedTuple):
    """Kernel values and derivatives over all pairs of two point sets."""

    value: np.ndarray  # k(x_i, y_j), (n, m)
    grad1: np.ndarray  # d/dx k, (n, m, d)
    grad2: np.ndarray  # d/dy k, (n, m, d)
    trace12: np.ndarray  # sum_a d^2/dx_a dy_a k, (n, m)


def _radial_profile(family: str, ell: float, sq: np.ndarray):
    """phi, phi', phi'' of k = phi(||x - y||^2) at the squared distances sq."""
    if family == "imq":
        base = 1.0 + sq / ell**2
        return base**-0.5, -0.5 / ell**2 * base**-1.5, 0.75 / ell**4 * base**-2.5
    if family == "gaussian":
        k = np.exp(-sq / ell**2)
        return k, -k / ell**2, k / ell**4
    raise ValueError(f"unsupported kernel family for the reference path: {family!r}")


def _radial_table(family: str, ell: float, x: np.ndarray, y: np.ndarray) -> KernelTable:
    # grad1 = 2 phi' (x - y) = -grad2, trace12 = -2 d phi' - 4 s phi''.
    diffs = x[:, None, :] - y[None, :, :]
    sq = np.sum(diffs**2, axis=-1)
    phi, dphi, d2phi = _radial_profile(family, ell, sq)
    grad1 = 2.0 * dphi[..., None] * diffs
    return KernelTable(phi, grad1, -grad1, -2.0 * x.shape[1] * dphi - 4.0 * sq * d2phi)


def _linear_table(c: float, x: np.ndarray, y: np.ndarray) -> KernelTable:
    shape = (x.shape[0], y.shape[0], x.shape[1])
    return KernelTable(c**2 + x @ y.T, np.broadcast_to(y[None, :, :], shape),
                       np.broadcast_to(x[:, None, :], shape),
                       np.full(shape[:2], float(x.shape[1])))


def _tilted_table(power: float, c: float, g: KernelTable, x: np.ndarray,
                  y: np.ndarray) -> KernelTable:
    """Product rule for w(x) g(x, y) w(y) with w(x) = (c^2 + ||x||^2)^(power/2)."""
    sx = c**2 + np.sum(x**2, axis=1)
    sy = c**2 + np.sum(y**2, axis=1)
    wx, wy = sx ** (power / 2.0), sy ** (power / 2.0)
    dwx = (power * sx ** (power / 2.0 - 1.0))[:, None] * x  # grad w
    dwy = (power * sy ** (power / 2.0 - 1.0))[:, None] * y
    wxy = np.outer(wx, wy)
    return KernelTable(
        wxy * g.value,
        dwx[:, None, :] * (g.value * wy)[..., None] + wxy[..., None] * g.grad1,
        dwy[None, :, :] * (g.value * wx[:, None])[..., None] + wxy[..., None] * g.grad2,
        wxy * g.trace12 + g.value * (dwx @ dwy.T)
        + np.einsum("nd,nmd->nm", dwx, g.grad2) * wy
        + np.einsum("nmd,md->nm", g.grad1, dwy) * wx[:, None],
    )


def kernel_derivatives(kernel, x: np.ndarray, y: np.ndarray) -> KernelTable:
    """Closed-form value, gradients and mixed trace of a kernel over all
    pairs of the (n, d) points x and (m, d) points y, read off the kernel's
    ``family`` and parameters only: IMQ and Gaussian, the linear kernel
    c^2 + x.y, the mixture sum, and the tilt product rule for the normalised
    linear kernel (linear, tilted by power -1) and the weighted matrix
    kernel (base + normalised linear, tilted by power ``exponent``).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    family = kernel.family
    if family in ("imq", "gaussian"):
        return _radial_table(family, float(kernel.lengthscale), x, y)
    if family == "mixture":
        tables = [kernel_derivatives(m, x, y) for m in kernel.members]
        return KernelTable(*(sum(w * t[k] for w, t in zip(kernel.weights, tables))
                             for k in range(4)))
    if family == "linear":
        return _linear_table(kernel.c, x, y)
    if family in ("normalized-linear", "weighted-matrix"):
        nlin = _tilted_table(-1.0, kernel.c, _linear_table(kernel.c, x, y), x, y)
        if family == "normalized-linear":
            return nlin
        base = kernel_derivatives(kernel.base, x, y)
        inner = KernelTable(*(a + b for a, b in zip(base, nlin)))
        return _tilted_table(kernel.exponent, kernel.c, inner, x, y)
    raise ValueError(f"no derivative table for kernel family {family!r}")


def _stein_pairs(table: KernelTable, sx: np.ndarray, sy: np.ndarray) -> np.ndarray:
    return (table.trace12 + np.einsum("ijd,jd->ij", table.grad1, sy)
            + np.einsum("ijd,id->ij", table.grad2, sx) + table.value * (sx @ sy.T))


def reference_stein_kernel(
    kernel,
    score: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    y: np.ndarray,
) -> np.ndarray:
    """Stein kernel h(x_i, y_j) over all pairs of the (n, d) points x and
    (m, d) points y, from ``kernel_derivatives``:

        h = trace12 + grad1 . s(y_j) + grad2 . s(x_i) + k s(x_i) . s(y_j),

    with ``score`` mapping (n, d) points to (n, d) scores.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return _stein_pairs(kernel_derivatives(kernel, x, y), score(x), score(y))


def reference_drift(
    kernel,
    score: Callable[[np.ndarray], np.ndarray],
    atoms: np.ndarray,
) -> np.ndarray:
    """Flow velocity (1/n) sum_j [k(x_j, x_i) s(x_j) + grad_1 k(x_j, x_i)]
    at each of the (n, d) atoms, from ``kernel_derivatives``."""
    atoms = np.asarray(atoms, dtype=float)
    table = kernel_derivatives(kernel, atoms, atoms)
    return (table.value.T @ score(atoms) + table.grad1.sum(axis=0)) / atoms.shape[0]


def reference_ksd_squared(
    score: Callable[[np.ndarray], np.ndarray],
    kernel,
    points: np.ndarray,
) -> float:
    """Textbook squared kernel Stein discrepancy of an empirical measure.

    Implements the classical V-statistic

        (1/n^2) sum_ij [ s(x_i).K s(x_j) + s(x_i).grad_2 K + s(x_j).grad_1 K
                         + trace(grad_1 grad_2 K) ]

    with the IMQ or Gaussian closed forms of ``kernel_derivatives``. Only the
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
    s = np.asarray(score(x), dtype=float)
    h = _stein_pairs(_radial_table(kernel.family, float(kernel.lengthscale), x, x), s, s)
    return float(np.sum(h) / x.shape[0] ** 2)


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
