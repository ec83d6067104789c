"""Data and forward models behind the data-driven losses: the synthetic
regression data of the mean-field network, and the Lotka-Volterra
predator-prey system, solved jointly with its forward sensitivities by a
fixed-step order-12 Taylor-series method, with its synthetic data. The network itself is the closed
form of ``kgd.losses.MeanFieldRegressionLoss``; its stacked derivatives,
the reference for that form, are in ``kgd.oracles``.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .core import seeded_stream


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    expx = np.exp(x[~pos])
    out[~pos] = expx / (1.0 + expx)
    return out


class RegressionData(NamedTuple):
    covariates: np.ndarray  # (N,)
    responses: np.ndarray  # (N,)


MFNN_NOISE = 0.1  # standard deviation of the regression responses' noise


def gen_mfnn_data(seed: int, n_data: int = 300) -> RegressionData:
    """Synthetic regression data: z ~ U(0, 1), y ~ N(3 tanh(3z + 1/2) - 3,
    MFNN_NOISE^2)."""
    rng = seeded_stream(seed, "mfnn-data")
    z = rng.uniform(0.0, 1.0, size=n_data)
    y = 3.0 * np.tanh(3.0 * z + 0.5) - 3.0 + MFNN_NOISE * rng.standard_normal(n_data)
    return RegressionData(z, y)


# ---------------------------------------------------------------------------
# Lotka-Volterra. The unconstrained coordinates are x1 = logit(alpha) and
# x2 = logit(beta / alpha), so alpha = sigmoid(x1), beta = alpha sigmoid(x2)
# and 0 < beta < alpha < 1 is automatic. gamma, delta and the initial
# populations are fixed and known.
# ---------------------------------------------------------------------------

LV_GAMMA = 0.4
LV_DELTA = 0.02
LV_INIT = (10.0, 15.0)


def lv_params(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map unconstrained coordinates (..., 2) to (alpha, beta)."""
    x = np.asarray(x, dtype=float)
    alpha = sigmoid(x[..., 0])
    beta = alpha * sigmoid(x[..., 1])
    return alpha, beta


# The sensitivity system's state is (u1, u2, s00, s01, s10, s11), with
# s_ij = du_i/dx_j:
#   du1  = alpha u1 - beta u1 u2
#   du2  = delta u1 u2 - gamma u2
#   ds0j = (alpha - beta u2) s0j - beta u1 s1j + df1/dx_j
#   ds1j = delta u2 s0j + (delta u1 - gamma) s1j
# where df1/dx1 = u1 alpha (1 - alpha) - u1 u2 beta (1 - alpha) and
# df1/dx2 = -u1 u2 beta (1 - s2) follow from alpha = sigmoid(x1),
# beta = alpha sigmoid(x2), s2 = sigmoid(x2). The drift is linear in the
# state and in five products of it: u1 u2, u1 s10, u1 s11, u2 s00 and
# u2 s01. ``lv_sensitivities`` keeps its Taylor coefficients as 13 rows
# x points: rows 0-5 hold the state (u1, u2, s10, s11, s00, s01), row 6 is
# a constant zero and rows 7-12 the products u1 (u2, s10, s11) and
# u2 (s00, s01, 0): rows 0-1 times the (2, 3) block of rows 1-6, one
# broadcast Cauchy product per order (row 12 is never read). Each state
# row's drift sums at most five terms, coefficient times row, laid out
# slot-major: _LV_ROWS[slot, output] is the row the term in that slot
# reads, and an unused slot reads the zero row. ``lv_sensitivities``
# builds the matching coefficients, (slots, 6, m), in the same layout.
_LV_ROWS = np.array([
    # u1 u2 s10 s11 s00 s01
    [0,  7, 10, 11,  4,  5],
    [7,  1,  8,  9, 10, 11],
    [6,  6,  2,  3,  8,  9],
    [6,  6,  6,  6,  0,  7],
    [6,  6,  6,  6,  7,  6],
])
# Order of the Taylor series summed per step, and the default step.
_TAYLOR_ORDER = 12
_TAYLOR_STEP = 0.1


def lv_sensitivities(
    x: np.ndarray,
    times: np.ndarray,
    step: float = _TAYLOR_STEP,
) -> tuple[np.ndarray, np.ndarray]:
    """Trajectories and their derivatives with respect to x.

    Solves the forward sensitivity system dS/dt = (df/du) S + df/dx jointly
    with the populations, S(0) = 0, by the fixed-step Taylor method for
    polynomial ODEs (Corliss & Chang 1982; Jorba & Zou 2005). The drift f is
    quadratic in the joint state y, so the Taylor coefficients follow
    exactly from Cauchy products: f[k] is linear in y[k] and in the five
    products' coefficients sum_j a[j] b[k - j], and y[k + 1] = f[k] / (k + 1).
    A step evaluates the order-12 series at h by Horner's rule. Each
    inter-record segment is covered by round(dt / step) equal steps, so
    record times are hit exactly. Populations and sensitivities share the
    steps, so the returned sens is the exact derivative of the discrete map
    x -> u (up to rounding), not only an approximation of the continuous
    one. Finite differences of the RK4 solver ``kgd.oracles.lv_solve``
    check it only to within that solver's own error.

    Every operation is elementwise over the points, with no BLAS call, so a
    point's u and sens are bitwise the same whatever other points share its
    call: any split of a batch into calls gives the same bytes. A call makes
    a fixed number of numpy operations, five per order of each step (600
    steps of order 12 for t up to 60 at the default step), each a fixed
    dispatch cost plus work linear in the batch size m. Dispatch dominates
    small batches: on a 2-vCPU Xeon VM at t up to 60, a call took about
    0.09 s at m = 4 or 24, 0.26 s at m = 244 and 0.77 s at m = 976. A batch
    costs far less than its points solved one call each, so callers should
    pass all the points they need in one batch.

    Args:
        x: Unconstrained parameters, shape (m, 2) or (2,).
        times: Strictly increasing observation times, shape (N,).
        step: Target Taylor step size.

    Returns:
        Tuple (u, sens) with shapes (m, N, 2) and (m, N, 2, 2); the trailing
        axes of sens are (species, parameter). Leading axis dropped for a
        single x.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    xb = x[None, :] if single else x
    m = xb.shape[0]
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or np.any(np.diff(times) <= 0.0) or times[0] < 0.0:
        raise ValueError("times must be strictly increasing and nonnegative")
    alpha, beta = lv_params(xb)
    s2 = sigmoid(xb[..., 1])
    # a = alpha, b = -beta, d = delta, g = -gamma and z = 0, per point.
    a, b, d, g, z = alpha, -beta, np.full(m, LV_DELTA), np.full(m, -LV_GAMMA), np.zeros(m)
    coef = np.stack([
        a, d, d, d, a, a,
        b, g, d, d, b, b,
        z, z, g, g, b, b,
        z, z, z, z, alpha * (1.0 - alpha), b * (1.0 - s2),
        z, z, z, z, b * (1.0 - alpha), z,
    ]).reshape(_LV_ROWS.shape + (m,))

    # Per order k: the Cauchy product's two factors, a[0..k] and b[k..0]
    # (a reversed view) as (k + 1, 2, m) and (k + 1, 2, 3, m), the (2, 3, m)
    # product rows it fills, and the rows the drift reads and writes.
    order = _TAYLOR_ORDER
    series = np.zeros((order + 1, 13, m))
    orders = [
        (series[:k + 1, 0:2], series[k::-1, 1:7].reshape(k + 1, 2, 3, m),
         series[k, 7:13].reshape(2, 3, m), series[k], series[k + 1, :6], float(k + 1))
        for k in range(order)
    ]
    terms = np.empty(_LV_ROWS.shape + (m,))
    horner = [series[k, :6] for k in range(order - 1, -1, -1)]
    y = series[0, :6]
    y[0], y[1] = LV_INIT
    u = np.empty((m, times.size, 2))
    sens = np.empty((m, times.size, 4))
    t_prev = 0.0
    for n, t_n in enumerate(times):
        dt = t_n - t_prev
        if dt > 0.0:
            n_sub = max(1, int(round(dt / step)))
            h = dt / n_sub
            for _ in range(n_sub):
                for left, right, prod_out, rows, drift_out, k1 in orders:
                    np.einsum("kim,kijm->ijm", left, right, out=prod_out)
                    rows.take(_LV_ROWS, axis=0, out=terms)
                    terms *= coef
                    np.add.reduce(terms, axis=0, out=drift_out)
                    drift_out /= k1
                step_end = series[order, :6].copy()
                for c in horner:
                    step_end *= h
                    step_end += c
                y[...] = step_end
        u[:, n] = y[:2].T
        sens[:, n] = y[[4, 5, 2, 3]].T
        t_prev = float(t_n)
    sens = sens.reshape(m, -1, 2, 2)
    return (u[0], sens[0]) if single else (u, sens)


class SeriesData(NamedTuple):
    times: np.ndarray  # (N,)
    observations: np.ndarray  # (N, 2)
    latent: np.ndarray  # (N, 2) noise-free-of-measurement latent path


# The data-generating system: alpha = sigmoid(-1) and beta = sigmoid(-3),
# so x = (-1, logit(beta / alpha)), with the fixed gamma, delta and initial
# populations above, integrated with RK4 substeps of this size.
_DATA_ALPHA = float(sigmoid(np.array(-1.0)))
_DATA_BETA = float(sigmoid(np.array(-3.0)))
LV_TRUE_X2 = -1.5413248546129177  # logit(beta / alpha), kept as the literal lv-compare uses
_SDE_STEP = 0.005


def gen_lv_data(
    seed: int,
    times: np.ndarray | None = None,
    sigma: float = 1.0,
    drive: tuple[float, float] = (0.1, 0.2),
) -> SeriesData:
    """Synthetic population data from a stochastically driven system.

    The drift, at alpha = sigmoid(-1), beta = sigmoid(-3) and the fixed
    gamma, delta and initial populations, is integrated with RK4 substeps of
    size 0.005 while additive noise increments drive_i * sqrt(h) * Z enter
    after each substep, so setting drive = (0, 0) recovers the deterministic
    solver exactly. Populations are reflected at zero after each increment:
    negative counts are unphysical and the drift repels from them, so
    without reflection a noise excursion through zero diverges. Measurement
    noise N(0, sigma^2) is then applied per species and time. Observations
    are at t = 0, 1, ..., 60 unless ``times`` is given.
    """
    if times is None:
        times = np.arange(0.0, 61.0)
    times = np.asarray(times, dtype=float)
    rng = seeded_stream(seed, "lv-data")
    drive1, drive2 = (float(v) for v in drive)

    def drift(u1: float, u2: float) -> tuple[float, float]:
        return _DATA_ALPHA * u1 - _DATA_BETA * u1 * u2, LV_DELTA * u1 * u2 - LV_GAMMA * u2

    # One path in Python floats: on two numbers each numpy call costs more
    # than its arithmetic. The expressions follow the RK4 step and the drift
    # of ``kgd.oracles.lv_solve`` term by term, so the path is bitwise the
    # one it gives.
    u1, u2 = (float(v) for v in LV_INIT)
    latent = np.empty((times.size, 2))
    t_prev = 0.0
    for k, t_k in enumerate(times):
        dt = float(t_k) - t_prev
        if dt > 0.0:
            n_sub = max(1, int(round(dt / _SDE_STEP)))
            h = dt / n_sub
            half, sixth = 0.5 * h, h / 6.0
            scale1, scale2 = drive1 * math.sqrt(h), drive2 * math.sqrt(h)
            for z1, z2 in rng.standard_normal((n_sub, 2)).tolist():
                k1a, k1b = drift(u1, u2)
                k2a, k2b = drift(u1 + half * k1a, u2 + half * k1b)
                k3a, k3b = drift(u1 + half * k2a, u2 + half * k2b)
                k4a, k4b = drift(u1 + h * k3a, u2 + h * k3b)
                u1 = abs(u1 + sixth * (k1a + 2.0 * k2a + 2.0 * k3a + k4a) + scale1 * z1)
                u2 = abs(u2 + sixth * (k1b + 2.0 * k2b + 2.0 * k3b + k4b) + scale2 * z2)
        latent[k] = u1, u2
        t_prev = float(t_k)
    if not np.all(np.isfinite(latent)):
        raise ValueError("population path diverged; try another seed or weaker drive")
    observations = latent + sigma * rng.standard_normal(latent.shape)
    return SeriesData(times, observations, latent)
