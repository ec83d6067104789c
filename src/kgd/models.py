"""Data and forward models behind the data-driven losses: the synthetic
regression data of the mean-field network, and the Lotka-Volterra
predator-prey system, solved jointly with its forward sensitivities by a
fixed-step order-12 Taylor-series method, with its synthetic data. The
network itself is the closed form of ``kgd.losses.MeanFieldRegressionLoss``;
its stacked derivatives, the reference for that form, are in
``kgd.oracles``.
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
# state and in three sums of its products, Q = u2 (0, s00, s01) +
# u1 (u2, s10, s11) = (u1 u2, u2 s00 + u1 s10, u2 s01 + u1 s11):
#   du1 = alpha u1 - beta Q0,   du2 = delta Q0 - gamma u2,
#   ds0j = alpha s0j - beta Q(j+1) + df1/dx_j,   ds1j = delta Q(j+1) - gamma s1j.
# ``lv_sensitivities`` keeps each Taylor order as ten rows x points: a
# constant zero, then (s00, s01, u2, s10, s11, u1), then Q. Rows (u2, u1)
# are rows 3 and 6, and rows 0-5 read as (2, 3) are ((0, s00, s01),
# (u2, s10, s11)), so Q is one Cauchy product of the one with the other.
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
    exactly from Cauchy products: f[k] is linear in y[k] and in the product
    sums' coefficients Q[k] = sum_j a[j] b[k - j], and y[k + 1] =
    f[k] / (k + 1). The coefficients are kept scaled by h^k, which the
    Cauchy product preserves, so an order costs two calls: one ``einsum``
    for Q[k], and one contracting the nine rows past the zero row of order
    k with a per-point (9, 6) drift table prescaled by h / (k + 1) into the
    six state rows of order k + 1. A step's end is then one sum over the 13
    orders, the smallest (highest) first. The twelve tables are rebuilt in
    place when a segment's step length changes, so an irregular grid costs
    no more memory. Each inter-record segment is covered by round(dt / step)
    equal steps, so record times are hit exactly. Populations and
    sensitivities share the steps, so the returned sens is the exact
    derivative of the discrete map x -> u (up to rounding), not only an
    approximation of the continuous one. Finite differences of the RK4
    solver ``kgd.oracles.lv_solve`` check it only to within that solver's
    own error.

    Every operation is elementwise over the points, with no BLAS call
    (``einsum`` without ``optimize`` is numpy's own loop), so a point's u and
    sens are bitwise the same whatever other points share its call: any
    split of a batch into calls gives the same bytes. A call makes a fixed
    number of numpy operations, two per order of each step (600 steps of
    order 12 for t up to 60 at the default step), each a fixed dispatch cost
    plus work linear in the batch size m. Dispatch dominates small batches:
    on a 2-vCPU Xeon VM at t up to 60, a call took about 0.045 s at m = 4,
    0.049 s at m = 24, 0.107 s at m = 244 and 0.43 s at m = 976. A batch
    costs far less than its points solved one call each, so callers should
    pass all the points they need in one batch.

    Args:
        x: Unconstrained parameters, shape (m, 2).
        times: Strictly increasing nonnegative observation times, shape (N,), N >= 1.
        step: Target Taylor step size, positive and finite.

    Returns:
        Tuple (u, sens) with shapes (m, N, 2) and (m, N, 2, 2); the trailing
        axes of sens are (species, parameter).
    """
    x = np.asarray(x, dtype=float)
    m = x.shape[0]
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0 or np.any(np.diff(times) <= 0.0) or times[0] < 0.0:
        raise ValueError("times must be a non-empty 1-d array, strictly increasing and nonnegative")
    if not (math.isfinite(step) and step > 0.0):
        raise ValueError(f"step must be positive and finite, got {step!r}")
    alpha, beta = lv_params(x)
    s2 = sigmoid(x[..., 1])
    # drift[r, o]: the coefficient of row r + 1 in the drift of row o + 1.
    s00, s01, u2, s10, s11, u1, q0, q1, q2 = range(9)
    drift = np.zeros((9, 6, m))
    drift[[s00, s01, u1], [s00, s01, u1]] = alpha
    drift[[u2, s10, s11], [u2, s10, s11]] = -LV_GAMMA
    drift[[q0, q1, q2], [u2, s10, s11]] = LV_DELTA
    drift[[q1, q2, q0], [s00, s01, u1]] = -beta
    drift[u1, s00] = alpha * (1.0 - alpha)
    drift[q0, s00] = -beta * (1.0 - alpha)
    drift[q0, s01] = -beta * (1.0 - s2)
    order = _TAYLOR_ORDER
    tables = np.empty((order,) + drift.shape)
    series = np.zeros((order + 1, 10, m))
    # Per order k: the Cauchy product's factors (u2, u1)[0..k] and the
    # reversed rows 0-5 [k..0], views as (k + 1, 2, m) and (k + 1, 2, 3, m);
    # the Q rows it fills; the rows the table reads; the next state rows.
    orders = [
        (series[:k + 1, 3:7:3], series[k::-1, :6].reshape(k + 1, 2, 3, m), series[k, 7:],
         tables[k], series[k, 1:], series[k + 1, 1:7])
        for k in range(order)
    ]
    y = series[0, 1:7]  # the state rows
    y[5], y[2] = LV_INIT
    u = np.empty((m, times.size, 2))
    sens = np.empty((m, times.size, 4))
    t_prev, h_tables = 0.0, None
    for n, t_n in enumerate(times):
        dt = t_n - t_prev
        if dt > 0.0:
            n_sub = max(1, int(round(dt / step)))
            h = dt / n_sub
            if h != h_tables:
                np.multiply(drift, (h / np.arange(1.0, order + 1.0))[:, None, None, None],
                            out=tables)
                h_tables = h
            for _ in range(n_sub):
                for left, right, q_out, table, rows, state_out in orders:
                    np.einsum("kim,kijm->jm", left, right, out=q_out)
                    np.einsum("rom,rm->om", table, rows, out=state_out)
                y[...] = np.add.reduce(series[::-1, 1:7], axis=0)
        u[:, n] = y[[5, 2]].T
        sens[:, n] = y[[0, 1, 3, 4]].T
        t_prev = float(t_n)
    return u, sens.reshape(m, -1, 2, 2)


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
