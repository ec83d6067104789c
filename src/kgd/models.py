"""Data and forward models behind the data-driven losses: the synthetic
regression data of the mean-field network, and the Lotka-Volterra
predator-prey system, solved with a fixed-step RK4 integrator and forward
sensitivities, with its synthetic data. The network itself is the closed
form of ``kgd.losses.MeanFieldRegressionLoss``; its stacked derivatives,
the reference for that form, are in ``kgd.oracles``.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

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


def gen_mfnn_data(seed: int, n_data: int = 300, noise: float = 0.1) -> RegressionData:
    """Synthetic regression data: z ~ U(0, 1), y ~ N(3 tanh(3z + 1/2) - 3, noise^2)."""
    rng = seeded_stream(seed, "mfnn-data")
    z = rng.uniform(0.0, 1.0, size=n_data)
    y = 3.0 * np.tanh(3.0 * z + 0.5) - 3.0 + noise * rng.standard_normal(n_data)
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


def lv_equilibrium(x: np.ndarray) -> np.ndarray:
    """Coexistence fixed point (gamma / delta, alpha / beta) of the drift."""
    alpha, beta = lv_params(x)
    return np.stack(
        [np.broadcast_to(LV_GAMMA / LV_DELTA, np.shape(alpha)), alpha / beta], axis=-1
    )


def _rk4_step(rhs: Callable[[np.ndarray], np.ndarray], y: np.ndarray, h: float) -> np.ndarray:
    k1 = rhs(y)
    k2 = rhs(y + 0.5 * h * k1)
    k3 = rhs(y + 0.5 * h * k2)
    k4 = rhs(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _rk4_record(
    rhs: Callable[[np.ndarray], np.ndarray],
    y0: np.ndarray,
    times: np.ndarray,
    step: float,
) -> np.ndarray:
    """Integrate an autonomous system from t = 0, recording at given times.

    Each inter-record segment is covered by round(dt / step) equal substeps,
    so record times are hit exactly and no accumulation drift occurs.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or np.any(np.diff(times) <= 0.0) or times[0] < 0.0:
        raise ValueError("times must be strictly increasing and nonnegative")
    out = np.empty(y0.shape[:1] + (times.size,) + y0.shape[1:])
    y = np.asarray(y0, dtype=float)
    t_prev = 0.0
    for k, t_k in enumerate(times):
        dt = t_k - t_prev
        if dt > 0.0:
            n_sub = max(1, int(round(dt / step)))
            h = dt / n_sub
            for _ in range(n_sub):
                y = _rk4_step(rhs, y, h)
        out[:, k] = y
        t_prev = float(t_k)
    return out


# The sensitivity system's state is stored as rows (1, u1, u2, s00, s01,
# s10, s11) x points, with s_ij = du_i/dx_j. Row 0 is a constant one with
# zero drift, so every term of the drift is a product of two rows times a
# per-point coefficient, state[a] * state[b] * coef, added into one output
# row:
#   du1  = alpha u1 - beta u1 u2
#   du2  = delta u1 u2 - gamma u2
#   ds0j = (alpha - beta u2) s0j - beta u1 s1j + df1/dx_j
#   ds1j = delta u2 s0j + (delta u1 - gamma) s1j
# where df1/dx1 = u1 alpha (1 - alpha) - u1 u2 beta (1 - alpha) and
# df1/dx2 = -u1 u2 beta (1 - s2) follow from alpha = sigmoid(x1),
# beta = alpha sigmoid(x2), s2 = sigmoid(x2). Each entry is
# (row a, row b, output row); ``lv_sensitivities`` builds the matching
# coefficients in the same order.
_LV_TERMS = (
    (0, 1, 1), (1, 2, 1),
    (1, 2, 2), (0, 2, 2),
    (0, 1, 3), (0, 3, 3), (1, 2, 3), (2, 3, 3), (1, 5, 3),
    (0, 4, 4), (1, 2, 4), (2, 4, 4), (1, 6, 4),
    (0, 5, 5), (2, 3, 5), (1, 5, 5),
    (0, 6, 6), (2, 4, 6), (1, 6, 6),
)
# The terms laid out slot-major, (slot, output row) -> term index: output row
# r sums its terms over the slot axis in the order above, and a row's unused
# slots hold the zero term (row 0, row 0, coefficient 0), index
# len(_LV_TERMS). Elementwise products and a sum over the leading axis fix
# each point's arithmetic; a matrix product would not, as BLAS orders its
# sums differently in the tail columns of a wide batch.
_LV_BY_ROW = [[k for k, term in enumerate(_LV_TERMS) if term[2] == r] for r in range(7)]
_LV_LAYOUT = np.array([
    [ks[slot] if slot < len(ks) else len(_LV_TERMS) for ks in _LV_BY_ROW]
    for slot in range(max(map(len, _LV_BY_ROW)))
])
_LV_PAIRS = np.array([[t[0] for t in _LV_TERMS] + [0],
                      [t[1] for t in _LV_TERMS] + [0]])[:, _LV_LAYOUT]  # (2, slots, 7)


def lv_sensitivities(
    x: np.ndarray,
    times: np.ndarray,
    step: float = 0.01,
) -> tuple[np.ndarray, np.ndarray]:
    """Trajectories and their derivatives with respect to x.

    Solves the forward sensitivity system dS/dt = (df/du) S + df/dx jointly
    with the populations, S(0) = 0. Populations and sensitivities share the
    same RK4 substeps, so the returned sens is the exact derivative of the
    discrete map x -> u (up to rounding), not only an O(step^4)
    approximation of the continuous one; finite differences of the plain
    solver ``kgd.oracles.lv_solve`` at the same step agree with it, up to
    their own differencing error, at any step size.

    The state is a (7, m) array with rows (1, u1, u2, s00, s01, s10, s11):
    the drift is 19 products of two rows times fixed per-point
    coefficients, each added into its output row (the layout above
    ``lv_sensitivities``). Every operation is elementwise over the points,
    with no BLAS call, so a point's u and sens are bitwise the same whatever
    other points share its call: any split of a batch into calls gives the
    same bytes. A call costs a fixed number of numpy operations per RK4 step
    (6000 steps for t up to 60 at the default step), so its time is set by
    the number of calls far more than by the batch size m. Callers should
    pass all the points they need in one batch.

    Args:
        x: Unconstrained parameters, shape (m, 2) or (2,).
        times: Strictly increasing observation times, shape (N,).

    Returns:
        Tuple (u, sens) with shapes (m, N, 2) and (m, N, 2, 2); the trailing
        axes of sens are (species, parameter). Leading axis dropped for a
        single x.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    xb = x[None, :] if single else x
    m = xb.shape[0]
    alpha, beta = lv_params(xb)
    s2 = sigmoid(xb[..., 1])
    delta_m = np.full(m, LV_DELTA)
    neg_gamma = np.full(m, -LV_GAMMA)
    coef = np.stack([
        alpha, -beta,
        delta_m, neg_gamma,
        alpha * (1.0 - alpha), alpha, -beta * (1.0 - alpha), -beta, -beta,
        alpha, -beta * (1.0 - s2), -beta, -beta,
        neg_gamma, delta_m, delta_m,
        neg_gamma, delta_m, delta_m,
        np.zeros(m),
    ])[_LV_LAYOUT]  # (slots, 7, m)

    def rhs(state: np.ndarray) -> np.ndarray:
        rows = state[_LV_PAIRS]
        terms = rows[0] * rows[1]
        terms *= coef
        return terms.sum(axis=0)

    state0 = np.zeros((7, m))
    state0[0] = 1.0
    state0[1:3] = np.asarray(LV_INIT, dtype=float)[:, None]
    path = _rk4_record(rhs, state0, np.asarray(times, dtype=float), step)  # (7, N, m)
    u = np.ascontiguousarray(path[1:3].transpose(2, 1, 0))
    sens = np.ascontiguousarray(path[3:].transpose(2, 1, 0)).reshape(m, -1, 2, 2)
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
