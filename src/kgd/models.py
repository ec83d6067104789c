"""Forward models behind the data-driven losses: a two-layer mean-field
network for univariate regression, and the Lotka-Volterra predator-prey
system solved with a fixed-step RK4 integrator and forward sensitivities.
"""

from __future__ import annotations

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


# ---------------------------------------------------------------------------
# Mean-field network: Phi(z, x) = w2 * tanh(w1 * z + b1) + b2 with
# parameter vector x = (w1, b1, w2, b2).
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


def lv_equilibrium(x: np.ndarray, gamma: float = LV_GAMMA, delta: float = LV_DELTA) -> np.ndarray:
    """Coexistence fixed point (gamma / delta, alpha / beta) of the drift."""
    alpha, beta = lv_params(x)
    return np.stack(
        [np.broadcast_to(gamma / delta, np.shape(alpha)), alpha / beta], axis=-1
    )


def _lv_drift(u: np.ndarray, alpha: np.ndarray, beta: np.ndarray, gamma: float, delta: float) -> np.ndarray:
    u1 = u[..., 0]
    u2 = u[..., 1]
    return np.stack([alpha * u1 - beta * u1 * u2, delta * u1 * u2 - gamma * u2], axis=-1)


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


def lv_solve(
    x: np.ndarray,
    times: np.ndarray,
    step: float = 0.01,
    init: tuple[float, float] = LV_INIT,
    gamma: float = LV_GAMMA,
    delta: float = LV_DELTA,
) -> np.ndarray:
    """Population trajectories at the requested times.

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
    u0 = np.broadcast_to(np.asarray(init, dtype=float), (xb.shape[0], 2)).copy()

    def rhs(u: np.ndarray) -> np.ndarray:
        return _lv_drift(u, alpha, beta, gamma, delta)

    path = _rk4_record(rhs, u0, np.asarray(times, dtype=float), step)
    return path[0] if single else path


def lv_sensitivities(
    x: np.ndarray,
    times: np.ndarray,
    step: float = 0.01,
    init: tuple[float, float] = LV_INIT,
    gamma: float = LV_GAMMA,
    delta: float = LV_DELTA,
) -> tuple[np.ndarray, np.ndarray]:
    """Trajectories and their derivatives with respect to x.

    Solves the forward sensitivity system dS/dt = (df/du) S + df/dx jointly
    with the populations, S(0) = 0. Populations and sensitivities share the
    same RK4 substeps, so the returned sens is the exact derivative of the
    discrete map x -> u (up to rounding), not only an O(step^4)
    approximation of the continuous one; finite differences of
    ``lv_solve`` at the same step agree with it, up to their own
    differencing error, at any step size.

    A call costs a fixed number of small array operations per RK4 step
    (6000 steps for t up to 60 at the default step), so its time is nearly
    flat in the batch size m: 64 points cost a few times one point, not 64
    times. Callers should pass all the points they need in one batch.

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

    # The state is (u1, u2, s00, s01, s10, s11) with s_ij = du_i/dx_j. Its
    # drift is linear in 11 features (0-5: the state; 6: u1 u2; 7, 8:
    # u2 s0j; 9, 10: u1 s1j) with per-point coefficients
    # coef[:, feature, output], so each stage is one product of state
    # entries and one batched row-vector matmul:
    #   du1  = alpha u1 - beta u1 u2
    #   du2  = delta u1 u2 - gamma u2
    #   ds0j = (alpha - beta u2) s0j - beta u1 s1j + df1/dx_j
    #   ds1j = delta u2 s0j + (delta u1 - gamma) s1j
    # where df1/dx1 = u1 alpha (1 - alpha) - u1 u2 beta (1 - alpha) and
    # df1/dx2 = -u1 u2 beta (1 - s2) follow from alpha = sigmoid(x1),
    # beta = alpha sigmoid(x2).
    coef = np.zeros((m, 11, 6))
    coef[:, 0, 0] = alpha
    coef[:, 6, 0] = -beta
    coef[:, 1, 1] = -gamma
    coef[:, 6, 1] = delta
    coef[:, 0, 2] = alpha * (1.0 - alpha)
    coef[:, 6, 2] = -beta * (1.0 - alpha)
    coef[:, 6, 3] = -beta * (1.0 - s2)
    for j in range(2):
        coef[:, 2 + j, 2 + j] = alpha
        coef[:, 7 + j, 2 + j] = -beta
        coef[:, 9 + j, 2 + j] = -beta
        coef[:, 7 + j, 4 + j] = delta
        coef[:, 4 + j, 4 + j] = -gamma
        coef[:, 9 + j, 4 + j] = delta
    left = np.array([0, 1, 1, 0, 0])
    right = np.array([1, 2, 3, 4, 5])
    features = np.empty((m, 1, 11))

    def rhs(state: np.ndarray) -> np.ndarray:
        features[:, 0, :6] = state
        np.multiply(state.take(left, 1), state.take(right, 1), out=features[:, 0, 6:])
        return (features @ coef)[:, 0]

    state0 = np.zeros((m, 6))
    state0[:, :2] = np.asarray(init, dtype=float)
    path = _rk4_record(rhs, state0, np.asarray(times, dtype=float), step)
    u = path[:, :, :2]
    sens = path[:, :, 2:].reshape(m, -1, 2, 2)
    return (u[0], sens[0]) if single else (u, sens)


class SeriesData(NamedTuple):
    times: np.ndarray  # (N,)
    observations: np.ndarray  # (N, 2)
    latent: np.ndarray  # (N, 2) noise-free-of-measurement latent path


def gen_lv_data(
    seed: int,
    times: np.ndarray | None = None,
    sigma: float = 1.0,
    drive: tuple[float, float] = (0.1, 0.2),
    alpha: float | None = None,
    beta: float | None = None,
    sde_step: float = 0.005,
    init: tuple[float, float] = LV_INIT,
    gamma: float = LV_GAMMA,
    delta: float = LV_DELTA,
) -> SeriesData:
    """Synthetic population data from a stochastically driven system.

    The drift is integrated with RK4 substeps of size ``sde_step`` while
    additive noise increments drive_i * sqrt(h) * Z enter after each substep,
    so setting drive = (0, 0) recovers the deterministic solver exactly.
    Populations are reflected at zero after each increment: negative counts
    are unphysical and the drift repels from them, so without reflection a
    noise excursion through zero diverges. Measurement noise N(0, sigma^2)
    is then applied per species and time.

    Defaults reproduce the synthetic setting used by the bundled presets:
    alpha = sigmoid(-1), beta = sigmoid(-3), observations at t = 0, 1, ..., 60.
    """
    if times is None:
        times = np.arange(0.0, 61.0)
    times = np.asarray(times, dtype=float)
    if alpha is None:
        alpha = float(sigmoid(np.array(-1.0)))
    if beta is None:
        beta = float(sigmoid(np.array(-3.0)))
    rng = seeded_stream(seed, "lv-data")

    a = np.asarray([alpha])
    b = np.asarray([beta])
    drive_arr = np.asarray(drive, dtype=float)

    u = np.asarray(init, dtype=float)[None, :].copy()
    latent = np.empty((times.size, 2))
    t_prev = 0.0
    for k, t_k in enumerate(times):
        dt = t_k - t_prev
        if dt > 0.0:
            n_sub = max(1, int(round(dt / sde_step)))
            h = dt / n_sub
            noise_scale = drive_arr * np.sqrt(h)
            shocks = rng.standard_normal((n_sub, 2))
            for j in range(n_sub):
                u = _rk4_step(lambda v: _lv_drift(v, a, b, gamma, delta), u, h)
                u = np.abs(u + noise_scale * shocks[j])
        latent[k] = u[0]
        t_prev = float(t_k)
    if not np.all(np.isfinite(latent)):
        raise ValueError("population path diverged; try another seed or weaker drive")
    observations = latent + sigma * rng.standard_normal(latent.shape)
    return SeriesData(times, observations, latent)
