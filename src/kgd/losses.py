"""Variational losses and their first-variation gradients.

Each loss L maps probability measures to reals and exposes the gradient of
its first variation, var_grad(Q, x) = grad_x L'(Q)(x), which is the only
piece the score construction downstream needs, and, for the particle
gradient, that gradient's vector-Jacobian product at the atoms
(``var_grad_vjp``). Each loss is one closed form: the quadratic potential,
the quadratic interaction, the mean-field network's empirical risk and the
simulator's predictive kernel score. Losses evaluated on empirical measures
additionally satisfy the finite-particle identity

    var_grad(Q_n, x_i) = n * d/dx_i L(x_1, ..., x_n),

which ``euclid_identity_check`` verifies against central finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import EmpiricalMeasure
from .models import lv_sensitivities, mfnn_forward, mfnn_grad, mfnn_hvp


class VariationalLoss:
    """Contract: a value on empirical measures (optional), var_grad, and
    (optional) var_grad_vjp, which feeds the particle gradient."""

    def value(self, measure: EmpiricalMeasure) -> float:
        raise NotImplementedError(f"{type(self).__name__} has no scalar value")

    def var_grad(self, measure: EmpiricalMeasure, x: np.ndarray) -> np.ndarray:
        """First-variation gradient at x; accepts (d,) or (m, d) inputs."""
        raise NotImplementedError

    def var_grad_vjp(self, measure: EmpiricalMeasure, u: np.ndarray) -> np.ndarray:
        """sum_i (d var_grad(Q_n, x_i) / d x_m)^T u_i at each atom x_m, shape
        (n, d), for weights u of shape (n, d) on the atom scores."""
        raise NotImplementedError(f"{type(self).__name__} has no var_grad_vjp")


def _batched(x: np.ndarray) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return x[None, :], True
    return x, False


@dataclass(frozen=True)
class ZeroLoss(VariationalLoss):
    """L(Q) = 0; the objective reduces to the entropy term alone."""

    def value(self, measure: EmpiricalMeasure) -> float:
        return 0.0

    def var_grad(self, measure: EmpiricalMeasure, x: np.ndarray) -> np.ndarray:
        return np.zeros_like(np.asarray(x, dtype=float))

    def var_grad_vjp(self, measure: EmpiricalMeasure, u: np.ndarray) -> np.ndarray:
        return np.zeros_like(np.asarray(u, dtype=float))


@dataclass(frozen=True)
class LinearLoss(VariationalLoss):
    """L(Q) = integral of u dQ for the quadratic potential
    u(x) = (1/2) sum_k weights_k (x_k - center_k)^2.

    The first variation is u itself, so var_grad is
    grad u(x) = weights * (x - center) and does not depend on Q. Each score
    moves only with its own atom, through Hess u = diag(weights), so
    var_grad_vjp is weights * u.
    """

    center: np.ndarray  # (d,)
    weights: np.ndarray  # (d,)

    def value(self, measure: EmpiricalMeasure) -> float:
        u = 0.5 * np.sum(self.weights * (measure.atoms - self.center) ** 2, axis=-1)
        return float(np.mean(u))

    def var_grad(self, measure: EmpiricalMeasure, x: np.ndarray) -> np.ndarray:
        return self.weights * (np.asarray(x, dtype=float) - self.center)

    def var_grad_vjp(self, measure: EmpiricalMeasure, u: np.ndarray) -> np.ndarray:
        return self.weights * u


@dataclass(frozen=True)
class InteractionLoss(VariationalLoss):
    """Quadratic interaction energy L(Q) = double integral of
    w(x, y) = ||x - y||^2 / 2 dQ dQ, which attracts the atoms to each other.

    The first-variation gradient at x is (2/n) sum_j (x - x_j)
    = 2 (x - mean of the atoms), and d var_grad(Q_n, x_i) / d x_m is
    2 (1[i = m] - 1/n) I, so var_grad_vjp is 2 (u - mean of u).
    """

    def value(self, measure: EmpiricalMeasure) -> float:
        x = measure.atoms
        w = 0.5 * np.sum((x[:, None, :] - x[None, :, :]) ** 2, axis=-1)
        return float(np.sum(w) / measure.n**2)

    def var_grad(self, measure: EmpiricalMeasure, x: np.ndarray) -> np.ndarray:
        return 2.0 * (np.asarray(x, dtype=float) - measure.atoms.mean(axis=0))

    def var_grad_vjp(self, measure: EmpiricalMeasure, u: np.ndarray) -> np.ndarray:
        return 2.0 * (u - u.mean(axis=0))


@dataclass(frozen=True)
class MeanFieldRegressionLoss(VariationalLoss):
    """Scaled empirical risk of a measure-averaged network predictor.

    L(Q) = (lam / N) sum_i (y_i - E_Q[Phi(z_i, .)])^2 with Phi the two-layer
    network from the models module. The first-variation gradient at x is
    -(2 lam / N) sum_i (y_i - E_Q[Phi(z_i, .)]) grad_x Phi(z_i, x), and its
    vector-Jacobian product at atom x_m is

        -(2 lam / N) sum_l r_l Hess Phi(z_l, x_m) u_m
        + (2 lam / (N n)) sum_l (sum_i u_i . grad Phi(z_l, x_i)) grad Phi(z_l, x_m)

    with r_l = y_l - E_Q[Phi(z_l, .)].
    """

    covariates: np.ndarray  # (N,)
    responses: np.ndarray  # (N,)
    lam: float = 300.0
    # [atoms, residuals, gradients at the atoms] for the atoms last fitted
    # (``_fit``): a particle gradient reads them for the scores and again
    # for the VJP, and a flow's trace row and its next step score the same
    # atoms through two measures.
    _last_fit: list = field(default_factory=list, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        z = np.asarray(self.covariates, dtype=float)
        y = np.asarray(self.responses, dtype=float)
        if z.shape != y.shape or z.ndim != 1:
            raise ValueError("covariates and responses must be matching 1-d arrays")
        object.__setattr__(self, "covariates", z)
        object.__setattr__(self, "responses", y)

    def predictions(self, measure: EmpiricalMeasure) -> np.ndarray:
        return np.mean(mfnn_forward(measure.atoms, self.covariates), axis=0)

    def value(self, measure: EmpiricalMeasure) -> float:
        resid = self.responses - self.predictions(measure)
        return float(self.lam / self.covariates.size * np.sum(resid**2))

    def _fit(self, measure: EmpiricalMeasure) -> tuple[np.ndarray, np.ndarray]:
        """Residuals y - E_Q[Phi(z, .)], shape (N,), and grad Phi(z_l, x_i)
        at the atoms, shape (n, N, 4): computed once per set of atoms, and
        kept until atoms that differ are fitted or the VJP drops them."""
        last = self._last_fit
        if not (last and np.array_equal(last[0], measure.atoms)):
            last.clear()  # the old gradients go before the new are built
            resid = self.responses - self.predictions(measure)
            grads = mfnn_grad(measure.atoms, self.covariates)
            last[:] = [measure.atoms.copy(), resid, grads]
        return last[1], last[2]

    def var_grad(self, measure: EmpiricalMeasure, x: np.ndarray) -> np.ndarray:
        xb, single = _batched(x)
        if np.array_equal(xb, measure.atoms):
            resid, grads = self._fit(measure)
        else:
            resid = self.responses - self.predictions(measure)  # (N,)
            grads = mfnn_grad(xb, self.covariates)  # (m, N, 4)
        out = -(2.0 * self.lam / self.covariates.size) * np.einsum(
            "i,mip->mp", resid, grads
        )
        return out[0] if single else out

    def var_grad_vjp(self, measure: EmpiricalMeasure, u: np.ndarray) -> np.ndarray:
        atoms = measure.atoms
        resid, grads = self._fit(measure)  # (N,), (n, N, 4)
        along = np.einsum("mlp,mp->l", grads, u) / measure.n
        pulled = np.einsum("l,mlp->mp", along, grads)
        # grads goes before hvp is built, so the two (n, N, 4) arrays and
        # hvp's temporaries are never held together: freed together at the
        # top of the heap they can pass the allocator's trim threshold, and
        # their pages go back to the OS only to be faulted in on the next call.
        self._last_fit.clear()
        del grads
        hvp = mfnn_hvp(atoms, self.covariates, u)  # (n, N, 4)
        return (2.0 * self.lam / self.covariates.size) * (
            pulled - np.einsum("l,mlp->mp", resid, hvp)
        )


def gaussian_smooth(obs: np.ndarray, mean: np.ndarray, sigma: float) -> np.ndarray:
    """E[exp(-(obs - Y)^2 / 2)] for Y ~ N(mean, sigma^2), elementwise."""
    v = 1.0 + sigma**2
    diff = np.asarray(obs, dtype=float) - np.asarray(mean, dtype=float)
    return v**-0.5 * np.exp(-(diff**2) / (2.0 * v))


# Entries of one (rows N, p N) block of a predictive pair block: 32 MB.
_PAIR_BLOCK_ENTRIES = 4_000_000


@dataclass
class PredictiveKernelLoss(VariationalLoss):
    """Kernel-scored fit of a simulator's predictive distribution to data.

    With Gaussian measurement noise N(m(x, t_i), sigma^2 I) around the
    solver output m(x, t_i), the pair function

        pair(x, x') = (1/N^2) sum_ij E[kappa(Y_i(x), Y'_j(x'))]
                      - (1/N) sum_i E[kappa(y_i, Y_i(x))]
                      - (1/N) sum_i E[kappa(y_i, Y_i(x'))]

    (kappa the unit Gaussian kernel, expectations in closed form) gives
    L(Q) = (1/(2 lam n^2)) sum_ij pair(x_i, x_j) up to an additive constant,
    and var_grad(Q, x) = (1/(n lam)) sum_j grad_1 pair(x, x_j).

    The double-expectation term of a pair block is built from (m N, p N)
    arrays and matrix products. With the trajectories m_x(t_i) of the first
    argument and m_y(t_j) of the second stacked as (m N, s) and (p N, s)
    arrays and centred together,

        a_ij = exp(-||m_x(t_i) - m_y(t_j)||^2 / (2 v)),  v = 1 + 2 sigma^2,

    takes s outer differences and one ``exp``. The pair value is
    v^(-s/2) / N^2 sum_ij a_ij, and its gradient in x is

        -v^(-s/2) / (v N^2) sum_i S_x(t_i)^T [(sum_j a_ij) m_x(t_i)
                                              - sum_j a_ij m_y(t_j)]

    with S_x the (s, d) sensitivity of m_x: the inner sums are one batched
    product of a with the m_y, the outer sum one batched product with S_x.
    The squared distances are not taken from the product form
    |m_x|^2 + |m_y|^2 - 2 m_x.m_y: populations reach a few hundred, and
    the cancellation there moves the gradients by about 4e-13 of their
    largest entry, against 1e-14 for the differences. Rows are taken in
    chunks that keep the (rows N, p N) block within ``_PAIR_BLOCK_ENTRIES``.

    Solver outputs and sensitivities are cached per parameter point, so
    repeated evaluations at the same atoms (samplers, greedy search) only
    pay for the kernel algebra. ``prefetch`` solves every distinct uncached
    point in one batched call. The cache holds at most ``max_cache`` points
    and is cleared when a solve would overfill it; ``cache_hits``,
    ``cache_misses`` (requested points not in the cache) and ``cache_clears``
    count its use, ``n_solves`` the points passed to the solver and
    ``solver_calls`` the calls that passed them, the unit of solver cost.
    There is no ``var_grad_vjp``: it would need second-order ODE
    sensitivities.
    """

    times: np.ndarray  # (N,)
    observations: np.ndarray  # (N, s)
    sigma: float = 1.0
    lam: float | None = None
    solver: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]] = field(
        default=None  # type: ignore[assignment]
    )
    max_cache: int = 20000

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=float)
        obs = np.asarray(self.observations, dtype=float)
        if obs.ndim == 1:
            obs = obs[:, None]
        if obs.shape[0] != self.times.size:
            raise ValueError("observations must align with times")
        self.observations = obs
        if self.lam is None:
            self.lam = 0.1 / self.times.size
        if self.solver is None:
            self.solver = lv_sensitivities
        self._cache: dict[bytes, tuple[np.ndarray, np.ndarray]] = {}
        self.n_solves = 0
        self.solver_calls = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_clears = 0

    # -- solver plumbing ----------------------------------------------------

    def prefetch(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Solver outputs for (m, d) points as stacks (m, N, s), (m, N, s, d).

        Every distinct uncached point is solved once, all in one batched
        call, whether or not the cache has room to keep it.
        """
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[None, :]
        keys = [p.tobytes() for p in pts]
        found: dict[bytes, tuple[np.ndarray, np.ndarray]] = {}
        missing: dict[bytes, np.ndarray] = {}
        for key, p in zip(keys, pts):
            hit = self._cache.get(key)
            if hit is None:
                missing.setdefault(key, p)
                self.cache_misses += 1
            else:
                found[key] = hit
                self.cache_hits += 1
        if missing:
            means, sens = self.solver(np.stack(list(missing.values())), self.times)
            self.n_solves += len(missing)
            self.solver_calls += 1
            if self._cache and len(self._cache) + len(missing) > self.max_cache:
                self._cache.clear()
                self.cache_clears += 1
            for key, m, s in zip(missing, means, sens):
                found[key] = (m, s)
                if len(self._cache) < self.max_cache:
                    self._cache[key] = (m, s)
        return (np.stack([found[key][0] for key in keys]),
                np.stack([found[key][1] for key in keys]))

    # -- pair terms ----------------------------------------------------------

    def _data_terms(self, means: np.ndarray, sens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-point data fit term and its gradient, (m,) and (m, d), from the
        points' solver outputs (m, N, s) and sensitivities (m, N, s, d)."""
        obs = self.observations[None, :, :]
        prod = np.prod(gaussian_smooth(obs, means, self.sigma), axis=-1)  # (m, N)
        value = np.mean(prod, axis=-1)  # (m,)
        # d/dx of the product: product * sum_s (obs - m_s)/(1 + sigma^2) * dm_s/dx
        scaled = (obs - means) / (1.0 + self.sigma**2)
        inner = np.einsum("mns,mnsd->mnd", scaled, sens)  # (m, N, d)
        grad = np.mean(prod[..., None] * inner, axis=1)
        return value, grad

    def _cross_block(
        self, mx: np.ndarray, sx: np.ndarray, my: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Double-expectation term over all pairs, (m, p), and its gradients
        (m, p, d), from the solver outputs mx (m, N, s) and sensitivities sx
        (m, N, s, d) of the first argument and the outputs my (p, N, s) of
        the second (formulas in the class docstring)."""
        (m, n_obs, s), p = mx.shape, my.shape[0]
        v = 1.0 + 2.0 * self.sigma**2
        # Centred together, so that the gradient's (sum_j a_ij) m_x(t_i) -
        # sum_j a_ij m_y(t_j) cancels on smaller numbers.
        centre = (mx.sum(axis=(0, 1)) + my.sum(axis=(0, 1))) / ((m + p) * n_obs)
        tx = (mx - centre).reshape(m * n_obs, s)
        ty_blocks = my - centre  # (p, N, s)
        ty = ty_blocks.reshape(p * n_obs, s)
        values = np.empty((m, p))
        grads = np.empty((m, p, sx.shape[-1]))
        chunk = max(1, _PAIR_BLOCK_ENTRIES // max(1, p * n_obs * n_obs))
        for lo in range(0, m, chunk):
            hi = min(m, lo + chunk)
            rows = slice(lo * n_obs, hi * n_obs)
            # ||m_x(t_i) - m_y(t_j)||^2 from per-species differences, then
            # a_ij in place.
            a = np.subtract.outer(tx[rows, 0], ty[:, 0])
            a *= a
            for k in range(1, s):
                diff = np.subtract.outer(tx[rows, k], ty[:, k])
                diff *= diff
                a += diff
            a *= -0.5 / v
            np.exp(a, out=a)
            a = a.reshape((hi - lo) * n_obs, p, n_obs)  # rows (x, t_i), (y, t_j)
            weight = a.sum(axis=2)  # sum_j a_ij, (rows, p)
            values[lo:hi] = weight.reshape(hi - lo, n_obs, p).sum(axis=1)
            pulled = np.matmul(a.transpose(1, 0, 2), ty_blocks)  # (p, rows, s)
            inner = weight.T[:, :, None] * tx[rows] - pulled
            inner = inner.reshape(p, hi - lo, n_obs * s).transpose(1, 0, 2)
            grads[lo:hi] = inner @ sx[lo:hi].reshape(hi - lo, n_obs * s, -1)
        pref = v ** (-0.5 * s) / n_obs**2
        values *= pref
        grads *= -pref / v
        return values, grads

    def pair_block(self, xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Pair values (m, p) and first-argument gradients (m, p, d); each
        argument's solver outputs are fetched once."""
        mx, sx = self.prefetch(xs)
        my, sy = self.prefetch(ys)
        cross, cross_grad = self._cross_block(mx, sx, my)
        dx, gx = self._data_terms(mx, sx)
        dy, _ = self._data_terms(my, sy)
        return cross - dx[:, None] - dy[None, :], cross_grad - gx[:, None, :]

    # -- loss contract ---------------------------------------------------------

    def value(self, measure: EmpiricalMeasure) -> float:
        values, _ = self.pair_block(measure.atoms, measure.atoms)
        return float(np.sum(values) / (2.0 * self.lam * measure.n**2))

    def var_grad(self, measure: EmpiricalMeasure, x: np.ndarray) -> np.ndarray:
        xb, single = _batched(x)
        _, grads = self.pair_block(xb, measure.atoms)
        out = np.sum(grads, axis=1) / (measure.n * self.lam)
        return out[0] if single else out
