"""Variational losses and their first-variation gradients.

Each loss L maps probability measures to reals and exposes the gradient of
its first variation, var_grad(Q, x) = grad_x L'(Q)(x), which is the only
piece the score construction downstream needs. Losses evaluated on empirical
measures additionally satisfy the finite-particle identity

    var_grad(Q_n, x_i) = n * d/dx_i L(x_1, ..., x_n),

which ``euclid_identity_check`` verifies against central finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import EmpiricalMeasure
from .models import lv_sensitivities, mfnn_forward, mfnn_grad
from .oracles import fd_gradient


class VariationalLoss:
    """Contract: a value on empirical measures (optional) and var_grad.

    ``has_value`` guards ``value``; ``has_second_order`` guards
    ``var_grad_jacobian``, which feeds the analytic particle-gradient route.
    """

    has_value: bool = False
    has_second_order: bool = False

    def value(self, measure: EmpiricalMeasure) -> float:
        raise NotImplementedError

    def var_grad(self, measure: EmpiricalMeasure, x: np.ndarray) -> np.ndarray:
        """First-variation gradient at x; accepts (d,) or (m, d) inputs."""
        raise NotImplementedError

    def var_grad_jacobian(
        self, measure: EmpiricalMeasure
    ) -> tuple[np.ndarray, np.ndarray]:
        """Derivative blocks of the atom scores with respect to atom moves.

        Returns (diag, cross) with shapes (n, d, d) and (n, n, d, d) such
        that d var_grad(Q_n, x_i) / d x_m = 1[i == m] diag[i] + cross[i, m].
        """
        raise NotImplementedError


def _batched(x: np.ndarray) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return x[None, :], True
    return x, False


@dataclass(frozen=True)
class ZeroLoss(VariationalLoss):
    """L(Q) = 0; the objective reduces to the entropy term alone."""

    has_value = True
    has_second_order = True

    def value(self, measure: EmpiricalMeasure) -> float:
        return 0.0

    def var_grad(self, measure: EmpiricalMeasure, x: np.ndarray) -> np.ndarray:
        return np.zeros_like(np.asarray(x, dtype=float))

    def var_grad_jacobian(self, measure: EmpiricalMeasure) -> tuple[np.ndarray, np.ndarray]:
        n, d = measure.n, measure.dim
        return np.zeros((n, d, d)), np.zeros((n, n, d, d))


@dataclass(frozen=True)
class LinearLoss(VariationalLoss):
    """L(Q) = integral of u dQ for a fixed potential u.

    The first variation is u itself, so var_grad is grad u and does not
    depend on Q. ``grad_u`` must map (m, d) arrays to (m, d); ``hess_u``
    (optional, per point) enables the analytic second-order route.
    """

    u: Callable[[np.ndarray], np.ndarray]
    grad_u: Callable[[np.ndarray], np.ndarray]
    hess_u: Callable[[np.ndarray], np.ndarray] | None = None

    has_value = True

    @property
    def has_second_order(self) -> bool:  # type: ignore[override]
        return self.hess_u is not None

    @classmethod
    def quadratic(cls, center: np.ndarray, weights: np.ndarray) -> "LinearLoss":
        """u(x) = (1/2) sum_k weights_k (x_k - center_k)^2."""
        center = np.asarray(center, dtype=float)
        weights = np.asarray(weights, dtype=float)
        return cls(
            u=lambda x: 0.5 * np.sum(weights * (x - center) ** 2, axis=-1),
            grad_u=lambda x: weights * (x - center),
            hess_u=lambda x: np.diag(weights),
        )

    def value(self, measure: EmpiricalMeasure) -> float:
        return float(np.mean(self.u(measure.atoms)))

    def var_grad(self, measure: EmpiricalMeasure, x: np.ndarray) -> np.ndarray:
        xb, single = _batched(x)
        out = np.asarray(self.grad_u(xb), dtype=float)
        return out[0] if single else out

    def var_grad_jacobian(self, measure: EmpiricalMeasure) -> tuple[np.ndarray, np.ndarray]:
        if self.hess_u is None:
            raise NotImplementedError("no Hessian supplied for this potential")
        n, d = measure.n, measure.dim
        diag = np.stack([self.hess_u(a) for a in measure.atoms])
        return diag, np.zeros((n, n, d, d))


@dataclass(frozen=True)
class InteractionLoss(VariationalLoss):
    """Pairwise interaction energy L(Q) = double integral of w dQ dQ.

    ``pair_value`` must be symmetric in its two point sets. For symmetric w
    the first-variation gradient at x is (2/n) sum_j grad_1 w(x, x_j). The
    optional second-order blocks are the pair Hessians grad_1 grad_1 w and
    grad_2 grad_1 w, each mapping (n, d), (m, d) to (n, m, d, d).
    """

    pair_value: Callable[[np.ndarray, np.ndarray], np.ndarray]
    pair_grad1: Callable[[np.ndarray, np.ndarray], np.ndarray]
    pair_grad11: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    pair_grad12: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None

    has_value = True

    @property
    def has_second_order(self) -> bool:  # type: ignore[override]
        return self.pair_grad11 is not None and self.pair_grad12 is not None

    @classmethod
    def quadratic(cls) -> "InteractionLoss":
        """w(x, y) = ||x - y||^2 / 2, the attractive quadratic interaction."""

        def value(x: np.ndarray, y: np.ndarray) -> np.ndarray:
            return 0.5 * np.sum((x[:, None, :] - y[None, :, :]) ** 2, axis=-1)

        def grad1(x: np.ndarray, y: np.ndarray) -> np.ndarray:
            return x[:, None, :] - y[None, :, :]

        def grad11(x: np.ndarray, y: np.ndarray) -> np.ndarray:
            d = x.shape[-1]
            return np.broadcast_to(np.eye(d), (x.shape[0], y.shape[0], d, d))

        def grad12(x: np.ndarray, y: np.ndarray) -> np.ndarray:
            d = x.shape[-1]
            return np.broadcast_to(-np.eye(d), (x.shape[0], y.shape[0], d, d))

        return _QuadraticInteraction(value, grad1, grad11, grad12)

    def value(self, measure: EmpiricalMeasure) -> float:
        w = self.pair_value(measure.atoms, measure.atoms)
        return float(np.sum(w) / measure.n**2)

    def var_grad(self, measure: EmpiricalMeasure, x: np.ndarray) -> np.ndarray:
        xb, single = _batched(x)
        g = np.asarray(self.pair_grad1(xb, measure.atoms), dtype=float)  # (m, n, d)
        out = 2.0 * np.mean(g, axis=1)
        return out[0] if single else out

    def var_grad_jacobian(self, measure: EmpiricalMeasure) -> tuple[np.ndarray, np.ndarray]:
        if not self.has_second_order:
            raise NotImplementedError("pair Hessians not supplied")
        atoms = measure.atoms
        n = measure.n
        w11 = np.asarray(self.pair_grad11(atoms, atoms), dtype=float)  # (n, n, d, d)
        w12 = np.asarray(self.pair_grad12(atoms, atoms), dtype=float)
        diag = 2.0 * np.mean(w11, axis=1)
        cross = (2.0 / n) * w12
        return diag, cross


@dataclass(frozen=True)
class _QuadraticInteraction(InteractionLoss):
    """The quadratic interaction, whose score has the closed form
    (2/n) sum_j (x - x_j) = 2 (x - mean of the atoms)."""

    def var_grad(self, measure: EmpiricalMeasure, x: np.ndarray) -> np.ndarray:
        return 2.0 * (np.asarray(x, dtype=float) - measure.atoms.mean(axis=0))


@dataclass(frozen=True)
class MeanFieldRegressionLoss(VariationalLoss):
    """Scaled empirical risk of a measure-averaged network predictor.

    L(Q) = (lam / N) sum_i (y_i - E_Q[Phi(z_i, .)])^2 with Phi the two-layer
    network from the models module. The first-variation gradient at x is
    -(2 lam / N) sum_i (y_i - E_Q[Phi(z_i, .)]) grad_x Phi(z_i, x).
    """

    covariates: np.ndarray  # (N,)
    responses: np.ndarray  # (N,)
    lam: float = 300.0

    has_value = True

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

    def var_grad(self, measure: EmpiricalMeasure, x: np.ndarray) -> np.ndarray:
        xb, single = _batched(x)
        resid = self.responses - self.predictions(measure)  # (N,)
        grads = mfnn_grad(xb, self.covariates)  # (m, N, 4)
        out = -(2.0 * self.lam / self.covariates.size) * np.einsum(
            "i,mip->mp", resid, grads
        )
        return out[0] if single else out


def gaussian_overlap(a: np.ndarray, b: np.ndarray, sigma: float) -> np.ndarray:
    """E[exp(-(Y - Y')^2 / 2)] for independent Y ~ N(a, sigma^2), Y' ~ N(b, sigma^2).

    Closed form (1 + 2 sigma^2)^(-1/2) exp(-(a - b)^2 / (2 (1 + 2 sigma^2))),
    elementwise over broadcast inputs.
    """
    v = 1.0 + 2.0 * sigma**2
    diff = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    return v**-0.5 * np.exp(-(diff**2) / (2.0 * v))


def gaussian_smooth(obs: np.ndarray, mean: np.ndarray, sigma: float) -> np.ndarray:
    """E[exp(-(obs - Y)^2 / 2)] for Y ~ N(mean, sigma^2), elementwise."""
    v = 1.0 + sigma**2
    diff = np.asarray(obs, dtype=float) - np.asarray(mean, dtype=float)
    return v**-0.5 * np.exp(-(diff**2) / (2.0 * v))


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

    Solver outputs and sensitivities are cached per parameter point, so
    repeated evaluations at the same atoms (samplers, greedy search) only
    pay for the kernel algebra. ``prefetch`` fills the cache in one batched
    solve.
    """

    times: np.ndarray  # (N,)
    observations: np.ndarray  # (N, s)
    sigma: float = 1.0
    lam: float | None = None
    solver: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]] = field(
        default=None  # type: ignore[assignment]
    )
    max_cache: int = 20000

    has_value = True

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

    # -- solver plumbing ----------------------------------------------------

    def prefetch(self, points: np.ndarray) -> None:
        """Solve for all uncached points in one batched call."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[None, :]
        missing = [p for p in pts if p.tobytes() not in self._cache]
        if not missing:
            return
        batch = np.stack(missing)
        means, sens = self.solver(batch, self.times)
        self.n_solves += len(missing)
        if len(self._cache) + len(missing) > self.max_cache:
            self._cache.clear()
        for p, m, s in zip(missing, means, sens):
            self._cache[p.tobytes()] = (m, s)

    def _solved(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Cached (means, sens) stacks for (m, d) points: (m, N, s), (m, N, s, d)."""
        self.prefetch(points)
        means = []
        sens = []
        for p in points:
            m, s = self._cache[p.tobytes()]
            means.append(m)
            sens.append(s)
        return np.stack(means), np.stack(sens)

    # -- pair terms ----------------------------------------------------------

    def _data_terms(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-point data fit term and its gradient: (m,), (m, d)."""
        means, sens = self._solved(points)  # (m, N, s), (m, N, s, d)
        w = 1.0 + self.sigma**2
        diff = self.observations[None, :, :] - means  # (m, N, s)
        per_species = w**-0.5 * np.exp(-(diff**2) / (2.0 * w))
        prod = np.prod(per_species, axis=-1)  # (m, N)
        value = np.mean(prod, axis=-1)  # (m,)
        # d/dx of the product: product * sum_s (obs - m_s)/w * dm_s/dx
        inner = np.einsum("mns,mnsd->mnd", diff / w, sens)  # (m, N, d)
        grad = np.mean(prod[..., None] * inner, axis=1)
        return value, grad

    def _cross_block(
        self, xs: np.ndarray, ys: np.ndarray, need_grad: bool
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Double-expectation term over all pairs: (m, p) and gradients (m, p, d)."""
        mx, sx = self._solved(xs)
        my, _ = self._solved(ys)
        n_obs = self.times.size
        v = 1.0 + 2.0 * self.sigma**2
        pref = v ** (-0.5 * self.observations.shape[1])
        m, p = mx.shape[0], my.shape[0]
        d = xs.shape[1]
        values = np.empty((m, p))
        grads = np.empty((m, p, d)) if need_grad else None
        # Chunk over rows to bound the (rows, p, N, N) working set.
        chunk = max(1, int(4e6 // max(1, p * n_obs * n_obs)))
        for lo in range(0, m, chunk):
            hi = min(m, lo + chunk)
            diff = mx[lo:hi, None, :, None, :] - my[None, :, None, :, :]  # (c,p,N,N,s)
            a = pref * np.exp(-np.sum(diff**2, axis=-1) / (2.0 * v))  # (c,p,N,N)
            values[lo:hi] = np.sum(a, axis=(-1, -2)) / n_obs**2
            if need_grad:
                # d/dx a = a * (-1/v) sum_s diff_s * dm_s(x, t_i)/dx
                inner = np.einsum("cpijs,cisd->cpijd", diff, sx[lo:hi]) / v
                grads[lo:hi] = -np.einsum("cpij,cpijd->cpd", a, inner) / n_obs**2
        return values, grads

    def pair_block(
        self, xs: np.ndarray, ys: np.ndarray, need_grad: bool = True
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Pair values (m, p) and first-argument gradients (m, p, d)."""
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        cross, cross_grad = self._cross_block(xs, ys, need_grad)
        dx, gx = self._data_terms(xs)
        dy, _ = self._data_terms(ys)
        values = cross - dx[:, None] - dy[None, :]
        if not need_grad:
            return values, None
        grads = cross_grad - gx[:, None, :]
        return values, grads

    def pair_terms(self, x: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
        """Pair value and its gradient in the first argument, one pair."""
        values, grads = self.pair_block(
            np.asarray(x, dtype=float)[None, :], np.asarray(y, dtype=float)[None, :]
        )
        assert grads is not None
        return float(values[0, 0]), grads[0, 0]

    # -- loss contract ---------------------------------------------------------

    def value(self, measure: EmpiricalMeasure) -> float:
        values, _ = self.pair_block(measure.atoms, measure.atoms, need_grad=False)
        return float(np.sum(values) / (2.0 * self.lam * measure.n**2))

    def var_grad(self, measure: EmpiricalMeasure, x: np.ndarray) -> np.ndarray:
        xb, single = _batched(x)
        _, grads = self.pair_block(xb, measure.atoms)
        assert grads is not None
        out = np.sum(grads, axis=1) / (measure.n * self.lam)
        return out[0] if single else out


def euclid_identity_check(
    loss: VariationalLoss,
    measure: EmpiricalMeasure,
    index: int,
    base_step: float = 1e-5,
) -> float:
    """Max-norm residual of var_grad against n times the finite-difference
    gradient of the particle objective in atom ``index``."""
    if not loss.has_value:
        raise ValueError("identity check needs a loss with a scalar value")
    atoms = measure.atoms

    def objective(xi: np.ndarray) -> float:
        moved = atoms.copy()
        moved[index] = xi
        return loss.value(EmpiricalMeasure(moved))

    fd = fd_gradient(objective, atoms[index], base_step)
    vg = loss.var_grad(measure, atoms[index])
    return float(np.max(np.abs(vg - measure.n * fd)))
