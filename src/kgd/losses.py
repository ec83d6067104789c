"""Variational losses and their first-variation gradients.

Each loss L maps probability measures to reals and exposes the gradient of
its first variation, var_grad(Q, x) = grad_x L'(Q)(x), which is the only
piece the score construction downstream needs, and, for the particle
gradient, that gradient's vector-Jacobian product at the atoms
(``var_grad_vjp``); greedy selection reads var_grad on each one-point
extension of the atoms (``extension``, by default one var_grad call per
configuration) and the size of the loss's solve cache (``max_cache``, 0
without one). Each loss is one closed form: the quadratic potential, the
quadratic interaction, the mean-field network's empirical risk and the
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
from .models import lv_sensitivities


class VariationalLoss:
    """Contract: a value on empirical measures (optional), var_grad,
    (optional) var_grad_vjp, which feeds the particle gradient, extension
    (default: var_grad per configuration) and max_cache, the points its
    solve cache holds (default 0, no cache)."""

    max_cache = 0

    def value(self, measure: EmpiricalMeasure) -> float:
        raise NotImplementedError(f"{type(self).__name__} has no scalar value")

    def var_grad(self, measure: EmpiricalMeasure, x: np.ndarray) -> np.ndarray:
        """First-variation gradient at the (m, d) points x, shape (m, d)."""
        raise NotImplementedError

    def var_grad_vjp(self, measure: EmpiricalMeasure, u: np.ndarray) -> np.ndarray:
        """sum_i (d var_grad(Q_n, x_i) / d x_m)^T u_i at each atom x_m, shape
        (n, d), for weights u of shape (n, d) on the atom scores."""
        raise NotImplementedError(f"{type(self).__name__} has no var_grad_vjp")

    def extension(self, atoms: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        """``var_grad`` of the configurations that add one point to the (n, d)
        atoms: a function of (m, d) candidates whose row c is var_grad(Q, .)
        at the n + 1 atoms of Q = (atoms, c), the candidate last, (m, n + 1,
        d). Each row is the var_grad call ``gen_score`` makes on Q."""
        def grads(candidates: np.ndarray) -> np.ndarray:
            out = np.empty((candidates.shape[0], atoms.shape[0] + 1, atoms.shape[1]))
            for row, c in zip(out, candidates):
                measure = EmpiricalMeasure(np.vstack([atoms, c[None, :]]))
                row[:] = self.var_grad(measure, measure.atoms)
            return out

        return grads


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


@dataclass
class MeanFieldRegressionLoss(VariationalLoss):
    """Scaled empirical risk of a measure-averaged network predictor.

    L(Q) = (lam / N) sum_l r_l^2 with residuals r_l = y_l - E_Q[Phi(z_l, .)]
    of the two-layer network Phi(z, x) = w2 tanh(w1 z + b1) + b2,
    x = (w1, b1, w2, b2). Every read goes through one fit of the atoms:
    t = tanh(w1 z + b1), shape (n, N), and r, shape (N,). With
    s = 1 - t^2, grad_x Phi(z_l, x) = (w2 s_l z_l, w2 s_l, t_l, 1), so the
    first-variation gradient -(2 lam / N) sum_l r_l grad_x Phi(z_l, x) is
    -(2 lam / N) times the four contractions

        w2 sum_l r_l s_l z_l,   w2 sum_l r_l s_l,   sum_l r_l t_l,   sum_l r_l.

    Off the atoms, t is that of the points and r that of the fit. The
    vector-Jacobian product at atom x_m is

        (2 lam / N) sum_l [a_l grad Phi(z_l, x_m) - r_l Hess Phi(z_l, x_m) u_m],
        a_l = (1/n) sum_i u_i . grad Phi(z_l, x_i)
            = (1/n) sum_i (w2_i s_il q_il + t_il u_i3 + u_i4),

    with q_ml = z_l u_m1 + u_m2, u_m along the pre-activation. As
    Hess Phi(z_l, x_m) u_m = (z_l h_ml, h_ml, s_ml q_ml, 0) with
    h_ml = s_ml (u_m3 - 2 w2_m t_ml q_ml), it is (2 lam / N) times

        sum_l c_ml z_l,   sum_l c_ml,   sum_l (a_l t_ml - r_l s_ml q_ml),   sum_l a_l,

    with c_ml = w2_m s_ml a_l - r_l h_ml: (n, N) arrays and (N,) vectors, and
    one tanh per fit. ``fits`` counts the fits made.
    """

    covariates: np.ndarray  # (N,)
    responses: np.ndarray  # (N,)
    lam: float = 300.0

    def __post_init__(self) -> None:
        z = self.covariates = np.asarray(self.covariates, dtype=float)
        y = self.responses = np.asarray(self.responses, dtype=float)
        if z.shape != y.shape or z.ndim != 1:
            raise ValueError("covariates and responses must be matching 1-d arrays")
        if z.size == 0:
            raise ValueError("covariates and responses must hold at least one data point")
        # The atoms last fitted, with their t and r (``_fit``): a particle
        # gradient reads them for the scores and again for the VJP, and a
        # flow's trace row and its next step score the same atoms through two
        # measures.
        self._fitted: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self.fits = 0

    def _activations(self, x: np.ndarray) -> np.ndarray:
        """t = tanh(w1 z + b1) at (m, 4) parameter points, shape (m, N)."""
        return np.tanh(x[:, 0, None] * self.covariates + x[:, 1, None])

    def _fit(self, measure: EmpiricalMeasure) -> tuple[np.ndarray, np.ndarray]:
        """Activations t at the atoms, (n, N), and residuals r, (N,):
        computed once per set of atoms."""
        atoms = measure.atoms
        if self._fitted is None or not np.array_equal(self._fitted[0], atoms):
            t = self._activations(atoms)
            preds = np.mean(atoms[:, 2, None] * t + atoms[:, 3, None], axis=0)
            self._fitted = (atoms.copy(), t, self.responses - preds)
            self.fits += 1
        return self._fitted[1], self._fitted[2]

    def value(self, measure: EmpiricalMeasure) -> float:
        _, resid = self._fit(measure)
        return float(self.lam / self.covariates.size * np.sum(resid**2))

    def var_grad(self, measure: EmpiricalMeasure, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        t, resid = self._fit(measure)
        if not np.array_equal(x, measure.atoms):
            t = self._activations(x)
        # Row sums, not matrix products: a point's score is then bitwise the
        # same in any batch.
        rs = resid * (1.0 - t**2)  # (m, N)
        w2 = x[:, 2]
        out = np.stack([
            w2 * np.sum(rs * self.covariates, axis=1),
            w2 * np.sum(rs, axis=1),
            np.sum(resid * t, axis=1),
            np.full(x.shape[0], np.sum(resid)),
        ], axis=1)
        out *= -2.0 * self.lam / self.covariates.size
        return out

    def var_grad_vjp(self, measure: EmpiricalMeasure, u: np.ndarray) -> np.ndarray:
        atoms, z = measure.atoms, self.covariates
        t, resid = self._fit(measure)  # (n, N), (N,)
        w2 = atoms[:, 2, None]
        s = 1.0 - t**2
        q = z * u[:, 0, None] + u[:, 1, None]  # (n, N)
        along = np.sum(w2 * s * q + t * u[:, 2, None] + u[:, 3, None], axis=0) / measure.n  # a_l
        c = w2 * s * along - resid * s * (u[:, 2, None] - 2.0 * w2 * t * q)  # c_ml
        out = np.stack([
            np.sum(c * z, axis=1),
            np.sum(c, axis=1),
            np.sum(along * t - resid * s * q, axis=1),
            np.full(measure.n, np.sum(along)),
        ], axis=1)
        out *= 2.0 * self.lam / self.covariates.size
        return out


def gaussian_smooth(obs: np.ndarray, mean: np.ndarray, sigma: float) -> np.ndarray:
    """E[exp(-(obs - Y)^2 / 2)] for Y ~ N(mean, sigma^2), elementwise."""
    v = 1.0 + sigma**2
    diff = np.asarray(obs, dtype=float) - np.asarray(mean, dtype=float)
    return v**-0.5 * np.exp(-(diff**2) / (2.0 * v))


def _overlap(x: np.ndarray, y: np.ndarray, v: float) -> np.ndarray:
    """exp(-||x - y||^2 / (2 v)) over the last axis of arrays that broadcast
    against each other, built in place from per-species differences."""
    a = np.subtract(x[..., 0], y[..., 0])
    a *= a
    for k in range(1, x.shape[-1]):
        diff = np.subtract(x[..., k], y[..., k])
        diff *= diff
        a += diff
        del diff  # freed before the next one: at most two blocks live
    a *= -0.5 / v
    return np.exp(a, out=a)


# Entries of the (rows, p, N, N) overlap array of one row chunk of a
# predictive pair block: 32 MB.
_PAIR_BLOCK_ENTRIES = 4_000_000
# Entries of a (rows, p, N, N) or (rows, N, N) overlap array of one chunk of
# candidates in ``extension``: 0.25 MB. A block holds two such arrays at once,
# so a chunk's temporaries stay under the solve of the candidates at
# lv-compare's shape.
_EXTENSION_ENTRIES = 32_768


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

    The double-expectation term is one double sum over observation times,
    ``_pair_sums``, on (N, s) trajectories stacked over leading axes that
    broadcast: (rows, 1) against (p,) in a pair block, (m,) against itself
    in a self-pair block. With the trajectories m_x(t_i) of the first
    argument and m_y(t_j) of the second centred,

        a_ij = exp(-||m_x(t_i) - m_y(t_j)||^2 / (2 v)),  v = 1 + 2 sigma^2,

    takes s outer differences and one ``exp`` into an (..., N, N) array. The
    pair value is v^(-s/2) / N^2 sum_ij a_ij, and its gradient in x is

        -v^(-s/2) / (v N^2) sum_i S_x(t_i)^T [(sum_j a_ij) m_x(t_i)
                                              - sum_j a_ij m_y(t_j)]

    with S_x the (s, d) sensitivity of m_x: the inner sums are one batched
    product of a with the m_y, the outer sum one batched product of the
    (1, N s) bracket with the (N s, d) sensitivities. The squared distances
    are not taken from the product form |m_x|^2 + |m_y|^2 - 2 m_x.m_y:
    populations reach a few hundred, and the cancellation there moves the
    gradients by about 4e-13 of their largest entry, against 1e-14 for the
    differences. A pair block centres both arguments on their common mean
    and takes rows in chunks that keep the (rows, p, N, N) array within
    ``_PAIR_BLOCK_ENTRIES``. ``self_pair_block`` gives the diagonal
    pair(x, x) alone, from (m, N, N) arrays, each trajectory centred on its
    own mean.

    A configuration that adds one point c to n atoms scores its atoms from
    sums the atoms already have: with S_i = sum_j grad_1 pair(x_i, x_j) over
    the atoms,

        var_grad at x_i = (S_i + grad_1 pair(x_i, c)) / ((n + 1) lam),
        var_grad at c   = (sum_j grad_1 pair(c, x_j) + grad_1 pair(c, c))
                          / ((n + 1) lam),

    so ``extension`` scores a whole candidate set from two cross blocks with
    the atoms and one self-pair block, in the order of the sums ``var_grad``
    takes over the configuration.

    Solver outputs and sensitivities are cached per parameter point, so
    repeated evaluations at the same atoms (samplers, greedy search) only
    pay for the kernel algebra. ``prefetch`` solves every distinct uncached
    point in one batched call. The cache holds at most ``max_cache`` points
    and is cleared when a solve would overfill it; ``cache_hits``,
    ``cache_misses`` (requested points not in the cache) and ``cache_clears``
    count its use, ``n_solves`` the points passed to the solver and
    ``solver_calls`` the calls that passed them, the unit of solver cost.
    ``pair_blocks`` counts the pair-block calls, self-pair blocks included.
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
    max_cache = 20000

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=float)
        self.observations = np.asarray(self.observations, dtype=float)
        if self.observations.ndim != 2 or self.observations.shape[0] != self.times.size:
            raise ValueError("observations must be an (N, s) array aligned with times")
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
        self.pair_blocks = 0

    # -- solver plumbing ----------------------------------------------------

    def prefetch(self, points: np.ndarray) -> None:
        """Solve the distinct uncached points of (m, d) points in one call; cache what fits."""
        self._lookup(points)

    def _solver_outputs(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Solver outputs for (m, d) points as stacks (m, N, s), (m, N, s, d)."""
        means, sens = zip(*self._lookup(points))
        return np.stack(means), np.stack(sens)

    def _lookup(self, points: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """Each point's solver outputs: cached, or from one batched solve of
        the distinct missing points, returned even if the cache is full."""
        pts = np.asarray(points, dtype=float)
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
        return [found[key] for key in keys]

    # -- pair terms ----------------------------------------------------------

    def _data_fit(self, means: np.ndarray) -> np.ndarray:
        """Per-point, per-time data fit, (m, N), from the points' solver
        outputs (m, N, s); its mean over times is the data term."""
        obs = self.observations[None, :, :]
        return np.prod(gaussian_smooth(obs, means, self.sigma), axis=-1)

    def _data_terms(self, means: np.ndarray, sens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-point data term and its gradient, (m,) and (m, d), from the
        points' solver outputs (m, N, s) and sensitivities (m, N, s, d)."""
        prod = self._data_fit(means)
        # d/dx of the product: product * sum_s (obs - m_s)/(1 + sigma^2) * dm_s/dx
        scaled = (self.observations[None, :, :] - means) / (1.0 + self.sigma**2)
        inner = np.einsum("mns,mnsd->mnd", scaled, sens)  # (m, N, d)
        return np.mean(prod, axis=-1), np.mean(prod[..., None] * inner, axis=1)

    def _pair_sums(
        self, tx: np.ndarray, sx: np.ndarray, ty: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Double-expectation term (...) and its gradient in x (..., d) from
        stacks that broadcast over their leading axes: the centred outputs tx
        (..., N, s) and sensitivities sx (..., N, s, d) of the first argument
        and the centred outputs ty (..., N, s) of the second (formulas in the
        class docstring)."""
        *_, n_obs, s = tx.shape
        v = 1.0 + 2.0 * self.sigma**2
        a = _overlap(tx[..., :, None, :], ty[..., None, :, :], v)  # (..., N, N)
        weight = a.sum(axis=-1)  # sum_j a_ij, (..., N)
        inner = weight[..., None] * tx - a @ ty  # (..., N, s)
        pref = v ** (-0.5 * s) / n_obs**2
        # sum_i S_x(t_i)^T inner_i as one product over the (t_i, species) pairs
        grads = (inner.reshape(*inner.shape[:-2], 1, n_obs * s)
                 @ sx.reshape(*sx.shape[:-3], n_obs * s, -1))
        return pref * weight.sum(axis=-1), (-pref / v) * grads[..., 0, :]

    def pair_block(self, xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Pair values (m, p) and first-argument gradients (m, p, d); each
        argument's solver outputs are fetched once."""
        mx, sx = self._solver_outputs(xs)
        my, _ = self._solver_outputs(ys)
        self.pair_blocks += 1
        (m, n_obs, _), p = mx.shape, my.shape[0]
        # Centred together, so that the gradient's (sum_j a_ij) m_x(t_i) -
        # sum_j a_ij m_y(t_j) cancels on smaller numbers.
        centre = (mx.sum(axis=(0, 1)) + my.sum(axis=(0, 1))) / ((m + p) * n_obs)
        tx, ty = mx - centre, my - centre
        cross = np.empty((m, p))
        cross_grad = np.empty((m, p, sx.shape[-1]))
        chunk = max(1, _PAIR_BLOCK_ENTRIES // max(1, p * n_obs * n_obs))
        for lo in range(0, m, chunk):
            cross[lo:lo + chunk], cross_grad[lo:lo + chunk] = self._pair_sums(
                tx[lo:lo + chunk, None], sx[lo:lo + chunk, None], ty)
        dx, gx = self._data_terms(mx, sx)
        dy = np.mean(self._data_fit(my), axis=-1)
        return cross - dx[:, None] - dy[None, :], cross_grad - gx[:, None, :]

    def self_pair_block(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Self-pair values pair(x, x), (m,), and first-argument gradients
        grad_1 pair(x, x), (m, d): the diagonal of ``pair_block(xs, xs)``,
        from (m, N, N) arrays, each trajectory centred on its own mean."""
        mx, sx = self._solver_outputs(xs)
        self.pair_blocks += 1
        t = mx - mx.mean(axis=1, keepdims=True)
        cross, cross_grad = self._pair_sums(t, sx, t)
        dx, gx = self._data_terms(mx, sx)
        return cross - dx - dx, cross_grad - gx

    def extension(self, atoms: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        """``VariationalLoss.extension`` from the atoms' sums (class
        docstring).

        The sums S are taken once, here; each call takes the two cross
        blocks and the self-pair block in chunks of candidates that keep
        every (rows N, p N) or (rows, N, N) array within
        ``_EXTENSION_ENTRIES`` entries.
        """
        n, d = atoms.shape
        placed = self.pair_block(atoms, atoms)[1].sum(axis=1) if n else None
        chunk = max(1, _EXTENSION_ENTRIES // (max(n, 1) * self.times.size**2))

        def grads(candidates: np.ndarray) -> np.ndarray:
            out = np.empty((candidates.shape[0], n + 1, d))
            for lo in range(0, candidates.shape[0], chunk):
                block = candidates[lo:lo + chunk]
                rows = out[lo:lo + chunk]
                _, self_grad = self.self_pair_block(block)
                if n:
                    rows[:, :n] = placed + self.pair_block(atoms, block)[1].transpose(1, 0, 2)
                    rows[:, n] = self.pair_block(block, atoms)[1].sum(axis=1) + self_grad
                else:
                    rows[:, n] = self_grad
            out /= (n + 1) * self.lam
            return out

        return grads

    # -- loss contract ---------------------------------------------------------

    def value(self, measure: EmpiricalMeasure) -> float:
        values, _ = self.pair_block(measure.atoms, measure.atoms)
        return float(np.sum(values) / (2.0 * self.lam * measure.n**2))

    def var_grad(self, measure: EmpiricalMeasure, x: np.ndarray) -> np.ndarray:
        _, grads = self.pair_block(x, measure.atoms)
        return np.sum(grads, axis=1) / (measure.n * self.lam)
