"""Kernel gradient discrepancy: generalised scores, Stein kernel assembly,
and the V- and U-statistic estimators.

The generalised score of an empirical measure Q_n is

    b(x) = grad log q0(x) - var_grad(Q_n, x),

and the Stein kernel built from a scalar kernel k is

    h(x, y) = trace12 k + grad1 k . b(y) + grad2 k . b(x) + k b(x) . b(y).

Averaging h over all atom pairs (V-statistic) or off-diagonal pairs
(U-statistic) gives the squared discrepancy estimates.

``stein_gram`` (the Gram matrix of h over the atoms, for the tests,
``kgd self-check`` and ``stein_kernel_eval``) and ``stein_drift`` (the flow
velocity (1/n) sum_j [k(x_j, x_i) b(x_j) + grad_1 k(x_j, x_i)])
are built from n x n and (n, d) arrays only, for every kernel, through the
tilt identity. ``kernel.terms()`` writes k as a sum of terms
coef * w(x) g(x, y) w(y) with g radial or linear; for each, with
b~ = b + grad log w,

    h_k^b(x_i, x_j) = w_i w_j h_g^{b~}(x_i, x_j),
    drift_k(x_i)    = w_i (1/n) sum_j w_j [g(x_j, x_i) b~_j + grad_1 g(x_j, x_i)],

and both are linear in k, so the terms add. For a radial g = phi(s), with X
the centred atoms, B the (shifted) scores, s_ij = ||x_i - x_j||^2 and
G = X B^T, the Stein Gram and n times the weighted drift of g are

    h = -2 d phi'(s) - 4 s phi''(s) + 2 phi'(s) (G + G^T - G_ii - G_jj)
        + phi(s) B B^T,
    n drift = phi (w B) + 2 phi' (w X) - 2 (phi' w) X,

where (w B) scales row j by w_j. The atoms are centred first because every
radial term is translation-invariant but the product form of s and G is
not: on a cloud far from the origin it subtracts large, nearly equal
numbers. For the linear g = c^2 + x.y, with beta the (shifted) scores,

    h = d + x_i.beta_i + x_j.beta_j + (c^2 + X X^T) o beta beta^T,
    n drift = c^2 sum_j w_j beta_j + X X^T (w beta) + (sum_j w_j) X.

Every kernel, the weighted matrix kernel K = kappa I included, enters
through the one ``ScalarKernel`` interface: the Stein kernel of K is the
scalar Stein kernel of kappa. ``kernel.pairwise``, the derivative
definition, is not read here.

The estimators (``kgd_v_squared``, ``kgd_u_squared``, ``clt_scaling_study``)
need only sum_ij h and the trace, and get both without the Gram. Per term,
with b the shifted scores b~, c_i = x_i.b_i on the centred atoms and
(phi' w)_i = sum_j phi'_ij w_j, a radial core gives

    sum_ij w_i w_j h_ij = sum_i w_i [4 x_i.(phi' wB)_i - (4 c_i + 2 d) (phi' w)_i
                                     - 4 ((s o phi'') w)_i + b_i.(phi wB)_i],

read from phi, phi' and phi'' on (256, n) slabs of rows: three slab
products per block, so memory grows like 256 n, not n^2. The linear core
needs no n x n array at all:

    sum_ij w_i w_j h_ij = d (sum_i w_i)^2 + 2 (sum_i w_i) (sum_i w_i x_i.beta_i)
                          + c^2 ||beta^T w||^2 + ||X^T diag(w) beta||_F^2.

The diagonal is closed-form: w_i^2 (-2 d phi'(0) + phi(0) ||b_i||^2) for a
radial core, w_i^2 (d + 2 x_i.beta_i + (c^2 + ||x_i||^2) ||beta_i||^2) for
the linear one. A non-finite sum falls back to ``stein_gram``, whose error
names the first non-finite entry.

``particle_grad`` differentiates n^2 V in the atoms from the n x n arrays.
The scores move through grad log q0 and ``loss.var_grad_vjp``, weighted by
d(n^2 V)/db = 2 n ``stein_drift``. With scores fixed, each term moves through
its core (2 w_i sum_j w_j dh_ij/dx_i), through w (the row sums 2 (H w)_i) and
through b~ (Hess log w times 2 w_i times the core's drift). The U-statistic
also drops the diagonal w_i^2 h(x_i, x_i) above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import DiagonalGaussian, EmpiricalMeasure, seeded_stream
from .losses import VariationalLoss

# Rows per block of the Gram-free sums: a block holds a few (256, n) slabs,
# so their memory grows like n, not n^2.
_BLOCK = 256


def gen_score(
    ref: DiagonalGaussian,
    loss: VariationalLoss,
    measure: EmpiricalMeasure,
    x: np.ndarray,
) -> np.ndarray:
    """Generalised score b(x); accepts (d,) or (m, d) and matches the shape."""
    return ref.log_grad(x) - loss.var_grad(measure, x)


def _tilt(tilts: tuple, atoms: np.ndarray, scores: np.ndarray):
    """Product weight w over the atoms and the shifted scores b + grad log w."""
    w = np.ones(atoms.shape[0])
    shifted = scores
    for tilt in tilts:
        w = w * tilt.weight(atoms)
        shifted = shifted + tilt.log_weight_grad(atoms)
    return w, shifted


def _radial_profile(kernel, atoms: np.ndarray, order: int = 3):
    """Centred atoms, squared distances and the profile derivatives up to
    ``order``."""
    x = atoms - atoms.mean(axis=0)
    norms = np.einsum("id,id->i", x, x)
    sq = -2.0 * (x @ x.T)
    sq += np.add.outer(norms, norms)
    np.maximum(sq, 0.0, out=sq)
    np.fill_diagonal(sq, 0.0)
    return x, sq, kernel.profile(sq, order)


def _radial_gram(x: np.ndarray, sq: np.ndarray, profile, scores: np.ndarray) -> np.ndarray:
    """Stein Gram of a radial kernel from n x n products (see module docstring),
    given ``_radial_profile``'s centred atoms, squared distances and profile.

    The n x n arrays are updated in place where the formula allows: at large
    n each temporary costs about as much as the arithmetic that fills it.
    Each update keeps a symmetric array bitwise symmetric (c_i + c_j is one
    outer sum, not two updates), so h is as symmetric as x x^T and B B^T.
    """
    phi, dphi, d2phi = profile[:3]
    g = x @ scores.T
    c = np.diagonal(g)
    # h = 2 phi' (G + G^T - c_i - c_j - d) - 4 s phi'' + phi B B^T
    h = g + g.T
    h -= np.add.outer(c, c)
    h -= x.shape[1]
    h *= 2.0 * dphi
    curv = sq * d2phi
    curv *= 4.0
    h -= curv
    bb = scores @ scores.T
    bb *= phi
    h += bb
    return h


def _radial_drift(x: np.ndarray, profile, scores: np.ndarray, w: np.ndarray) -> np.ndarray:
    """n times the drift of a radial kernel with atom weights w."""
    phi, dphi = profile[:2]
    return phi @ (w[:, None] * scores) + 2.0 * (
        dphi @ (w[:, None] * x) - (dphi @ w)[:, None] * x
    )


def _linear_gram(kernel, atoms: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """Stein Gram of the linear kernel c^2 + x.y."""
    xb = np.einsum("id,id->i", atoms, scores)
    h = atoms @ atoms.T
    h += kernel.c**2
    h *= scores @ scores.T
    h += np.add.outer(xb, xb)
    h += atoms.shape[1]
    return h


def _linear_drift(kernel, atoms: np.ndarray, scores: np.ndarray, w: np.ndarray) -> np.ndarray:
    """n times the drift of the linear kernel c^2 + x.y with atom weights w."""
    wb = w[:, None] * scores
    return kernel.c**2 * wb.sum(axis=0) + atoms @ (atoms.T @ wb) + w.sum() * atoms


def _radial_grad(x: np.ndarray, sq: np.ndarray, profile, scores: np.ndarray, w: np.ndarray):
    """n x the positional sum_j w_j d h_ij / d x_i of a radial Stein Gram, with
    the derivatives of h_ii in b_i and in x_i."""
    phi, dphi, d2phi, d3phi = profile
    g = x @ scores.T
    c = np.diagonal(g)
    rb = g + g.T - np.add.outer(c, c)  # (x_i - x_j).(b_j - b_i)
    # d h_ij / d x_i = a_ij (x_i - x_j) + 2 phi'_ij (b_j - b_i)
    a = -(4.0 * x.shape[1] + 8.0) * d2phi - 8.0 * sq * d3phi
    a += 4.0 * d2phi * rb + 2.0 * dphi * (scores @ scores.T)
    a *= w
    dw = dphi @ w
    pos = a.sum(axis=1)[:, None] * x - a @ x
    pos += 2.0 * (dphi @ (w[:, None] * scores) - dw[:, None] * scores)
    return pos, 2.0 * np.diagonal(phi)[:, None] * scores, 0.0


def _linear_grad(kernel, atoms: np.ndarray, scores: np.ndarray, w: np.ndarray):
    """As ``_radial_grad``, for the linear kernel c^2 + x.y."""
    pos = w.sum() * scores + (scores @ scores.T) @ (w[:, None] * atoms)
    norms = kernel.c**2 + np.einsum("id,id->i", atoms, atoms)
    beta2 = np.einsum("id,id->i", scores, scores)
    return pos, 2.0 * (atoms + norms[:, None] * scores), 2.0 * (scores + beta2[:, None] * atoms)


def _radial_sums(kernel, atoms: np.ndarray, scores: np.ndarray, w: np.ndarray):
    """sum_ij w_i w_j h_ij and sum_i w_i^2 h_ii of a radial core's Stein
    kernel, from (block, n) slabs of the profile (see module docstring)."""
    n, d = atoms.shape
    x = atoms - atoms.sum(axis=0) / n
    norms = np.einsum("id,id->i", x, x)
    wb = w[:, None] * scores
    # The phi' terms of row i are <left_i, (phi' @ right)_i>, with
    # left = 4 w [X | -(c + d/2)] and right = [wB | w].
    c = np.einsum("id,id->i", x, scores)
    left = 4.0 * w[:, None] * np.concatenate([x, -(c + 0.5 * d)[:, None]], axis=1)
    right = np.concatenate([wb, w[:, None]], axis=1)
    slab = np.empty((min(_BLOCK, n), n))  # squared distances, reused by every block
    total = 0.0
    for lo in range(0, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        sq = slab[: hi - lo]
        np.matmul(x[lo:hi], x.T, out=sq)
        sq *= -2.0
        sq += norms[lo:hi, None]
        sq += norms
        np.maximum(sq, 0.0, out=sq)
        np.fill_diagonal(sq[:, lo:hi], 0.0)
        phi, dphi, d2phi = kernel.profile(sq, 2)
        sq *= d2phi
        total += np.vdot(left[lo:hi], dphi @ right) + np.vdot(wb[lo:hi], phi @ wb)
        total -= 4.0 * (w[lo:hi] @ (sq @ w))
    # phi(0) and phi'(0): the last block's first row has its zeroed diagonal
    # entry in column lo.
    diag = -2.0 * d * dphi[0, lo] + phi[0, lo] * np.einsum("id,id->i", scores, scores)
    return float(total), float((w * w) @ diag)


def _linear_sums(kernel, atoms: np.ndarray, scores: np.ndarray, w: np.ndarray):
    """As ``_radial_sums``, for the linear kernel c^2 + x.y: no n x n array."""
    d = atoms.shape[1]
    xb = np.einsum("id,id->i", atoms, scores)
    sw = w.sum()
    wb = w @ scores
    xwb = atoms.T @ (w[:, None] * scores)
    c2 = kernel.c**2
    total = d * sw**2 + 2.0 * sw * (w @ xb) + c2 * (wb @ wb) + np.sum(xwb * xwb)
    norms = np.einsum("id,id->i", atoms, atoms)
    diag = d + 2.0 * xb + (c2 + norms) * np.einsum("id,id->i", scores, scores)
    return float(total), float((w * w) @ diag)


def _stein_sums(kernel, atoms: np.ndarray, scores: np.ndarray) -> tuple[float, float]:
    """Sum over all entries and trace of the Stein Gram, summed over the
    kernel's terms, without forming the Gram."""
    total = trace = 0.0
    for coef, tilts, core in kernel.terms():
        w, shifted = _tilt(tilts, atoms, scores)
        part, diag = (_radial_sums if core.is_radial else _linear_sums)(core, atoms, shifted, w)
        total += coef * part
        trace += coef * diag
    return total, trace


def _stein_matrix(kernel, atoms: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """Stein kernel over all pairs of atoms, summed over the kernel's terms."""
    gram = None
    for coef, tilts, core in kernel.terms():
        w, shifted = _tilt(tilts, atoms, scores)
        if core.is_radial:
            h = _radial_gram(*_radial_profile(core, atoms), shifted)
        else:
            h = _linear_gram(core, atoms, shifted)
        if tilts:
            h *= np.outer(w, w)
        if coef != 1.0:
            h *= coef
        if gram is None:
            gram = h
        else:
            gram += h
    return gram


def stein_drift(kernel, atoms: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """(1/n) sum_j [k(x_j, x_i) b(x_j) + grad_1 k(x_j, x_i)] at each atom x_i,
    shape (n, d), given the scores b at the atoms."""
    drift = np.zeros_like(atoms)
    for coef, tilts, core in kernel.terms():
        w, shifted = _tilt(tilts, atoms, scores)
        if core.is_radial:
            x, _, profile = _radial_profile(core, atoms, order=1)
            part = _radial_drift(x, profile, shifted, w)
        else:
            part = _linear_drift(core, atoms, shifted, w)
        drift += (coef * w)[:, None] * part
    return drift / atoms.shape[0]


def particle_grad(kernel, ref: DiagonalGaussian, loss: VariationalLoss, atoms: np.ndarray,
                  u_statistic: bool = False) -> np.ndarray:
    """Gradient in the atoms, shape (n, d), of the squared discrepancy: the
    V-statistic, or the U-statistic with ``u_statistic``. Every kernel, and
    every loss with ``var_grad_vjp`` (see the module docstring)."""
    measure = EmpiricalMeasure(atoms)
    atoms = measure.atoms
    n = measure.n
    if u_statistic and n < 2:
        raise ValueError("the U-statistic needs at least two atoms")
    scores = gen_score(ref, loss, measure, atoms)
    grad = np.zeros_like(atoms)
    weight = np.zeros_like(atoms)  # d(n^2 V)/db, or d(n(n-1) U)/db
    for coef, tilts, core in kernel.terms():
        w, shifted = _tilt(tilts, atoms, scores)
        if core.is_radial:
            x, sq, profile = _radial_profile(core, atoms)
            h = _radial_gram(x, sq, profile, shifted)
            tw = 2.0 * _radial_drift(x, profile, shifted, w)
            pos, diag_b, diag_x = _radial_grad(x, sq, profile, shifted, w)
        else:
            h = _linear_gram(core, atoms, shifted)
            tw = 2.0 * _linear_drift(core, atoms, shifted, w)
            pos, diag_b, diag_x = _linear_grad(core, atoms, shifted, w)
        rows = 2.0 * (h @ w)
        pos *= 2.0
        if u_statistic:
            rows -= 2.0 * w * np.diagonal(h)
            tw -= w[:, None] * diag_b
            pos -= w[:, None] * diag_x
        tw *= (coef * w)[:, None]
        weight += tw
        grad += (coef * w)[:, None] * pos
        for tilt in tilts:
            grad += (coef * w * rows)[:, None] * tilt.log_weight_grad(atoms)
            grad += tilt.log_weight_hvp(atoms, tw)
    grad += weight @ ref.log_grad_jacobian() - loss.var_grad_vjp(measure, weight)
    return grad / (n * (n - 1) if u_statistic else n**2)


def stein_gram(
    kernel,
    ref: DiagonalGaussian,
    loss: VariationalLoss,
    measure: EmpiricalMeasure,
) -> np.ndarray:
    """Stein kernel Gram matrix over the atoms of the measure, shape (n, n).

    Raises FloatingPointError, naming the first offending pair, when an
    entry is not finite.
    """
    atoms = measure.atoms
    gram = _stein_matrix(kernel, atoms, gen_score(ref, loss, measure, atoms))
    if not np.isfinite(gram).all():
        i, j = np.argwhere(~np.isfinite(gram))[0]
        raise FloatingPointError(
            f"non-finite Stein Gram entry ({i}, {j}) = {gram[i, j]}; "
            "the kernel or the scores overflow at these atoms"
        )
    return gram


def _gram_sums(
    kernel,
    ref: DiagonalGaussian,
    loss: VariationalLoss,
    measure: EmpiricalMeasure,
) -> tuple[float, float]:
    """Sum over all entries and trace of the Stein Gram over the atoms.

    Raises FloatingPointError when either is not finite: ``stein_gram``'s,
    naming the first non-finite entry, or, if every entry is finite, one
    saying that the sum overflowed.
    """
    atoms = measure.atoms
    total, trace = _stein_sums(kernel, atoms, gen_score(ref, loss, measure, atoms))
    if not (math.isfinite(total) and math.isfinite(trace)):
        stein_gram(kernel, ref, loss, measure)
        raise FloatingPointError(
            f"Stein Gram sum {total} or trace {trace} overflowed; every entry is finite"
        )
    return total, trace


def stein_kernel_eval(
    kernel,
    ref: DiagonalGaussian,
    loss: VariationalLoss,
    measure: EmpiricalMeasure,
    x: np.ndarray,
    y: np.ndarray,
) -> float:
    """Stein kernel value at one pair of (not necessarily atomic) points."""
    pts = np.stack([np.atleast_1d(np.asarray(x, dtype=float)),
                    np.atleast_1d(np.asarray(y, dtype=float))])
    scores = gen_score(ref, loss, measure, pts)
    return float(_stein_matrix(kernel, pts, scores)[0, 1])


@dataclass(frozen=True)
class KGDEstimate:
    """Squared-discrepancy estimate together with its provenance."""

    value2: float
    estimator: str  # "v" or "u"
    n: int

    @property
    def value(self) -> float:
        """Nonnegative root; the V-statistic is nonnegative up to roundoff."""
        return float(np.sqrt(max(self.value2, 0.0)))


def kgd_v_squared(
    kernel,
    ref: DiagonalGaussian,
    loss: VariationalLoss,
    measure: EmpiricalMeasure,
) -> KGDEstimate:
    """V-statistic (1/n^2) sum_ij h(x_i, x_j); nonnegative for psd kernels."""
    total, _ = _gram_sums(kernel, ref, loss, measure)
    return KGDEstimate(total / measure.n**2, "v", measure.n)


def kgd_u_squared(
    kernel,
    ref: DiagonalGaussian,
    loss: VariationalLoss,
    measure: EmpiricalMeasure,
) -> KGDEstimate:
    """U-statistic over off-diagonal pairs; unbiased at stationarity, can be
    negative."""
    n = measure.n
    if n < 2:
        raise ValueError("the U-statistic needs at least two atoms")
    total, trace = _gram_sums(kernel, ref, loss, measure)
    return KGDEstimate((total - trace) / (n * (n - 1)), "u", n)


@dataclass(frozen=True)
class ScalingStudy:
    """Replicated V/U estimates across sample sizes and fitted log-log slopes."""

    sizes: np.ndarray  # (k,)
    v_values: np.ndarray  # (k, reps)
    u_values: np.ndarray  # (k, reps)
    slope_v_mean: float  # slope of log E[V^2] against log n
    slope_v_sd: float  # slope of log sd(V^2) against log n

    @property
    def v_mean(self) -> np.ndarray:
        return self.v_values.mean(axis=1)

    @property
    def v_sd(self) -> np.ndarray:
        return self.v_values.std(axis=1, ddof=1)

    @property
    def u_mean(self) -> np.ndarray:
        return self.u_values.mean(axis=1)

    @property
    def u_se(self) -> np.ndarray:
        reps = self.u_values.shape[1]
        return self.u_values.std(axis=1, ddof=1) / np.sqrt(reps)


def _loglog_slope(ns: np.ndarray, ys: np.ndarray) -> float:
    safe = np.maximum(np.asarray(ys, dtype=float), 1e-300)
    return float(np.polyfit(np.log(ns), np.log(safe), 1)[0])


def clt_scaling_study(
    kernel,
    ref: DiagonalGaussian,
    loss: VariationalLoss,
    sample: Callable[[np.random.Generator, int], np.ndarray],
    sizes: Sequence[int],
    n_reps: int,
    seed: int,
) -> ScalingStudy:
    """Monte Carlo scaling of the estimators over iid draws from a sampler.

    For each size n and replicate r, ``sample`` receives an independent
    substream addressed by (seed, n, r) and must return an (n, d) array of
    iid draws; both estimators are then computed from one pass of Stein
    sums, without the Gram matrix. The replicate streams are independent of
    evaluation order.

    Raises ValueError, before any work, for a size below 2 (no U-statistic),
    fewer than 2 distinct sizes (no slope) or fewer than 2 replicates (no
    spread).
    """
    sizes_arr = np.asarray(sorted(int(n) for n in sizes))
    if sizes_arr.size == 0 or sizes_arr[0] < 2:
        raise ValueError(f"every size must be at least 2, got {list(sizes)}")
    if sizes_arr[0] == sizes_arr[-1]:
        raise ValueError(f"need at least 2 distinct sizes, got {list(sizes)}")
    if n_reps < 2:
        raise ValueError(f"need at least 2 replicates, got {n_reps}")
    v_values = np.empty((sizes_arr.size, n_reps))
    u_values = np.empty((sizes_arr.size, n_reps))
    for i, n in enumerate(sizes_arr):
        for r in range(n_reps):
            rng = seeded_stream(seed, "scaling", int(n), int(r))
            measure = EmpiricalMeasure(np.asarray(sample(rng, int(n)), dtype=float))
            total, trace = _gram_sums(kernel, ref, loss, measure)
            v_values[i, r] = total / n**2
            u_values[i, r] = (total - trace) / (n * (n - 1))
    v_mean = v_values.mean(axis=1)
    v_sd = v_values.std(axis=1, ddof=1)
    return ScalingStudy(
        sizes=sizes_arr,
        v_values=v_values,
        u_values=u_values,
        slope_v_mean=_loglog_slope(sizes_arr, v_mean),
        slope_v_sd=_loglog_slope(sizes_arr, v_sd),
    )
