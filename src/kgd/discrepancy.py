"""Kernel gradient discrepancy: generalised scores, Stein kernel assembly,
and the V- and U-statistic estimators.

The generalised score of an empirical measure Q_n is

    b(x) = grad log q0(x) - var_grad(Q_n, x),

and the Stein kernel built from a scalar kernel k is

    h(x, y) = trace12 k + grad1 k . b(y) + grad2 k . b(x) + k b(x) . b(y).

Averaging h over all atom pairs (V-statistic) or off-diagonal pairs
(U-statistic) gives the squared discrepancy estimates.

``stein_gram`` assembles the Gram matrix on one of two routes, chosen by
``kernel.is_radial``. Radial kernels k = phi(||x - y||^2), mixtures of them
included, reduce every term to n x n arrays: with X the centred atoms, B the
scores, s_ij = ||x_i - x_j||^2 and G = X B^T,

    h = -2 d phi'(s) - 4 s phi''(s) + 2 phi'(s) (G + G^T - G_ii - G_jj)
        + phi(s) B B^T,

so s and G come from matrix products and no (n, n, d) tensor is built. The
atoms are centred first because every term is translation-invariant but the
product form of s and G is not: on a cloud far from the origin it subtracts
large, nearly equal numbers. Every other kernel goes through ``pairwise``
and the einsum assembly, which also serves ``stein_kernel_eval`` and the
tests as the reference.

Every kernel, the weighted matrix kernel K = kappa I included, enters
through the one ``ScalarKernel`` interface: the Stein kernel of K is the
scalar Stein kernel of kappa, which is what its ``pairwise`` returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import DiagonalGaussian, EmpiricalMeasure, seeded_stream
from .kernels import PairwiseDerivatives
from .losses import VariationalLoss


def gen_score(
    ref: DiagonalGaussian,
    loss: VariationalLoss,
    measure: EmpiricalMeasure,
    x: np.ndarray,
) -> np.ndarray:
    """Generalised score b(x); accepts (d,) or (m, d) and matches the shape."""
    return ref.log_grad(x) - loss.var_grad(measure, x)


def _assemble(pw: PairwiseDerivatives, bx: np.ndarray, by: np.ndarray) -> np.ndarray:
    """Stein kernel values over all pairs given scores at rows and columns."""
    return (
        pw.trace12
        + np.einsum("ijd,jd->ij", pw.grad1, by)
        + np.einsum("ijd,id->ij", pw.grad2, bx)
        + pw.value * (bx @ by.T)
    )


def _radial_gram(kernel, atoms: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """Stein Gram of a radial kernel from n x n products (see module docstring).

    The n x n arrays are updated in place where the formula allows: at large
    n each temporary costs about as much as the arithmetic that fills it.
    Each update keeps a symmetric array bitwise symmetric (c_i + c_j is one
    outer sum, not two updates), so h is as symmetric as x x^T and B B^T.
    """
    x = atoms - atoms.mean(axis=0)
    norms = np.einsum("id,id->i", x, x)
    sq = -2.0 * (x @ x.T)
    sq += np.add.outer(norms, norms)
    np.maximum(sq, 0.0, out=sq)
    np.fill_diagonal(sq, 0.0)
    phi, dphi, d2phi, _ = kernel.profile(sq)
    g = x @ scores.T
    c = np.diagonal(g)
    # h = 2 phi' (G + G^T - c_i - c_j - d) - 4 s phi'' + phi B B^T
    h = g + g.T
    h -= np.add.outer(c, c)
    h -= x.shape[1]
    h *= 2.0 * dphi
    sq *= d2phi
    sq *= 4.0
    h -= sq
    bb = scores @ scores.T
    bb *= phi
    h += bb
    return h


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
    scores = gen_score(ref, loss, measure, atoms)
    if kernel.is_radial:
        gram = _radial_gram(kernel, atoms, scores)
    else:
        gram = _assemble(kernel.pairwise(atoms, atoms), scores, scores)
    if not np.isfinite(gram).all():
        i, j = np.argwhere(~np.isfinite(gram))[0]
        raise FloatingPointError(
            f"non-finite Stein Gram entry ({i}, {j}) = {gram[i, j]}; "
            "the kernel or the scores overflow at these atoms"
        )
    return gram


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
    pw = kernel.pairwise(pts[:1], pts[1:2])
    return float(_assemble(pw, scores[:1], scores[1:2])[0, 0])


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
    gram = stein_gram(kernel, ref, loss, measure)
    return KGDEstimate(float(np.sum(gram) / measure.n**2), "v", measure.n)


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
    gram = stein_gram(kernel, ref, loss, measure)
    off = float(np.sum(gram) - np.trace(gram))
    return KGDEstimate(off / (n * (n - 1)), "u", n)


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
    iid draws; both estimators are then computed from one Gram matrix. The
    replicate streams are independent of evaluation order.

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
            gram = stein_gram(kernel, ref, loss, measure)
            total = float(np.sum(gram))
            v_values[i, r] = total / n**2
            u_values[i, r] = (total - float(np.trace(gram))) / (n * (n - 1))
    v_mean = v_values.mean(axis=1)
    v_sd = v_values.std(axis=1, ddof=1)
    return ScalingStudy(
        sizes=sizes_arr,
        v_values=v_values,
        u_values=u_values,
        slope_v_mean=_loglog_slope(sizes_arr, v_mean),
        slope_v_sd=_loglog_slope(sizes_arr, v_sd),
    )
