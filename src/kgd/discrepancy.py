"""Kernel gradient discrepancy: generalised scores, Stein kernel sums, and
the V- and U-statistic estimators.

The generalised score of an empirical measure Q_n is

    b(x) = grad log q0(x) - var_grad(Q_n, x),

and the Stein kernel built from a scalar kernel k is

    h(x, y) = trace12 k + grad1 k . b(y) + grad2 k . b(x) + k b(x) . b(y).

Averaging h over all atom pairs (V-statistic) or off-diagonal pairs
(U-statistic) gives the squared discrepancy estimates.

Every Stein quantity over the atoms is a sum over j for each atom i, and all
of them come from one row-block pass that never holds an n x n array. The
quantities are the row sums (h w)_i, which the estimators contract to
sum_ij h and which the particle gradient reads, the flow velocity
``stein_drift``, (1/n) sum_j [k(x_j, x_i) b(x_j) + grad_1 k(x_j, x_i)], and
the positional sums of ``particle_grad``. They are built through the tilt
identity. ``kernel.terms()`` writes k as a sum of terms
coef * w(x) g(x, y) w(y) with g radial or linear; for each, with
b~ = b + grad log w,

    h_k^b(x_i, x_j) = w_i w_j h_g^{b~}(x_i, x_j),
    drift_k(x_i)    = w_i (1/n) sum_j w_j [g(x_j, x_i) b~_j + grad_1 g(x_j, x_i)],

and both are linear in k, so the terms add.

A radial g = phi(s) is read on slabs of ``_BLOCK`` rows of the squared
distances s_ij = ||x_i - x_j||^2 between the centred atoms X
(``_radial_slabs``, the one place they are computed). The atoms are centred
because every radial term is translation-invariant but the product form of
s is not: on a cloud far from the origin it subtracts large, nearly equal
numbers. With B the shifted scores, c_i = x_i.b_i and (phi' v)_i =
sum_j phi'_ij v_j,

    h = -2 d phi'(s) - 4 s phi''(s) + 2 phi'(s) (x_i.b_j + x_j.b_i - c_i - c_j)
        + phi(s) b_i.b_j,
    (h w)_i = 2 [x_i.(phi' wB)_i + b_i.(phi' wX)_i - (c_i + d) (phi' w)_i
                 - (phi' (w c))_i] - 4 ((s o phi'') w)_i + b_i.(phi wB)_i,
    n drift = phi (wB) + 2 phi' (wX) - 2 (phi' w) X,

where wB scales row j by w_j: one phi' product with [wB | wX | w | wc], one
phi product with wB and one (s o phi'') product with w serve the row sums
and the drift. Every matrix multiplied here (phi, phi', s o phi'' and the
particle gradient's a below) is symmetric in (i, j), so the pass walks only
the upper block triangle: block rows lo:hi read columns lo:n, and each
slab M adds M R[lo:] into rows lo:hi and, transposed, M[:, hi - lo:]^T
R[lo:hi] into rows hi:n of running (n, .) sums (``_symmetric_add``). Every
entry s_ij with i != j is then profiled once, not twice. The formulas
above, which read x_i, b_i and c_i, run once over all n rows after the
pass. Every slab of a pass (s, the order + 1 profile slabs that ``profile``
writes into through its ``out``, and the particle gradient's two
temporaries) is a view of one grow-only module workspace, so after the
first pass at the largest n a pass allocates nothing of slab size and takes
no page faults. The price is that passes run one at a time
(``_radial_slabs``). The linear g = c^2 + x.y needs only (n, d) and (d, d)
arrays; with beta the shifted scores,

    h = d + x_i.beta_i + x_j.beta_j + (c^2 + x_i.x_j) beta_i.beta_j,
    (h w)_i = d sum_j w_j + (sum_j w_j) x_i.beta_i + sum_j w_j x_j.beta_j
              + c^2 beta_i.(beta^T w) + x_i^T (X^T W beta) beta_i,
    n drift = c^2 sum_j w_j beta_j + X (X^T W beta) + (sum_j w_j) X.

The diagonal is closed-form: -2 d phi'(0) + phi(0) ||b_i||^2 for a radial
core, d + 2 x_i.beta_i + (c^2 + ||x_i||^2) ||beta_i||^2 for the linear one.
The estimators take sum_ij h = sum_i w_i (h w)_i and the trace
sum_i w_i^2 h_ii, per term, and return the statistic as a float. A sum that
is not finite, or a pass that overflows on the way, falls back to
``stein_gram``, whose error names the first non-finite entry.

``particle_grad`` differentiates n^2 V in the atoms on the same slabs. The
scores move through grad log q0 and ``loss.var_grad_vjp``, weighted by
d(n^2 V)/db = 2 n ``stein_drift``. With scores fixed, each term moves through
its core (2 w_i sum_j w_j dh_ij/dx_i), through w (the row sums 2 (h w)_i)
and through b~ (Hess log w times 2 w_i times the core's drift). For a
radial core, sum_j w_j dh_ij/dx_i = x_i (a w)_i - (a wX)_i + 2 (phi' wB)_i
- 2 b_i (phi' w)_i, with a the symmetric slab spelled out in
``_radial_rows``. The U-statistic also drops the diagonal w_i^2 h(x_i, x_i)
above.

``stein_gram`` forms the n x n Gram from the same ``terms()``, entry by
entry from the h formulas above (on the differences x_i - x_j, not the
product form), to name the first non-finite entry when a sum is not finite;
no estimator, sampler or preset calls it on a finite run. The definition
that both are held against is not here: the kernels' closed-form derivative
table and the Stein kernel built on it live in ``kgd.oracles``
(``kernel_derivatives``, ``reference_stein_kernel``), which shares no code
with this module. Every kernel, the weighted matrix kernel K = kappa I
included, enters through the one ``ScalarKernel`` interface: the Stein
kernel of K is the scalar Stein kernel of kappa.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import DiagonalGaussian, EmpiricalMeasure, seeded_stream
from .losses import VariationalLoss

# Rows per slab of the row-block pass: a pass holds a few (128, n) slabs,
# so its memory grows like n, not n^2. A smaller block makes the upper block
# triangle finer: on the clt-study preset (n to 800, 1 BLAS thread, a 2-vCPU
# Xeon VM) 128 rows ran 12% faster than 256 and tied with 64.
_BLOCK = 128

# The one flat buffer every row-block pass carves its slabs from (``_slabs``).
# It only grows and lives as long as the process: slabs allocated per pass are
# multi-MB blocks that the allocator hands back to the OS when they are freed,
# and faulting them back in cost the pass more than its arithmetic did.
_workspace = np.empty(0)


def gen_score(
    ref: DiagonalGaussian,
    loss: VariationalLoss,
    measure: EmpiricalMeasure,
    x: np.ndarray,
) -> np.ndarray:
    """Generalised score b(x) at the (m, d) points x, shape (m, d).

    Raises FloatingPointError, naming the first atom, when a score is not
    finite.
    """
    score = ref.log_grad(x) - loss.var_grad(measure, x)
    if not np.isfinite(score).all():
        i = int(np.argmin(np.isfinite(score).all(axis=1)))
        raise FloatingPointError(f"non-finite score at atom {i}: {score[i]}")
    return score


def _tilt(tilts: tuple, atoms: np.ndarray, scores: np.ndarray):
    """Product weight w over the atoms and the shifted scores b + grad log w."""
    w = np.ones(atoms.shape[0])
    shifted = scores
    for tilt in tilts:
        w = w * tilt.weight(atoms)
        shifted = shifted + tilt.log_weight_grad(atoms)
    return w, shifted


def _slabs(count: int, rows: int, cols: int) -> np.ndarray:
    """count (rows, cols) slabs as one (count, rows, cols) view of the
    workspace, grown first if it is too small. Their contents are whatever
    the last pass left there."""
    global _workspace
    size = count * rows * cols
    if _workspace.size < size:
        _workspace = np.empty(size)
    return _workspace[:size].reshape(count, rows, cols)


def _radial_slabs(core, x: np.ndarray, order: int):
    """Yield (lo, hi, sq, profile, scratch) for blocks of ``_BLOCK`` rows
    lo:hi of the centred atoms x, over the upper block triangle: the
    squared distances sq from rows lo:hi to atoms lo:n, which the consumer
    may overwrite; the profile up to ``order`` on them, order + 1 slabs;
    and, at order 3, two scratch slabs for the positional sums (none
    below). Every slab is a (hi - lo, n - lo) view of the module workspace,
    reused from block to block and from pass to pass, and holds the block's
    zeroed diagonal in its first hi - lo columns: row r at column r. The
    pairs left of column lo belong to earlier blocks, so a consumer reads
    each slab for its own rows and, transposed, for rows hi:n
    (``_symmetric_add``).

    So one pass runs at a time: no consumer starts a second pass while it
    iterates one, and nothing a consumer returns may alias a slab."""
    n = x.shape[0]
    norms = np.einsum("id,id->i", x, x)
    count = order + 2 + (2 if order > 2 else 0)
    for lo in range(0, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        block = _slabs(count, hi - lo, n - lo)
        sq = block[0]
        np.matmul(x[lo:hi], x[lo:].T, out=sq)
        sq *= -2.0
        sq += norms[lo:hi, None]
        sq += norms[lo:]
        np.maximum(sq, 0.0, out=sq)
        np.fill_diagonal(sq[:, : hi - lo], 0.0)
        yield (lo, hi, sq, core.profile(sq, order, block[1 : order + 2]),
               block[order + 2 :])


def _symmetric_add(acc: np.ndarray, slab: np.ndarray, right: np.ndarray, lo: int, hi: int):
    """acc += M right for a symmetric n x n matrix M whose rows lo:hi,
    columns lo:n, are the slab: the slab gives rows lo:hi, and its part
    right of the diagonal block, transposed, gives rows hi:n (none in the
    last block, which a pass at n <= ``_BLOCK`` is alone)."""
    acc[lo:hi] += slab @ right[lo:]
    if hi < acc.shape[0]:
        acc[hi:] += slab[:, hi - lo :].T @ right[lo:hi]


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("id,id->i", a, b)


def _radial_rows(core, atoms: np.ndarray, scores: np.ndarray, w: np.ndarray, order: int):
    """Sums over j at each atom i for a radial core under the scores, with
    atom weights w (module docstring), as (drift, rows, diag, grad): n times
    the drift; from order 2 the row sums (h w)_i and the diagonal h_ii; at
    order 3 grad = (pos, diag_b, diag_x), the positional sums
    sum_j w_j dh_ij/dx_i and the derivatives of h_ii in b_i and in x_i.
    Lower orders give None for the rest."""
    n, d = atoms.shape
    x = atoms - atoms.sum(axis=0) / n
    wb = w[:, None] * scores
    # phi' is read against [wB | wX | w | wc] from order 2, against [wX | w]
    # for the drift alone; k is where wX starts.
    right = [w[:, None] * x, w[:, None]]
    k = 0
    if order > 1:
        c = _rowdot(x, scores)
        xb = np.concatenate([x, scores], axis=1)
        right = [wb] + right + [(w * c)[:, None]]
        k = d
    right = np.concatenate(right, axis=1)
    # The products summed over the pass: phi wB, phi' right, (s o phi'') w
    # and, at order 3, a [wX | w].
    pb = np.zeros((n, d))
    pd = np.zeros(right.shape)
    ps = np.zeros(n)
    pa = np.zeros((n, d + 1))
    if order > 2:
        bx = np.concatenate([scores, x], axis=1)
        cd = c + (d + 2.0)
    for lo, hi, sq, profile, scratch in _radial_slabs(core, x, order):
        phi, dphi = profile[:2]
        _symmetric_add(pb, phi, wb, lo, hi)
        _symmetric_add(pd, dphi, right, lo, hi)
        if order > 2:
            # dh_ij/dx_i = a_ij (x_i - x_j) + 2 phi'_ij (b_j - b_i), with
            # a = 4 phi'' (x_i.b_j + x_j.b_i - c_i - c_j - d - 2)
            #     + 2 phi' b_i.b_j - 8 s phi''', symmetric in (i, j)
            a, bb = scratch
            np.matmul(xb[lo:hi], bx[lo:].T, out=a)
            a -= np.add.outer(c[lo:hi], cd[lo:], out=bb)
            a *= profile[2]
            a *= 4.0
            np.matmul(scores[lo:hi], scores[lo:].T, out=bb)
            bb *= dphi
            bb *= 2.0
            a += bb
            np.multiply(sq, profile[3], out=bb)
            bb *= 8.0
            a -= bb
            _symmetric_add(pa, a, right[:, d : 2 * d + 1], lo, hi)
        if order > 1:
            sq *= profile[2]
            _symmetric_add(ps, sq, w, lo, hi)
    dw = pd[:, k + d, None]  # (phi' w)_i
    drift = pb + 2.0 * (pd[:, k : k + d] - dw * x)
    if order == 1:
        return drift, None, None, None
    # x_i.(phi' wB)_i + b_i.(phi' wX)_i in one row dot
    rows = _rowdot(xb, pd[:, : 2 * d])
    rows -= (c + d) * dw[:, 0]
    rows -= pd[:, 2 * d + 1]
    rows *= 2.0
    rows += _rowdot(scores, pb)
    rows -= 4.0 * ps
    # phi(0) and phi'(0) from the last block's zeroed diagonal entry in row 0.
    phi0, dphi0 = phi[0, 0], dphi[0, 0]
    diag = -2.0 * d * dphi0 + phi0 * _rowdot(scores, scores)
    grad = None
    if order > 2:
        pos = pa[:, d, None] * x - pa[:, :d]
        pos += 2.0 * (pd[:, :d] - dw * scores)
        grad = (pos, 2.0 * phi0 * scores, 0.0)
    return drift, rows, diag, grad


def _linear_rows(core, atoms: np.ndarray, scores: np.ndarray, w: np.ndarray, order: int):
    """As ``_radial_rows``, for the linear core c^2 + x.y: no n x n array."""
    d = atoms.shape[1]
    c2 = core.c**2
    wb = w[:, None] * scores
    sw = w.sum()
    xwb = atoms.T @ wb  # X^T W beta
    drift = c2 * wb.sum(axis=0) + atoms @ xwb + sw * atoms
    if order == 1:
        return drift, None, None, None
    xbeta = _rowdot(atoms, scores)
    rows = d * sw + sw * xbeta + w @ xbeta + c2 * (scores @ wb.sum(axis=0))
    rows += _rowdot(atoms @ xwb, scores)
    norms = c2 + _rowdot(atoms, atoms)
    beta2 = _rowdot(scores, scores)
    diag = d + 2.0 * xbeta + norms * beta2
    grad = None
    if order > 2:
        grad = (sw * scores + scores @ xwb.T, 2.0 * (atoms + norms[:, None] * scores),
                2.0 * (scores + beta2[:, None] * atoms))
    return drift, rows, diag, grad


def _term_rows(kernel, atoms: np.ndarray, scores: np.ndarray, order: int):
    """Yield (coef, tilts, w, parts) per term of the kernel, with parts the
    core's (drift, rows, diag, grad) under the shifted scores up to
    ``order``."""
    for coef, tilts, core in kernel.terms():
        w, shifted = _tilt(tilts, atoms, scores)
        parts = (_radial_rows if core.is_radial else _linear_rows)(core, atoms, shifted, w, order)
        yield coef, tilts, w, parts


def _stein_sums(kernel, atoms: np.ndarray, scores: np.ndarray) -> tuple[float, float]:
    """Sum over all entries and trace of the Stein Gram, summed over the
    kernel's terms, without forming the Gram; (nan, nan) if an operation of
    the pass overflows or is invalid."""
    total = trace = 0.0
    try:
        with np.errstate(over="raise", invalid="raise"):
            for coef, _, w, (_, rows, diag, _) in _term_rows(kernel, atoms, scores, 2):
                total += coef * float(w @ rows)
                trace += coef * float((w * w) @ diag)
    except FloatingPointError:
        return math.nan, math.nan
    return total, trace


def stein_drift(kernel, atoms: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """(1/n) sum_j [k(x_j, x_i) b(x_j) + grad_1 k(x_j, x_i)] at each atom x_i,
    shape (n, d), given the scores b at the atoms."""
    drift = np.zeros_like(atoms)
    for coef, _, w, (part, *_) in _term_rows(kernel, atoms, scores, 1):
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
    for coef, tilts, w, (drift, rows, diag, (pos, diag_b, diag_x)) in _term_rows(
            kernel, atoms, scores, 3):
        tw = 2.0 * drift
        rows *= 2.0
        pos *= 2.0
        if u_statistic:
            rows -= 2.0 * w * diag
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
    """Stein kernel Gram matrix over the atoms of the measure, shape (n, n),
    summed over the kernel's terms (module docstring).

    Raises FloatingPointError, naming the first offending pair, when an
    entry is not finite.
    """
    atoms = measure.atoms
    n, d = atoms.shape
    scores = gen_score(ref, loss, measure, atoms)
    gram = np.zeros((n, n))
    with np.errstate(over="ignore", invalid="ignore"):  # every entry is checked below
        for coef, tilts, core in kernel.terms():
            w, b = _tilt(tilts, atoms, scores)
            if core.is_radial:
                diffs = atoms[:, None, :] - atoms[None, :, :]
                sq = np.einsum("ijd,ijd->ij", diffs, diffs)
                phi, dphi, d2phi = core.profile(sq, 2, np.empty((3, n, n)))
                h = (-2.0 * d * dphi - 4.0 * sq * d2phi + phi * (b @ b.T)
                     + 2.0 * dphi * np.einsum("ijd,ijd->ij", diffs, b[None] - b[:, None]))
            else:
                xb = _rowdot(atoms, b)
                h = d + xb[:, None] + xb + (core.c**2 + atoms @ atoms.T) * (b @ b.T)
            gram += coef * np.outer(w, w) * h
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


def kgd_v_squared(
    kernel,
    ref: DiagonalGaussian,
    loss: VariationalLoss,
    measure: EmpiricalMeasure,
) -> float:
    """V-statistic (1/n^2) sum_ij h(x_i, x_j); nonnegative for psd kernels."""
    total, _ = _gram_sums(kernel, ref, loss, measure)
    return total / measure.n**2


def kgd_u_squared(
    kernel,
    ref: DiagonalGaussian,
    loss: VariationalLoss,
    measure: EmpiricalMeasure,
) -> float:
    """U-statistic over off-diagonal pairs; unbiased at stationarity, can be
    negative."""
    n = measure.n
    if n < 2:
        raise ValueError("the U-statistic needs at least two atoms")
    total, trace = _gram_sums(kernel, ref, loss, measure)
    return (total - trace) / (n * (n - 1))


@dataclass(frozen=True)
class ScalingStudy:
    """Replicated V/U estimates across sample sizes and fitted log-log
    slopes, with the first replicate's draw at the largest size."""

    sizes: np.ndarray  # (k,)
    v_values: np.ndarray  # (k, reps)
    u_values: np.ndarray  # (k, reps)
    slope_v_mean: float  # slope of log E[V^2] against log n
    slope_v_sd: float  # slope of log sd(V^2) against log n
    largest_draw: np.ndarray  # (sizes[-1], d), whose V^2 is v_values[-1, 0]

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
    evaluation order. The study keeps replicate 0's draw at the largest
    size, so a caller can write out a sample without knowing the addresses.

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
            if r == 0:
                largest_draw = measure.atoms
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
        largest_draw=largest_draw,
    )
