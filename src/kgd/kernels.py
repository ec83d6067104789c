"""Kernels with analytic first and mixed second derivatives: IMQ, Gaussian,
mixtures, the linear kernel and its normalised form, and the weighted matrix
kernel built from a scalar base and the normalised linear part.

There is one interface. Every kernel is a ``ScalarKernel`` whose
``pairwise`` returns the same derivative bundle over all pairs of two point
sets:

    value    k(x, y)
    grad1    d/dx k(x, y)            (n, m, d)
    grad2    d/dy k(x, y)            (n, m, d)
    trace12  sum_i d^2/dx_i dy_i k   (n, m)

``pairwise`` is the kernel's derivative definition; the tests and
``kgd self-check`` hold it against finite differences, and
``discrepancy.stein_gram`` and ``stein_kernel_eval`` assemble the Stein
kernel from it entry by entry. The row-block pass in ``kgd.discrepancy``
behind the estimators, the drift and the particle gradient reads the
kernel's structure instead, through ``terms``:
every kernel here is a positively weighted sum of tilted cores,

    k(x, y) = sum_t coef_t w_t(x) core_t(x, y) w_t(y),

each core radial or the linear kernel c^2 + x.y, each w_t a product of tilt
weights. That is enough because of the tilt identity: for
k(x, y) = w(x) g(x, y) w(y) and a score b, with b~ = b + grad log w,

    h_k^b(x, y) = w(x) w(y) h_g^{b~}(x, y),

where h_k^b is the Stein kernel of k under b. ``NormalizedLinear`` is the
linear kernel tilted by u(x) = (c^2 + ||x||^2)^(-1/2); the weighted matrix
kernel K = kappa I, whose Stein kernel is the scalar Stein kernel of kappa,
is base + normalised linear tilted by w(x) = (c^2 + ||x||^2)^(exponent/2).
Radial kernels k(x, y) = phi(||x - y||^2) share one code path driven by the
profile derivatives phi', phi'', phi''' (the third derivative feeds only the
particle gradient ``discrepancy.particle_grad``; the estimators ask
``profile`` for order 2 and skip it).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


# One summand coef * w(x) core(x, y) w(y) of a kernel, w the product of the
# weights of the tilts; see ``ScalarKernel.terms``.
Term = tuple[float, tuple, "ScalarKernel"]


@dataclass(frozen=True)
class DerivativeBundle:
    """Kernel value and derivatives at a single pair of points."""

    value: float
    grad1: np.ndarray  # (d,)
    grad2: np.ndarray  # (d,)
    trace12: float


@dataclass(frozen=True)
class PairwiseDerivatives:
    """Kernel values and derivatives over all pairs of two point sets."""

    value: np.ndarray  # (n, m)
    grad1: np.ndarray  # (n, m, d)
    grad2: np.ndarray  # (n, m, d)
    trace12: np.ndarray  # (n, m)


class ScalarKernel:
    """Base class; concrete kernels implement ``pairwise`` and ``terms``."""

    family: str = "abstract"
    is_radial: bool = False

    def pairwise(self, x: np.ndarray, y: np.ndarray) -> PairwiseDerivatives:
        raise NotImplementedError

    def terms(self) -> tuple[Term, ...]:
        """The kernel as a sum of (coef, tilts, core) terms, each
        coef * w(x) core(x, y) w(y) with w the product of the tilts' weights
        and the core radial or ``Linear``."""
        raise NotImplementedError

    def bundle(self, x: np.ndarray, y: np.ndarray) -> DerivativeBundle:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        y = np.atleast_1d(np.asarray(y, dtype=float))
        pw = self.pairwise(x[None, :], y[None, :])
        return DerivativeBundle(
            value=float(pw.value[0, 0]),
            grad1=pw.grad1[0, 0],
            grad2=pw.grad2[0, 0],
            trace12=float(pw.trace12[0, 0]),
        )

    def value(self, x: np.ndarray, y: np.ndarray) -> float:
        return self.bundle(x, y).value

    def profile(self, sq: np.ndarray, order: int = 3) -> tuple[np.ndarray, ...]:
        """(phi, phi', ..., phi^(order)) at squared distances, order 1 to 3;
        radial kernels only."""
        raise NotImplementedError(f"{self.family} kernel is not radial")


def _sq_dists(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    diffs = x[:, None, :] - y[None, :, :]  # (n, m, d)
    return diffs, np.sum(diffs**2, axis=-1)


class _RadialKernel(ScalarKernel):
    """k(x, y) = phi(s) with s = ||x - y||^2.

    grad1 = 2 phi'(s) (x - y), grad2 = -grad1, and
    trace12 = -2 d phi'(s) - 4 s phi''(s).
    """

    is_radial = True

    def pairwise(self, x: np.ndarray, y: np.ndarray) -> PairwiseDerivatives:
        diffs, sq = _sq_dists(x, y)
        d = x.shape[-1]
        phi, dphi, d2phi = self.profile(sq, 2)
        grad1 = 2.0 * dphi[..., None] * diffs
        return PairwiseDerivatives(
            value=phi,
            grad1=grad1,
            grad2=-grad1,
            trace12=-2.0 * d * dphi - 4.0 * sq * d2phi,
        )

    def terms(self) -> tuple[Term, ...]:
        return ((1.0, (), self),)


@dataclass(frozen=True)
class IMQ(_RadialKernel):
    """Inverse multiquadric k(x, y) = (1 + ||x - y||^2 / lengthscale^2)^(-1/2)."""

    lengthscale: float = 1.0
    family = "imq"

    def __post_init__(self) -> None:
        if not self.lengthscale > 0.0:
            raise ValueError("lengthscale must be positive")

    def profile(self, sq: np.ndarray, order: int = 3) -> tuple[np.ndarray, ...]:
        # With r = 1 / (1 + s / ell^2), phi = r^(1/2) and each derivative is
        # the one before times -(k + 1/2) r / ell^2: one reciprocal and one
        # square root instead of four fractional powers.
        ell2 = self.lengthscale**2
        r = np.asarray(sq, dtype=float) / ell2
        r += 1.0
        np.reciprocal(r, out=r)
        derivs = [np.sqrt(r)]
        for k in range(order):
            nxt = derivs[-1] * r
            nxt *= -(k + 0.5) / ell2
            derivs.append(nxt)
        return tuple(derivs)


@dataclass(frozen=True)
class Gaussian(_RadialKernel):
    """Squared-exponential k(x, y) = exp(-||x - y||^2 / lengthscale^2)."""

    lengthscale: float = 1.0
    family = "gaussian"

    def __post_init__(self) -> None:
        if not self.lengthscale > 0.0:
            raise ValueError("lengthscale must be positive")

    def profile(self, sq: np.ndarray, order: int = 3) -> tuple[np.ndarray, ...]:
        ell2 = self.lengthscale**2
        phi = np.exp(-np.asarray(sq, dtype=float) / ell2)
        return (phi,) + tuple(phi / (-ell2) ** k for k in range(1, order + 1))


@dataclass(frozen=True)
class Mixture(ScalarKernel):
    """Positively weighted sum of scalar kernels; weights default to 1/m each."""

    members: tuple[ScalarKernel, ...]
    weights: tuple[float, ...] | None = None
    family = "mixture"

    def __post_init__(self) -> None:
        members = tuple(self.members)
        if not members:
            raise ValueError("mixture needs at least one member")
        if self.weights is None:
            weights = tuple(1.0 / len(members) for _ in members)
        else:
            weights = tuple(float(w) for w in self.weights)
            if len(weights) != len(members):
                raise ValueError("weights and members must have equal length")
            if any(not w > 0.0 for w in weights):
                raise ValueError("mixture weights must be positive")
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "weights", weights)

    @property
    def is_radial(self) -> bool:  # type: ignore[override]
        return all(m.is_radial for m in self.members)

    def profile(self, sq: np.ndarray, order: int = 3) -> tuple[np.ndarray, ...]:
        parts = [m.profile(sq, order) for m in self.members]
        return tuple(
            sum(w * part[k] for w, part in zip(self.weights, parts))
            for k in range(order + 1)
        )

    def terms(self) -> tuple[Term, ...]:
        # A radial mixture is one radial core with the summed profile.
        if self.is_radial:
            return ((1.0, (), self),)
        return tuple(
            (w * coef, tilts, core)
            for w, member in zip(self.weights, self.members)
            for coef, tilts, core in member.terms()
        )

    def pairwise(self, x: np.ndarray, y: np.ndarray) -> PairwiseDerivatives:
        acc = None
        for w, member in zip(self.weights, self.members):
            pw = member.pairwise(x, y)
            if acc is None:
                acc = [w * pw.value, w * pw.grad1, w * pw.grad2, w * pw.trace12]
            else:
                acc[0] += w * pw.value
                acc[1] += w * pw.grad1
                acc[2] += w * pw.grad2
                acc[3] += w * pw.trace12
        assert acc is not None
        return PairwiseDerivatives(*acc)


@dataclass(frozen=True)
class Linear(ScalarKernel):
    """Linear kernel k(x, y) = c^2 + x.y, the one non-radial core."""

    c: float = 1.0
    family = "linear"

    def pairwise(self, x: np.ndarray, y: np.ndarray) -> PairwiseDerivatives:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        shape = (x.shape[0], y.shape[0], x.shape[-1])
        return PairwiseDerivatives(
            value=self.c**2 + x @ y.T,
            grad1=np.broadcast_to(y[None, :, :], shape),
            grad2=np.broadcast_to(x[:, None, :], shape),
            trace12=np.full(shape[:2], float(x.shape[-1])),
        )

    def terms(self) -> tuple[Term, ...]:
        return ((1.0, (), self),)


class _Tilted(ScalarKernel):
    """k(x, y) = w(x) g(x, y) w(y) with w(x) = (c^2 + ||x||^2)^(power / 2).

    Subclasses give ``c``, ``power`` and the inner kernel ``inner`` = g.
    ``pairwise`` is the product rule over g's bundle. ``terms`` prepends this
    tilt to each of g's terms, which is all the Stein assembly needs: by the
    tilt identity (module docstring) it reads only w and grad log w, and the
    particle gradient also Hess log w.
    """

    def weight(self, x: np.ndarray) -> np.ndarray:
        """w(x) over the last axis of x; shape of x without the last axis."""
        x = np.asarray(x, dtype=float)
        return (self.c**2 + np.sum(x**2, axis=-1)) ** (self.power / 2.0)

    def weight_grad(self, x: np.ndarray) -> np.ndarray:
        """grad w(x) = w(x) grad log w(x)."""
        return self.weight(x)[..., None] * self.log_weight_grad(x)

    def log_weight_grad(self, x: np.ndarray) -> np.ndarray:
        """grad log w(x) = power * x / (c^2 + ||x||^2)."""
        x = np.asarray(x, dtype=float)
        return (self.power / (self.c**2 + np.sum(x**2, axis=-1)))[..., None] * x

    def log_weight_hvp(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Hessian of log w times v, row by row for (n, d) x and v:
        power (v / s - 2 x (x.v) / s^2) with s = c^2 + ||x||^2."""
        s = self.c**2 + np.einsum("id,id->i", x, x)
        xv = np.einsum("id,id->i", x, v)
        return self.power * (v / s[:, None] - (2.0 * xv / s**2)[:, None] * x)

    def terms(self) -> tuple[Term, ...]:
        return tuple(
            (coef, (self,) + tilts, core) for coef, tilts, core in self.inner.terms()
        )

    def pairwise(self, x: np.ndarray, y: np.ndarray) -> PairwiseDerivatives:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        g = self.inner.pairwise(x, y)
        wx = self.weight(x)  # (n,)
        wy = self.weight(y)  # (m,)
        dwx = self.weight_grad(x)  # (n, d)
        dwy = self.weight_grad(y)  # (m, d)
        wxy = wx[:, None] * wy[None, :]
        value = wxy * g.value
        grad1 = (
            dwx[:, None, :] * (g.value * wy[None, :])[..., None]
            + wxy[..., None] * g.grad1
        )
        grad2 = (
            dwy[None, :, :] * (g.value * wx[:, None])[..., None]
            + wxy[..., None] * g.grad2
        )
        trace12 = (
            np.einsum("nd,nmd->nm", dwx, g.grad2) * wy[None, :]
            + wxy * g.trace12
            + g.value * (dwx @ dwy.T)
            + np.einsum("nmd,md->nm", g.grad1, dwy) * wx[:, None]
        )
        return PairwiseDerivatives(value=value, grad1=grad1, grad2=grad2, trace12=trace12)


@dataclass(frozen=True)
class NormalizedLinear(_Tilted):
    """Linear kernel c^2 + x.y divided by its own diagonal scale.

    With u(x) = (c^2 + ||x||^2)^(-1/2) this is k(x, y) = (c^2 + x.y) u(x) u(y),
    the linear kernel tilted by u, so k(x, x) = 1 for every x. Not radial.
    """

    c: float = 1.0
    family = "normalized-linear"
    power = -1.0

    def __post_init__(self) -> None:
        if not self.c > 0.0:
            raise ValueError("c must be positive")

    @property
    def inner(self) -> Linear:
        return Linear(self.c)


@dataclass(frozen=True)
class WeightedMatrixKernel(_Tilted):
    """Matrix kernel K(x, y) = kappa(x, y) I_d with the scalar part
    kappa(x, y) = w(x) (base(x, y) + nlin(x, y)) w(y).

    The scalar weight is w(x) = (c^2 + ||x||^2)^(exponent / 2); growing weights
    (positive exponent) strengthen the kernel in the tails. Because the matrix
    part is a multiple of the identity, its Stein kernel is the scalar Stein
    kernel of kappa, so the kernel is kappa, the tilt by w of ``inner`` =
    base + nlin, and is used like any other scalar kernel.
    """

    c: float = 1.0
    exponent: float = 0.0
    base: ScalarKernel = IMQ()
    family = "weighted-matrix"

    def __post_init__(self) -> None:
        if not self.c > 0.0:
            raise ValueError("c must be positive")

    @property
    def power(self) -> float:
        return self.exponent

    @property
    def inner(self) -> Mixture:
        """Unweighted scalar part base + normalised linear, weights one each."""
        return Mixture((self.base, NormalizedLinear(self.c)), weights=(1.0, 1.0))
