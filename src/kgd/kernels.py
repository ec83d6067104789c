"""Kernels with analytic first and mixed second derivatives: IMQ, Gaussian,
mixtures, a normalised linear kernel, and the weighted matrix kernel built
from a scalar base and the normalised linear part.

There is one interface. Every kernel is a ``ScalarKernel`` whose
``pairwise`` returns the same derivative bundle over all pairs of two point
sets:

    value    k(x, y)
    grad1    d/dx k(x, y)            (n, m, d)
    grad2    d/dy k(x, y)            (n, m, d)
    trace12  sum_i d^2/dx_i dy_i k   (n, m)

which is exactly what the Stein-kernel assembly downstream consumes. The
weighted matrix kernel K = kappa I is no exception: its Stein kernel is the
scalar Stein kernel of kappa, so its ``pairwise`` is the bundle of kappa.
Radial kernels k(x, y) = phi(||x - y||^2) share one code path driven by the
profile derivatives phi', phi'', phi''' (the third derivative only feeds the
analytic particle-gradient route, never the estimators themselves).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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
    """Base class; concrete kernels implement ``pairwise``."""

    family: str = "abstract"
    is_radial: bool = False

    def pairwise(self, x: np.ndarray, y: np.ndarray) -> PairwiseDerivatives:
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

    def profile(self, sq: np.ndarray) -> tuple[np.ndarray, ...]:
        """(phi, phi', phi'', phi''') at squared distances; radial kernels only."""
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
        phi, dphi, d2phi, _ = self.profile(sq)
        grad1 = 2.0 * dphi[..., None] * diffs
        return PairwiseDerivatives(
            value=phi,
            grad1=grad1,
            grad2=-grad1,
            trace12=-2.0 * d * dphi - 4.0 * sq * d2phi,
        )


@dataclass(frozen=True)
class IMQ(_RadialKernel):
    """Inverse multiquadric k(x, y) = (1 + ||x - y||^2 / lengthscale^2)^(-1/2)."""

    lengthscale: float = 1.0
    family = "imq"

    def __post_init__(self) -> None:
        if not self.lengthscale > 0.0:
            raise ValueError("lengthscale must be positive")

    def profile(self, sq: np.ndarray) -> tuple[np.ndarray, ...]:
        ell2 = self.lengthscale**2
        base = 1.0 + np.asarray(sq, dtype=float) / ell2
        phi = base**-0.5
        dphi = -0.5 / ell2 * base**-1.5
        d2phi = 0.75 / ell2**2 * base**-2.5
        d3phi = -1.875 / ell2**3 * base**-3.5
        return phi, dphi, d2phi, d3phi


@dataclass(frozen=True)
class Gaussian(_RadialKernel):
    """Squared-exponential k(x, y) = exp(-||x - y||^2 / lengthscale^2)."""

    lengthscale: float = 1.0
    family = "gaussian"

    def __post_init__(self) -> None:
        if not self.lengthscale > 0.0:
            raise ValueError("lengthscale must be positive")

    def profile(self, sq: np.ndarray) -> tuple[np.ndarray, ...]:
        ell2 = self.lengthscale**2
        phi = np.exp(-np.asarray(sq, dtype=float) / ell2)
        return phi, -phi / ell2, phi / ell2**2, -phi / ell2**3


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
            if any(w <= 0.0 for w in weights):
                raise ValueError("mixture weights must be positive")
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "weights", weights)

    @property
    def is_radial(self) -> bool:  # type: ignore[override]
        return all(m.is_radial for m in self.members)

    def profile(self, sq: np.ndarray) -> tuple[np.ndarray, ...]:
        parts = [m.profile(sq) for m in self.members]
        return tuple(
            sum(w * part[k] for w, part in zip(self.weights, parts))
            for k in range(4)
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
class NormalizedLinear(ScalarKernel):
    """Linear kernel c^2 + x.y divided by its own diagonal scale.

    With u(x) = (c^2 + ||x||^2)^(-1/2) this is k(x, y) = (c^2 + x.y) u(x) u(y),
    so k(x, x) = 1 for every x. Not radial; derivatives are computed from the
    product rule with grad u = -x u^3.
    """

    c: float = 1.0
    family = "normalized-linear"

    def __post_init__(self) -> None:
        if not self.c > 0.0:
            raise ValueError("c must be positive")

    def pairwise(self, x: np.ndarray, y: np.ndarray) -> PairwiseDerivatives:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        d = x.shape[-1]
        c2 = self.c**2
        dots = x @ y.T  # (n, m)
        lin = c2 + dots
        ux = (c2 + np.sum(x**2, axis=-1)) ** -0.5  # (n,)
        uy = (c2 + np.sum(y**2, axis=-1)) ** -0.5  # (m,)
        uxy = ux[:, None] * uy[None, :]
        # grad1 = u(x) u(y) y - (c^2 + x.y) u(x)^3 u(y) x, and symmetrically.
        grad1 = uxy[..., None] * y[None, :, :] - (
            (lin * uy[None, :] * ux[:, None] ** 3)[..., None] * x[:, None, :]
        )
        grad2 = uxy[..., None] * x[:, None, :] - (
            (lin * ux[:, None] * uy[None, :] ** 3)[..., None] * y[None, :, :]
        )
        trace12 = (
            d * uxy
            - uxy * uy[None, :] ** 2 * np.sum(y**2, axis=-1)[None, :]
            - uxy * ux[:, None] ** 2 * np.sum(x**2, axis=-1)[:, None]
            + lin * dots * (ux[:, None] * uy[None, :]) ** 3
        )
        return PairwiseDerivatives(value=lin * uxy, grad1=grad1, grad2=grad2, trace12=trace12)


@dataclass(frozen=True)
class WeightedMatrixKernel(ScalarKernel):
    """Matrix kernel K(x, y) = kappa(x, y) I_d with the scalar part
    kappa(x, y) = w(x) (base(x, y) + nlin(x, y)) w(y).

    The scalar weight is w(x) = (c^2 + ||x||^2)^(exponent / 2); growing weights
    (positive exponent) strengthen the kernel in the tails. Because the matrix
    part is a multiple of the identity, its Stein kernel is the scalar Stein
    kernel of kappa, so ``pairwise`` returns the derivatives of kappa and the
    kernel is used like any other scalar kernel.
    """

    c: float = 1.0
    exponent: float = 0.0
    base: ScalarKernel = IMQ()
    family = "weighted-matrix"

    def __post_init__(self) -> None:
        if not self.c > 0.0:
            raise ValueError("c must be positive")

    @property
    def combined(self) -> Mixture:
        """Unweighted scalar part base + normalised linear, weights one each."""
        return Mixture((self.base, NormalizedLinear(self.c)), weights=(1.0, 1.0))

    def weight(self, x: np.ndarray) -> np.ndarray:
        """w(x) over the last axis of x; shape of x without the last axis."""
        x = np.asarray(x, dtype=float)
        return (self.c**2 + np.sum(x**2, axis=-1)) ** (self.exponent / 2.0)

    def weight_grad(self, x: np.ndarray) -> np.ndarray:
        """grad w(x) = exponent * x * (c^2 + ||x||^2)^(exponent/2 - 1)."""
        x = np.asarray(x, dtype=float)
        scale = self.exponent * (self.c**2 + np.sum(x**2, axis=-1)) ** (
            self.exponent / 2.0 - 1.0
        )
        return scale[..., None] * x

    def pairwise(self, x: np.ndarray, y: np.ndarray) -> PairwiseDerivatives:
        """Derivative bundle of the scalar part kappa = w(x) g(x,y) w(y)."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        g = self.combined.pairwise(x, y)
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
