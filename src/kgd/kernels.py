"""Kernels: IMQ, Gaussian, mixtures, the linear kernel and its normalised
form, and the weighted matrix kernel built from a scalar base and the
normalised linear part.

There is one interface. Every kernel is a ``ScalarKernel`` that describes
itself through ``terms``, as a positively weighted sum of tilted cores,

    k(x, y) = sum_t coef_t w_t(x) core_t(x, y) w_t(y),

each core radial or the linear kernel c^2 + x.y, each w_t a product of tilt
weights. The row-block pass in ``kgd.discrepancy`` behind the estimators,
the drift and the particle gradient reads a kernel only this way. That is
enough because of the tilt identity: for k(x, y) = w(x) g(x, y) w(y) and a
score b, with b~ = b + grad log w,

    h_k^b(x, y) = w(x) w(y) h_g^{b~}(x, y),

where h_k^b is the Stein kernel of k under b. ``NormalizedLinear`` is the
linear kernel tilted by u(x) = (c^2 + ||x||^2)^(-1/2); the weighted matrix
kernel K = kappa I, whose Stein kernel is the scalar Stein kernel of kappa,
is base + normalised linear tilted by w(x) = (c^2 + ||x||^2)^(exponent/2).
Radial kernels k(x, y) = phi(||x - y||^2) share one code path driven by the
profile derivatives phi', phi'', phi''' (the third derivative feeds only the
particle gradient ``discrepancy.particle_grad``; the estimators ask
``profile`` for order 2 and skip it). ``profile(sq, order, out)`` writes
them into caller-owned slabs ``out`` and allocates no slab of its own, except
a radial mixture's one scratch set for its members: the row-block pass hands
it views of its reused workspace.

No kernel carries a derivative table. The closed-form value, gradients and
mixed trace of every family, which the tests and ``kgd self-check`` hold
the profiles, the Stein sums and ``value`` against, are written from the
kernels' parameters alone in ``kgd.oracles.kernel_derivatives``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


# One summand coef * w(x) core(x, y) w(y) of a kernel, w the product of the
# weights of the tilts; see ``ScalarKernel.terms``.
Term = tuple[float, tuple, "ScalarKernel"]


class ScalarKernel:
    """Base class; concrete kernels implement ``terms``, radial ones also
    ``profile``."""

    family: str = "abstract"
    is_radial: bool = False

    def terms(self) -> tuple[Term, ...]:
        """The kernel as a sum of (coef, tilts, core) terms, each
        coef * w(x) core(x, y) w(y) with w the product of the tilts' weights
        and the core radial or ``Linear``."""
        raise NotImplementedError

    def value(self, x: np.ndarray, y: np.ndarray) -> float:
        """k(x, y) at one pair of points, summed over ``terms``."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        total = 0.0
        for coef, tilts, core in self.terms():
            if core.is_radial:
                g = core.profile(np.array([np.sum((x - y) ** 2)]), 1, np.empty((2, 1)))[0, 0]
            else:
                g = core.c**2 + x @ y
            for tilt in tilts:
                g *= tilt.weight(x) * tilt.weight(y)
            total += coef * g
        return float(total)

    def profile(self, sq: np.ndarray, order: int, out: np.ndarray) -> np.ndarray:
        """Write phi, phi', ..., phi^(order) at the squared distances sq into
        out[0], ..., out[order] and return out; order 1 to 3, radial kernels
        only. out is caller-owned, shape (order + 1,) + sq.shape, and its
        contents on entry are never read."""
        raise NotImplementedError(f"{self.family} kernel is not radial")


@dataclass(frozen=True)
class _RadialKernel(ScalarKernel):
    """k(x, y) = phi(s) with s = ||x - y||^2, read through ``profile``."""

    lengthscale: float = 1.0
    is_radial = True

    def __post_init__(self) -> None:
        if not self.lengthscale > 0.0:
            raise ValueError("lengthscale must be positive")

    def terms(self) -> tuple[Term, ...]:
        return ((1.0, (), self),)


@dataclass(frozen=True)
class IMQ(_RadialKernel):
    """Inverse multiquadric k(x, y) = (1 + ||x - y||^2 / lengthscale^2)^(-1/2)."""

    family = "imq"

    def profile(self, sq: np.ndarray, order: int, out: np.ndarray) -> np.ndarray:
        # With r = 1 / (1 + s / ell^2), phi = r^(1/2) and each derivative is
        # the one before times -(k + 1/2) r / ell^2: one reciprocal and one
        # square root instead of four fractional powers. r lives in
        # out[order], whose last product overwrites it in place.
        ell2 = self.lengthscale**2
        r = out[order]
        np.divide(sq, ell2, out=r)
        r += 1.0
        np.reciprocal(r, out=r)
        np.sqrt(r, out=out[0])
        for k in range(order):
            np.multiply(out[k], r, out=out[k + 1])
            out[k + 1] *= -(k + 0.5) / ell2
        return out


@dataclass(frozen=True)
class Gaussian(_RadialKernel):
    """Squared-exponential k(x, y) = exp(-||x - y||^2 / lengthscale^2)."""

    family = "gaussian"

    def profile(self, sq: np.ndarray, order: int, out: np.ndarray) -> np.ndarray:
        ell2 = self.lengthscale**2
        phi = out[0]
        np.negative(sq, out=phi)
        phi /= ell2
        np.exp(phi, out=phi)
        for k in range(1, order + 1):
            np.divide(phi, (-ell2) ** k, out=out[k])
        return out


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

    def profile(self, sq: np.ndarray, order: int, out: np.ndarray) -> np.ndarray:
        # Each member writes into one scratch set, which is scaled by its
        # weight and added to out, from zero up in member order.
        part = np.empty_like(out)
        out.fill(0.0)
        for w, member in zip(self.weights, self.members):
            member.profile(sq, order, part)
            part *= w
            out += part
        return out

    def terms(self) -> tuple[Term, ...]:
        # A radial mixture is one radial core with the summed profile.
        if self.is_radial:
            return ((1.0, (), self),)
        return tuple(
            (w * coef, tilts, core)
            for w, member in zip(self.weights, self.members)
            for coef, tilts, core in member.terms()
        )


@dataclass(frozen=True)
class Linear(ScalarKernel):
    """Linear kernel k(x, y) = c^2 + x.y, the one non-radial core."""

    c: float = 1.0
    family = "linear"

    def terms(self) -> tuple[Term, ...]:
        return ((1.0, (), self),)


@dataclass(frozen=True)
class _Tilted(ScalarKernel):
    """k(x, y) = w(x) g(x, y) w(y) with w(x) = (c^2 + ||x||^2)^(power / 2).

    Subclasses give ``power`` and the inner kernel ``inner`` = g.
    ``terms`` prepends this tilt to each of g's terms, which is all the Stein
    assembly needs: by the tilt identity (module docstring) it reads only w
    and grad log w, and the particle gradient also Hess log w.
    """

    c: float = 1.0

    def __post_init__(self) -> None:
        if not self.c > 0.0:
            raise ValueError("c must be positive")

    def weight(self, x: np.ndarray) -> np.ndarray:
        """w(x) over the last axis of x; shape of x without the last axis."""
        x = np.asarray(x, dtype=float)
        return (self.c**2 + np.sum(x**2, axis=-1)) ** (self.power / 2.0)

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


@dataclass(frozen=True)
class NormalizedLinear(_Tilted):
    """Linear kernel c^2 + x.y divided by its own diagonal scale.

    With u(x) = (c^2 + ||x||^2)^(-1/2) this is k(x, y) = (c^2 + x.y) u(x) u(y),
    the linear kernel tilted by u, so k(x, x) = 1 for every x. Not radial.
    """

    family = "normalized-linear"
    power = -1.0

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

    exponent: float = 0.0
    base: ScalarKernel = IMQ()
    family = "weighted-matrix"

    @property
    def power(self) -> float:
        return self.exponent

    @property
    def inner(self) -> Mixture:
        """Unweighted scalar part base + normalised linear, weights one each."""
        return Mixture((self.base, NormalizedLinear(self.c)), weights=(1.0, 1.0))
