"""Kernels against finite differences and hand values.

The derivative table is ``kgd.oracles.kernel_derivatives``, written from the
kernels' parameters alone; it is held here against central differences of
the kernels' own ``value``. The profiles and the tilt helpers that the
row-block pass reads are checked directly.
"""

import numpy as np
import pytest

from kgd.kernels import (
    IMQ,
    Gaussian,
    Linear,
    Mixture,
    NormalizedLinear,
    WeightedMatrixKernel,
)
from kgd.oracles import fd_gradient, kernel_derivatives

TRACE12_RTOL = 1e-6  # analytic trace12 vs nested central differences, relative

ALL_SCALAR = [
    IMQ(1.0),
    IMQ(0.4),
    Gaussian(1.0),
    Gaussian(2.5),
    Mixture((IMQ(0.5), Gaussian(1.5))),
    Mixture((IMQ(1.0), IMQ(0.1)), weights=(0.7, 2.0)),
    NormalizedLinear(1.0),
    NormalizedLinear(0.3),
    Mixture((IMQ(0.8), NormalizedLinear(1.2)), weights=(1.0, 1.0)),
    WeightedMatrixKernel(c=1.2, exponent=0.5, base=IMQ(1.0)),
    Linear(0.7),
]


def _pair(kernel, x, y):
    """The derivative table at one pair of points: value, grad1, grad2,
    trace12."""
    return [entry[0, 0] for entry in kernel_derivatives(kernel, x[None], y[None])]


def _fd_trace12(value_fn, x, y, h=1e-4):
    # trace12 = sum_a d/dx_a d/dy_a k, inner derivative by central difference
    # of the y-gradient.
    total = 0.0
    for a in range(x.size):
        step = h * (1.0 + abs(x[a]))
        xp, xm = x.copy(), x.copy()
        xp[a] += step
        xm[a] -= step
        gp = fd_gradient(lambda t: value_fn(xp, t), y, h)[a]
        gm = fd_gradient(lambda t: value_fn(xm, t), y, h)[a]
        total += (gp - gm) / (2.0 * step)
    return total


@pytest.mark.parametrize("kernel", ALL_SCALAR, ids=lambda k: f"{k.family}")
def test_gradients_match_finite_differences(kernel):
    rng = np.random.default_rng(42)
    for _ in range(4):
        x, y = rng.normal(size=3), rng.normal(size=3)
        value, grad1, grad2, _ = _pair(kernel, x, y)
        np.testing.assert_allclose(value, kernel.value(x, y), rtol=1e-14)
        np.testing.assert_allclose(
            grad1, fd_gradient(lambda t: kernel.value(t, y), x), atol=1e-6
        )
        np.testing.assert_allclose(
            grad2, fd_gradient(lambda t: kernel.value(x, t), y), atol=1e-6
        )


@pytest.mark.parametrize("kernel", ALL_SCALAR, ids=lambda k: f"{k.family}")
def test_trace12_matches_finite_differences(kernel):
    # Relative, over several pairs: the nested difference is good to about
    # 5e-7 of trace12 here, so a 1e-4 relative slip in one term shows.
    rng = np.random.default_rng(7)
    for _ in range(4):
        x, y = rng.normal(size=3), rng.normal(size=3)
        np.testing.assert_allclose(
            _pair(kernel, x, y)[3], _fd_trace12(kernel.value, x, y), rtol=TRACE12_RTOL
        )


@pytest.mark.parametrize("kernel", ALL_SCALAR, ids=lambda k: f"{k.family}")
def test_argument_exchange_symmetry(kernel):
    rng = np.random.default_rng(11)
    x, y = rng.normal(size=3), rng.normal(size=3)
    vxy, g1xy, _, txy = _pair(kernel, x, y)
    vyx, _, g2yx, tyx = _pair(kernel, y, x)
    np.testing.assert_allclose(vxy, vyx, rtol=1e-14)
    np.testing.assert_allclose(kernel.value(x, y), kernel.value(y, x), rtol=1e-14)
    np.testing.assert_allclose(g1xy, g2yx, rtol=1e-14)
    np.testing.assert_allclose(txy, tyx, rtol=1e-13)


def test_imq_hand_values():
    k = IMQ(1.0)
    # ||x - y||^2 = 1 gives (1 + 1)^(-1/2).
    np.testing.assert_allclose(
        k.value(np.array([1.0, 0.0]), np.zeros(2)), 2.0**-0.5, rtol=1e-15
    )
    # Diagonal mixed trace is d / ell^2.
    x = np.array([0.3, -1.0, 4.0])
    value, grad1, _, trace12 = _pair(IMQ(2.0), x, x)
    np.testing.assert_allclose(trace12, 3.0 / 4.0, rtol=1e-15)
    np.testing.assert_allclose(value, 1.0, rtol=1e-15)
    np.testing.assert_allclose(IMQ(2.0).value(x, x), 1.0, rtol=1e-15)
    np.testing.assert_allclose(grad1, np.zeros(3), atol=0.0)


def test_gaussian_hand_values():
    k = Gaussian(1.0)
    x, y = np.array([1.0, 1.0]), np.zeros(2)
    np.testing.assert_allclose(k.value(x, y), np.exp(-2.0), rtol=1e-15)
    np.testing.assert_allclose(_pair(Gaussian(2.0), np.zeros(3), np.zeros(3))[3], 6.0 / 4.0,
                               rtol=1e-15)


RADIAL = [IMQ(0.7), Gaussian(1.4), Mixture((IMQ(1.0), Gaussian(0.5)))]


def _profile(kernel, s: np.ndarray, order: int = 3) -> np.ndarray:
    """The profile up to ``order`` at s, into fresh slabs."""
    return kernel.profile(s, order, np.empty((order + 1,) + s.shape))


@pytest.mark.parametrize("kernel", RADIAL)
def test_profile_order_keeps_the_leading_derivatives(kernel):
    # The drift asks for order 1, the sums for 2, the gradient for 3: each
    # order returns its derivatives and the same leading bits.
    s = np.array([0.0, 0.3, 1.7, 6.0])
    full = _profile(kernel, s, 3)
    for order in (1, 2, 3):
        part = _profile(kernel, s, order)
        assert len(part) == order + 1
        for k in range(order + 1):
            np.testing.assert_array_equal(part[k], full[k])


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("kernel", RADIAL, ids=["imq", "gaussian", "radial-mixture"])
def test_profile_into_reused_slabs_matches_fresh_slabs(kernel, order):
    # The row-block pass hands profile views of one reused workspace: a
    # ragged last block takes the leading rows of slabs that a full block,
    # or anything else, wrote before. Nothing stale may reach the result.
    rng = np.random.default_rng(4)
    full, ragged = rng.uniform(0.0, 9.0, size=(2, 5, 7))
    ragged = ragged[:3]
    for stale in (_profile(kernel, full, order), np.full((order + 1, 5, 7), np.nan)):
        got = kernel.profile(ragged, order, stale[:, :3])
        assert np.shares_memory(got, stale)
        np.testing.assert_array_equal(got, _profile(kernel, ragged, order))


@pytest.mark.parametrize("ell", [np.sqrt(0.03), 1.0, 7.0])
def test_imq_profile_matches_its_closed_form(ell):
    # phi(s) = (1 + s / ell^2)^(-1/2), so its k-th derivative is
    # prod_{j < k} -(j + 1/2) / ell^2 times (1 + s / ell^2)^(-1/2 - k),
    # here in long double.
    s = np.concatenate([[0.0], np.logspace(-8, 6, 57)])
    base = 1 + s.astype(np.longdouble) / np.longdouble(ell) ** 2
    got = _profile(IMQ(ell), s)
    coef = np.longdouble(1.0)
    for k in range(4):
        want = coef * base ** (-0.5 - k)
        np.testing.assert_allclose(got[k], want.astype(float), rtol=1e-14, atol=0.0)
        coef *= -(k + 0.5) / np.longdouble(ell) ** 2


@pytest.mark.parametrize("kernel", RADIAL)
def test_profile_third_derivative(kernel):
    # phi''' backs the analytic particle gradient; check it against a central
    # difference of phi'' in the squared-distance argument.
    s = np.array([0.0, 0.3, 1.7, 6.0])
    h = 1e-5
    _, _, d2p, _ = _profile(kernel, s + h)
    _, _, d2m, _ = _profile(kernel, np.maximum(s - h, 0.0))
    _, _, _, d3 = _profile(kernel, s)
    fd = (d2p - d2m) / (np.where(s - h < 0.0, h, 2 * h))
    np.testing.assert_allclose(d3, fd, rtol=1e-4)


class TestMixture:
    def test_default_weights_are_uniform(self):
        mix = Mixture((IMQ(1.0), Gaussian(1.0), IMQ(2.0)))
        np.testing.assert_allclose(mix.weights, [1 / 3] * 3)

    def test_value_is_weighted_sum(self):
        members = (IMQ(0.5), Gaussian(2.0))
        weights = (0.25, 1.5)
        mix = Mixture(members, weights)
        rng = np.random.default_rng(1)
        x, y = rng.normal(size=2), rng.normal(size=2)
        expected = sum(w * m.value(x, y) for w, m in zip(weights, members))
        np.testing.assert_allclose(mix.value(x, y), expected, rtol=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            Mixture(())
        with pytest.raises(ValueError):
            Mixture((IMQ(1.0),), weights=(1.0, 2.0))
        with pytest.raises(ValueError):
            Mixture((IMQ(1.0), IMQ(2.0)), weights=(1.0, -1.0))

    def test_radial_flag_follows_members(self):
        assert Mixture((IMQ(1.0), Gaussian(1.0))).is_radial
        assert not Mixture((IMQ(1.0), NormalizedLinear(1.0))).is_radial

    def test_nonradial_mixture_has_no_profile(self):
        with pytest.raises(NotImplementedError):
            Mixture((IMQ(1.0), NormalizedLinear(1.0))).profile(
                np.array([0.0]), 1, np.empty((2, 1)))


class TestNormalizedLinear:
    def test_unit_diagonal(self):
        k = NormalizedLinear(1.3)
        rng = np.random.default_rng(2)
        for _ in range(5):
            x = rng.normal(size=3) * 3.0
            np.testing.assert_allclose(k.value(x, x), 1.0, rtol=1e-14)

    def test_hand_value(self):
        # Orthogonal unit vectors with c = 1: (1 + 0) / sqrt(2 * 2) = 1/2.
        k = NormalizedLinear(1.0)
        got = k.value(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        np.testing.assert_allclose(got, 0.5, rtol=1e-15)

    def test_bounded_by_one(self):
        # Cauchy-Schwarz in the lifted feature (c, x) u(x).
        k = NormalizedLinear(0.8)
        rng = np.random.default_rng(3)
        x = rng.normal(size=(40, 4)) * 5.0
        vals = np.array([[k.value(a, b) for b in x] for a in x])
        assert np.all(np.abs(vals) <= 1.0 + 1e-12)

    def test_rejects_bad_c(self):
        with pytest.raises(ValueError):
            NormalizedLinear(0.0)


TILTS = [NormalizedLinear(1.3)] + [
    WeightedMatrixKernel(c=1.1, exponent=e, base=IMQ(0.9)) for e in (-1.0, 0.5, 1.0)
]


@pytest.mark.parametrize("tilt", TILTS, ids=["normalized-linear", "exp-1", "exp0.5", "exp1"])
class TestTiltHelpers:
    # The tilt helpers the row-block pass and the particle gradient read:
    # grad log w, and its Hessian along a direction.
    def test_log_weight_grad_matches_fd(self, tilt):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(4, 3))
        got = tilt.log_weight_grad(x)
        for i in range(4):
            np.testing.assert_allclose(
                got[i], fd_gradient(lambda t: float(np.log(tilt.weight(t))), x[i]), atol=1e-6
            )

    def test_log_weight_hvp_matches_fd(self, tilt):
        rng = np.random.default_rng(9)
        x, v = rng.normal(size=(2, 4, 3))
        h = 1e-5
        fd = (tilt.log_weight_grad(x + h * v) - tilt.log_weight_grad(x - h * v)) / (2.0 * h)
        np.testing.assert_allclose(tilt.log_weight_hvp(x, v), fd, atol=1e-6)


class TestWeightedMatrixKernel:
    def test_zero_exponent_reduces_to_combined(self):
        k = WeightedMatrixKernel(c=1.0, exponent=0.0, base=IMQ(0.7))
        rng = np.random.default_rng(6)
        x = rng.normal(size=(3, 2))
        y = rng.normal(size=(4, 2))
        np.testing.assert_allclose(k.value(x[0], y[1]), k.inner.value(x[0], y[1]), rtol=1e-14)
        ours = kernel_derivatives(k, x, y)
        plain = kernel_derivatives(k.inner, x, y)
        np.testing.assert_allclose(ours.value, plain.value, rtol=1e-14)
        np.testing.assert_allclose(ours.grad1, plain.grad1, atol=1e-14)
        np.testing.assert_allclose(ours.trace12, plain.trace12, atol=1e-13)

    def test_rejects_bad_c(self):
        with pytest.raises(ValueError):
            WeightedMatrixKernel(c=-1.0)
