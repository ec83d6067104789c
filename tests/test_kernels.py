"""Kernel derivative bundles against finite differences and hand values."""

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
from kgd.oracles import fd_gradient

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
        b = kernel.bundle(x, y)
        np.testing.assert_allclose(
            b.grad1, fd_gradient(lambda t: kernel.value(t, y), x), atol=1e-6
        )
        np.testing.assert_allclose(
            b.grad2, fd_gradient(lambda t: kernel.value(x, t), y), atol=1e-6
        )


@pytest.mark.parametrize("kernel", ALL_SCALAR, ids=lambda k: f"{k.family}")
def test_trace12_matches_finite_differences(kernel):
    # Relative, over several pairs: the nested difference is good to about
    # 5e-7 of trace12 here, so a 1e-4 relative slip in one term shows.
    rng = np.random.default_rng(7)
    for _ in range(4):
        x, y = rng.normal(size=3), rng.normal(size=3)
        b = kernel.bundle(x, y)
        np.testing.assert_allclose(
            b.trace12, _fd_trace12(kernel.value, x, y), rtol=TRACE12_RTOL
        )


@pytest.mark.parametrize("kernel", ALL_SCALAR, ids=lambda k: f"{k.family}")
def test_argument_exchange_symmetry(kernel):
    rng = np.random.default_rng(11)
    x, y = rng.normal(size=3), rng.normal(size=3)
    bxy = kernel.bundle(x, y)
    byx = kernel.bundle(y, x)
    np.testing.assert_allclose(bxy.value, byx.value, rtol=1e-14)
    np.testing.assert_allclose(bxy.grad1, byx.grad2, rtol=1e-14)
    np.testing.assert_allclose(bxy.trace12, byx.trace12, rtol=1e-13)


@pytest.mark.parametrize("kernel", ALL_SCALAR, ids=lambda k: f"{k.family}")
def test_pairwise_agrees_with_bundles(kernel):
    rng = np.random.default_rng(23)
    x = rng.normal(size=(4, 3))
    y = rng.normal(size=(5, 3))
    pw = kernel.pairwise(x, y)
    assert pw.value.shape == (4, 5) and pw.grad1.shape == (4, 5, 3)
    for i in (0, 3):
        for j in (1, 4):
            b = kernel.bundle(x[i], y[j])
            np.testing.assert_allclose(pw.value[i, j], b.value, rtol=1e-14)
            np.testing.assert_allclose(pw.grad1[i, j], b.grad1, rtol=1e-14)
            np.testing.assert_allclose(pw.grad2[i, j], b.grad2, rtol=1e-14)
            np.testing.assert_allclose(pw.trace12[i, j], b.trace12, rtol=1e-13)


def test_imq_hand_values():
    k = IMQ(1.0)
    # ||x - y||^2 = 1 gives (1 + 1)^(-1/2).
    np.testing.assert_allclose(
        k.value(np.array([1.0, 0.0]), np.zeros(2)), 2.0**-0.5, rtol=1e-15
    )
    # Diagonal mixed trace is d / ell^2.
    b = IMQ(2.0).bundle(np.array([0.3, -1.0, 4.0]), np.array([0.3, -1.0, 4.0]))
    np.testing.assert_allclose(b.trace12, 3.0 / 4.0, rtol=1e-15)
    np.testing.assert_allclose(b.value, 1.0, rtol=1e-15)
    np.testing.assert_allclose(b.grad1, np.zeros(3), atol=0.0)


def test_gaussian_hand_values():
    k = Gaussian(1.0)
    x, y = np.array([1.0, 1.0]), np.zeros(2)
    np.testing.assert_allclose(k.value(x, y), np.exp(-2.0), rtol=1e-15)
    b = Gaussian(2.0).bundle(np.zeros(3), np.zeros(3))
    np.testing.assert_allclose(b.trace12, 6.0 / 4.0, rtol=1e-15)


@pytest.mark.parametrize("kernel", [IMQ(0.7), Gaussian(1.4), Mixture((IMQ(1.0), Gaussian(0.5)))])
def test_profile_order_keeps_the_leading_derivatives(kernel):
    # The drift asks for order 1, the sums for 2, the gradient for 3: each
    # order returns its derivatives and the same leading bits.
    s = np.array([0.0, 0.3, 1.7, 6.0])
    full = kernel.profile(s, 3)
    for order in (1, 2, 3):
        part = kernel.profile(s, order)
        assert len(part) == order + 1
        for k in range(order + 1):
            np.testing.assert_array_equal(part[k], full[k])


@pytest.mark.parametrize("kernel", [IMQ(0.7), Gaussian(1.4), Mixture((IMQ(1.0), Gaussian(0.5)))])
def test_profile_third_derivative(kernel):
    # phi''' backs the analytic particle gradient; check it against a central
    # difference of phi'' in the squared-distance argument.
    s = np.array([0.0, 0.3, 1.7, 6.0])
    h = 1e-5
    _, _, d2p, _ = kernel.profile(s + h)
    _, _, d2m, _ = kernel.profile(np.maximum(s - h, 0.0))
    _, _, _, d3 = kernel.profile(s)
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
            Mixture((IMQ(1.0), NormalizedLinear(1.0))).profile(np.array([0.0]))


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
        vals = k.pairwise(x, x).value
        assert np.all(np.abs(vals) <= 1.0 + 1e-12)

    def test_rejects_bad_c(self):
        with pytest.raises(ValueError):
            NormalizedLinear(0.0)


class TestWeightedMatrixKernel:
    def test_weight_grad_matches_fd(self):
        k = WeightedMatrixKernel(c=1.1, exponent=0.4, base=IMQ(0.9))
        rng = np.random.default_rng(5)
        for _ in range(4):
            x = rng.normal(size=3)
            np.testing.assert_allclose(
                k.weight_grad(x),
                fd_gradient(lambda t: float(k.weight(t)), x),
                atol=1e-6,
            )

    def test_zero_exponent_reduces_to_combined(self):
        k = WeightedMatrixKernel(c=1.0, exponent=0.0, base=IMQ(0.7))
        rng = np.random.default_rng(6)
        x = rng.normal(size=(3, 2))
        y = rng.normal(size=(4, 2))
        ours = k.pairwise(x, y)
        plain = k.inner.pairwise(x, y)
        np.testing.assert_allclose(ours.value, plain.value, rtol=1e-14)
        np.testing.assert_allclose(ours.grad1, plain.grad1, atol=1e-14)
        np.testing.assert_allclose(ours.trace12, plain.trace12, atol=1e-13)

    def test_rejects_bad_c(self):
        with pytest.raises(ValueError):
            WeightedMatrixKernel(c=-1.0)
