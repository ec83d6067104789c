"""Empirical measures, the diagonal Gaussian reference, and seeded streams."""

import numpy as np
import pytest

from kgd.core import (
    DiagonalGaussian,
    EmpiricalMeasure,
    seeded_stream,
)
from kgd.oracles import fd_gradient


class TestEmpiricalMeasure:
    def test_shape_and_accessors(self):
        m = EmpiricalMeasure(np.zeros((5, 3)))
        assert m.n == 5 and m.atoms.shape == (5, 3)

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ValueError):
            EmpiricalMeasure(np.zeros(4))
        with pytest.raises(ValueError):
            EmpiricalMeasure(np.zeros((2, 2, 2)))

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError):
            EmpiricalMeasure(np.zeros((0, 2)))
        with pytest.raises(ValueError):
            EmpiricalMeasure(np.array([[0.0, np.nan]]))


class TestDiagonalGaussian:
    def test_log_grad_matches_fd_of_log_density(self):
        ref = DiagonalGaussian(np.array([1.0, -2.0]), np.array([0.5, 3.0]))

        def log_density(x):
            return float(-0.5 * np.sum((x - ref.mean) ** 2 / ref.variances))

        rng = np.random.default_rng(3)
        for _ in range(5):
            x = rng.normal(size=2) * 2.0
            np.testing.assert_allclose(
                ref.log_grad(x), fd_gradient(log_density, x), atol=1e-6
            )

    def test_log_grad_broadcasts(self):
        ref = DiagonalGaussian.standard(3)
        x = np.arange(12.0).reshape(4, 3)
        np.testing.assert_array_equal(ref.log_grad(x), -x)

    def test_sample_moments(self):
        ref = DiagonalGaussian(np.array([2.0, -1.0]), np.array([1.0, 9.0]))
        draws = ref.sample(np.random.default_rng(0), 200_000)
        np.testing.assert_allclose(draws.mean(axis=0), ref.mean, atol=0.03)
        np.testing.assert_allclose(draws.var(axis=0), ref.variances, rtol=0.02)

    def test_constructors(self):
        assert DiagonalGaussian.standard(4).dim == 4

    def test_rejects_bad_variances(self):
        with pytest.raises(ValueError):
            DiagonalGaussian(np.zeros(2), np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            DiagonalGaussian(np.zeros(2), np.array([1.0]))


class TestSeededStream:
    def test_reproducible(self):
        a = seeded_stream(7, "x", 3).standard_normal(8)
        b = seeded_stream(7, "x", 3).standard_normal(8)
        np.testing.assert_array_equal(a, b)

    def test_labels_separate_streams(self):
        a = seeded_stream(7, "x").standard_normal(8)
        b = seeded_stream(7, "y").standard_normal(8)
        c = seeded_stream(8, "x").standard_normal(8)
        assert np.any(a != b) and np.any(a != c)

    def test_label_types_are_distinguished(self):
        a = seeded_stream(0, 1).standard_normal(4)
        b = seeded_stream(0, "1").standard_normal(4)
        assert np.any(a != b)

    def test_independent_of_creation_order(self):
        # Drawing from one stream must not perturb another; addresses are
        # absolute, not positional.
        first = seeded_stream(5, "a").standard_normal(4)
        other = seeded_stream(5, "b")
        other.standard_normal(100)
        again = seeded_stream(5, "a").standard_normal(4)
        np.testing.assert_array_equal(first, again)

    def test_seed_keeps_every_bit(self):
        # Seeds of 2**32 and more are not masked to 32 bits, so they no
        # longer replay seed 0; seeds below 2**32 keep their streams.
        a = seeded_stream(2**32, "x").standard_normal(4)
        b = seeded_stream(0, "x").standard_normal(4)
        assert np.any(a != b)
        assert seeded_stream(5, "init", 2).standard_normal(3).tolist() == [
            -1.2655074013038752, -1.7291449086184387, 0.21337807519016047]

    def test_negative_seed_is_refused(self):
        with pytest.raises(ValueError, match="got -1"):
            seeded_stream(-1, "x")
