"""Loss values, first-variation gradients, and second-order blocks.

Every analytic route is checked against an independent assembly: hand
formulas for the closed-form losses, explicit pair loops for the predictive
kernel loss, Gauss-Hermite quadrature for the noise-averaged kernels, and
finite differences of the particle objective for the var_grad identity.
"""

import numpy as np
import pytest

from kgd.core import EmpiricalMeasure
from kgd.losses import (
    InteractionLoss,
    LinearLoss,
    MeanFieldRegressionLoss,
    PredictiveKernelLoss,
    VariationalLoss,
    ZeroLoss,
    euclid_identity_check,
    gaussian_overlap,
    gaussian_smooth,
    )
from kgd.models import gen_mfnn_data
from kgd.oracles import fd_gradient, gauss_hermite_2d

IDENTITY_TOL = 1e-4  # var_grad vs n * FD gradient of the particle objective
JAC_TOL = 1e-6  # analytic jacobian blocks vs central differences
QUAD_TOL = 1e-8  # closed-form kernel expectations vs quadrature


def _fd_jacobian(loss: VariationalLoss, atoms: np.ndarray) -> np.ndarray:
    """Central-difference d var_grad(Q, x_i) / d x_m with x_i tied to atom i."""
    n, d = atoms.shape
    out = np.zeros((n, n, d, d))
    h = 1e-6
    for m in range(n):
        for a in range(d):
            for sign in (1.0, -1.0):
                moved = atoms.copy()
                moved[m, a] += sign * h
                vg = loss.var_grad(EmpiricalMeasure(moved), moved)  # (n, d)
                out[:, m, :, a] += sign * vg / (2.0 * h)
    return out


def _assembled_jacobian(loss: VariationalLoss, measure: EmpiricalMeasure) -> np.ndarray:
    diag, cross = loss.var_grad_jacobian(measure)
    full = cross.copy()
    idx = np.arange(measure.n)
    full[idx, idx] += diag
    return full


class TestZeroLoss:
    def test_value_and_gradient_vanish(self):
        loss = ZeroLoss()
        atoms = np.arange(6.0).reshape(3, 2)
        measure = EmpiricalMeasure(atoms)
        assert loss.value(measure) == 0.0
        np.testing.assert_array_equal(loss.var_grad(measure, atoms), np.zeros((3, 2)))
        np.testing.assert_array_equal(loss.var_grad(measure, atoms[0]), np.zeros(2))

    def test_jacobian_blocks_are_zero(self):
        loss = ZeroLoss()
        measure = EmpiricalMeasure(np.ones((4, 3)))
        diag, cross = loss.var_grad_jacobian(measure)
        assert diag.shape == (4, 3, 3) and not diag.any()
        assert cross.shape == (4, 4, 3, 3) and not cross.any()

    def test_flags(self):
        assert ZeroLoss().has_value and ZeroLoss().has_second_order


class TestLinearLoss:
    def test_quadratic_gradient_by_hand(self):
        center = np.array([1.0, -2.0])
        weights = np.array([3.0, 0.5])
        loss = LinearLoss.quadratic(center, weights)
        measure = EmpiricalMeasure(np.zeros((2, 2)))
        x = np.array([2.0, 1.0])
        np.testing.assert_allclose(
            loss.var_grad(measure, x), weights * (x - center), rtol=1e-15
        )

    def test_quadratic_value_by_hand(self):
        rng = np.random.default_rng(3)
        center = rng.standard_normal(3)
        weights = rng.uniform(0.5, 2.0, size=3)
        atoms = rng.standard_normal((5, 3))
        loss = LinearLoss.quadratic(center, weights)
        expected = np.mean(
            [0.5 * np.sum(weights * (a - center) ** 2) for a in atoms]
        )
        np.testing.assert_allclose(
            loss.value(EmpiricalMeasure(atoms)), expected, rtol=1e-14
        )

    def test_gradient_ignores_the_measure(self):
        loss = LinearLoss.quadratic(np.zeros(2), np.ones(2))
        x = np.array([0.3, -0.7])
        one = loss.var_grad(EmpiricalMeasure(np.zeros((1, 2))), x)
        other = loss.var_grad(EmpiricalMeasure(np.full((9, 2), 5.0)), x)
        np.testing.assert_array_equal(one, other)

    def test_batched_matches_single(self):
        loss = LinearLoss.quadratic(np.array([1.0, 0.0]), np.array([2.0, 3.0]))
        measure = EmpiricalMeasure(np.zeros((1, 2)))
        xs = np.random.default_rng(0).standard_normal((4, 2))
        batch = loss.var_grad(measure, xs)
        singles = np.stack([loss.var_grad(measure, x) for x in xs])
        np.testing.assert_array_equal(batch, singles)

    def test_jacobian_blocks(self):
        weights = np.array([2.0, 0.5])
        loss = LinearLoss.quadratic(np.zeros(2), weights)
        atoms = np.random.default_rng(1).standard_normal((3, 2))
        measure = EmpiricalMeasure(atoms)
        diag, cross = loss.var_grad_jacobian(measure)
        np.testing.assert_array_equal(diag, np.stack([np.diag(weights)] * 3))
        assert not cross.any()
        np.testing.assert_allclose(
            _assembled_jacobian(loss, measure), _fd_jacobian(loss, atoms), atol=JAC_TOL
        )

    def test_second_order_requires_hessian(self):
        loss = LinearLoss(u=lambda x: np.sum(x, axis=-1), grad_u=np.ones_like)
        assert not loss.has_second_order
        with pytest.raises(NotImplementedError):
            loss.var_grad_jacobian(EmpiricalMeasure(np.zeros((2, 2))))


class TestInteractionLoss:
    def test_two_atom_value_by_hand(self):
        loss = InteractionLoss.quadratic()
        atoms = np.array([[0.0, 1.0], [2.0, -1.0]])
        expected = np.sum((atoms[0] - atoms[1]) ** 2) / 4.0
        np.testing.assert_allclose(
            loss.value(EmpiricalMeasure(atoms)), expected, rtol=1e-15
        )

    def test_gradient_by_hand(self):
        loss = InteractionLoss.quadratic()
        atoms = np.random.default_rng(2).standard_normal((6, 3))
        measure = EmpiricalMeasure(atoms)
        x = np.array([0.5, -1.0, 2.0])
        np.testing.assert_allclose(
            loss.var_grad(measure, x), 2.0 * (x - atoms.mean(axis=0)), rtol=1e-13
        )

    def test_closed_form_score_matches_generic_route(self):
        quad = InteractionLoss.quadratic()
        generic = InteractionLoss(
            quad.pair_value, quad.pair_grad1, quad.pair_grad11, quad.pair_grad12
        )
        rng = np.random.default_rng(7)
        atoms = rng.standard_normal((9, 3))
        measure = EmpiricalMeasure(atoms)
        off_atom = 3.0 * rng.standard_normal((5, 3))
        for x in (atoms, off_atom, off_atom[0]):
            fast = quad.var_grad(measure, x)
            slow = generic.var_grad(measure, x)
            assert fast.shape == slow.shape
            assert np.max(np.abs(fast - slow)) <= 1e-13 * np.max(np.abs(slow))

    def test_jacobian_blocks_by_hand(self):
        loss = InteractionLoss.quadratic()
        atoms = np.random.default_rng(4).standard_normal((4, 2))
        measure = EmpiricalMeasure(atoms)
        diag, cross = loss.var_grad_jacobian(measure)
        np.testing.assert_allclose(diag, np.stack([2.0 * np.eye(2)] * 4), rtol=1e-15)
        np.testing.assert_allclose(
            cross, np.broadcast_to(-0.5 * np.eye(2), (4, 4, 2, 2)), rtol=1e-15
        )
        np.testing.assert_allclose(
            _assembled_jacobian(loss, measure), _fd_jacobian(loss, atoms), atol=JAC_TOL
        )

    def test_generic_pair_function(self):
        # A non-quadratic interaction exercises the generic assembly.
        def value(x, y):
            return np.exp(-0.5 * np.sum((x[:, None, :] - y[None, :, :]) ** 2, axis=-1))

        def grad1(x, y):
            diff = x[:, None, :] - y[None, :, :]
            return -value(x, y)[..., None] * diff

        loss = InteractionLoss(value, grad1)
        assert not loss.has_second_order
        atoms = np.random.default_rng(5).standard_normal((5, 2))
        measure = EmpiricalMeasure(atoms)
        assert euclid_identity_check(loss, measure, 2) < IDENTITY_TOL
        with pytest.raises(NotImplementedError):
            loss.var_grad_jacobian(measure)


class TestMeanFieldRegression:
    def _hand_network(self, z: float, x: np.ndarray) -> float:
        w1, b1, w2, b2 = x
        return w2 * np.tanh(w1 * z + b1) + b2

    def _hand_grad(self, z: float, x: np.ndarray) -> np.ndarray:
        w1, b1, w2, b2 = x
        t = np.tanh(w1 * z + b1)
        return np.array([w2 * (1.0 - t**2) * z, w2 * (1.0 - t**2), t, 1.0])

    def test_value_against_hand_assembly(self):
        rng = np.random.default_rng(6)
        z = np.array([0.2, 0.7, 0.9])
        y = np.array([1.0, -0.5, 0.25])
        atoms = rng.standard_normal((2, 4))
        loss = MeanFieldRegressionLoss(z, y, lam=7.0)
        preds = np.array(
            [np.mean([self._hand_network(zi, a) for a in atoms]) for zi in z]
        )
        expected = 7.0 / z.size * np.sum((y - preds) ** 2)
        np.testing.assert_allclose(
            loss.value(EmpiricalMeasure(atoms)), expected, rtol=1e-13
        )

    def test_gradient_against_hand_assembly(self):
        rng = np.random.default_rng(7)
        z = np.array([0.1, 0.6])
        y = np.array([0.5, -1.5])
        atoms = rng.standard_normal((3, 4))
        loss = MeanFieldRegressionLoss(z, y, lam=2.0)
        measure = EmpiricalMeasure(atoms)
        x = rng.standard_normal(4)
        preds = np.array(
            [np.mean([self._hand_network(zi, a) for a in atoms]) for zi in z]
        )
        expected = -(2.0 * 2.0 / z.size) * sum(
            (yi - pi) * self._hand_grad(zi, x) for zi, yi, pi in zip(z, y, preds)
        )
        np.testing.assert_allclose(loss.var_grad(measure, x), expected, rtol=1e-12)

    def test_batched_matches_single(self):
        data = gen_mfnn_data(0, n_data=20)
        loss = MeanFieldRegressionLoss(data.covariates, data.responses)
        rng = np.random.default_rng(8)
        measure = EmpiricalMeasure(rng.standard_normal((4, 4)))
        xs = rng.standard_normal((5, 4))
        batch = loss.var_grad(measure, xs)
        singles = np.stack([loss.var_grad(measure, x) for x in xs])
        np.testing.assert_array_equal(batch, singles)

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="matching"):
            MeanFieldRegressionLoss(np.zeros(3), np.zeros(4))
        with pytest.raises(ValueError, match="matching"):
            MeanFieldRegressionLoss(np.zeros((3, 1)), np.zeros((3, 1)))


class TestGaussianOverlap:
    def test_matches_quadrature(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            a, b = rng.standard_normal(2)
            sigma = rng.uniform(0.1, 2.0)
            quad = gauss_hermite_2d(
                lambda y, yp: np.exp(-0.5 * (y - yp) ** 2), (a, b), sigma, order=60
            )
            assert abs(gaussian_overlap(a, b, sigma) - quad) < QUAD_TOL

    def test_equal_means_unit_noise(self):
        np.testing.assert_allclose(
            gaussian_overlap(0.7, 0.7, 1.0), 1.0 / np.sqrt(3.0), rtol=1e-15
        )

    def test_noise_free_limit_is_the_kernel(self):
        a, b = 0.3, -1.2
        np.testing.assert_allclose(
            gaussian_overlap(a, b, 0.0), np.exp(-0.5 * (a - b) ** 2), rtol=1e-15
        )

    def test_symmetric_and_broadcasting(self):
        a = np.array([0.0, 1.0, 2.0])
        b = np.array([[0.5], [1.5]])
        fwd = gaussian_overlap(a, b, 0.8)
        assert fwd.shape == (2, 3)
        np.testing.assert_array_equal(fwd, gaussian_overlap(b, a, 0.8))


class TestGaussianSmooth:
    def test_matches_quadrature(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            obs, mean = rng.standard_normal(2)
            sigma = rng.uniform(0.1, 2.0)
            quad = gauss_hermite_2d(
                lambda y, yp: np.exp(-0.5 * (obs - y) ** 2), (mean, 0.0), sigma, order=60
            )
            assert abs(gaussian_smooth(obs, mean, sigma) - quad) < QUAD_TOL

    def test_hand_values(self):
        np.testing.assert_allclose(
            gaussian_smooth(1.3, 1.3, 2.0), 1.0 / np.sqrt(5.0), rtol=1e-15
        )
        np.testing.assert_allclose(
            gaussian_smooth(1.0, 0.0, 0.0), np.exp(-0.5), rtol=1e-15
        )


def _wave_solver(points: np.ndarray, times: np.ndarray):
    """Closed-form two-species trajectories with exact sensitivities.

    Solver-shaped stand-in: (m, 2) parameters and (N,) times give means
    (m, N, 2) and sensitivities (m, N, 2, 2), cheap enough for loops.
    """
    pts = np.asarray(points, dtype=float)
    t = np.asarray(times, dtype=float)
    x0 = pts[:, 0][:, None]
    x1 = pts[:, 1][:, None]
    means = np.empty((pts.shape[0], t.size, 2))
    means[:, :, 0] = np.sin(x0 * t)
    means[:, :, 1] = x1 * t**2 + x0
    sens = np.zeros((pts.shape[0], t.size, 2, 2))
    sens[:, :, 0, 0] = t * np.cos(x0 * t)
    sens[:, :, 1, 0] = 1.0
    sens[:, :, 1, 1] = t**2
    return means, sens


def _wave_loss(sigma: float = 0.7, lam: float = 0.05) -> PredictiveKernelLoss:
    times = np.array([0.5, 1.0, 1.75, 2.5])
    rng = np.random.default_rng(11)
    obs = rng.standard_normal((times.size, 2))
    return PredictiveKernelLoss(times, obs, sigma=sigma, lam=lam, solver=_wave_solver)


def _brute_pair(loss: PredictiveKernelLoss, x: np.ndarray, y: np.ndarray) -> float:
    """Pair function assembled with explicit loops over times and species."""
    mx = loss.solver(x[None, :], loss.times)[0][0]  # (N, s)
    my = loss.solver(y[None, :], loss.times)[0][0]
    obs = loss.observations
    n_obs, n_species = obs.shape
    cross = 0.0
    for i in range(n_obs):
        for j in range(n_obs):
            term = 1.0
            for s in range(n_species):
                term *= gaussian_overlap(mx[i, s], my[j, s], loss.sigma)
            cross += term
    cross /= n_obs**2
    fits = []
    for m in (mx, my):
        total = 0.0
        for i in range(n_obs):
            term = 1.0
            for s in range(n_species):
                term *= gaussian_smooth(obs[i, s], m[i, s], loss.sigma)
            total += term
        fits.append(total / n_obs)
    return cross - fits[0] - fits[1]


class TestPredictiveKernelLoss:
    def test_pair_terms_against_loops(self):
        loss = _wave_loss()
        rng = np.random.default_rng(12)
        for _ in range(4):
            x, y = rng.standard_normal((2, 2))
            value, _ = loss.pair_terms(x, y)
            np.testing.assert_allclose(value, _brute_pair(loss, x, y), rtol=1e-12)

    def test_pair_gradient_against_finite_differences(self):
        loss = _wave_loss()
        rng = np.random.default_rng(13)
        x, y = rng.standard_normal((2, 2))
        _, grad = loss.pair_terms(x, y)
        fd = fd_gradient(lambda xx: _brute_pair(loss, xx, y), x)
        np.testing.assert_allclose(grad, fd, atol=1e-8)

    def test_value_against_loops(self):
        loss = _wave_loss()
        atoms = np.random.default_rng(14).standard_normal((3, 2))
        measure = EmpiricalMeasure(atoms)
        total = sum(
            _brute_pair(loss, a, b) for a in atoms for b in atoms
        )
        expected = total / (2.0 * loss.lam * measure.n**2)
        np.testing.assert_allclose(loss.value(measure), expected, rtol=1e-12)

    def test_var_grad_against_pair_gradients(self):
        loss = _wave_loss()
        rng = np.random.default_rng(15)
        atoms = rng.standard_normal((4, 2))
        measure = EmpiricalMeasure(atoms)
        x = rng.standard_normal(2)
        expected = sum(loss.pair_terms(x, a)[1] for a in atoms) / (
            measure.n * loss.lam
        )
        np.testing.assert_allclose(loss.var_grad(measure, x), expected, rtol=1e-12)

    def test_particle_gradient_identity(self):
        loss = _wave_loss()
        atoms = np.random.default_rng(16).standard_normal((3, 2))
        measure = EmpiricalMeasure(atoms)
        assert euclid_identity_check(loss, measure, 1) < IDENTITY_TOL

    def test_default_regularisation_scales_with_data(self):
        times = np.linspace(0.5, 2.0, 8)
        obs = np.zeros((8, 2))
        loss = PredictiveKernelLoss(times, obs, solver=_wave_solver)
        np.testing.assert_allclose(loss.lam, 0.1 / 8)

    def test_observation_promotion_and_validation(self):
        loss = PredictiveKernelLoss(
            np.array([1.0, 2.0]), np.array([0.1, 0.2]), solver=_wave_solver
        )
        assert loss.observations.shape == (2, 1)
        with pytest.raises(ValueError, match="align"):
            PredictiveKernelLoss(
                np.array([1.0, 2.0]), np.zeros((3, 2)), solver=_wave_solver
            )

    def test_cache_avoids_repeat_solves(self):
        calls = []

        def counting_solver(points, times):
            calls.append(len(points))
            return _wave_solver(points, times)

        times = np.array([0.5, 1.5])
        obs = np.zeros((2, 2))
        loss = PredictiveKernelLoss(times, obs, solver=counting_solver)
        atoms = np.random.default_rng(17).standard_normal((5, 2))
        measure = EmpiricalMeasure(atoms)
        loss.prefetch(atoms)
        assert calls == [5] and loss.n_solves == 5
        loss.value(measure)
        loss.var_grad(measure, atoms)
        assert calls == [5]  # every point already cached
        loss.var_grad(measure, np.array([9.0, 9.0]))
        assert calls == [5, 1] and loss.n_solves == 6

    def test_cache_eviction_keeps_answers_stable(self):
        loss = _wave_loss()
        loss.max_cache = 2
        rng = np.random.default_rng(18)
        atoms = rng.standard_normal((2, 2))
        measure = EmpiricalMeasure(atoms)
        first = loss.value(measure)
        loss.prefetch(rng.standard_normal((3, 2)))  # overflows, cache resets
        assert len(loss._cache) <= 3
        np.testing.assert_allclose(loss.value(measure), first, rtol=1e-15)


class TestEuclidIdentity:
    def test_requires_a_scalar_value(self):
        class GradOnly(VariationalLoss):
            def var_grad(self, measure, x):
                return np.zeros_like(np.asarray(x, dtype=float))

        with pytest.raises(ValueError, match="scalar value"):
            euclid_identity_check(GradOnly(), EmpiricalMeasure(np.zeros((2, 2))), 0)

    @pytest.mark.parametrize("index", [0, 3])
    def test_closed_form_losses(self, index):
        rng = np.random.default_rng(19)
        atoms2 = rng.standard_normal((5, 2))
        data = gen_mfnn_data(0, n_data=30)
        cases = [
            (LinearLoss.quadratic(np.zeros(2), np.array([1.0, 2.0])), atoms2),
            (InteractionLoss.quadratic(), atoms2),
            (
                MeanFieldRegressionLoss(data.covariates, data.responses),
                rng.standard_normal((5, 4)),
            ),
        ]
        for loss, atoms in cases:
            residual = euclid_identity_check(loss, EmpiricalMeasure(atoms), index)
            assert residual < IDENTITY_TOL
