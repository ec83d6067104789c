"""Loss values, first-variation gradients, and their vector-Jacobian products.

Every analytic route is checked against an independent assembly: hand
formulas for the closed-form losses, explicit pair loops for the predictive
kernel loss, Gauss-Hermite quadrature for the noise-averaged kernels, and
finite differences of the particle objective for the var_grad identity.
"""

import numpy as np
import pytest

from kgd import losses
from kgd.core import EmpiricalMeasure
from kgd.losses import (
    InteractionLoss,
    LinearLoss,
    MeanFieldRegressionLoss,
    PredictiveKernelLoss,
    VariationalLoss,
    ZeroLoss,
    gaussian_smooth,
    )
from kgd.models import gen_mfnn_data
from kgd.oracles import (euclid_identity_check, fd_gradient, gauss_hermite_2d, gaussian_overlap,
                         reference_cross_term, reference_mean_field)

IDENTITY_TOL = 1e-4  # var_grad vs n * FD gradient of the particle objective
JAC_TOL = 1e-6  # var_grad_vjp vs the central-difference jacobian
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


def _fd_vjp(loss: VariationalLoss, atoms: np.ndarray, u: np.ndarray) -> np.ndarray:
    """sum_i (d var_grad(Q, x_i) / d x_m)^T u_i from the central-difference jacobian."""
    return np.einsum("imac,ia->mc", _fd_jacobian(loss, atoms), u)


class TestZeroLoss:
    def test_value_and_gradient_vanish(self):
        loss = ZeroLoss()
        atoms = np.arange(6.0).reshape(3, 2)
        measure = EmpiricalMeasure(atoms)
        assert loss.value(measure) == 0.0
        np.testing.assert_array_equal(loss.var_grad(measure, atoms), np.zeros((3, 2)))
        np.testing.assert_array_equal(loss.var_grad(measure, atoms[0]), np.zeros(2))

    def test_jacobian_blocks_are_zero(self):
        # The scores never move, so every vector-jacobian product vanishes.
        loss = ZeroLoss()
        measure = EmpiricalMeasure(np.ones((4, 3)))
        vjp = loss.var_grad_vjp(measure, np.random.default_rng(0).standard_normal((4, 3)))
        assert vjp.shape == (4, 3) and not vjp.any()


class TestLinearLoss:
    def test_quadratic_gradient_by_hand(self):
        center = np.array([1.0, -2.0])
        weights = np.array([3.0, 0.5])
        loss = LinearLoss(center, weights)
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
        loss = LinearLoss(center, weights)
        expected = np.mean(
            [0.5 * np.sum(weights * (a - center) ** 2) for a in atoms]
        )
        np.testing.assert_allclose(
            loss.value(EmpiricalMeasure(atoms)), expected, rtol=1e-14
        )

    def test_gradient_ignores_the_measure(self):
        loss = LinearLoss(np.zeros(2), np.ones(2))
        x = np.array([0.3, -0.7])
        one = loss.var_grad(EmpiricalMeasure(np.zeros((1, 2))), x)
        other = loss.var_grad(EmpiricalMeasure(np.full((9, 2), 5.0)), x)
        np.testing.assert_array_equal(one, other)

    def test_batched_matches_single(self):
        loss = LinearLoss(np.array([1.0, 0.0]), np.array([2.0, 3.0]))
        measure = EmpiricalMeasure(np.zeros((1, 2)))
        xs = np.random.default_rng(0).standard_normal((4, 2))
        batch = loss.var_grad(measure, xs)
        singles = np.stack([loss.var_grad(measure, x) for x in xs])
        np.testing.assert_array_equal(batch, singles)

    def test_jacobian_blocks(self):
        # Each score moves with its own atom only, through the Hessian of u.
        weights = np.array([2.0, 0.5])
        loss = LinearLoss(np.zeros(2), weights)
        rng = np.random.default_rng(1)
        atoms = rng.standard_normal((3, 2))
        u = rng.standard_normal((3, 2))
        vjp = loss.var_grad_vjp(EmpiricalMeasure(atoms), u)
        np.testing.assert_array_equal(vjp, weights * u)
        np.testing.assert_allclose(vjp, _fd_vjp(loss, atoms, u), atol=JAC_TOL)


class TestInteractionLoss:
    def test_two_atom_value_by_hand(self):
        loss = InteractionLoss()
        atoms = np.array([[0.0, 1.0], [2.0, -1.0]])
        expected = np.sum((atoms[0] - atoms[1]) ** 2) / 4.0
        np.testing.assert_allclose(
            loss.value(EmpiricalMeasure(atoms)), expected, rtol=1e-15
        )

    def test_gradient_by_hand(self):
        loss = InteractionLoss()
        atoms = np.random.default_rng(2).standard_normal((6, 3))
        measure = EmpiricalMeasure(atoms)
        x = np.array([0.5, -1.0, 2.0])
        np.testing.assert_allclose(
            loss.var_grad(measure, x), 2.0 * (x - atoms.mean(axis=0)), rtol=1e-13
        )

    def test_jacobian_blocks_by_hand(self):
        # d var_grad_i / d x_m = 2 (1[i == m] - 1/n) I, so with n = 4 the
        # product is 2 u_m - (1/2) sum_i u_i.
        loss = InteractionLoss()
        rng = np.random.default_rng(4)
        atoms = rng.standard_normal((4, 2))
        u = rng.standard_normal((4, 2))
        vjp = loss.var_grad_vjp(EmpiricalMeasure(atoms), u)
        np.testing.assert_allclose(vjp, 2.0 * u - 0.5 * u.sum(axis=0), rtol=1e-14, atol=1e-15)
        np.testing.assert_allclose(vjp, _fd_vjp(loss, atoms, u), atol=JAC_TOL)


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
        preds = np.array(
            [np.mean([self._hand_network(zi, a) for a in atoms]) for zi in z]
        )
        # A point off the atoms, and the atoms themselves (the fitted branch).
        for x in (rng.standard_normal((1, 4)), atoms):
            expected = -(2.0 * 2.0 / z.size) * sum(
                (yi - pi) * np.array([self._hand_grad(zi, xi) for xi in x])
                for zi, yi, pi in zip(z, y, preds)
            )
            np.testing.assert_allclose(loss.var_grad(measure, x), expected, rtol=1e-12)

    def test_batched_matches_single(self):
        data = gen_mfnn_data(0, n_data=20)
        loss = MeanFieldRegressionLoss(data.covariates, data.responses)
        rng = np.random.default_rng(8)
        measure = EmpiricalMeasure(rng.standard_normal((4, 4)))
        xs = rng.standard_normal((5, 4))
        batch = loss.var_grad(measure, xs)
        singles = np.vstack([loss.var_grad(measure, xs[i:i + 1]) for i in range(xs.shape[0])])
        np.testing.assert_array_equal(batch, singles)

    def test_vjp_against_finite_differences(self):
        data = gen_mfnn_data(0, n_data=20)
        loss = MeanFieldRegressionLoss(data.covariates, data.responses, lam=3.0)
        rng = np.random.default_rng(20)
        atoms = rng.standard_normal((4, 4))
        u = rng.standard_normal((4, 4))
        np.testing.assert_allclose(
            loss.var_grad_vjp(EmpiricalMeasure(atoms), u), _fd_vjp(loss, atoms, u),
            atol=JAC_TOL,
        )

    def test_vjp_against_the_stacked_network_derivatives(self):
        # The (n, N) contractions against the reference assembled from the
        # stacks of the network's gradient and Hessian-vector product.
        data = gen_mfnn_data(0, n_data=20)
        loss = MeanFieldRegressionLoss(data.covariates, data.responses, lam=3.0)
        rng = np.random.default_rng(22)
        atoms = 2.0 * rng.standard_normal((6, 4))
        u = rng.standard_normal((6, 4))
        _, want = reference_mean_field(atoms, data.covariates, data.responses, 3.0, atoms, u)
        np.testing.assert_allclose(loss.var_grad_vjp(EmpiricalMeasure(atoms), u), want,
                                   rtol=1e-12)

    def test_scores_and_vjp_share_one_network_pass(self):
        # The scores at the atoms and the VJP of one measure (a particle
        # gradient's two reads) fit the network once, bitwise as a loss
        # that fits it for each; atoms moved in place are fitted afresh.
        data = gen_mfnn_data(0, n_data=20)
        loss = MeanFieldRegressionLoss(data.covariates, data.responses)
        fresh = lambda: MeanFieldRegressionLoss(data.covariates, data.responses)
        rng = np.random.default_rng(21)
        atoms = rng.standard_normal((5, 4))
        u = rng.standard_normal((5, 4))
        want = (fresh().var_grad(EmpiricalMeasure(atoms.copy()), atoms.copy()),
                fresh().var_grad_vjp(EmpiricalMeasure(atoms.copy()), u))
        measure = EmpiricalMeasure(atoms)
        got = (loss.var_grad(measure, atoms), loss.var_grad_vjp(measure, u))
        assert loss.fits == 1
        for w, g in zip(want, got):
            np.testing.assert_array_equal(g, w)
        loss.var_grad(measure, atoms)
        atoms += 0.1
        moved = loss.var_grad(measure, atoms)
        assert loss.fits == 2
        np.testing.assert_array_equal(moved, fresh().var_grad(EmpiricalMeasure(atoms), atoms))

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="matching"):
            MeanFieldRegressionLoss(np.zeros(3), np.zeros(4))
        with pytest.raises(ValueError, match="matching"):
            MeanFieldRegressionLoss(np.zeros((3, 1)), np.zeros((3, 1)))
        with pytest.raises(ValueError, match="at least one data point"):
            MeanFieldRegressionLoss(np.zeros(0), np.zeros(0))


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


def _broadcast_cross(loss: PredictiveKernelLoss, xs: np.ndarray, ys: np.ndarray):
    """The oracle's double-expectation term and its gradient on the loss's
    own solves: values (m, p), gradients (m, p, d)."""
    mx, sx = loss.solver(xs, loss.times)
    my, _ = loss.solver(ys, loss.times)
    return reference_cross_term(mx, sx, my, loss.sigma)


def _assert_close_to_max(got: np.ndarray, want: np.ndarray, rel: float) -> None:
    assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


def _data_terms(loss: PredictiveKernelLoss, xs: np.ndarray):
    """Each point's data term (1/N) sum_i E[kappa(y_i, Y_i(x))], (m,), and
    its gradient, (m, d), written out from ``gaussian_smooth``."""
    means, sens = loss.solver(xs, loss.times)
    fit = np.prod(gaussian_smooth(loss.observations, means, loss.sigma), axis=-1)  # (m, N)
    scaled = (loss.observations - means) / (1.0 + loss.sigma**2)
    grads = np.einsum("mn,mns,mnsd->md", fit, scaled, sens) / loss.times.size
    return fit.mean(axis=1), grads


def _cross(loss: PredictiveKernelLoss, xs: np.ndarray, ys: np.ndarray):
    """The loss's double-expectation block of xs against ys: ``pair_block``
    with both data terms added back."""
    values, grads = loss.pair_block(xs, ys)
    (dx, gx), (dy, _) = _data_terms(loss, xs), _data_terms(loss, ys)
    return values + dx[:, None] + dy[None, :], grads + gx[:, None, :]


def _overlap_sizes(monkeypatch) -> list[int]:
    """Records the size of every array ``losses._overlap`` returns."""
    sizes, overlap = [], losses._overlap

    def recorded(*args):
        a = overlap(*args)
        sizes.append(a.size)
        return a

    monkeypatch.setattr(losses, "_overlap", recorded)
    return sizes


class TestPredictiveKernelLoss:
    def test_pair_terms_against_loops(self):
        loss = _wave_loss()
        rng = np.random.default_rng(12)
        for _ in range(4):
            x, y = rng.standard_normal((2, 2))
            values, _ = loss.pair_block(x[None, :], y[None, :])
            np.testing.assert_allclose(values[0, 0], _brute_pair(loss, x, y), rtol=1e-12)

    def test_pair_gradient_against_finite_differences(self):
        loss = _wave_loss()
        rng = np.random.default_rng(13)
        x, y = rng.standard_normal((2, 2))
        _, grads = loss.pair_block(x[None, :], y[None, :])
        fd = fd_gradient(lambda xx: _brute_pair(loss, xx, y), x)
        np.testing.assert_allclose(grads[0, 0], fd, atol=1e-8)

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
        x = rng.standard_normal((1, 2))
        expected = sum(loss.pair_block(x, a[None, :])[1][0, 0] for a in atoms) / (
            measure.n * loss.lam
        )
        np.testing.assert_allclose(loss.var_grad(measure, x)[0], expected, rtol=1e-12)

    def test_particle_gradient_identity(self):
        loss = _wave_loss()
        atoms = np.random.default_rng(16).standard_normal((3, 2))
        measure = EmpiricalMeasure(atoms)
        assert euclid_identity_check(loss, measure, 1) < IDENTITY_TOL

    def test_has_no_vjp(self):
        # It would need second-order ODE sensitivities.
        with pytest.raises(NotImplementedError, match="PredictiveKernelLoss"):
            _wave_loss().var_grad_vjp(EmpiricalMeasure(np.zeros((2, 2))), np.ones((2, 2)))

    def test_default_regularisation_scales_with_data(self):
        times = np.linspace(0.5, 2.0, 8)
        obs = np.zeros((8, 2))
        loss = PredictiveKernelLoss(times, obs, solver=_wave_solver)
        np.testing.assert_allclose(loss.lam, 0.1 / 8)

    def test_observation_validation(self):
        # Observations are (N, s): an (N,) vector is not promoted.
        with pytest.raises(ValueError, match="align"):
            PredictiveKernelLoss(
                np.array([1.0, 2.0]), np.array([0.1, 0.2]), solver=_wave_solver
            )
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
        loss.var_grad(measure, np.array([[9.0, 9.0]]))
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

    def test_cross_block_on_offset_trajectories(self):
        # Trajectories near 1e3: the distances must not lose digits to it.
        def offset_solver(points, times):
            means, sens = _wave_solver(points, times)
            return means + 1e3, sens

        loss = _wave_loss()
        loss.solver = offset_solver
        rng = np.random.default_rng(20)
        xs, ys = rng.standard_normal((4, 2)), rng.standard_normal((3, 2))
        values, grads = _cross(loss, xs, ys)
        want_values, want_grads = _broadcast_cross(loss, xs, ys)
        _assert_close_to_max(values, want_values, 1e-12)
        _assert_close_to_max(grads, want_grads, 1e-12)

    def test_cross_block_across_row_chunks(self, monkeypatch):
        loss = _wave_loss()
        rng = np.random.default_rng(21)
        xs, ys = rng.standard_normal((5, 2)), rng.standard_normal((3, 2))
        whole = loss.pair_block(xs, ys)
        # Two rows per chunk: chunks of 2, 2 and 1 rows.
        monkeypatch.setattr(losses, "_PAIR_BLOCK_ENTRIES", 2 * 3 * loss.times.size**2)
        sizes = _overlap_sizes(monkeypatch)
        for got, want in zip(loss.pair_block(xs, ys), whole):
            np.testing.assert_array_equal(got, want)
        assert len(sizes) == 3 and max(sizes) <= losses._PAIR_BLOCK_ENTRIES
        for got, want in zip(_cross(loss, xs, ys), _broadcast_cross(loss, xs, ys)):
            _assert_close_to_max(got, want, 1e-12)

    def test_pair_block_fetches_each_argument_once(self):
        # One read of the solver outputs per argument serves both the cross
        # term and the data terms.
        loss = _wave_loss()
        rng = np.random.default_rng(23)
        xs, ys = rng.standard_normal((3, 2)), rng.standard_normal((4, 2))
        want = _wave_loss().pair_block(xs, ys)
        asked = []
        fetch = loss._solver_outputs
        loss._solver_outputs = lambda points: asked.append(points) or fetch(points)
        got = loss.pair_block(xs, ys)
        assert len(asked) == 2
        np.testing.assert_array_equal(asked[0], xs)
        np.testing.assert_array_equal(asked[1], ys)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)

    def test_prefetch_solves_each_distinct_point_once(self):
        calls = []

        def counting_solver(points, times):
            calls.append(len(points))
            return _wave_solver(points, times)

        loss = PredictiveKernelLoss(np.array([0.5, 1.5]), np.zeros((2, 2)), solver=counting_solver)
        pts = np.array([[0.3, -0.2], [0.3, -0.2], [1.0, 0.5]])
        means, sens = loss._solver_outputs(pts)
        assert calls == [2] and loss.n_solves == 2
        assert (loss.cache_misses, loss.cache_hits) == (3, 0)
        want_means, want_sens = _wave_solver(pts, loss.times)
        np.testing.assert_array_equal(means, want_means)
        np.testing.assert_array_equal(sens, want_sens)
        assert loss.prefetch(pts) is None  # fills the cache, stacks nothing
        assert calls == [2] and (loss.cache_misses, loss.cache_hits) == (3, 3)

    def test_cache_never_exceeds_its_bound(self):
        loss = _wave_loss()
        loss.max_cache = 2
        pts = np.random.default_rng(22).standard_normal((5, 2))
        # Points the full cache cannot keep are served from the call's solve.
        means, _ = loss._solver_outputs(pts)
        assert len(loss._cache) == 2 and loss.n_solves == 5 and loss.cache_clears == 0
        np.testing.assert_array_equal(means, _wave_solver(pts, loss.times)[0])
        loss.prefetch(pts[::-1] + 1.0)  # overflows the full cache: one clear
        assert len(loss._cache) == 2 and loss.cache_clears == 1

    @pytest.mark.parametrize("offset", [0.0, 1e3])
    def test_self_pair_block_is_the_diagonal(self, offset):
        # Also on trajectories near 1e3: each is centred on its own mean.
        def offset_solver(points, times):
            means, sens = _wave_solver(points, times)
            return means + offset, sens

        loss = _wave_loss()
        loss.solver = offset_solver
        xs = np.random.default_rng(24).standard_normal((5, 2))
        values, grads = loss.self_pair_block(xs)
        want_values, want_grads = loss.pair_block(xs, xs)
        diag = np.arange(len(xs))
        _assert_close_to_max(values, want_values[diag, diag], 1e-12)
        _assert_close_to_max(grads, want_grads[diag, diag], 1e-12)
        np.testing.assert_allclose(values, [_brute_pair(loss, x, x) for x in xs], rtol=1e-12)

    @pytest.mark.parametrize("n", [0, 2])
    def test_extension_is_var_grad_of_each_configuration(self, monkeypatch, n):
        loss = _wave_loss()
        rng = np.random.default_rng(25)
        atoms, candidates = rng.standard_normal((n, 2)), rng.standard_normal((5, 2))
        configs = [np.vstack([atoms, c[None, :]]) for c in candidates]
        want = np.stack([loss.var_grad(EmpiricalMeasure(cfg), cfg) for cfg in configs])
        _assert_close_to_max(loss.extension(atoms)(candidates), want, 1e-12)
        # Chunks of 2, 2 and 1 candidates: a self-pair block each and, after
        # atoms, two cross blocks each and the atoms' own block.
        monkeypatch.setattr(losses, "_EXTENSION_ENTRIES", 2 * max(n, 1) * loss.times.size**2)
        blocks = loss.pair_blocks
        grads = loss.extension(atoms)  # takes the atoms' own block, outside any chunk
        sizes = _overlap_sizes(monkeypatch)
        chunked = grads(candidates)
        assert loss.pair_blocks - blocks == (1 + 3 * 3 if n else 3)
        assert max(sizes) <= losses._EXTENSION_ENTRIES
        _assert_close_to_max(chunked, want, 1e-12)


class TestDefaultExtension:
    """The base ``extension``: var_grad on each one-point configuration,
    the call the estimator makes on it, bit for bit."""

    @pytest.mark.parametrize("n", [0, 1, 4])
    @pytest.mark.parametrize("name", ["zero", "linear", "interaction", "mean-field"])
    def test_is_var_grad_of_each_configuration(self, name, n):
        data = gen_mfnn_data(0, n_data=30)
        loss, d = {
            "zero": (ZeroLoss(), 2),
            "linear": (LinearLoss(np.array([0.5, -1.0]), np.array([1.0, 2.0])), 2),
            "interaction": (InteractionLoss(), 2),
            "mean-field": (MeanFieldRegressionLoss(data.covariates, data.responses), 4),
        }[name]
        rng = np.random.default_rng(26)
        atoms, candidates = rng.standard_normal((n, d)), rng.standard_normal((5, d))
        got = loss.extension(atoms)(candidates)
        assert got.shape == (5, n + 1, d)
        for row, c in zip(got, candidates):
            measure = EmpiricalMeasure(np.vstack([atoms, c[None, :]]))
            np.testing.assert_array_equal(row, loss.var_grad(measure, measure.atoms))


class TestEuclidIdentity:
    def test_requires_a_scalar_value(self):
        class GradOnly(VariationalLoss):
            def var_grad(self, measure, x):
                return np.zeros_like(np.asarray(x, dtype=float))

        with pytest.raises(NotImplementedError, match="scalar value"):
            euclid_identity_check(GradOnly(), EmpiricalMeasure(np.zeros((2, 2))), 0)

    @pytest.mark.parametrize("index", [0, 3])
    def test_closed_form_losses(self, index):
        rng = np.random.default_rng(19)
        atoms2 = rng.standard_normal((5, 2))
        data = gen_mfnn_data(0, n_data=30)
        cases = [
            (LinearLoss(np.zeros(2), np.array([1.0, 2.0])), atoms2),
            (InteractionLoss(), atoms2),
            (
                MeanFieldRegressionLoss(data.covariates, data.responses),
                rng.standard_normal((5, 4)),
            ),
        ]
        for loss, atoms in cases:
            residual = euclid_identity_check(loss, EmpiricalMeasure(atoms), index)
            assert residual < IDENTITY_TOL
