"""Forward models: the two-layer network's reference derivatives (in
``kgd.oracles``), the data generators and the predator-prey solver."""

import numpy as np
import pytest

from kgd.core import seeded_stream
from kgd.models import (
    LV_DELTA,
    LV_GAMMA,
    LV_INIT,
    LV_TRUE_X2,
    gen_lv_data,
    gen_mfnn_data,
    lv_params,
    lv_sensitivities,
    sigmoid,
)
from kgd.oracles import fd_gradient, lv_equilibrium, lv_solve, mfnn_forward, mfnn_grad, mfnn_hvp


class TestSigmoid:
    def test_matches_naive_formula(self):
        x = np.linspace(-30.0, 30.0, 101)
        np.testing.assert_allclose(sigmoid(x), 1.0 / (1.0 + np.exp(-x)), rtol=1e-14)

    def test_stable_in_the_tails(self):
        # Naive 1 / (1 + exp(-x)) overflows below about x = -709.
        with np.errstate(over="raise"):
            out = sigmoid(np.array([-700.0, 700.0]))
        assert 0.0 < out[0] < 1e-300 and out[1] == 1.0

    def test_center(self):
        assert sigmoid(np.array(0.0)) == 0.5


class TestNetwork:
    def test_identity_parameters_give_tanh(self):
        z = np.linspace(-1.0, 2.0, 7)
        out = mfnn_forward(np.array([1.0, 0.0, 1.0, 0.0]), z)
        np.testing.assert_allclose(out, np.tanh(z), rtol=1e-15)

    def test_hand_value(self):
        out = mfnn_forward(np.array([2.0, 1.0, 3.0, -0.5]), np.array([0.4]))
        np.testing.assert_allclose(out, 3.0 * np.tanh(1.8) - 0.5, rtol=1e-15)

    def test_batched_shapes(self):
        params = np.zeros((5, 4))
        z = np.zeros(11)
        assert mfnn_forward(params, z).shape == (5, 11)
        assert mfnn_grad(params, z).shape == (5, 11, 4)

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        z = rng.uniform(0.0, 1.0, size=6)
        for _ in range(4):
            p = rng.normal(size=4)
            got = mfnn_grad(p, z)  # (6, 4)
            for i in range(z.size):
                fd = fd_gradient(lambda q: float(mfnn_forward(q, z[i : i + 1])[0]), p)
                np.testing.assert_allclose(got[i], fd, atol=1e-7)

    def test_hessian_vector_product_matches_finite_differences(self):
        # The Hessian is symmetric, so H v is the derivative of the gradient
        # along v: one central difference of mfnn_grad per direction.
        rng = np.random.default_rng(10)
        z = rng.uniform(0.0, 1.0, size=6)
        params = rng.normal(size=(4, 4))
        v = rng.normal(size=(4, 4))
        h = 1e-6
        fd = (mfnn_grad(params + h * v, z) - mfnn_grad(params - h * v, z)) / (2.0 * h)
        got = mfnn_hvp(params, z, v)
        assert got.shape == (4, 6, 4)
        np.testing.assert_allclose(got, fd, atol=1e-7)


class TestRegressionData:
    def test_deterministic_and_shaped(self):
        a = gen_mfnn_data(4)
        b = gen_mfnn_data(4)
        np.testing.assert_array_equal(a.covariates, b.covariates)
        np.testing.assert_array_equal(a.responses, b.responses)
        assert a.covariates.shape == (300,)

    def test_covariates_in_unit_interval(self):
        d = gen_mfnn_data(0, n_data=500)
        assert np.all(d.covariates >= 0.0) and np.all(d.covariates <= 1.0)

    def test_responses_follow_target_curve(self):
        d = gen_mfnn_data(1)
        resid = d.responses - (3.0 * np.tanh(3.0 * d.covariates + 0.5) - 3.0)
        assert np.max(np.abs(resid)) < 0.6  # 6 sigma at noise 0.1
        assert np.std(resid) == pytest.approx(0.1, rel=0.25)


class TestParameterMap:
    def test_hand_values(self):
        alpha, beta = lv_params(np.array([0.0, 0.0]))
        assert alpha == 0.5 and beta == 0.25

    def test_true_x2_is_the_data_generating_parameter(self):
        alpha, beta = lv_params(np.array([-1.0, LV_TRUE_X2]))
        np.testing.assert_allclose([alpha, beta], sigmoid(np.array([-1.0, -3.0])), rtol=1e-15)

    def test_ordering_constraint(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(50, 2)) * 3.0
        alpha, beta = lv_params(x)
        assert np.all(beta < alpha) and np.all(alpha < 1.0) and np.all(beta > 0.0)


class TestSolver:
    x = np.array([-1.0, -1.5413248546129177])
    times = np.arange(1.0, 61.0)

    def test_first_integral_is_conserved(self):
        # V(u) = delta u1 - gamma ln u1 + beta u2 - alpha ln u2 satisfies
        # dV/dt = 0 along trajectories, giving a closed-form invariant
        # the integrator must respect.
        path = lv_solve(self.x, self.times)
        alpha, beta = lv_params(self.x)
        v = (
            LV_DELTA * path[:, 0]
            - LV_GAMMA * np.log(path[:, 0])
            + beta * path[:, 1]
            - alpha * np.log(path[:, 1])
        )
        np.testing.assert_allclose(v, v[0], atol=1e-9)

    def test_step_refinement_converges(self):
        p1 = lv_solve(self.x, self.times, step=0.01)
        p2 = lv_solve(self.x, self.times, step=0.002)
        assert np.max(np.abs(p1 - p2)) < 1e-7

    def test_batched_matches_single(self):
        xs = np.array([[-1.0, -1.5], [0.5, -2.0], [0.0, 0.0]])
        batch = lv_solve(xs, self.times[:10])
        for i, xi in enumerate(xs):
            np.testing.assert_allclose(batch[i], lv_solve(xi, self.times[:10]), rtol=1e-14)

    def test_equilibrium_is_a_fixed_point(self):
        eq = lv_equilibrium(self.x)
        path = lv_solve(self.x, np.array([10.0, 30.0]), init=(eq[0], eq[1]))
        np.testing.assert_allclose(path, np.broadcast_to(eq, (2, 2)), atol=1e-12)

    def test_equilibrium_zeroes_the_drift(self):
        alpha, beta = lv_params(self.x)
        u1, u2 = lv_equilibrium(self.x)
        assert abs(alpha * u1 - beta * u1 * u2) < 1e-10
        assert abs(LV_DELTA * u1 * u2 - LV_GAMMA * u2) < 1e-10

    def test_rejects_bad_times(self):
        with pytest.raises(ValueError):
            lv_solve(self.x, np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            lv_solve(self.x, np.array([-1.0, 2.0]))


class TestSensitivities:
    x = np.array([-0.8, -1.2])

    def test_solution_part_matches_plain_solver(self):
        # The Taylor u is accurate far past the RK4 oracle's default step
        # (its own error there is about 3e-11), so the reference is refined.
        times = np.arange(1.0, 21.0)
        u = lv_sensitivities(self.x[None], times)[0][0]
        np.testing.assert_allclose(u, lv_solve(self.x, times, step=0.002), rtol=1e-12)

    # Segments that round to different step lengths (0.11, 0.0957, 0.1,
    # 0.0991, 0.1005): the drift tables, prescaled by the step, are rebuilt
    # as the step changes.
    irregular_times = np.array([0.33, 1.0, 2.7, 4.0, 9.55, 20.0])

    def test_irregular_grid_matches_plain_solver(self):
        u = lv_sensitivities(self.x[None], self.irregular_times)[0][0]
        np.testing.assert_allclose(u, lv_solve(self.x, self.irregular_times, step=0.002),
                                   rtol=1e-12)

    @pytest.mark.parametrize("bad", [
        {"times": np.array([])}, {"times": np.zeros((2, 2))}, {"step": 0.0}, {"step": -0.1},
        {"step": np.inf},
    ], ids=["empty-times", "2d-times", "zero-step", "negative-step", "infinite-step"])
    def test_rejects_bad_times_and_step(self, bad):
        # An empty grid raised IndexError, a zero step ZeroDivisionError, and
        # a negative or infinite step silently took one step per segment.
        kwargs = {"times": np.array([1.0, 2.0]), "step": 0.1} | bad
        with pytest.raises(ValueError, match=next(iter(bad))):
            lv_sensitivities(self.x[None], **kwargs)

    def test_sens_is_the_derivative_of_the_discrete_map(self):
        # At step 0.5 the discrete map is measurably off the continuous
        # flow: its sens differs from the default step's by 4e-8 of
        # max|sens|. Central differences of the solver's own u at step 0.5
        # match its sens within 2e-11 of max|sens|, so the 1e-9 bound fails
        # a sens that only approximated the continuous derivative.
        times = np.array([5.0, 20.0])
        sens = lv_sensitivities(self.x[None], times, step=0.5)[1][0]
        eps = 1e-6
        fd = np.stack([
            (lv_sensitivities((self.x + eps * e)[None], times, step=0.5)[0][0]
             - lv_sensitivities((self.x - eps * e)[None], times, step=0.5)[0][0]) / (2.0 * eps)
            for e in np.eye(2)
        ], axis=-1)
        scale = np.max(np.abs(sens))
        assert np.max(np.abs(fd - sens)) < 1e-9 * scale
        fine = lv_sensitivities(self.x[None], times)[1][0]
        assert np.max(np.abs(fine - sens)) > 1e-9 * scale

    def test_batched_matches_single(self):
        xs = np.array([[-1.0, -1.5], [0.5, -2.0], [0.0, 0.0]])
        times = TestSolver.times[:10]
        u, sens = lv_sensitivities(xs, times)
        for i in range(xs.shape[0]):
            ui, si = lv_sensitivities(xs[i:i + 1], times)
            np.testing.assert_allclose(u[i], ui[0], rtol=1e-14)
            np.testing.assert_allclose(sens[i], si[0], rtol=1e-14)

    def test_large_batch_matches_single(self):
        # A wide batch: no column of the drift's matrix product may depend
        # on the others.
        xs = np.array([-1.0, 1.6]) + 0.5 * np.random.default_rng(4).standard_normal((130, 2))
        times = np.array([0.5, 2.0, 3.0])
        u, sens = lv_sensitivities(xs, times)
        for i in range(xs.shape[0]):
            ui, si = lv_sensitivities(xs[i:i + 1], times)
            np.testing.assert_allclose(u[i], ui[0], rtol=1e-14)
            np.testing.assert_allclose(sens[i], si[0], rtol=1e-14)

    @pytest.mark.parametrize("split", [
        (1, 2, 4, 7, 9, 221), (240, 4), (4, 240), (122, 122), (7, 9, 228), (2, 2, 240),
        (1, 975), (488, 488), (2, 3, 971),
    ])
    def test_batch_invariance(self, split, times=np.array([0.5, 2.0, 3.0])):
        # Bitwise: a point's solve may not depend on the other points in its
        # call, so batching several callers' points together moves no byte.
        # The batch is the split's total: 244 points (lv-ode's up-front
        # call) or 976 (lv-compare's), where numpy may pick other inner
        # loops for the per-order products.
        m = sum(split)
        xs = np.array([-1.0, 1.6]) + 0.5 * np.random.default_rng(5).standard_normal((m, 2))
        u, sens = lv_sensitivities(xs, times)
        lo = 0
        for size in split:
            ui, si = lv_sensitivities(xs[lo:lo + size], times)
            assert np.array_equal(ui, u[lo:lo + size]) and np.array_equal(si, sens[lo:lo + size])
            lo += size
        for i in (0, 3, 121, m - 4, m - 1):
            ui, si = lv_sensitivities(xs[i:i + 1], times)
            assert np.array_equal(ui[0], u[i]) and np.array_equal(si[0], sens[i])

    @pytest.mark.parametrize("split", [(122, 122), (1, 243)])
    def test_batch_invariance_across_step_lengths(self, split):
        self.test_batch_invariance(split, self.irregular_times)

    def test_batched_shapes(self):
        u, s = lv_sensitivities(np.zeros((3, 2)), np.array([1.0, 2.0]))
        assert u.shape == (3, 2, 2) and s.shape == (3, 2, 2, 2)

    def test_zero_at_time_zero(self):
        sens = lv_sensitivities(self.x[None], np.array([0.0, 1.0]))[1][0]
        np.testing.assert_array_equal(sens[0], np.zeros((2, 2)))


class TestSeriesData:
    def test_deterministic(self):
        a = gen_lv_data(6)
        b = gen_lv_data(6)
        np.testing.assert_array_equal(a.observations, b.observations)
        np.testing.assert_array_equal(a.latent, b.latent)

    def test_default_grid(self):
        d = gen_lv_data(0)
        np.testing.assert_array_equal(d.times, np.arange(0.0, 61.0))
        assert d.observations.shape == (61, 2)

    def test_latent_path_stays_nonnegative(self):
        for seed in (0, 6, 42):
            d = gen_lv_data(seed)
            assert np.all(d.latent >= 0.0) and np.all(np.isfinite(d.latent))

    def test_noiseless_limit_recovers_deterministic_solver(self):
        d = gen_lv_data(3, drive=(0.0, 0.0), sigma=0.0)
        clean = lv_solve(
            np.array([-1.0, -1.5413248546129177]), d.times, step=0.005
        )
        np.testing.assert_allclose(d.observations, clean, atol=1e-10)
        np.testing.assert_array_equal(d.observations, d.latent)

    def test_matches_the_array_loop(self):
        # The scalar loop must give the numpy RK4 path bit for bit: every
        # lv-compare output is computed from it.
        alpha, beta = float(sigmoid(np.array(-1.0))), float(sigmoid(np.array(-3.0)))
        times = np.arange(0.0, 6.0)
        for seed in (0, 1, 3, 6, 42):
            rng = seeded_stream(seed, "lv-data")
            u = np.array([LV_INIT])
            latent = np.empty((times.size, 2))

            def drift(v):
                u1, u2 = v[..., 0], v[..., 1]
                return np.stack([alpha * u1 - beta * u1 * u2,
                                 LV_DELTA * u1 * u2 - LV_GAMMA * u2], axis=-1)

            t_prev = 0.0
            for k, t_k in enumerate(times):
                dt = t_k - t_prev
                if dt > 0.0:
                    n_sub = max(1, int(round(dt / 0.005)))
                    h = dt / n_sub
                    noise_scale = np.array([0.1, 0.2]) * np.sqrt(h)
                    shocks = rng.standard_normal((n_sub, 2))
                    for j in range(n_sub):
                        k1 = drift(u)
                        k2 = drift(u + 0.5 * h * k1)
                        k3 = drift(u + 0.5 * h * k2)
                        k4 = drift(u + h * k3)
                        u = u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                        u = np.abs(u + noise_scale * shocks[j])
                latent[k] = u[0]
                t_prev = float(t_k)
            observations = latent + rng.standard_normal(latent.shape)
            d = gen_lv_data(seed, times=times)
            np.testing.assert_array_equal(d.latent, latent)
            np.testing.assert_array_equal(d.observations, observations)

    def test_divergent_drive_raises(self):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError):
                gen_lv_data(0, drive=(1e200, 1e200))
