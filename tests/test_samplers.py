"""Sampler updates, traces, and the greedy search.

The single-step maps are pinned against hand-rolled updates sharing the
same random stream, the particle gradient is checked against finite
differences of the estimators, and the trace bookkeeping (row placement, recomputed values,
wall times) is verified on short runs.
"""

import numpy as np
import pytest

from kgd.core import DiagonalGaussian, EmpiricalMeasure, seeded_stream
from kgd.discrepancy import gen_score, kgd_u_squared, kgd_v_squared, particle_grad, stein_drift
from kgd.kernels import IMQ, Gaussian, Mixture, NormalizedLinear, WeightedMatrixKernel
from kgd.losses import (InteractionLoss, LinearLoss, MeanFieldRegressionLoss,
                        PredictiveKernelLoss, VariationalLoss, ZeroLoss)
from kgd.models import gen_lv_data, gen_mfnn_data
from kgd.oracles import fd_gradient, kernel_derivatives
from kgd.samplers import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    OptimizerSpec,
    SamplerDivergence,
    SearchSpec,
    _greedy_point,
    _objective,
    drive,
    greedy_extend,
    greedy_next,
    greedy_stepper,
    kgdd_grad,
    kgdd_run,
    mfld_run,
    mfld_step,
    mfld_stepper,
    vgd_run,
    vgd_stepper,
    )

GRAD_TOL = 1e-6  # analytic discrepancy gradients vs central differences


class TestOptimizers:
    def test_spec_validation(self):
        with pytest.raises(ValueError, match="unknown optimizer"):
            OptimizerSpec(method="sgd")
        with pytest.raises(ValueError, match="positive"):
            OptimizerSpec(step_size=0.0)

    def test_euler_is_a_scaled_direction(self):
        update = OptimizerSpec(method="euler", step_size=0.25).updates((2, 3))
        direction = np.arange(6.0).reshape(2, 3)
        for _ in range(2):  # no state: every step is the same map
            np.testing.assert_array_equal(update(direction), 0.25 * direction)

    def test_adam_first_step_is_sign_like(self):
        # Bias correction makes m_hat = g and v_hat = g^2 at t = 1, so the
        # first update is step_size * g / (|g| + eps).
        update = OptimizerSpec(method="adam", step_size=0.1).updates((1, 2))
        g = np.array([[3.0, -0.02]])
        np.testing.assert_allclose(update(g), 0.1 * g / (np.abs(g) + ADAM_EPS), rtol=1e-12)

    def test_adam_recurrence_by_hand(self):
        update = OptimizerSpec(method="adam", step_size=0.05).updates((2, 2))
        rng = np.random.default_rng(0)
        m = np.zeros((2, 2))
        v = np.zeros((2, 2))
        for t in range(1, 4):
            g = rng.standard_normal((2, 2))
            delta = update(g)
            m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
            v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * g**2
            m_hat = m / (1.0 - ADAM_BETA1**t)
            v_hat = v / (1.0 - ADAM_BETA2**t)
            np.testing.assert_allclose(
                delta, 0.05 * m_hat / (np.sqrt(v_hat) + ADAM_EPS), rtol=1e-14
            )

    def test_updates_of_one_spec_keep_separate_moments(self):
        # Two runs sharing a spec: stepping one leaves the other's moments
        # where they were, so its first update is still sign-like.
        spec = OptimizerSpec(method="adam", step_size=0.1)
        first, second = spec.updates((1, 2)), spec.updates((1, 2))
        g = np.array([[3.0, -0.02]])
        for _ in range(3):
            first(-g)
        delta = second(g)
        np.testing.assert_array_equal(delta, spec.updates((1, 2))(g))
        np.testing.assert_allclose(delta, 0.1 * g / (np.abs(g) + ADAM_EPS), rtol=1e-12)


class TestMFLD:
    REF = DiagonalGaussian(np.array([0.5, -0.5]), np.array([1.0, 2.0]))

    def test_step_matches_hand_update(self):
        atoms = np.random.default_rng(1).standard_normal((4, 2))
        eps = 0.05
        moved = mfld_step(atoms, self.REF, ZeroLoss(), eps, seeded_stream(7, "t"))
        noise = seeded_stream(7, "t").standard_normal((4, 2))
        scores = -(atoms - self.REF.mean) / self.REF.variances
        np.testing.assert_array_equal(
            moved, atoms + eps * scores + np.sqrt(2.0 * eps) * noise
        )

    def test_traced_run_fits_the_network_once_per_configuration(self):
        # A trace row and the step after it score the same atoms through two
        # measures; they share one fit, so k steps traced at every step fit
        # the k + 1 configurations once each. The trace ends bitwise where a
        # fresh loss evaluates the final atoms.
        data = gen_mfnn_data(0, n_data=30)
        make = lambda: MeanFieldRegressionLoss(data.covariates, data.responses, lam=3.0)
        ref = DiagonalGaussian.standard(4)
        atoms = np.random.default_rng(24).standard_normal((5, 4))
        k = 4
        loss = make()
        run = mfld_run(atoms, ref, loss, 0.01, k, seeded_stream(3, "fit"),
                       trace_kernel=IMQ(1.0), trace_every=1)
        assert loss.fits == k + 1 and len(run.kgd2) == k + 1
        final = kgd_v_squared(IMQ(1.0), ref, make(), EmpiricalMeasure(run.atoms))
        assert run.kgd2[-1] == final

    def test_run_iterates_the_step(self):
        atoms = np.zeros((3, 2))
        run = mfld_run(
            atoms, self.REF, ZeroLoss(), 0.1, 5, seeded_stream(2, "mfld")
        )
        expected = atoms
        rng = seeded_stream(2, "mfld")
        for _ in range(5):
            expected = mfld_step(expected, self.REF, ZeroLoss(), 0.1, rng)
        np.testing.assert_array_equal(run.atoms, expected)

    def test_trace_rows_and_wall_times(self):
        run = mfld_run(
            np.zeros((3, 2)),
            self.REF,
            ZeroLoss(),
            0.05,
            6,
            seeded_stream(3, "mfld"),
            trace_kernel=IMQ(1.0),
            trace_every=4,
        )
        np.testing.assert_array_equal(run.steps, [0, 4, 6])
        assert run.kgd2.shape == run.wall.shape == (3,)
        assert (np.diff(run.wall) >= 0.0).all()
        final = kgd_v_squared(IMQ(1.0), self.REF, ZeroLoss(), EmpiricalMeasure(run.atoms))
        np.testing.assert_allclose(run.kgd2[-1], final, rtol=1e-15)

    def test_final_trace_row_not_duplicated(self):
        run = mfld_run(
            np.zeros((2, 2)),
            self.REF,
            ZeroLoss(),
            0.05,
            8,
            seeded_stream(4, "mfld"),
            trace_kernel=IMQ(1.0),
            trace_every=4,
        )
        np.testing.assert_array_equal(run.steps, [0, 4, 8])

    def test_tracing_does_not_disturb_the_path(self):
        kwargs = dict(step_size=0.1, n_steps=4)
        bare = mfld_run(
            np.ones((2, 2)), self.REF, ZeroLoss(), rng=seeded_stream(5, "x"), **kwargs
        )
        traced = mfld_run(
            np.ones((2, 2)),
            self.REF,
            ZeroLoss(),
            rng=seeded_stream(5, "x"),
            trace_kernel=Gaussian(1.0),
            **kwargs,
        )
        np.testing.assert_array_equal(bare.atoms, traced.atoms)
        assert bare.steps.size == 0 and bare.kgd2.size == 0

    def test_divergence_raises_with_step_index(self):
        # A strongly repulsive potential grows the configuration by a fixed
        # factor per step, so the guard must fire partway through.
        loss = LinearLoss(np.zeros(1), np.array([-100.0]))
        with pytest.raises(SamplerDivergence, match="diverged at step") as info:
            mfld_run(
                np.ones((2, 1)), DiagonalGaussian.standard(1), loss, 1.0, 50,
                seeded_stream(6, "d"),
            )
        assert 0 < info.value.step <= 50
        assert info.value.kind == "norm" and info.value.particle in (0, 1)
        # The particle that starts a hundred times further out leads.
        with pytest.raises(SamplerDivergence, match="particle 1 ") as info:
            mfld_run(
                np.array([[0.01], [1.0]]), DiagonalGaussian.standard(1), loss, 1.0, 50,
                seeded_stream(6, "d"),
            )
        assert (info.value.particle, info.value.kind) == (1, "norm")

    def test_divergent_start_fails_at_step_zero(self):
        with pytest.raises(SamplerDivergence) as info:
            mfld_run(
                np.full((1, 1), 1e9), self.REF, ZeroLoss(), 0.1, 1,
                seeded_stream(7, "d"),
            )
        assert info.value.step == 0
        assert (info.value.particle, info.value.kind) == (0, "norm")
        # A nan is named before a larger finite coordinate elsewhere.
        atoms = np.array([[1e9, 0.0], [0.0, 1.0], [2.0, np.nan]])
        with pytest.raises(SamplerDivergence, match="non-finite position") as info:
            mfld_run(atoms, DiagonalGaussian.standard(2), ZeroLoss(), 0.1, 1,
                     seeded_stream(7, "d"))
        assert (info.value.step, info.value.particle, info.value.kind) == (0, 2, "non-finite")
        assert np.isnan(info.value.max_coord)


class TestVGD:
    @pytest.mark.parametrize(
        "kernel",
        [
            IMQ(0.9),
            Gaussian(1.2),
            Mixture((IMQ(0.5), Gaussian(2.0))),
            NormalizedLinear(1.1),
            Mixture((IMQ(1.0), NormalizedLinear(1.2))),
            WeightedMatrixKernel(c=1.2, exponent=0.5, base=IMQ(0.9)),
            WeightedMatrixKernel(c=0.8, exponent=-1.0, base=NormalizedLinear(1.3)),
        ],
        ids=["imq", "gaussian", "radial-mixture", "normalized-linear", "mixture",
             "weighted-matrix", "weighted-matrix-linear-base"],
    )
    def test_drift_matches_hand_loops(self, kernel):
        rng = np.random.default_rng(8)
        ref = DiagonalGaussian(rng.standard_normal(2), rng.uniform(0.5, 2.0, 2))
        loss = LinearLoss(rng.standard_normal(2), rng.uniform(0.2, 1.0, 2))
        atoms = rng.standard_normal((5, 2))
        measure = EmpiricalMeasure(atoms)
        scores = ref.log_grad(atoms) - loss.var_grad(measure, atoms)
        table = kernel_derivatives(kernel, atoms, atoms)
        expected = np.zeros_like(atoms)
        for i in range(5):
            for j in range(5):
                expected[i] += table.value[j, i] * scores[j] + table.grad1[j, i]
        expected /= 5.0
        np.testing.assert_allclose(
            stein_drift(kernel, atoms, gen_score(ref, loss, measure, atoms)), expected, rtol=1e-12
        )

    def test_single_particle_drift_is_the_score(self):
        # At one atom the kernel terms collapse: k(x,x) = 1 and the radial
        # gradient vanishes, leaving the bare score.
        ref = DiagonalGaussian.standard(1)
        measure = EmpiricalMeasure(np.array([[2.0]]))
        drift = stein_drift(IMQ(1.0), measure.atoms, gen_score(ref, ZeroLoss(), measure, measure.atoms))
        np.testing.assert_allclose(drift, [[-2.0]], rtol=1e-15)

    def test_euler_run_applies_the_drift(self):
        ref = DiagonalGaussian.standard(2)
        atoms = np.random.default_rng(9).standard_normal((4, 2))
        spec = OptimizerSpec(method="euler", step_size=0.2)
        run = vgd_run(atoms, IMQ(1.0), ref, ZeroLoss(), spec, 1)
        drift = stein_drift(IMQ(1.0), atoms, gen_score(ref, ZeroLoss(), EmpiricalMeasure(atoms), atoms))
        np.testing.assert_allclose(run.atoms, atoms + 0.2 * drift, rtol=1e-15)

    def test_flow_reduces_the_discrepancy(self):
        ref = DiagonalGaussian.standard(2)
        atoms = 2.0 + np.random.default_rng(10).standard_normal((12, 2))
        spec = OptimizerSpec(method="euler", step_size=0.5)
        run = vgd_run(
            atoms, IMQ(1.0), ref, ZeroLoss(), spec, 40, trace_kernel=IMQ(1.0),
            trace_every=40,
        )
        assert run.kgd2[-1] < 0.2 * run.kgd2[0]


KGDD_KERNELS = {
    "imq": IMQ(0.8),
    "gaussian": Gaussian(1.2),
    "mixture": Mixture((IMQ(1.0), Gaussian(0.7))),
    "normalized-linear": NormalizedLinear(1.1),
    "imq+normalized-linear": Mixture((IMQ(1.0), NormalizedLinear(1.2))),
    "weighted-exp-1": WeightedMatrixKernel(c=1.2, exponent=-1.0, base=IMQ(0.9)),
    "weighted-exp0.5": WeightedMatrixKernel(c=1.2, exponent=0.5, base=IMQ(0.9)),
}


def _kgdd_loss(name: str, offset: float):
    """A loss of each family with a var_grad_vjp, on 4-d atoms; the linear
    potential's centre moves with the cloud."""
    if name == "zero":
        return ZeroLoss()
    if name == "linear":
        return LinearLoss(
            offset + np.array([0.5, -0.5, 0.2, 0.0]), np.array([1.0, 2.0, 0.5, 1.5])
        )
    if name == "interaction":
        return InteractionLoss()
    data = gen_mfnn_data(0, n_data=30)
    return MeanFieldRegressionLoss(data.covariates, data.responses, lam=3.0)


class TestKGDDGradient:
    @pytest.mark.parametrize("kernel", list(KGDD_KERNELS.values()), ids=list(KGDD_KERNELS))
    @pytest.mark.parametrize("loss_name", ["zero", "linear", "interaction", "mean-field"])
    def test_analytic_matches_finite_differences(self, kernel, loss_name):
        # V- and U-statistic gradients against central differences of the
        # estimators on the flattened atoms, near the origin and on the same
        # cloud offset by 1e3. There the base step shrinks so that the step
        # stays about 1e-5, and the tolerance is relative to max |fd|: the
        # network's scores do not move with the cloud and reach 1e6.
        rng = np.random.default_rng(11)
        cloud = rng.standard_normal((6, 4))
        for offset in (0.0, 1e3):
            ref = DiagonalGaussian(
                offset + np.array([0.2, -0.1, 0.0, 0.3]), np.array([1.5, 0.8, 1.0, 1.2])
            )
            loss = _kgdd_loss(loss_name, offset)
            atoms = offset + cloud
            for u_stat, estimator in ((False, kgd_v_squared), (True, kgd_u_squared)):
                def objective(flat):
                    measure = EmpiricalMeasure(flat.reshape(atoms.shape))
                    return estimator(kernel, ref, loss, measure)

                fd = fd_gradient(objective, atoms.ravel(), 1e-5 / (1.0 + offset))
                if u_stat:
                    grad = particle_grad(kernel, ref, loss, atoms, u_statistic=True)
                else:
                    grad = kgdd_grad(kernel, ref, loss, atoms)
                scale = 1.0 if offset == 0.0 else max(1.0, float(np.max(np.abs(fd))))
                err = float(np.max(np.abs(grad.ravel() - fd)))
                assert err <= GRAD_TOL * scale, f"offset {offset}, U {u_stat}: {err:.2e}"

    @pytest.mark.parametrize(
        "kernel", [IMQ(1.0), WeightedMatrixKernel(c=1.2, exponent=0.5)], ids=["imq", "weighted"]
    )
    def test_u_gradient_chains_through_an_affine_map(self, kernel):
        # The parametric fit: points A z + c over a frozen base sample z, so
        # dU/dA = G^T Z and dU/dc = sum_i G_i for the particle gradient G.
        rng = np.random.default_rng(14)
        base = rng.standard_normal((8, 4))
        theta = np.concatenate(
            [(np.eye(4) + 0.3 * rng.standard_normal((4, 4))).ravel(), rng.standard_normal(4)]
        )
        ref = DiagonalGaussian.standard(4)
        loss = _kgdd_loss("mean-field", 0.0)

        def push(th):
            return base @ th[:16].reshape(4, 4).T + th[16:]

        g = particle_grad(kernel, ref, loss, push(theta), u_statistic=True)
        chained = np.concatenate([(g.T @ base).ravel(), g.sum(axis=0)])
        fd = fd_gradient(
            lambda th: kgd_u_squared(kernel, ref, loss, EmpiricalMeasure(push(th))), theta
        )
        np.testing.assert_allclose(chained, fd, atol=GRAD_TOL)

    def test_analytic_needs_second_order_blocks(self):
        # The scores move with the atoms through the loss's var_grad_vjp; a
        # loss without one is rejected by name.
        def still(points, times):  # every point maps to zero trajectories
            m, t = len(points), len(times)
            return np.zeros((m, t, 2)), np.zeros((m, t, 2, 2))

        loss = PredictiveKernelLoss(np.array([0.5, 1.0]), np.zeros((2, 2)), solver=still)
        atoms = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(NotImplementedError, match="PredictiveKernelLoss"):
            kgdd_grad(IMQ(1.0), DiagonalGaussian.standard(2), loss, atoms)

    def test_u_gradient_needs_two_atoms(self):
        with pytest.raises(ValueError, match="two atoms"):
            particle_grad(
                IMQ(1.0), DiagonalGaussian.standard(1), ZeroLoss(), np.zeros((1, 1)),
                u_statistic=True,
            )

    def test_run_descends_the_objective(self):
        ref = DiagonalGaussian.standard(2)
        atoms = 1.5 + np.random.default_rng(12).standard_normal((8, 2))
        spec = OptimizerSpec(method="euler", step_size=0.3)
        run = kgdd_run(
            atoms, IMQ(1.0), ref, ZeroLoss(), spec, 25,
            trace_kernel=IMQ(1.0), trace_every=25,
        )
        assert run.kgd2[-1] < run.kgd2[0]

    def test_run_steps_against_the_gradient(self):
        ref = DiagonalGaussian.standard(2)
        atoms = np.random.default_rng(13).standard_normal((3, 2))
        spec = OptimizerSpec(method="euler", step_size=0.1)
        run = kgdd_run(atoms, IMQ(1.0), ref, ZeroLoss(), spec, 1)
        grad = kgdd_grad(IMQ(1.0), ref, ZeroLoss(), atoms)
        np.testing.assert_allclose(run.atoms, atoms - 0.1 * grad, rtol=1e-14)


class TestGreedy:
    KERNEL = IMQ(1.0)
    REF = DiagonalGaussian.standard(1)

    def _search(self):
        return SearchSpec(
            proposal_mean=np.zeros(1), proposal_scale=1.0, n_candidates=60,
            refine_rounds=3,
        )

    def test_first_point_finds_the_mode(self):
        run = greedy_extend(self.KERNEL, self.REF, ZeroLoss(), self._search(), 1, seed=0)
        assert abs(run.atoms[0, 0]) < 1e-3

    def test_first_value_matches_hand_formula(self):
        # One atom under the unit IMQ and a standard normal reference gives
        # a squared discrepancy of exactly 1 + x^2.
        run = greedy_extend(self.KERNEL, self.REF, ZeroLoss(), self._search(), 1, seed=1)
        x = run.atoms[0, 0]
        np.testing.assert_allclose(run.kgd2[0], 1.0 + x**2, rtol=1e-14)

    def test_growth_improves_the_configuration(self):
        run = greedy_extend(self.KERNEL, self.REF, ZeroLoss(), self._search(), 8, seed=2)
        assert run.atoms.shape == (8, 1)
        np.testing.assert_array_equal(run.steps, np.arange(1, 9))
        assert run.kgd2[-1] < run.kgd2[0]
        assert (np.diff(run.wall) >= 0.0).all()

    @pytest.mark.parametrize("refine_rounds", [0, 2])
    @pytest.mark.parametrize("name", ["interaction", "linear", "mean-field"])
    def test_trace_rows_are_the_discrepancy_of_the_first_atoms(self, name, refine_rounds):
        # Each row is the pick's own objective value: the V-statistic of the
        # first k atoms, bit for bit.
        data = gen_mfnn_data(0, n_data=30)
        loss, d = {
            "interaction": (InteractionLoss(), 1),
            "linear": (LinearLoss(np.array([0.5]), np.array([2.0])), 1),
            "mean-field": (MeanFieldRegressionLoss(data.covariates, data.responses), 4),
        }[name]
        ref = DiagonalGaussian.standard(d)
        search = SearchSpec(proposal_mean=np.full(d, 0.5), n_candidates=30,
                            refine_rounds=refine_rounds)
        run = greedy_extend(self.KERNEL, ref, loss, search, 5, seed=3)
        want = [kgd_v_squared(self.KERNEL, ref, loss, EmpiricalMeasure(run.atoms[:k]))
                for k in range(1, 6)]
        np.testing.assert_array_equal(run.kgd2, want)

    def test_zero_points_is_an_empty_run(self):
        run = greedy_extend(self.KERNEL, self.REF, ZeroLoss(), self._search(), 0)
        assert run.atoms.shape == (0, 1) and run.kgd2.size == run.steps.size == 0

    def test_deterministic_in_the_seed(self):
        a = greedy_extend(self.KERNEL, self.REF, ZeroLoss(), self._search(), 3, seed=5)
        b = greedy_extend(self.KERNEL, self.REF, ZeroLoss(), self._search(), 3, seed=5)
        np.testing.assert_array_equal(a.atoms, b.atoms)
        np.testing.assert_array_equal(a.kgd2, b.kgd2)

    def test_single_candidate_without_refinement(self):
        search = SearchSpec(proposal_mean=np.zeros(1), n_candidates=1, refine_rounds=0)
        best = greedy_next(
            self.KERNEL, self.REF, ZeroLoss(), search, np.empty((0, 1)), seeded_stream(3, "t")
        )
        np.testing.assert_array_equal(best, search.candidate_set(seeded_stream(3, "t"))[0])

    def test_refinement_spans(self):
        grid = np.linspace(0.0, 1.0, 9)[:, None]
        np.testing.assert_allclose(SearchSpec(np.zeros(1)).spans(grid), [1.0 / 8.0])

    def test_prefetch_hook_sees_candidate_batches(self):
        batches = []

        class Recording(ZeroLoss):
            def prefetch(self, points):
                batches.append(np.shape(points))

        search = SearchSpec(proposal_mean=np.zeros(2), n_candidates=5, refine_rounds=1)
        greedy_next(
            self.KERNEL, DiagonalGaussian.standard(2), Recording(), search,
            np.empty((0, 2)), seeded_stream(3, "t"),
        )
        assert batches[0] == (5, 2)
        assert all(b[1] == 2 for b in batches)

    def test_extension_solves_every_candidate_set_up_front(self):
        batches = []

        class Recording(ZeroLoss):
            max_cache = 180

            def prefetch(self, points):
                batches.append(np.array(points))

        search = SearchSpec(proposal_mean=np.zeros(1), n_candidates=60, refine_rounds=0)
        sets = [search.candidate_set(seeded_stream(4, "greedy", k)) for k in range(3)]
        greedy_extend(self.KERNEL, self.REF, Recording(), search, 3, seed=4)
        # One batch of all three sets; no point requests its own set again.
        assert len(batches) == 1
        np.testing.assert_array_equal(batches[0], np.vstack(sets))
        # Sets that would overfill the cache are left to each point.
        Recording.max_cache = 179
        batches.clear()
        greedy_extend(self.KERNEL, self.REF, Recording(), search, 3, seed=4)
        assert [b.shape[0] for b in batches] == [60, 60, 60]

    def test_prefetch_without_a_cache_bound_gets_each_set_from_its_point(self):
        # A loss with prefetch but no max_cache of its own has no cache to
        # fill up front: each point requests its own candidate set.
        batches = []

        class Recording(ZeroLoss):
            def prefetch(self, points):
                batches.append(np.array(points))

        search = SearchSpec(proposal_mean=np.zeros(1), n_candidates=60, refine_rounds=0)
        sets = [search.candidate_set(seeded_stream(4, "greedy", k)) for k in range(3)]
        run = greedy_extend(self.KERNEL, self.REF, Recording(), search, 3, seed=4)
        assert run.atoms.shape == (3, 1) and len(batches) == 3
        for got, want in zip(batches, sets):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("max_cache", [180, 179], ids=["up-front", "per-point"])
    def test_draws_each_candidate_set_once(self, monkeypatch, max_cache):
        draws = []
        candidate_set = SearchSpec.candidate_set

        def counted(search, rng):
            draws.append(rng)
            return candidate_set(search, rng)

        class Recording(ZeroLoss):
            def prefetch(self, points):
                pass

        Recording.max_cache = max_cache
        monkeypatch.setattr(SearchSpec, "candidate_set", counted)
        search = SearchSpec(proposal_mean=np.zeros(1), n_candidates=60, refine_rounds=1)
        greedy_extend(self.KERNEL, self.REF, Recording(), search, 3, seed=4)
        assert len(draws) == 3


class _PerCandidate(VariationalLoss):
    """A loss's scores and solve cache under the default ``extension``: one
    var_grad call per configuration, as the estimator makes it."""

    def __init__(self, loss):
        self.loss = loss

    def var_grad(self, measure, x):
        return self.loss.var_grad(measure, x)

    def prefetch(self, points):
        return self.loss.prefetch(points)


class TestIncrementalGreedy:
    """The predictive loss's greedy objective, built from the placed atoms'
    sums, against the estimator per candidate (the lv-compare setting)."""

    KERNEL = Mixture((IMQ(np.sqrt(0.03)), IMQ(np.sqrt(0.1))), weights=(1.0, 1.0))
    REF = DiagonalGaussian.standard(2)
    SEARCH = SearchSpec(proposal_mean=np.array([-1.0, 1.6]), proposal_scale=0.5,
                        n_candidates=30, refine_rounds=1)

    def _estimator(self, loss, atoms):
        """The greedy objective written with the estimator, one call per
        point."""
        return lambda points: np.array([
            kgd_v_squared(self.KERNEL, self.REF, loss,
                          EmpiricalMeasure(np.vstack([atoms, x[None, :]])))
            for x in points])

    def _pick(self, loss, atoms, candidates):
        """Drive one greedy pick: the point sets it scored, the pick and its
        value."""
        sets = [candidates]
        point = _greedy_point(self.KERNEL, self.REF, loss, self.SEARCH, atoms, candidates)
        try:
            while True:
                sets.append(point.send(None))
                loss.prefetch(sets[-1])
        except StopIteration as done:
            return sets, done.value

    @pytest.mark.parametrize("n", [0, 1, 4])
    def test_matches_the_estimator_per_candidate(self, n):
        series = gen_lv_data(1)
        loss = PredictiveKernelLoss(series.times, series.observations)
        atoms = np.array([-1.0, -1.5]) + 0.3 * seeded_stream(7, "placed").standard_normal((n, 2))
        candidates = self.SEARCH.candidate_set(seeded_stream(7, "greedy", n))
        loss.prefetch(np.vstack([atoms, candidates]))
        sets, (best, value) = self._pick(loss, atoms, candidates)
        assert len(sets) == 3  # the candidates and one line per coordinate
        fast = _objective(self.KERNEL, self.REF, loss, atoms)
        slow = self._estimator(loss, atoms)
        for points in sets:
            got, want = fast(points), slow(points)
            assert np.max(np.abs(got - want) / np.abs(want)) < 1e-12
            assert np.argmin(got) == np.argmin(want)
        # The same pick as the estimator route, and the estimator's bytes.
        _, (best_slow, value_slow) = self._pick(_PerCandidate(loss), atoms, candidates)
        np.testing.assert_array_equal(best, best_slow)
        assert value == value_slow == slow(best[None, :])[0]

    def test_trace_rows_are_the_discrepancy_of_the_first_atoms(self):
        series = gen_lv_data(1, times=np.arange(1.0, 11.0))
        loss = PredictiveKernelLoss(series.times, series.observations)
        run = greedy_extend(self.KERNEL, self.REF, loss, self.SEARCH, 3, seed=3)
        want = [kgd_v_squared(self.KERNEL, self.REF, loss, EmpiricalMeasure(run.atoms[:k]))
                for k in range(1, 4)]
        np.testing.assert_array_equal(run.kgd2, want)

    def test_non_finite_scores_are_left_to_the_estimator(self):
        # A candidate whose configuration has a non-finite score gets the
        # estimator's error, which names the atom.
        times = np.array([1.0, 2.0])

        def blowing_up(points, times):
            means = np.where(points[:, :1, None] > 5.0, np.inf, 1.0) * np.ones((1, 2, 2))
            return means, np.ones(means.shape + (2,))

        loss = PredictiveKernelLoss(times, np.zeros((2, 2)), solver=blowing_up)
        objective = _objective(self.KERNEL, self.REF, loss, np.zeros((1, 2)))
        with pytest.raises(FloatingPointError, match="non-finite score at atom"), \
                np.errstate(invalid="ignore"):
            objective(np.array([[0.5, 0.0], [6.0, 0.0]]))

        class Steep(LinearLoss):
            """A closed-form loss whose score is infinite beyond x_1 = 5."""

            def var_grad(self, measure, x):
                grad = super().var_grad(measure, x)
                return np.where(np.asarray(x)[..., :1] > 5.0, np.inf, grad)

        steep, atoms, finite = Steep(np.zeros(2), np.ones(2)), np.zeros((1, 2)), np.array([[0.5, 0.0]])
        objective = _objective(self.KERNEL, self.REF, steep, atoms)
        np.testing.assert_array_equal(objective(finite), self._estimator(steep, atoms)(finite))
        with pytest.raises(FloatingPointError, match="non-finite score at atom 1"):
            objective(np.array([[0.5, 0.0], [6.0, 0.0]]))


class TestDrive:
    KERNEL = IMQ(1.0)
    REF = DiagonalGaussian.standard(2)
    ATOMS = seeded_stream(2, "init").standard_normal((5, 2))
    SPEC = OptimizerSpec(method="adam", step_size=0.05)
    SEARCH = SearchSpec(proposal_mean=np.zeros(2), n_candidates=20, refine_rounds=1)

    class Recording(ZeroLoss):
        max_cache = 1000

        def __init__(self):
            object.__setattr__(self, "batches", [])

        def prefetch(self, points):
            self.batches.append(np.shape(points))

    @pytest.mark.parametrize("loss_type", [ZeroLoss, Recording])
    def test_lockstep_equals_separate_runs(self, loss_type):
        loss = loss_type()
        steppers = [
            mfld_stepper(self.ATOMS, self.REF, loss, 1e-2, 6, seeded_stream(2, "mfld"),
                         trace_kernel=self.KERNEL, trace_every=2),
            vgd_stepper(self.ATOMS, self.KERNEL, self.REF, loss, self.SPEC, 4,
                        trace_kernel=self.KERNEL, trace_every=3),
            greedy_stepper(self.KERNEL, self.REF, loss, self.SEARCH, 3, seed=2),
        ]
        joint, rounds = drive(steppers, loss)
        alone = [
            mfld_run(self.ATOMS, self.REF, loss_type(), 1e-2, 6, seeded_stream(2, "mfld"),
                     trace_kernel=self.KERNEL, trace_every=2),
            vgd_run(self.ATOMS, self.KERNEL, self.REF, loss_type(), self.SPEC, 4,
                    trace_kernel=self.KERNEL, trace_every=3),
            greedy_extend(self.KERNEL, self.REF, loss_type(), self.SEARCH, 3, seed=2),
        ]
        for got, want in zip(joint, alone):
            np.testing.assert_array_equal(got.atoms, want.atoms)
            np.testing.assert_array_equal(got.steps, want.steps)
            np.testing.assert_array_equal(got.kgd2, want.kgd2)
        if loss_type is ZeroLoss:
            # Greedy requests the most: per point a candidate set and two
            # lines.
            assert rounds == 9
        else:
            # Greedy requests its three candidate sets up front, then two
            # lines per point, as MFLD requests its seven configurations.
            # One prefetch a round, of the union of the round's requests.
            assert rounds == 7 and len(loss.batches) == 7
            assert loss.batches[0] == (5 + 5 + 60, 2)
            assert loss.batches[1] == (5 + 5 + 9, 2)
            assert loss.batches[5] == (5 + 9, 2)
