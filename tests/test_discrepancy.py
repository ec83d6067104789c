"""Stein kernel assembly and the squared-discrepancy estimators.

The assembly is pinned three ways: hand formulas at single atoms, a full
finite-difference rebuild of h(x, y) for a nontrivial loss, and the
closed-form classical-discrepancy oracle for potentials without
interaction. The estimator algebra (V/U identity, permutation invariance,
substream addressing) is checked exactly.
"""

import numpy as np
import pytest

from kgd.core import DiagonalGaussian, EmpiricalMeasure, make_empirical
from kgd.discrepancy import (
    KGDEstimate,
    _assemble,
    clt_scaling_study,
    gen_score,
    kgd_u_squared,
    kgd_v_squared,
    stein_gram,
    stein_kernel_eval,
    )
from kgd.kernels import IMQ, Gaussian, Mixture, NormalizedLinear, WeightedMatrixKernel
from kgd.losses import InteractionLoss, LinearLoss, ZeroLoss
from kgd.oracles import fd_gradient, reference_ksd_squared

ORACLE_RTOL = 1e-12  # analytic Gram assembly vs closed-form oracle
FD_TOL = 5e-6  # assembled Stein values vs nested finite differences
EXACT_RTOL = 1e-13  # pure reorderings of the same sums
RADIAL_TOL = 1e-12  # radial product route vs pairwise assembly, scaled by max|gram|


def _random_setup(seed: int, n: int = 8, d: int = 3):
    rng = np.random.default_rng(seed)
    ref = DiagonalGaussian(rng.standard_normal(d), rng.uniform(0.5, 2.0, size=d))
    loss = InteractionLoss.quadratic()
    measure = EmpiricalMeasure(rng.standard_normal((n, d)))
    return rng, ref, loss, measure


class TestGenScore:
    def test_zero_loss_is_the_reference_score(self):
        ref = DiagonalGaussian(np.array([1.0, -1.0]), np.array([2.0, 0.5]))
        measure = EmpiricalMeasure(np.zeros((3, 2)))
        x = np.array([0.5, 0.5])
        np.testing.assert_allclose(
            gen_score(ref, ZeroLoss(), measure, x),
            -(x - ref.mean) / ref.variances,
            rtol=1e-15,
        )

    def test_linear_loss_tilts_the_score(self):
        ref = DiagonalGaussian.standard(2)
        weights = np.array([2.0, 3.0])
        loss = LinearLoss.quadratic(np.zeros(2), weights)
        measure = EmpiricalMeasure(np.ones((2, 2)))
        xs = np.random.default_rng(0).standard_normal((4, 2))
        np.testing.assert_allclose(
            gen_score(ref, loss, measure, xs), -xs - weights * xs, rtol=1e-14
        )


class TestSteinAssembly:
    def test_single_atom_hand_values(self):
        # IMQ at s=0 has trace12 = d, vanishing gradients and unit value, so
        # h(x, x) = d + ||b(x)||^2; for a standard normal b(x) = -x.
        kernel = IMQ(lengthscale=1.0)
        ref = DiagonalGaussian.standard(1)
        for x, expected in [(0.0, 1.0), (2.0, 5.0), (-1.5, 3.25)]:
            est = kgd_v_squared(kernel, ref, ZeroLoss(), make_empirical([x]))
            np.testing.assert_allclose(est.value2, expected, rtol=1e-15)

    def test_eval_matches_gram_entries(self):
        _, ref, loss, measure = _random_setup(1)
        kernel = IMQ(lengthscale=0.8)
        gram = stein_gram(kernel, ref, loss, measure)
        atoms = measure.atoms
        for i, j in [(0, 0), (2, 5), (7, 1)]:
            direct = stein_kernel_eval(kernel, ref, loss, measure, atoms[i], atoms[j])
            np.testing.assert_allclose(direct, gram[i, j], rtol=1e-13)

    def test_gram_is_symmetric(self):
        _, ref, loss, measure = _random_setup(2)
        for kernel in [IMQ(1.0), Gaussian(1.3), Mixture((IMQ(0.5), Gaussian(2.0)))]:
            gram = stein_gram(kernel, ref, loss, measure)
            np.testing.assert_allclose(gram, gram.T, atol=1e-13 * np.abs(gram).max())

    @pytest.mark.parametrize("offset", [0.0, 1e3])
    def test_radial_route_matches_pairwise_assembly(self, offset):
        # The translated cloud is the case that needs the atoms centred: the
        # uncentred product form is off by about 5e-10 of max|gram| there.
        _, ref, loss, measure = _random_setup(6, n=30, d=3)
        measure = EmpiricalMeasure(offset + measure.atoms)
        atoms = measure.atoms
        scores = gen_score(ref, loss, measure, atoms)
        for kernel in [IMQ(0.8), Gaussian(1.3), Mixture((IMQ(0.5), Gaussian(2.0)))]:
            assert kernel.is_radial
            gram = stein_gram(kernel, ref, loss, measure)
            direct = _assemble(kernel.pairwise(atoms, atoms), scores, scores)
            err = np.max(np.abs(gram - direct)) / np.max(np.abs(gram))
            assert err <= RADIAL_TOL, (kernel.family, err)

    @pytest.mark.parametrize(
        "kernel",
        [
            IMQ(0.9),
            Gaussian(1.4),
            Mixture((IMQ(1.0), NormalizedLinear(1.2))),
            WeightedMatrixKernel(c=1.1, exponent=1.0, base=IMQ(0.9)),
        ],
        ids=["imq", "gaussian", "mixture", "weighted-matrix"],
    )
    def test_value_against_finite_difference_rebuild(self, kernel):
        # Rebuild h(x, y) from kernel values alone: FD gradients in each
        # argument and a nested difference for the mixed trace.
        rng, ref, loss, measure = _random_setup(3, n=5, d=2)
        x, y = rng.standard_normal((2, 2))
        bx = gen_score(ref, loss, measure, x)
        by = gen_score(ref, loss, measure, y)
        g1 = fd_gradient(lambda a: kernel.value(a, y), x)
        g2 = fd_gradient(lambda b: kernel.value(x, b), y)
        trace = 0.0
        h = 1e-4
        for i in range(2):
            step = np.zeros(2)
            step[i] = h
            gp = fd_gradient(lambda a: kernel.value(a, y + step), x)[i]
            gm = fd_gradient(lambda a: kernel.value(a, y - step), x)[i]
            trace += (gp - gm) / (2.0 * h)
        rebuilt = trace + g1 @ by + g2 @ bx + kernel.value(x, y) * (bx @ by)
        direct = stein_kernel_eval(kernel, ref, loss, measure, x, y)
        np.testing.assert_allclose(direct, rebuilt, atol=FD_TOL)


class TestClassicalEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    def test_linear_loss_reduces_to_classical_form(self, seed):
        # With no interaction the generalised score is an ordinary score and
        # the discrepancy must equal the closed-form classical expression.
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 5))
        n = int(rng.integers(2, 20))
        ref = DiagonalGaussian(rng.standard_normal(d), rng.uniform(0.5, 2.0, size=d))
        loss = LinearLoss.quadratic(
            rng.standard_normal(d), rng.uniform(0.2, 1.5, size=d)
        )
        kernel = (
            IMQ(float(rng.uniform(0.6, 2.0)))
            if seed % 2
            else Gaussian(float(rng.uniform(0.6, 2.0)))
        )
        atoms = rng.standard_normal((n, d))
        measure = EmpiricalMeasure(atoms)

        def score(pts):
            return gen_score(ref, loss, measure, pts)

        expected = reference_ksd_squared(score, kernel, atoms)
        got = kgd_v_squared(kernel, ref, loss, measure).value2
        np.testing.assert_allclose(got, expected, rtol=ORACLE_RTOL)


class TestEstimators:
    def test_v_u_trace_identity(self):
        _, ref, loss, measure = _random_setup(4)
        kernel = IMQ(1.0)
        gram = stein_gram(kernel, ref, loss, measure)
        n = measure.n
        v = kgd_v_squared(kernel, ref, loss, measure).value2
        u = kgd_u_squared(kernel, ref, loss, measure).value2
        np.testing.assert_allclose(
            v, (n - 1) / n * u + np.trace(gram) / n**2, rtol=EXACT_RTOL
        )

    def test_permutation_invariance(self):
        rng, ref, loss, measure = _random_setup(5)
        kernel = Gaussian(0.9)
        shuffled = EmpiricalMeasure(rng.permutation(measure.atoms, axis=0))
        for estimator in (kgd_v_squared, kgd_u_squared):
            a = estimator(kernel, ref, loss, measure).value2
            b = estimator(kernel, ref, loss, shuffled).value2
            np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_two_atom_u_statistic_is_the_off_diagonal(self):
        _, ref, loss, _ = _random_setup(6)
        measure = EmpiricalMeasure(np.array([[0.3, -1.0, 0.2], [1.1, 0.4, -0.6]]))
        kernel = IMQ(1.0)
        gram = stein_gram(kernel, ref, loss, measure)
        u = kgd_u_squared(kernel, ref, loss, measure).value2
        np.testing.assert_allclose(u, (gram[0, 1] + gram[1, 0]) / 2.0, rtol=EXACT_RTOL)

    def test_u_statistic_needs_two_atoms(self):
        with pytest.raises(ValueError, match="two atoms"):
            kgd_u_squared(
                IMQ(1.0), DiagonalGaussian.standard(1), ZeroLoss(), make_empirical([0.0])
            )

    def test_v_statistic_is_nonnegative(self):
        for seed in range(4):
            _, ref, loss, measure = _random_setup(seed, n=12, d=2)
            est = kgd_v_squared(IMQ(1.0), ref, loss, measure)
            assert est.value2 >= -1e-12

    def test_estimate_root_clips_roundoff(self):
        assert KGDEstimate(-1e-16, "u", 5).value == 0.0
        np.testing.assert_allclose(KGDEstimate(4.0, "v", 5).value, 2.0)


class TestMatrixConsistency:
    def test_gram_accepts_matrix_kernels(self):
        _, ref, loss, measure = _random_setup(8, n=6, d=2)
        kernel = WeightedMatrixKernel(c=1.0, exponent=1.0, base=IMQ(1.0))
        gram = stein_gram(kernel, ref, loss, measure)
        np.testing.assert_allclose(gram, gram.T, atol=1e-12 * np.abs(gram).max())
        direct = stein_kernel_eval(
            kernel, ref, loss, measure, measure.atoms[0], measure.atoms[3]
        )
        np.testing.assert_allclose(gram[0, 3], direct, rtol=1e-12)


def _standard_sampler(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.standard_normal((n, 2))


class TestScalingStudy:
    KERNEL = IMQ(1.0)
    REF = DiagonalGaussian.standard(2)

    def test_deterministic(self):
        args = (self.KERNEL, self.REF, ZeroLoss(), _standard_sampler, [25, 50], 8, 3)
        a = clt_scaling_study(*args)
        b = clt_scaling_study(*args)
        np.testing.assert_array_equal(a.v_values, b.v_values)
        np.testing.assert_array_equal(a.u_values, b.u_values)

    def test_replicates_are_addressed_not_ordered(self):
        # Dropping a size must not shift the streams of the remaining ones.
        joint = clt_scaling_study(
            self.KERNEL, self.REF, ZeroLoss(), _standard_sampler, [25, 50, 100], 6, 0
        )
        fewer = clt_scaling_study(
            self.KERNEL, self.REF, ZeroLoss(), _standard_sampler, [50, 100], 6, 0
        )
        np.testing.assert_array_equal(joint.v_values[1:], fewer.v_values)
        np.testing.assert_array_equal(joint.u_values[1:], fewer.u_values)

    @pytest.mark.parametrize(
        "sizes, reps", [([1, 25], 4), ([25, 50], 1), ([25], 4), ([25, 25], 4)]
    )
    def test_rejects_degenerate_shapes_before_sampling(self, sizes, reps):
        drawn = []

        def sampler(rng, n):
            drawn.append(n)
            return _standard_sampler(rng, n)

        with pytest.raises(ValueError):
            clt_scaling_study(self.KERNEL, self.REF, ZeroLoss(), sampler, sizes, reps, 0)
        assert drawn == []

    def test_sizes_are_sorted(self):
        study = clt_scaling_study(
            self.KERNEL, self.REF, ZeroLoss(), _standard_sampler, [50, 25], 4, 1
        )
        np.testing.assert_array_equal(study.sizes, [25, 50])

    def test_summaries_match_the_raw_values(self):
        study = clt_scaling_study(
            self.KERNEL, self.REF, ZeroLoss(), _standard_sampler, [25, 50], 6, 2
        )
        np.testing.assert_allclose(study.v_mean, study.v_values.mean(axis=1))
        np.testing.assert_allclose(study.v_sd, study.v_values.std(axis=1, ddof=1))
        np.testing.assert_allclose(
            study.u_se, study.u_values.std(axis=1, ddof=1) / np.sqrt(6)
        )

    def test_stationary_sampling_scales_like_one_over_n(self):
        # At stationarity E[V^2] decays like 1/n and the U-statistic is
        # centred on zero; the V^2 spread collapses at the same 1/n rate
        # because the U-part is degenerate there.
        study = clt_scaling_study(
            self.KERNEL, self.REF, ZeroLoss(), _standard_sampler, [25, 50, 100, 200], 40, 11
        )
        assert -1.3 < study.slope_v_mean < -0.7
        assert -1.4 < study.slope_v_sd < -0.6
        within = np.abs(study.u_mean) <= 4.0 * study.u_se
        assert within.all()
