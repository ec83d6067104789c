"""Stein kernel assembly and the squared-discrepancy estimators.

The definition lives in ``kgd.oracles``: ``reference_stein_kernel`` and
``reference_drift`` assemble h and the flow velocity from the closed-form
derivative table ``kernel_derivatives``, which shares no code with the
kernels' ``terms`` and ``profile``. The assembly is pinned four ways: hand
formulas at single atoms, a full finite-difference rebuild of h(x, y) for a
nontrivial loss, the closed-form classical-discrepancy oracle for potentials
without interaction, and that oracle Stein kernel. The row-block pass behind
the estimators, the drift and the particle gradient, and the term-built
``stein_gram``, are held against the oracle (a skewed ``profile`` must show),
the pass against itself with slabs of three rows, bitwise against itself on
a workspace filled with nan before every pass, and by the entries it hands
to ``profile`` (the upper block triangle, not the square). The estimator algebra
(V/U identity, permutation invariance, substream addressing) is checked
exactly.
"""

import numpy as np
import pytest

from kgd import discrepancy
from kgd.core import DiagonalGaussian, EmpiricalMeasure
from kgd.discrepancy import (
    _BLOCK,
    _stein_sums,
    clt_scaling_study,
    gen_score,
    kgd_u_squared,
    kgd_v_squared,
    particle_grad,
    stein_drift,
    stein_gram,
    )
from kgd.kernels import IMQ, Gaussian, Mixture, NormalizedLinear, WeightedMatrixKernel
from kgd.losses import InteractionLoss, LinearLoss, MeanFieldRegressionLoss, ZeroLoss
from kgd.models import gen_mfnn_data
from kgd.oracles import fd_gradient, reference_drift, reference_ksd_squared, reference_stein_kernel

ORACLE_RTOL = 1e-12  # analytic Gram assembly vs closed-form oracle
FD_TOL = 5e-6  # assembled Stein values vs nested finite differences
EXACT_RTOL = 1e-13  # pure reorderings of the same sums
RADIAL_TOL = 1e-12  # row route vs oracle assembly: sums by sum|h|, drift by max
BLOCK_TOL = 1e-12  # small row blocks vs one block, scaled by the largest entry

# Every kernel family, tilted ones with radial and non-radial bases. The
# exponent-0.5 tilt of IMQ is the plain "weighted-matrix" case.
PRODUCT_KERNELS = [
    pytest.param(IMQ(0.8), id="imq"),
    pytest.param(Gaussian(1.3), id="gaussian"),
    pytest.param(Mixture((IMQ(0.5), Gaussian(2.0))), id="radial-mixture"),
    pytest.param(NormalizedLinear(1.2), id="normalized-linear"),
    pytest.param(Mixture((IMQ(1.0), NormalizedLinear(1.2))), id="linear-mixture"),
    *(
        pytest.param(WeightedMatrixKernel(c=1.1, exponent=e, base=IMQ(0.9)), id=name)
        for e, name in [(-1.0, "weighted-matrix-exp-1"), (0.0, "weighted-matrix-exp0"),
                        (0.5, "weighted-matrix"), (1.0, "weighted-matrix-exp1")]
    ),
    *(
        pytest.param(
            WeightedMatrixKernel(c=0.9, exponent=e, base=Mixture((Gaussian(1.0), NormalizedLinear(0.7)))),
            id=f"tilted-mixture-exp{e:g}",
        )
        for e in (-1.0, 0.0, 0.5, 1.0)
    ),
]

_MFNN_DATA = gen_mfnn_data(0, n_data=30)


def _oracle_eval(kernel, ref, loss, measure, x, y) -> float:
    """The oracle Stein kernel at one pair of (not necessarily atomic) points."""
    score = lambda p: gen_score(ref, loss, measure, p)
    return float(reference_stein_kernel(kernel, score, x[None], y[None])[0, 0])


def _random_setup(seed: int, n: int = 8, d: int = 3):
    rng = np.random.default_rng(seed)
    ref = DiagonalGaussian(rng.standard_normal(d), rng.uniform(0.5, 2.0, size=d))
    loss = InteractionLoss()
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
        loss = LinearLoss(np.zeros(2), weights)
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
            est = kgd_v_squared(kernel, ref, ZeroLoss(), EmpiricalMeasure(np.array([[x]])))
            np.testing.assert_allclose(est, expected, rtol=1e-15)

    def test_eval_matches_gram_entries(self):
        _, ref, loss, measure = _random_setup(1)
        kernel = IMQ(lengthscale=0.8)
        gram = stein_gram(kernel, ref, loss, measure)
        atoms = measure.atoms
        for i, j in [(0, 0), (2, 5), (7, 1)]:
            direct = _oracle_eval(kernel, ref, loss, measure, atoms[i], atoms[j])
            np.testing.assert_allclose(direct, gram[i, j], rtol=1e-13)

    def test_gram_is_symmetric(self):
        _, ref, loss, measure = _random_setup(2)
        for kernel in [IMQ(1.0), Gaussian(1.3), Mixture((IMQ(0.5), Gaussian(2.0)))]:
            gram = stein_gram(kernel, ref, loss, measure)
            np.testing.assert_allclose(gram, gram.T, atol=1e-13 * np.abs(gram).max())

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
        direct = _oracle_eval(kernel, ref, loss, measure, x, y)
        np.testing.assert_allclose(direct, rebuilt, atol=FD_TOL)


class TestSteinSums:
    @pytest.mark.parametrize("n", [2, 30, 2 * _BLOCK + 3], ids=["two", "one-block", "ragged-blocks"])
    @pytest.mark.parametrize("offset", [0.0, 1e3])
    @pytest.mark.parametrize("kernel", PRODUCT_KERNELS)
    def test_match_the_gram_sum_and_trace(self, kernel, offset, n):
        # The row-block sum, trace and drift, and the term-built Gram, against
        # the oracle assembly. The translated cloud is the case that needs the
        # atoms centred: the uncentred product form is off by about 5e-10 of
        # max|gram| there.
        _, ref, loss, measure = _random_setup(6, n=n, d=3)
        measure = EmpiricalMeasure(offset + measure.atoms)
        atoms = measure.atoms
        score = lambda p: gen_score(ref, loss, measure, p)
        scores = score(atoms)
        direct = reference_stein_kernel(kernel, score, atoms, atoms)
        total, trace = _stein_sums(kernel, atoms, scores)
        scale = np.sum(np.abs(direct))
        assert abs(total - np.sum(direct)) <= RADIAL_TOL * scale
        assert abs(trace - np.trace(direct)) <= RADIAL_TOL * scale
        gram = stein_gram(kernel, ref, loss, measure)
        assert np.sum(np.abs(gram - direct)) <= RADIAL_TOL * scale
        drift = stein_drift(kernel, atoms, scores)
        direct = reference_drift(kernel, score, atoms)
        err = np.max(np.abs(drift - direct)) / np.max(np.abs(drift))
        assert err <= RADIAL_TOL, err

    @pytest.mark.parametrize("kernel", [IMQ(0.8), Gaussian(1.3), Mixture((IMQ(0.5), Gaussian(2.0)))],
                             ids=["imq", "gaussian", "radial-mixture"])
    def test_a_skewed_profile_misses_the_oracle(self, kernel, monkeypatch):
        # The oracle reads no profile, so phi'' off by one part in 1e6 must
        # move the row-block sum away from it by far more than RADIAL_TOL.
        def skewed(profile):
            def wrapped(self, sq, order, out):
                profile(self, sq, order, out)
                if order >= 2:
                    out[2] *= 1.0 + 1e-6
                return out
            return wrapped

        for cls in (IMQ, Gaussian):
            monkeypatch.setattr(cls, "profile", skewed(cls.profile))
        _, ref, loss, measure = _random_setup(6, n=30, d=3)
        atoms = measure.atoms
        score = lambda p: gen_score(ref, loss, measure, p)
        direct = reference_stein_kernel(kernel, score, atoms, atoms)
        total, _ = _stein_sums(kernel, atoms, score(atoms))
        assert abs(total - np.sum(direct)) > RADIAL_TOL * np.sum(np.abs(direct))

    @pytest.mark.parametrize(
        "loss",
        [InteractionLoss(),
         MeanFieldRegressionLoss(_MFNN_DATA.covariates, _MFNN_DATA.responses)],
        ids=["interaction", "mean-field"],
    )
    @pytest.mark.parametrize(
        "kernel",
        [IMQ(0.8), Mixture((IMQ(0.5), Gaussian(2.0))),
         WeightedMatrixKernel(c=1.1, exponent=0.5, base=IMQ(0.9))],
        ids=["imq", "radial-mixture", "weighted-matrix"],
    )
    def test_blocks_of_three_match_one_block(self, kernel, loss, monkeypatch):
        # Ten atoms in slabs of 3, 3, 3 and 1 rows cross every slab boundary;
        # the default block holds them all.
        atoms = np.random.default_rng(12).standard_normal((10, 4))
        ref = DiagonalGaussian.standard(4)
        scores = gen_score(ref, loss, EmpiricalMeasure(atoms), atoms)

        def evaluate():
            return [np.array(_stein_sums(kernel, atoms, scores)),
                    stein_drift(kernel, atoms, scores),
                    particle_grad(kernel, ref, loss, atoms),
                    particle_grad(kernel, ref, loss, atoms, u_statistic=True)]

        whole = evaluate()
        monkeypatch.setattr(discrepancy, "_BLOCK", 3)
        for one, blocked in zip(whole, evaluate()):
            assert np.max(np.abs(blocked - one)) <= BLOCK_TOL * np.max(np.abs(one))

    @pytest.mark.parametrize("order", [3, 1, 2])
    def test_stale_workspace_is_never_read(self, order, monkeypatch):
        # Every slab comes out of the shared workspace full of nan, so a read
        # before a write poisons the result; the sizes shrink and grow again
        # (515 is four full blocks and a ragged one).
        rng = np.random.default_rng(13)
        ref = DiagonalGaussian.standard(3)
        loss = InteractionLoss()
        kernels = [IMQ(0.8), Mixture((IMQ(0.5), Gaussian(2.0))),
                   WeightedMatrixKernel(c=1.1, exponent=0.5, base=IMQ(0.9))]
        clouds = {n: rng.standard_normal((n, 3)) for n in (515, 10, 2)}

        def evaluate(atoms):
            scores = gen_score(ref, loss, EmpiricalMeasure(atoms), atoms)
            if order == 1:
                return [stein_drift(k, atoms, scores) for k in kernels]
            if order == 2:
                return [np.array(_stein_sums(k, atoms, scores)) for k in kernels]
            return [particle_grad(k, ref, loss, atoms, u_statistic=u)
                    for k in kernels for u in (False, True)]

        first = {n: evaluate(atoms) for n, atoms in clouds.items()}
        # The workspace may still hold another test's nan.
        assert all(np.isfinite(v).all() for vs in first.values() for v in vs)
        slabs = discrepancy._slabs

        def poisoned(*shape):
            view = slabs(*shape)
            view.fill(np.nan)
            return view

        monkeypatch.setattr(discrepancy, "_slabs", poisoned)
        for n in (515, 10, 2, 515):
            for want, got in zip(first[n], evaluate(clouds[n])):
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_a_pass_profiles_the_upper_block_triangle_only(self, order, monkeypatch):
        # Block rows lo:hi read columns lo:n, so one pass hands profile
        # sum (hi - lo)(n - lo) entries over its blocks, not n^2.
        n = 2 * _BLOCK + 3
        seen = []
        profile = IMQ.profile

        def counted(self, sq, order, out):
            seen.append((order, sq.size))
            return profile(self, sq, order, out)

        monkeypatch.setattr(IMQ, "profile", counted)
        atoms = np.random.default_rng(14).standard_normal((n, 3))
        ref = DiagonalGaussian.standard(3)
        loss = InteractionLoss()
        scores = gen_score(ref, loss, EmpiricalMeasure(atoms), atoms)
        if order == 1:
            stein_drift(IMQ(0.8), atoms, scores)
        elif order == 2:
            _stein_sums(IMQ(0.8), atoms, scores)
        else:
            particle_grad(IMQ(0.8), ref, loss, atoms)
        triangle = sum((min(lo + _BLOCK, n) - lo) * (n - lo) for lo in range(0, n, _BLOCK))
        assert {o for o, _ in seen} == {order}
        assert sum(size for _, size in seen) == triangle

    def test_overflowing_sum_of_finite_entries_raises(self):
        # Two equal atoms with ||b||^2 = 1.44e308: every entry is finite, the
        # sum of the four is not.
        measure = EmpiricalMeasure(np.array([[1.2e154, 0.0], [1.2e154, 0.0]]))
        ref = DiagonalGaussian.standard(2)
        assert np.isfinite(stein_gram(IMQ(1.0), ref, ZeroLoss(), measure)).all()
        with pytest.raises(FloatingPointError, match="overflowed"):
            kgd_u_squared(IMQ(1.0), ref, ZeroLoss(), measure)


class TestClassicalEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    def test_linear_loss_reduces_to_classical_form(self, seed):
        # With no interaction the generalised score is an ordinary score and
        # the discrepancy must equal the closed-form classical expression.
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 5))
        n = int(rng.integers(2, 20))
        ref = DiagonalGaussian(rng.standard_normal(d), rng.uniform(0.5, 2.0, size=d))
        loss = LinearLoss(rng.standard_normal(d), rng.uniform(0.2, 1.5, size=d))
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
        got = kgd_v_squared(kernel, ref, loss, measure)
        np.testing.assert_allclose(got, expected, rtol=ORACLE_RTOL)


class TestEstimators:
    def test_v_u_trace_identity(self):
        _, ref, loss, measure = _random_setup(4)
        kernel = IMQ(1.0)
        gram = stein_gram(kernel, ref, loss, measure)
        n = measure.n
        v = kgd_v_squared(kernel, ref, loss, measure)
        u = kgd_u_squared(kernel, ref, loss, measure)
        np.testing.assert_allclose(
            v, (n - 1) / n * u + np.trace(gram) / n**2, rtol=EXACT_RTOL
        )

    def test_permutation_invariance(self):
        rng, ref, loss, measure = _random_setup(5)
        kernel = Gaussian(0.9)
        shuffled = EmpiricalMeasure(rng.permutation(measure.atoms, axis=0))
        for estimator in (kgd_v_squared, kgd_u_squared):
            a = estimator(kernel, ref, loss, measure)
            b = estimator(kernel, ref, loss, shuffled)
            np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_two_atom_u_statistic_is_the_off_diagonal(self):
        _, ref, loss, _ = _random_setup(6)
        measure = EmpiricalMeasure(np.array([[0.3, -1.0, 0.2], [1.1, 0.4, -0.6]]))
        kernel = IMQ(1.0)
        gram = stein_gram(kernel, ref, loss, measure)
        u = kgd_u_squared(kernel, ref, loss, measure)
        np.testing.assert_allclose(u, (gram[0, 1] + gram[1, 0]) / 2.0, rtol=EXACT_RTOL)

    def test_u_statistic_needs_two_atoms(self):
        with pytest.raises(ValueError, match="two atoms"):
            kgd_u_squared(
                IMQ(1.0), DiagonalGaussian.standard(1), ZeroLoss(), EmpiricalMeasure(np.zeros((1, 1)))
            )

    def test_v_statistic_is_nonnegative(self):
        for seed in range(4):
            _, ref, loss, measure = _random_setup(seed, n=12, d=2)
            assert kgd_v_squared(IMQ(1.0), ref, loss, measure) >= -1e-12


class TestMatrixConsistency:
    def test_gram_accepts_matrix_kernels(self):
        _, ref, loss, measure = _random_setup(8, n=6, d=2)
        kernel = WeightedMatrixKernel(c=1.0, exponent=1.0, base=IMQ(1.0))
        gram = stein_gram(kernel, ref, loss, measure)
        np.testing.assert_allclose(gram, gram.T, atol=1e-12 * np.abs(gram).max())
        direct = _oracle_eval(kernel, ref, loss, measure, measure.atoms[0], measure.atoms[3])
        np.testing.assert_allclose(gram[0, 3], direct, rtol=1e-12)

    def test_huge_atoms_raise_for_the_weighted_kernel(self):
        # c^2 + ||x||^2 overflows, so the weights and the linear core do too.
        # The estimators' sums fall back to the Gram to name the entry.
        kernel = WeightedMatrixKernel(c=1.0, exponent=0.5, base=IMQ(1.0))
        measure = EmpiricalMeasure(np.array([[1e200, 0.0], [0.0, 1e200]]))
        for evaluate in (stein_gram, kgd_v_squared):
            with pytest.raises(FloatingPointError, match="non-finite Stein Gram entry"):
                evaluate(kernel, DiagonalGaussian.standard(2), ZeroLoss(), measure)


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

    def test_keeps_the_first_replicate_draw_at_the_largest_size(self):
        study = clt_scaling_study(
            self.KERNEL, self.REF, ZeroLoss(), _standard_sampler, [50, 25], 4, 1
        )
        assert study.largest_draw.shape == (50, 2)
        draw = EmpiricalMeasure(study.largest_draw)
        assert kgd_v_squared(self.KERNEL, self.REF, ZeroLoss(), draw) == study.v_values[-1, 0]

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
