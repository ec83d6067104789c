"""Release gate: one test per end-to-end guarantee the package makes.

Each test pins an explicit tolerance and a wall-clock budget. The configs
and seeds are frozen so the gate is deterministic; the statistical checks
use enough replicates that their margins are wide at the frozen seeds.
"""

import time

import numpy as np
import pytest

from kgd.cli import _PRESETS, _apply_overrides
from kgd.core import DiagonalGaussian, EmpiricalMeasure, seeded_stream
from kgd.discrepancy import (
    clt_scaling_study,
    gen_score,
    kgd_v_squared,
    stein_gram,
    )
from kgd.kernels import (
    IMQ,
    Gaussian,
    Mixture,
    NormalizedLinear,
    WeightedMatrixKernel,
    )
from kgd.losses import (
    InteractionLoss,
    LinearLoss,
    MeanFieldRegressionLoss,
    PredictiveKernelLoss,
    ZeroLoss,
    )
from kgd.models import (
    LV_DELTA,
    LV_GAMMA,
    gen_lv_data,
    gen_mfnn_data,
    lv_params,
    lv_sensitivities,
    )
from kgd.oracles import (euclid_identity_check, fd_gradient, gauss_hermite_2d,
                         gaussian_overlap, kernel_derivatives, lv_equilibrium, lv_solve,
                         reference_ksd_squared, reference_stein_kernel)
from kgd.samplers import OptimizerSpec, SearchSpec, greedy_extend, vgd_run


def _elapsed_under(start: float, budget_s: float, label: str) -> None:
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, f"{label} took {elapsed:.1f}s, budget {budget_s}s"


def test_classical_equivalence_on_random_configurations():
    # Interaction-free losses reduce the discrepancy to its classical form;
    # 50 random configurations must match the closed-form oracle to 1e-12.
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(50):
        d = int(rng.integers(1, 6))
        n = int(rng.integers(1, 31))
        ref = DiagonalGaussian(rng.standard_normal(d), rng.uniform(0.5, 2.0, size=d))
        loss = LinearLoss(rng.standard_normal(d), rng.uniform(0.2, 1.5, size=d))
        lengthscale = float(rng.uniform(0.5, 2.0))
        kernel = IMQ(lengthscale) if rng.integers(2) else Gaussian(lengthscale)
        atoms = rng.standard_normal((n, d))
        measure = EmpiricalMeasure(atoms)
        got = kgd_v_squared(kernel, ref, loss, measure).value2
        oracle = reference_ksd_squared(
            lambda pts: gen_score(ref, loss, measure, pts), kernel, atoms
        )
        worst = max(worst, abs(got - oracle) / abs(oracle))
    assert worst <= 1e-12, f"worst relative error {worst:.2e}"
    _elapsed_under(start, 5.0, "classical equivalence")


def test_stationary_rate_and_unbiasedness():
    # Sampling the reference itself: the mean squared discrepancy decays
    # like 1/n and the off-diagonal estimator is centred on zero.
    start = time.perf_counter()
    ref = DiagonalGaussian.standard(2)
    study = clt_scaling_study(
        IMQ(1.0),
        ref,
        ZeroLoss(),
        lambda rng, n: ref.sample(rng, n),
        [25, 50, 100, 200, 400, 800],
        100,
        0,
    )
    assert -1.15 <= study.slope_v_mean <= -0.85, f"slope {study.slope_v_mean:.4f}"
    ratios = np.abs(study.u_mean) / study.u_se
    assert (ratios <= 3.0).all(), f"|mean|/se ratios {ratios}"
    _elapsed_under(start, 60.0, "stationary rate study")


def test_spread_scaling_is_dimension_independent():
    # Away from stationarity the V-statistic spread shrinks at the
    # parametric 1/sqrt(n) rate, at d = 2 and d = 5 alike.
    start = time.perf_counter()
    sizes = [50, 71, 100, 141, 200, 283, 400, 566, 800]
    for d in (2, 5):
        study = clt_scaling_study(
            IMQ(float(np.sqrt(d))),
            DiagonalGaussian.standard(d),
            InteractionLoss(),
            lambda rng, n: 1.0 + rng.standard_normal((n, d)),
            sizes,
            200,
            5,
        )
        assert -0.65 <= study.slope_v_sd <= -0.35, (
            f"d={d} sd slope {study.slope_v_sd:.4f}"
        )
    _elapsed_under(start, 300.0, "spread scaling study")


def test_particle_gradient_identity_across_losses():
    # var_grad equals n times the Euclidean gradient of the particle
    # objective for every loss exposing a scalar value: 20 instances each.
    start = time.perf_counter()
    rng = np.random.default_rng(4)
    worst = {}

    def check(name, loss, atoms, base_step=1e-5):
        measure = EmpiricalMeasure(atoms)
        index = int(rng.integers(measure.n))
        resid = euclid_identity_check(loss, measure, index, base_step)
        worst[name] = max(worst.get(name, 0.0), resid)

    for _ in range(20):
        atoms = rng.standard_normal((5, 3))
        check("zero", ZeroLoss(), atoms)
        check(
            "linear-quadratic",
            LinearLoss(rng.standard_normal(3), rng.uniform(0.2, 2.0, 3)),
            atoms,
        )
        check("interaction-quadratic", InteractionLoss(), atoms)

    data = gen_mfnn_data(0, n_data=60)
    regression = MeanFieldRegressionLoss(data.covariates, data.responses)
    for _ in range(20):
        check("mean-field-regression", regression, rng.standard_normal((4, 4)))

    series = gen_lv_data(1)
    predictive = PredictiveKernelLoss(series.times, series.observations)
    truth = np.array([-1.0, -1.5413248546129177])
    for _ in range(20):
        # The solver-backed loss has O(100) gradients, so the default FD
        # step leaves truncation error at the tolerance; shrink it.
        check(
            "predictive-kernel",
            predictive,
            truth + 0.3 * rng.standard_normal((3, 2)),
            base_step=1e-6,
        )

    for name, resid in worst.items():
        assert resid < 1e-4, f"{name} residual {resid:.2e}"
    _elapsed_under(start, 90.0, "gradient identity")


def test_ode_sensitivities_match_solver_differences():
    # Forward sensitivities at the end of the observation window against
    # central differences of the plain solver.
    start = time.perf_counter()
    times = np.array([60.0])
    rng = np.random.default_rng(5)
    worst = 0.0
    for x in [np.array([-1.0, -1.5413248546129177]), *rng.normal(0, 0.5, (3, 2)) - 1.0]:
        _, sens = lv_sensitivities(x, times)
        fd = np.empty_like(sens[0, :, :])
        for j in range(2):
            h = 1e-6 * (1.0 + abs(x[j]))
            plus, minus = x.copy(), x.copy()
            plus[j] += h
            minus[j] -= h
            fd[:, j] = (lv_solve(plus, times)[0] - lv_solve(minus, times)[0]) / (2 * h)
        scale = max(1e-30, float(np.max(np.abs(sens))))
        worst = max(worst, float(np.max(np.abs(sens[0] - fd))) / scale)
    assert worst <= 1e-4, f"worst relative error {worst:.2e}"
    _elapsed_under(start, 15.0, "sensitivity check")


def test_kernel_derivatives_match_finite_differences():
    # The oracle's analytic gradients and mixed traces for every kernel family
    # against differences of the kernels' values on 100 random inputs, the
    # weighted matrix kernel's scalar part included.
    start = time.perf_counter()
    rng = np.random.default_rng(6)
    families = [
        IMQ(0.8),
        Gaussian(1.3),
        Mixture((IMQ(0.6), Gaussian(1.5)), weights=(0.7, 0.3)),
        NormalizedLinear(1.1),
        WeightedMatrixKernel(c=1.2, exponent=1.0, base=IMQ(0.9)),
    ]
    worst = 0.0
    for trial in range(100):
        kernel = families[trial % len(families)]
        x, y = rng.standard_normal((2, 3))
        _, grad1, grad2, trace12 = (t[0, 0] for t in kernel_derivatives(kernel, x[None], y[None]))
        fd1 = fd_gradient(lambda a: kernel.value(a, y), x)
        fd2 = fd_gradient(lambda b: kernel.value(x, b), y)
        trace = 0.0
        for i in range(3):
            step = np.zeros(3)
            step[i] = 1e-4
            gp = fd_gradient(lambda a: kernel.value(a, y + step), x)[i]
            gm = fd_gradient(lambda a: kernel.value(a, y - step), x)[i]
            trace += (gp - gm) / 2e-4
        for got, ref_val in [
            (grad1, fd1),
            (grad2, fd2),
            (trace12, trace),
        ]:
            scale = max(1.0, float(np.max(np.abs(ref_val))))
            worst = max(worst, float(np.max(np.abs(got - ref_val))) / scale)
    assert worst <= 1e-5, f"worst relative error {worst:.2e}"
    _elapsed_under(start, 15.0, "kernel derivative check")


def test_flow_descends_and_improves_with_more_particles():
    # The deterministic flow must cut the squared discrepancy to below a
    # fifth of its initial value, and time-averaged quality must not get
    # worse when the particle count quadruples.
    start = time.perf_counter()
    ref = DiagonalGaussian.standard(2)
    kernel = IMQ(1.0)
    spec = OptimizerSpec(method="euler", step_size=0.05)

    init = 1.5 + ref.sample(seeded_stream(0, "vgd-descent"), 50)
    run = vgd_run(init, kernel, ref, ZeroLoss(), spec, 500, trace_kernel=kernel,
                  trace_every=500)
    ratio = run.kgd2[-1] / run.kgd2[0]
    assert ratio < 0.2, f"final/initial ratio {ratio:.4f}"

    averages = {}
    for n in (25, 100):
        values = []
        for seed in range(5):
            init = 1.5 + ref.sample(seeded_stream(seed, "vgd-size", n), n)
            trace = vgd_run(init, kernel, ref, ZeroLoss(), spec, 500,
                            trace_kernel=kernel, trace_every=1)
            values.append(trace.kgd2.mean())
        averages[n] = float(np.mean(values))
    assert averages[100] <= averages[25], f"time-averaged {averages}"
    _elapsed_under(start, 120.0, "flow descent")


def test_intermediate_step_size_wins():
    # Langevin bias grows with the step and mixing slows as it shrinks, so
    # the mid-grid step must beat both extremes on median final quality.
    start = time.perf_counter()
    runner, table = _PRESETS["mfnn-stepsize"]
    knobs = _apply_overrides(table, [f"step_sizes={1e-6!r};{10.0**-3.5!r};{1e-1!r}"])
    outputs, _ = runner(0, knobs)
    # The trace rows keep a diverged median as inf (meta.json has null).
    medians = {row[0]: row[1] for row in outputs.rows}
    mid = medians[10.0**-3.5]
    assert mid < medians[1e-6], f"mid {mid:.3f} vs small-step {medians[1e-6]:.3f}"
    assert mid < medians[1e-1], f"mid {mid:.3f} vs large-step {medians[1e-1]}"
    _elapsed_under(start, 600.0, "step-size sweep")


def test_greedy_first_point_and_growth():
    # The first greedy point lands on the reference mode and growing the
    # configuration improves it.
    start = time.perf_counter()
    search = SearchSpec(
        proposal_mean=np.zeros(1), proposal_scale=1.0, n_candidates=200,
        refine_rounds=4,
    )
    run = greedy_extend(
        IMQ(1.0), DiagonalGaussian.standard(1), ZeroLoss(), search, 20, seed=0
    )
    first = abs(run.atoms[0, 0])
    assert first < 1e-3, f"first point at {run.atoms[0, 0]:.2e}"
    assert run.kgd2[19] < run.kgd2[0], f"kgd2[20]={run.kgd2[19]:.4f} vs kgd2[1]={run.kgd2[0]:.4f}"
    _elapsed_under(start, 30.0, "greedy growth")


def test_stein_gram_algebra():
    # The weighted kernel with a vanishing weight exponent has the Stein
    # kernel of its unweighted part, and every Gram is symmetric with a
    # near-nonnegative spectrum.
    start = time.perf_counter()
    rng = np.random.default_rng(8)
    losses = [
        ZeroLoss(),
        LinearLoss(np.zeros(3), np.array([1.0, 0.5, 2.0])),
        InteractionLoss(),
    ]
    worst_pair = 0.0
    worst_asym = 0.0
    worst_eig = 0.0
    for trial in range(20):
        d = 3
        n = int(rng.integers(3, 11))
        ref = DiagonalGaussian(rng.standard_normal(d), rng.uniform(0.5, 2.0, d))
        loss = losses[trial % len(losses)]
        measure = EmpiricalMeasure(rng.standard_normal((n, d)))
        c = float(rng.uniform(0.5, 2.0))
        base = IMQ(float(rng.uniform(0.6, 1.8)))
        flat = WeightedMatrixKernel(c=c, exponent=0.0, base=base)
        summed = Mixture((base, NormalizedLinear(c)), weights=(1.0, 1.0))
        x, y = rng.standard_normal((2, 1, d))
        score = lambda p: gen_score(ref, loss, measure, p)
        a = reference_stein_kernel(flat, score, x, y)[0, 0]
        b = reference_stein_kernel(summed, score, x, y)[0, 0]
        worst_pair = max(worst_pair, abs(a - b) / max(1.0, abs(b)))

        gram = stein_gram(summed, ref, loss, measure)
        worst_asym = max(worst_asym, float(np.max(np.abs(gram - gram.T))))
        min_eig = float(np.linalg.eigvalsh((gram + gram.T) / 2.0).min())
        scale = float(np.linalg.norm(gram, 2))
        worst_eig = min(worst_eig, min_eig / scale)
    assert worst_pair <= 1e-12, f"weighted/unweighted mismatch {worst_pair:.2e}"
    assert worst_asym <= 1e-12, f"asymmetry {worst_asym:.2e}"
    assert worst_eig >= -1e-10, f"min eig over norm {worst_eig:.2e}"
    _elapsed_under(start, 30.0, "gram algebra")


def test_noise_averaged_kernel_and_equilibrium():
    # The closed-form Gaussian overlap against high-order quadrature, and
    # the coexistence point annihilating the population drift.
    start = time.perf_counter()
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(50):
        a, b = rng.standard_normal(2)
        sigma = float(rng.uniform(0.05, 1.5))
        quad = gauss_hermite_2d(
            lambda y, yp: np.exp(-0.5 * (y - yp) ** 2), (a, b), sigma, order=60
        )
        worst = max(worst, abs(float(gaussian_overlap(a, b, sigma)) - quad))
    assert worst <= 1e-8, f"worst quadrature gap {worst:.2e}"

    for x in [np.array([-1.0, -1.5]), np.array([0.3, 0.8]), np.array([-2.0, 1.0])]:
        alpha, beta = lv_params(x)
        eq = lv_equilibrium(x)
        u1, u2 = eq
        rhs = np.array(
            [alpha * u1 - beta * u1 * u2, LV_DELTA * u1 * u2 - LV_GAMMA * u2]
        )
        np.testing.assert_allclose(rhs, 0.0, atol=1e-10)
        held = lv_solve(x, np.array([5.0, 25.0]), init=(float(eq[0]), float(eq[1])))
        np.testing.assert_allclose(held, np.stack([eq, eq]), atol=1e-10)
    _elapsed_under(start, 30.0, "closed forms")
