"""Sanity checks for the checking instruments themselves.

Every expected value here has a closed form derived by hand, so the oracles
are validated without reference to the production code they later vet.
"""

import ast
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kgd
from kgd.oracles import fd_gradient, gauss_hermite_2d, reference_ksd_squared, slope_fit

PACKAGE = Path(kgd.__file__).parent


def test_fd_gradient_polynomial():
    # f(x) = sin(x0) + x0 * x1^2, grad = (cos x0 + x1^2, 2 x0 x1).
    f = lambda x: np.sin(x[0]) + x[0] * x[1] ** 2
    x = np.array([0.7, -1.3])
    expected = np.array([np.cos(0.7) + 1.69, 2 * 0.7 * -1.3])
    np.testing.assert_allclose(fd_gradient(f, x), expected, atol=1e-7)


def test_fd_gradient_scales_step_with_coordinate():
    # A quartic has zero third derivative at the origin but not at x = 100;
    # the relative step keeps the estimate accurate far out.
    f = lambda x: float(np.sum(x**4))
    x = np.array([100.0])
    np.testing.assert_allclose(fd_gradient(f, x), [4e6], rtol=1e-7)


def test_gauss_hermite_polynomial_moments():
    # E[Y Y'] = m m' and E[Y^2] = m^2 + sigma^2 for independent Gaussians.
    m, mp, sigma = 0.8, -0.4, 0.6
    got = gauss_hermite_2d(lambda y, yp: y * yp, (m, mp), sigma)
    np.testing.assert_allclose(got, m * mp, atol=1e-12)
    got = gauss_hermite_2d(lambda y, yp: y**2, (m, mp), sigma)
    np.testing.assert_allclose(got, m**2 + sigma**2, atol=1e-12)


def test_gauss_hermite_constant_normalisation():
    assert abs(gauss_hermite_2d(lambda y, yp: 1.0, (3.0, -2.0), 1.7) - 1.0) < 1e-13


def test_gauss_hermite_rejects_bad_sigma():
    with pytest.raises(ValueError):
        gauss_hermite_2d(lambda y, yp: 1.0, (0.0, 0.0), 0.0)


class _Kern:
    def __init__(self, family, lengthscale):
        self.family = family
        self.lengthscale = lengthscale


def test_reference_ksd_single_atom_closed_form():
    # For one atom x the V-statistic is the Stein-kernel diagonal
    #   trace12(x, x) + 2 grad1(x, x) . s + k(x, x) ||s||^2.
    # IMQ with ell = 1 gives trace12(x, x) = d and grad1(x, x) = 0, so with a
    # standard normal score s = -x the value is d + ||x||^2.
    for x0 in (0.0, 2.0, -1.5):
        got = reference_ksd_squared(
            lambda X: -X, _Kern("imq", 1.0), np.array([[x0]])
        )
        np.testing.assert_allclose(got, 1.0 + x0**2, rtol=1e-14)


def test_reference_ksd_gaussian_single_atom():
    # Gaussian kernel: trace12(x, x) = 2 d / ell^2.
    ell = 1.3
    got = reference_ksd_squared(
        lambda X: -X, _Kern("gaussian", ell), np.array([[0.0, 0.0]])
    )
    np.testing.assert_allclose(got, 4.0 / ell**2, rtol=1e-14)


def test_reference_ksd_two_atoms_brute_force():
    # Assemble the n = 2 V-statistic from scalar kernel evaluations by
    # finite differences, fully independent of the inline closed forms.
    x = np.array([[0.3, -0.7], [1.1, 0.4]])
    score = lambda X: -X
    kern = _Kern("imq", 0.9)

    def kval(a, b):
        return (1.0 + np.sum((a - b) ** 2) / kern.lengthscale**2) ** -0.5

    h = 1e-5
    total = 0.0
    for i in range(2):
        for j in range(2):
            a, b = x[i], x[j]
            sa, sb = -a, -b
            g1 = fd_gradient(lambda t: kval(t, b), a, h)
            g2 = fd_gradient(lambda t: kval(a, t), b, h)
            tr = 0.0
            for c in range(2):
                step = h * (1.0 + abs(b[c]))
                bp, bm = b.copy(), b.copy()
                bp[c] += step
                bm[c] -= step
                tr += (
                    fd_gradient(lambda t: kval(t, bp), a, h)[c]
                    - fd_gradient(lambda t: kval(t, bm), a, h)[c]
                ) / (2.0 * step)
            total += tr + g1 @ sb + g2 @ sa + kval(a, b) * (sa @ sb)
    np.testing.assert_allclose(
        reference_ksd_squared(score, kern, x), total / 4.0, rtol=1e-6
    )


def test_reference_ksd_rejects_unknown_family():
    with pytest.raises(ValueError):
        reference_ksd_squared(lambda X: -X, _Kern("linear", 1.0), np.zeros((2, 1)))


def test_slope_fit_exact_line():
    xs = np.log(np.array([10.0, 20.0, 40.0, 80.0]))
    ys = 3.0 - 1.5 * xs
    slope, se = slope_fit(xs, ys)
    np.testing.assert_allclose(slope, -1.5, atol=1e-12)
    assert se < 1e-12


def test_slope_fit_two_points_has_zero_stderr():
    slope, se = slope_fit(np.array([0.0, 1.0]), np.array([2.0, 5.0]))
    assert slope == 3.0 and se == 0.0


def test_slope_fit_stderr_covers_noise():
    rng = np.random.default_rng(0)
    xs = np.linspace(0.0, 5.0, 40)
    hits = 0
    for _ in range(200):
        ys = 1.0 + 2.0 * xs + 0.3 * rng.standard_normal(40)
        slope, se = slope_fit(xs, ys)
        if abs(slope - 2.0) < 2.0 * se:
            hits += 1
    # Roughly 95% coverage for a 2-sigma band.
    assert hits > 170


def test_slope_fit_validates_input():
    with pytest.raises(ValueError):
        slope_fit(np.array([1.0]), np.array([2.0]))
    with pytest.raises(ValueError):
        slope_fit(np.array([1.0, 1.0, 1.0]), np.array([1.0, 2.0, 3.0]))


def _imported_modules(path: Path):
    """(dotted module, imported names) for every import in a package file,
    function bodies included; relative imports resolve against ``kgd``."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, ()
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = "kgd" + (f".{module}" if module else "")
            names = tuple(alias.name for alias in node.names)
            if module == "kgd":
                for name in names:
                    yield f"kgd.{name}", ()
            else:
                yield module, names


class TestOracleIndependence:
    def test_production_does_not_load_the_oracles(self):
        # ``kgd.selfcheck`` is their one production caller, and only the
        # ``self-check`` verb loads it. The CLI imports the oracle module
        # itself, no name from it, so that a tracer can wrap them once
        # ``kgd.cli`` is loaded; ``import kgd`` loads neither.
        imports = {path.name: [names for m, names in _imported_modules(path) if m == "kgd.oracles"]
                   for path in PACKAGE.glob("*.py") if path.name != "oracles.py"}
        importers = {name for name, found in imports.items() if found}
        assert importers <= {"cli.py", "selfcheck.py"}, importers
        assert imports["cli.py"] == [()], imports["cli.py"]
        probe = ("import sys, kgd; print('kgd.oracles' in sys.modules); import kgd.cli; "
                 "print('kgd.selfcheck' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                             check=True, cwd=PACKAGE.parent)
        assert out.stdout.split() == ["False", "False"]

    def test_oracles_share_no_code_with_production(self):
        # From the package, only the model's parameter map and constants.
        path = PACKAGE / "oracles.py"
        for module, names in _imported_modules(path):
            if module.startswith("kgd"):
                assert module == "kgd.models", module
                assert all(n == "lv_params" or n.startswith("LV_") for n in names), names
        # And no kernel is read through its production description.
        banned = {"terms", "profile", "inner", "is_radial", "power", "weight",
                  "log_weight_grad", "log_weight_hvp"}
        read = {node.attr for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.Attribute)}
        assert not read & banned, read & banned
