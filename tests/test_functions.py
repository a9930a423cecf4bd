"""Tests for the analytic test-function catalog, including the self-consistency gate."""
from dataclasses import replace

import numpy as np
import pytest

from qgrad import (
    CATALOG,
    ProblemSpec,
    build_phase_state,
    cubic_1d,
    linear,
    quadratic,
    scanned_range,
    sinusoid,
)


def catalog_instances():
    rng = np.random.default_rng(42)
    H = rng.normal(size=(3, 3))
    return [
        linear(np.array([0.25, -0.125]), c=0.0),
        linear(np.array([0.1]), c=1.0),
        quadratic(rng.normal(size=3), H + H.T, c=0.3),
        quadratic([0.0], [[0.7]], c=-1.0),
        cubic_1d(0.8),
        sinusoid(1.3, [0.9, -0.4]),
        sinusoid(1.0, [2.0]),
    ]


# --- Frozen examples ---

def test_linear_zero_function():
    f = linear([0.0], c=0.0)
    assert f.eval([0.3]) == pytest.approx(0.0)
    assert f.eval([-5.0]) == pytest.approx(0.0)


def test_linear_constant_gradient_and_flat_hessian():
    f = linear([0.25], c=1.0)
    for x in ([0.0], [2.0], [-3.5]):
        assert f.grad(x) == pytest.approx([0.25])
    f2 = linear([0.25, -0.125])
    assert f2.hess([1.0, 2.0]) == pytest.approx(np.zeros((2, 2)))


def test_quadratic_identity_hessian_gradient():
    f = quadratic([0.0, 0.0], np.eye(2))
    assert f.grad([1.0, 1.0]) == pytest.approx([1.0, 1.0])


def test_quadratic_keeps_hessian():
    H = (1.0 / 128) * 0.1 * np.array([[1.0, 1.0], [1.0, -1.0]])
    f = quadratic([0.0, 0.0], H)
    assert f.hess([0.3, -0.2]) == pytest.approx(H)


def test_quadratic_eval_value():
    # hand evaluation: 5 + 2*3 + 0 = 11
    f = quadratic([2.0], [[0.0]], c=5.0)
    assert f.eval([3.0]) == pytest.approx(11.0)


def test_quadratic_rejects_asymmetric():
    with pytest.raises(ValueError):
        quadratic([0.0, 0.0], [[1.0, 2.0], [0.0, 1.0]])


def test_cubic_value_and_third_derivative():
    f = cubic_1d(1.0)
    assert f.eval(2.0) == pytest.approx(8.0)
    # constant third derivative 6*a3, probed as the slope of the hessian
    f2 = cubic_1d(-0.3)
    h = 1e-4
    third = (f2.hess([h])[0, 0] - f2.hess([-h])[0, 0]) / (2 * h)
    assert third == pytest.approx(6 * -0.3, rel=1e-6)


def test_sinusoid_hessian_by_hand():
    # d/dx^2 of A*sin(k*x) = -A*k^2*sin(k*x); at k*x = pi/2 this is -A*k^2
    k = 2.0
    f = sinusoid(1.0, [k])
    x = np.pi / (2 * k)
    assert f.hess([x])[0, 0] == pytest.approx(-(k ** 2), rel=1e-12)
    assert f.hess([0.0])[0, 0] == pytest.approx(0.0, abs=1e-12)


def test_scalar_input_for_1d_functions():
    assert cubic_1d(1.0).eval(2.0) == pytest.approx(8.0)
    assert linear([2.0]).eval(1.5) == pytest.approx(3.0)


# --- Self-consistency gate: analytic derivatives vs central differences ---

@pytest.mark.parametrize("fn", catalog_instances(), ids=lambda f: f.name)
def test_gradient_matches_finite_differences(fn):
    rng = np.random.default_rng(7)
    h = 1e-6
    for _ in range(5):
        x = rng.uniform(-1.0, 1.0, size=fn.d)
        num = np.empty(fn.d)
        for i in range(fn.d):
            e = np.zeros(fn.d)
            e[i] = h
            num[i] = (fn.eval(x + e) - fn.eval(x - e)) / (2 * h)
        scale = max(1.0, np.max(np.abs(fn.grad(x))))
        assert np.max(np.abs(num - fn.grad(x))) / scale < 1e-6


@pytest.mark.parametrize("fn", catalog_instances(), ids=lambda f: f.name)
def test_hessian_matches_finite_differences(fn):
    rng = np.random.default_rng(8)
    h = 1e-6
    for _ in range(3):
        x = rng.uniform(-1.0, 1.0, size=fn.d)
        H = fn.hess(x)
        assert H == pytest.approx(H.T)  # symmetric everywhere
        num = np.empty((fn.d, fn.d))
        for i in range(fn.d):
            e = np.zeros(fn.d)
            e[i] = h
            num[i] = (fn.grad(x + e) - fn.grad(x - e)) / (2 * h)
        scale = max(1.0, np.max(np.abs(H)))
        assert np.max(np.abs(num - H)) / scale < 1e-6


@pytest.mark.parametrize("fn", catalog_instances(), ids=lambda f: f.name)
def test_central_differences_converge_at_second_order(fn):
    # halving h divides the truncation error by about 4, until fp noise
    rng = np.random.default_rng(9)
    x = rng.uniform(-1.0, 1.0, size=fn.d)
    errors = []
    for h in (1e-2, 5e-3, 2.5e-3):
        num = np.empty(fn.d)
        for i in range(fn.d):
            e = np.zeros(fn.d)
            e[i] = h
            num[i] = (fn.eval(x + e) - fn.eval(x - e)) / (2 * h)
        errors.append(np.max(np.abs(num - fn.grad(x))))
    errors = np.array(errors)
    if errors.min() > 1e-12:  # above noise: check the order-2 ratio
        ratios = errors[:-1] / errors[1:]
        assert np.all(ratios > 3.0)


def test_catalog_names():
    assert set(CATALOG) == {"linear", "quadratic", "cubic_1d", "sinusoid"}


# --- Range scanning over the sampled hypercube ---

def test_scanned_range_linear_exact():
    spec = ProblemSpec(d=1, N=16, n_o=4, l=1.0, m=1.0)
    f = linear([2.0], c=0.0)
    lo, hi = scanned_range(f, spec)
    assert lo == pytest.approx(2.0 * -0.5)   # lowest lattice point
    assert hi == pytest.approx(2.0 * (0.5 - 1.0 / 16))


def test_scanned_range_holds_eval_to_the_build_contract():
    # an eval that is not vectorized is rejected as the phase-grid build rejects it
    spec = ProblemSpec(d=1, N=16, n_o=4, l=1.0, m=1.0)
    scalar = replace(linear([0.0]), eval=lambda x: 1.0)
    with pytest.raises(ValueError, match="eval must be vectorized"):
        scanned_range(scalar, spec)
    with pytest.raises(ValueError, match="eval must be vectorized"):
        build_phase_state(scalar, spec)
