"""Tests for the analytic test-function catalog, including the self-consistency gate."""
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgrad import (
    ProblemSpec,
    build_phase_state,
    cli,
    cubic_1d,
    functions,
    linear,
    qsim,
    quadratic,
    scanned_range,
    sinusoid,
)
from oracles import quadratic_form, quadratic_line


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


def _mixed(rng, shape, zeros=0.0):
    """Values of magnitude 1e-8..1e8 and either sign, each a signed zero with probability `zeros`."""
    values = 10.0 ** rng.uniform(-8.0, 8.0, shape) * rng.choice((-1.0, 1.0), shape)
    return np.asarray(np.where(rng.random(shape) < zeros, np.copysign(0.0, values), values))


# the shape of the points, given d and n; () is a d = 1 scalar
SHAPES = {
    "scalar": lambda d, n: (),
    "point": lambda d, n: (d,),
    "rows": lambda d, n: (n, d),
    "grid": lambda d, n: (n, 3, d),
}
# how the points (of at least one axis) are laid out in memory
LAYOUTS = {
    "C": lambda a: a,
    "F": np.asfortranarray,
    "every other row": lambda a: np.repeat(a, 2, axis=0)[::2],
    "reversed columns": lambda a: a[..., ::-1].copy()[..., ::-1],
    "broadcast": lambda a: np.broadcast_to(a[:1], a.shape),
}


# d, shape, layout, n, block (qsim.BLOCK_POINTS), the share of signed zeros, and a seed
QUADRATIC_CASES = (
    st.integers(1, 8), st.sampled_from(sorted(SHAPES)), st.sampled_from(sorted(LAYOUTS)),
    st.one_of(st.integers(0, 12), st.sampled_from([4095, 4097, 65520, qsim.BLOCK_POINTS])),
    st.sampled_from([qsim.BLOCK_POINTS, 64, 7]), st.sampled_from([0.0, 0.3]), st.integers(0, 2 ** 32 - 1),
)


def _quadratic_case(d, shape, layout, n, block, zeros, seed):
    """g, H, c, the points x as drawn, those points as a float array of at
    least one axis, and quadratic(g, H, c).eval(x) under `block`."""
    if shape == "scalar" and d != 1:
        shape = "point"
    if shape == "grid":
        n = min(n, 50)
    rng = np.random.default_rng(seed)
    A = _mixed(rng, (d, d), zeros)
    H, g, c = A + A.T, _mixed(rng, d, zeros), float(_mixed(rng, (), zeros))
    x = _mixed(rng, SHAPES[shape](d, n), zeros)
    x = LAYOUTS[layout](x) if x.ndim else x
    pts = np.asarray(x, dtype=float).reshape(x.shape or (1,))
    with mock.patch.object(qsim, "BLOCK_POINTS", block):  # slabs of BLOCK_POINTS // d**2 rows, at least 4
        got = quadratic(g, H, c=c).eval(x)
    assert np.shape(got) == np.shape(x)[:-1] and np.asarray(got).dtype == np.float64
    return g, H, c, pts, got


@settings(max_examples=300, deadline=None)
@given(*QUADRATIC_CASES)
def test_quadratic_eval_sums_in_the_order_of_the_oracle(d, shape, layout, n, block, zeros, seed):
    # on every numpy and BLAS: one variable in the order of its oracle, and the slab
    # sums over (n, d) rows, n >= 3 and d >= 2, in the order of theirs, zero signs
    # included; every other input takes einsum
    g, H, c, pts, got = _quadratic_case(d, shape, layout, n, block, zeros, seed)
    slabs = d >= 2 and pts.ndim == 2 and len(pts) >= 3
    form = quadratic_form(pts, H) if slabs else np.einsum("...i,ij,...j->...", pts, H, pts)
    want = quadratic_line(pts, g, H, c) if d == 1 else c + pts @ g + 0.5 * form
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    if slabs:
        assert functions._slab_form(pts, H, max(4, block // d ** 2)).tobytes() == form.tobytes()


@pytest.mark.parametrize("d", range(2, 9))
@pytest.mark.parametrize("n", [3, 5, 9, 13, 4097])
def test_slab_sums_follow_the_order_oracle(d, n):
    # n rows in slabs of at least 4: n = 5, 9 and 13 leave one row over, which
    # a slab of its own would sum pairwise (d >= 3); magnitudes 1e-8..1e8 of
    # either sign tell any other order of the d*d terms apart, and at zero
    # points every term of -|H| is -0.0, which a sum from +0.0 makes +0.0
    rng = np.random.default_rng(d * 10000 + n)
    A, pts = _mixed(rng, (d, d), 0.1), _mixed(rng, (n, d), 0.1)
    H = A + A.T
    for x, M in ((pts, H), (np.zeros((n, d)), -np.abs(H))):
        want = quadratic_form(x, M)
        for rows in (4, max(4, qsim.BLOCK_POINTS // d ** 2)):
            assert functions._slab_form(x, M, rows).tobytes() == want.tobytes()
        assert quadratic(np.zeros(d), M).eval(x).tobytes() == (0.5 * want).tobytes()


def test_slab_sums_start_from_plus_zero():
    # every term (x_i*H_ij)*x_j of these points is -0.0, and the sums start from +0.0
    H = -np.array([[1.0, 0.5], [0.5, 1.0]])
    pts = np.zeros((9, 2))
    want = quadratic_form(pts, H)
    assert want.tobytes() == np.zeros(9).tobytes()
    assert functions._slab_form(pts, H, 4).tobytes() == want.tobytes()


@pytest.mark.skipif(np.lib.NumpyVersion(np.__version__) < "2.4.0",
                    reason="einsum's order over (n, d) rows is the slab order on numpy 2.4, where it was measured")
@settings(max_examples=300, deadline=None)
@given(*QUADRATIC_CASES)
def test_quadratic_eval_has_the_bits_of_einsum(d, shape, layout, n, block, zeros, seed):
    # on every input, slab sums included: the einsum expression, with one
    # variable's g.x as its oracle takes it, where only BLAS ties pts @ g to it
    g, H, c, pts, got = _quadratic_case(d, shape, layout, n, block, zeros, seed)
    form = np.einsum("...i,ij,...j->...", pts, H, pts)
    want = quadratic_line(pts, g, H, c) if d == 1 else c + pts @ g + 0.5 * form
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_quadratic_eval_of_no_points():
    f = quadratic([0.1, 0.2], [[1.0, 0.5], [0.5, 2.0]])
    assert f.eval(np.empty((0, 2))).shape == (0,)
    assert f.eval(np.empty((0, 3, 2))).shape == (0, 3)


def test_quadratic_rejects_asymmetric():
    with pytest.raises(ValueError):
        quadratic([0.0, 0.0], [[1.0, 2.0], [0.0, 1.0]])


def test_linear_rejects_non_finite_coefficients():
    with pytest.raises(ValueError, match="^g must be finite"):
        linear([0.5, np.nan])
    with pytest.raises(ValueError, match="^c must be finite"):
        linear([0.5], c=np.inf)


def test_quadratic_rejects_non_finite_coefficients():
    with pytest.raises(ValueError, match="^g must be finite"):
        quadratic([-np.inf], [[1.0]])
    with pytest.raises(ValueError, match="^c must be finite"):
        quadratic([0.0], [[1.0]], c=np.nan)


def test_cubic_rejects_a_non_finite_coefficient():
    for a3 in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="^a3 must be finite"):
            cubic_1d(a3)


def test_sinusoid_rejects_non_finite_coefficients():
    with pytest.raises(ValueError, match="^amplitude must be finite"):
        sinusoid(np.nan, [1.0])
    with pytest.raises(ValueError, match="^wavevector must be finite"):
        sinusoid(1.0, [3.0, np.inf])


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
    # the CLI's --function choices are the catalog's builders
    assert set(cli._FUNCTIONS) == {"linear", "quadratic", "cubic_1d", "sinusoid"}
    assert all(callable(getattr(functions, name)) for name in cli._FUNCTIONS)


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
