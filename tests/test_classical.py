"""Tests for finite-difference baselines, query accounting, and quantized evaluation."""
from dataclasses import fields

import numpy as np
import pytest

from qgrad import (
    ClassicalReport,
    ProblemSpec,
    central_difference,
    cubic_1d,
    error_scaling_fit,
    fixed_point,
    forward_difference,
    linear,
    quadratic,
)
from oracles import quantized


# --- forward differences ---

def test_forward_exact_on_linear():
    f = linear([0.3, -0.7], c=2.0)
    for l in (1.0, 0.1, 0.003):
        rep = forward_difference(f, [0.0, 0.0], l)
        assert rep.gradient_estimate == pytest.approx([0.3, -0.7], abs=1e-12)


def test_forward_truncation_on_parabola():
    # hand evaluation: f(x)=x^2 at 0, l=0.1: (0.01 - 0)/0.1 = 0.1 = l*f''/2
    f = quadratic([0.0], [[2.0]])
    rep = forward_difference(f, [0.0], 0.1)
    assert rep.gradient_estimate == pytest.approx([0.1])


def test_forward_query_count():
    rep = forward_difference(linear([0.0, 0.0, 0.0]), [0.0, 0.0, 0.0], 0.5)
    assert rep.queries == 4  # d + 1


# --- central differences ---

def test_central_exact_on_quadratics():
    rng = np.random.default_rng(17)
    A = rng.normal(size=(3, 3))
    f = quadratic(rng.normal(size=3), A + A.T, c=0.4)
    x = rng.normal(size=3)
    true = f.grad(x)
    for l in (1.0, 0.25, 0.01):
        rep = central_difference(f, x, l)
        rel = np.max(np.abs(rep.gradient_estimate - true)) / max(1.0, np.max(np.abs(true)))
        assert rel < 1e-12


def test_central_cubic_error_value():
    # hand evaluation: ((0.1)^3 - (-0.1)^3)/0.2 = 0.01, true gradient 0
    rep = central_difference(cubic_1d(1.0), [0.0], 0.2)
    assert rep.gradient_estimate == pytest.approx([0.01])


def test_central_query_count():
    f = linear(np.zeros(5))
    rep = central_difference(f, np.zeros(5), 0.5)
    assert rep.queries == 10  # 2d


def test_step_must_be_positive():
    with pytest.raises(ValueError):
        forward_difference(linear([0.0]), [0.0], 0.0)
    with pytest.raises(ValueError):
        central_difference(linear([0.0]), [0.0], -0.1)
    # an infinite or NaN step gave a NaN gradient
    for l in (np.inf, np.nan):
        for difference in (forward_difference, central_difference):
            with pytest.raises(ValueError, match="finite"):
                difference(quadratic([1.0], [[2.0]]), [0.0], l)


def test_stencil_rejects_non_finite_point():
    for x in ([np.nan], [0.0, np.inf], [-np.inf, 0.0]):
        for difference in (forward_difference, central_difference):
            with pytest.raises(ValueError, match="finite"):
                difference(linear([0.0] * len(x)), x, 0.1)


# --- error-scaling fits ---

def test_central_slope_on_cubic_is_two():
    fit = error_scaling_fit(cubic_1d(1.0), [0.0], np.logspace(-2, 0, 8), method="central")
    assert not fit.degenerate
    assert fit.slope == pytest.approx(2.0, abs=0.1)


def test_forward_slope_on_quadratic_is_one():
    fit = error_scaling_fit(quadratic([0.0], [[1.0]]), [0.0], np.logspace(-2, 0, 8),
                            method="forward")
    assert not fit.degenerate
    assert fit.slope == pytest.approx(1.0, abs=0.1)


def test_central_on_quadratic_is_degenerate():
    fit = error_scaling_fit(quadratic([0.1], [[1.0]]), [0.0], np.logspace(-2, 0, 8),
                            method="central")
    assert fit.degenerate
    assert np.isnan(fit.slope)


def test_fit_input_validation():
    f = cubic_1d(1.0)
    with pytest.raises(ValueError):
        error_scaling_fit(f, [0.0], [0.1, 0.2, 0.3])  # too few points
    with pytest.raises(ValueError):
        error_scaling_fit(f, [0.0], [0.1, 0.2, 0.3, 0.4])  # under a decade
    with pytest.raises(ValueError):
        error_scaling_fit(f, [0.0], [0.0, 0.01, 0.1, 1.0])  # a zero step
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            error_scaling_fit(f, [0.0], [0.01, 0.1, 1.0, bad])
    with pytest.raises(ValueError):
        error_scaling_fit(f, [0.0], np.logspace(-2, 0, 8), method="sideways")
    for x in ([np.nan], [np.inf]):
        with pytest.raises(ValueError, match="finite"):
            error_scaling_fit(f, x, np.logspace(-2, 0, 8))


# --- fixed-point quantized evaluation ---

def test_quantizer_round_trip_step():
    spec = ProblemSpec(d=1, N=16, n_o=8, l=1.0, m=1.0)
    step = 1.0 / (16 * 256)  # m*l/(N*N_o)
    assert fixed_point(0.123, spec) * step == pytest.approx(0.123, abs=step / 2)
    # each quantized query reads f as its register value times the step
    rep = forward_difference(quantized(linear([0.5], c=0.123), spec), [0.0], 0.5)
    expected = (fixed_point(0.373, spec) - fixed_point(0.123, spec)) * step / 0.5
    assert rep.gradient_estimate[0] == expected


def test_quantizer_rejects_values_beyond_exact_rounding():
    # N*N_o/(m*l) = 2**22: 1e15 scales far past 2**53, where int64 rounding is inexact
    spec = ProblemSpec(d=1, N=4, n_o=20, l=1.0, m=1.0)
    for bad in (1e15, -1e15, np.nan):
        with pytest.raises(ValueError):
            fixed_point(bad, spec)
        for diff in (forward_difference, central_difference):
            with pytest.raises(ValueError):
                diff(quantized(linear([0.0], c=bad), spec), [0.0], 0.5)


def test_quantized_linear_gradient_error_bound():
    # error per axis <= m/2^n + quantization term, checked on linear functions
    spec = ProblemSpec(d=1, N=64, n_o=10, l=0.25, m=1.0)
    rng = np.random.default_rng(23)
    for _ in range(30):
        g = float(rng.uniform(-0.5, 0.5))
        f = linear([g], c=float(rng.uniform(-0.2, 0.2)))
        for diff in (forward_difference, central_difference):
            rep = diff(quantized(f, spec), [0.0], spec.l)
            bound = spec.m / spec.N + spec.m / (spec.N * spec.N_o)
            assert abs(rep.gradient_estimate[0] - g) <= bound


def test_quantized_report_flags():
    # quantization lives in the blackbox: a report carries no quantization
    # state, and a quantized blackbox costs the same queries as the exact one
    assert [fl.name for fl in fields(ClassicalReport)] == ["gradient_estimate", "queries"]
    spec = ProblemSpec(d=2, N=16, n_o=8, l=0.5, m=1.0)
    f = linear([0.1, -0.2])
    for diff in (forward_difference, central_difference):
        exact = diff(f, [0.0, 0.0], spec.l)
        rep = diff(quantized(f, spec), [0.0, 0.0], spec.l)
        assert rep.queries == exact.queries
