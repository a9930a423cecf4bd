"""Classical finite-difference gradient baselines with query accounting.

Forward differences use d+1 function evaluations, central differences 2d.
Each query is one `f.eval` call; a blackbox that returns f with a finite
number of bits is a `TestFunction` whose `eval` does the rounding.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .functions import TestFunction


@dataclass
class ClassicalReport:
    gradient_estimate: np.ndarray
    queries: int


def _stencil_center(x, l: float) -> np.ndarray:
    """x as a float vector, after checking it and the step."""
    if not 0 < l < np.inf:
        raise ValueError(f"l must be positive and finite, got {l}")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(np.isfinite(x)):
        raise ValueError(f"x must be finite, got {x}")
    return x


def forward_difference(f: TestFunction, x, l: float) -> ClassicalReport:
    """g_i = (f(x + l*e_i) - f(x)) / l, using d+1 queries."""
    x = _stencil_center(x, l)
    f0 = float(f.eval(x))
    grad = np.empty(x.size)
    for i in range(x.size):
        shifted = x.copy()
        shifted[i] += l
        grad[i] = (float(f.eval(shifted)) - f0) / l
    return ClassicalReport(gradient_estimate=grad, queries=x.size + 1)


def central_difference(f: TestFunction, x, l: float) -> ClassicalReport:
    """g_i = (f(x + (l/2)e_i) - f(x - (l/2)e_i)) / l, using 2d queries.

    Centering the stencil cancels the quadratic terms, leaving an error of
    order l^2 from the cubic ones.
    """
    x = _stencil_center(x, l)
    grad = np.empty(x.size)
    for i in range(x.size):
        hi, lo = x.copy(), x.copy()
        hi[i] += l / 2.0
        lo[i] -= l / 2.0
        grad[i] = (float(f.eval(hi)) - float(f.eval(lo))) / l
    return ClassicalReport(gradient_estimate=grad, queries=2 * x.size)


@dataclass
class ScalingFit:
    """Log-log fit of finite-difference error against step size.

    degenerate flags data at the floating-point noise floor (e.g. central
    differences on a quadratic, where truncation cancels exactly); the slope
    is meaningless there and reported as nan.
    """

    slope: float
    intercept: float
    degenerate: bool
    l_values: np.ndarray
    errors: np.ndarray


_METHODS = {"forward": forward_difference, "central": central_difference}


def error_scaling_fit(f: TestFunction, x, l_values, method: str = "central") -> ScalingFit:
    """Least-squares slope of log(error) vs log(l) over a sweep of step sizes.

    Needs at least 4 step sizes spanning a decade.  The error at each l is the
    max-norm deviation from the analytic gradient.
    """
    if method not in _METHODS:
        raise ValueError(f"method must be one of {sorted(_METHODS)}, got {method!r}")
    ls = np.sort(np.asarray(l_values, dtype=float))
    if ls.size < 4:
        raise ValueError(f"need at least 4 step sizes, got {ls.size}")
    if not (ls[0] > 0 and np.all(np.isfinite(ls))):
        raise ValueError(f"step sizes must be positive and finite, got {ls}")
    if ls[-1] / ls[0] < 10.0:
        raise ValueError("step sizes must span at least one decade")
    x = _stencil_center(x, ls[0])
    true = np.atleast_1d(np.asarray(f.grad(x), dtype=float)).reshape(-1)
    diff = _METHODS[method]
    errors = np.array(
        [np.max(np.abs(diff(f, x, l).gradient_estimate - true)) for l in ls]
    )

    floor = 1e-10 * max(1.0, float(np.max(np.abs(true))))
    if np.any(errors == 0.0) or np.max(errors) < floor:
        return ScalingFit(slope=float("nan"), intercept=float("nan"), degenerate=True,
                          l_values=ls, errors=errors)
    slope, intercept = np.polyfit(np.log(ls), np.log(errors), 1)
    return ScalingFit(slope=float(slope), intercept=float(intercept), degenerate=False,
                      l_values=ls, errors=errors)
