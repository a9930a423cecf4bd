"""Classical finite-difference gradient baselines with query accounting.

Forward differences use d+1 function evaluations and central differences 2d,
all from one loop of per-axis queries f(x + s*e_i), one `f.eval` call each.
A blackbox that returns f with a finite number of bits is a `TestFunction`
whose `eval` does the rounding.  `error_scaling_fit` returns the log-log
slope of the error against the step size as one float, nan at the noise floor.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _positive, _reals
from .functions import TestFunction


@dataclass
class ClassicalReport:
    gradient_estimate: np.ndarray
    queries: int


def _stencil_center(x, l: float) -> tuple[np.ndarray, float]:
    """x as a float vector and l as a float, after checking them."""
    return np.atleast_1d(_reals("x", x)), _positive("l", l)


def _query(f: TestFunction, point: np.ndarray) -> float:
    """f(point), one `f.eval` call; a value that is not real and finite raises ValueError."""
    value = float(_reals(f"the value of {f.name}", f.eval(point), finite=False))
    if not np.isfinite(value):
        raise ValueError(f"{f.name} is {value} at the query point {point.tolist()}; "
                         f"a difference rule needs finite values")
    return value


def _axis_queries(f: TestFunction, x: np.ndarray, s: float) -> np.ndarray:
    """[f(x + s*e_i) for each axis i], one `f.eval` call per point."""
    values = np.empty(x.size)
    for i in range(x.size):
        point = x.copy()
        point[i] += s
        values[i] = _query(f, point)
    return values


def _quotients(hi: np.ndarray, lo, l: float, x: np.ndarray) -> np.ndarray:
    """(hi - lo) / l, which must be finite: finite values can still overflow there."""
    with np.errstate(over="ignore"):
        g = (hi - lo) / l
    if not np.all(np.isfinite(g)):
        raise ValueError(f"the difference quotients at x = {x.tolist()} with l = {l} overflow to {g.tolist()}")
    return g


def forward_difference(f: TestFunction, x, l: float) -> ClassicalReport:
    """g_i = (f(x + l*e_i) - f(x)) / l, using d+1 queries.

    A query value that is not finite, or a quotient that overflows, raises
    ValueError.
    """
    x, l = _stencil_center(x, l)
    f0 = _query(f, x)
    return ClassicalReport(_quotients(_axis_queries(f, x, l), f0, l, x), queries=x.size + 1)


def central_difference(f: TestFunction, x, l: float) -> ClassicalReport:
    """g_i = (f(x + (l/2)e_i) - f(x - (l/2)e_i)) / l, using 2d queries.

    Centering the stencil cancels the quadratic terms, leaving an error of
    order l^2 from the cubic ones.  A query value that is not finite, or a
    quotient that overflows, raises ValueError.
    """
    x, l = _stencil_center(x, l)
    hi, lo = _axis_queries(f, x, l / 2.0), _axis_queries(f, x, -l / 2.0)
    return ClassicalReport(_quotients(hi, lo, l, x), queries=2 * x.size)


_METHODS = {"forward": forward_difference, "central": central_difference}


def error_scaling_fit(f: TestFunction, x, l_values, method: str = "central") -> float:
    """Least-squares slope of log(error) vs log(l) over a sweep of step sizes.

    Needs a 1-D sequence of at least 4 finite, positive step sizes spanning
    a decade.  The error at each l is the
    max-norm deviation from the analytic gradient; an error that is not
    finite raises ValueError.  The slope is nan when the errors sit at the
    floating-point noise floor (e.g. central differences on a quadratic,
    where truncation cancels exactly), since it means nothing there.
    """
    if method not in _METHODS:
        raise ValueError(f"method must be one of {sorted(_METHODS)}, got {method!r}")
    ls = _reals("l_values", l_values)
    if ls.ndim != 1:
        raise ValueError(f"l_values must be a 1-D sequence of step sizes, got shape {ls.shape}")
    ls = np.sort(ls)
    if ls.size < 4:
        raise ValueError(f"need at least 4 step sizes, got {ls.size}")
    if not ls[0] > 0:
        raise ValueError(f"step sizes must be positive, got {ls[0]}")
    if ls[-1] / 10.0 < ls[0]:  # not ls[-1] / ls[0], which can overflow
        raise ValueError("step sizes must span at least one decade")
    x, _ = _stencil_center(x, ls[0])
    true = _reals(f"the gradient of {f.name}", f.grad(x), finite=False).reshape(-1)
    diff = _METHODS[method]
    with np.errstate(over="ignore"):  # an error that overflows is rejected below
        errors = np.array(
            [np.max(np.abs(diff(f, x, l).gradient_estimate - true)) for l in ls]
        )
    if not np.all(np.isfinite(errors)):
        raise ValueError(f"errors must be finite, got {errors}")

    floor = 1e-10 * max(1.0, float(np.max(np.abs(true))))
    if np.any(errors == 0.0) or np.max(errors) < floor:
        return float("nan")
    slope, _ = np.polyfit(np.log(ls), np.log(errors), 1)
    return float(slope)
