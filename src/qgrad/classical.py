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


def _query(f: TestFunction, point: np.ndarray) -> float:
    """f(point), one `f.eval` call; a value that is not finite raises ValueError."""
    value = float(f.eval(point))
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
    x = _stencil_center(x, l)
    f0 = _query(f, x)
    return ClassicalReport(_quotients(_axis_queries(f, x, l), f0, l, x), queries=x.size + 1)


def central_difference(f: TestFunction, x, l: float) -> ClassicalReport:
    """g_i = (f(x + (l/2)e_i) - f(x - (l/2)e_i)) / l, using 2d queries.

    Centering the stencil cancels the quadratic terms, leaving an error of
    order l^2 from the cubic ones.  A query value that is not finite, or a
    quotient that overflows, raises ValueError.
    """
    x = _stencil_center(x, l)
    hi, lo = _axis_queries(f, x, l / 2.0), _axis_queries(f, x, -l / 2.0)
    return ClassicalReport(_quotients(hi, lo, l, x), queries=2 * x.size)


_METHODS = {"forward": forward_difference, "central": central_difference}


def error_scaling_fit(f: TestFunction, x, l_values, method: str = "central") -> float:
    """Least-squares slope of log(error) vs log(l) over a sweep of step sizes.

    Needs at least 4 step sizes spanning a decade.  The error at each l is the
    max-norm deviation from the analytic gradient; an error that is not
    finite raises ValueError.  The slope is nan when the errors sit at the
    floating-point noise floor (e.g. central differences on a quadratic,
    where truncation cancels exactly), since it means nothing there.
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
