"""Classical finite-difference gradient baselines with query accounting.

Forward differences use d+1 function evaluations, central differences 2d.
An optional fixed-point quantizer models a blackbox that returns f with a
finite number of bits.  It reads f through `core.fixed_point`, the map whose
value mod N_o is the quantum oracle register, so both use the same scale and
rounding convention.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ProblemSpec, fixed_point
from .functions import TestFunction


@dataclass
class ClassicalReport:
    gradient_estimate: np.ndarray
    queries: int
    l_used: float
    n_o: int | None = None

    @property
    def quantized(self) -> bool:
        return self.n_o is not None


@dataclass
class FixedPointQuantizer:
    """Fixed-point evaluation model: one unit = m*l/(N*N_o) in function value.

    The register is the unwrapped `core.fixed_point` of `spec`, the natural
    classical register (the bits needed to cover the range are what the
    precision formulas count); `core.quantize_output` is the same value mod N_o.
    """

    spec: ProblemSpec

    @property
    def step(self) -> float:
        spec = self.spec
        return (spec.m * spec.l) / (spec.N * spec.N_o)

    def quantize(self, value):
        return fixed_point(value, self.spec)

    def dequantize(self, q):
        return np.asarray(q) * self.step

    def evaluate(self, f: TestFunction, x) -> float:
        return float(self.dequantize(self.quantize(f.eval(x))))


def _stencil(f: TestFunction, x, l: float, quantizer: FixedPointQuantizer | None):
    """Checked step, x as a float vector, and the evaluator every query goes through."""
    if not l > 0:
        raise ValueError(f"l must be positive, got {l}")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if quantizer is None:
        return x, lambda p: float(f.eval(p))
    return x, lambda p: quantizer.evaluate(f, p)


def _report(grad: np.ndarray, queries: int, l: float,
            quantizer: FixedPointQuantizer | None) -> ClassicalReport:
    n_o = None if quantizer is None else quantizer.spec.n_o
    return ClassicalReport(gradient_estimate=grad, queries=queries, l_used=l, n_o=n_o)


def forward_difference(
    f: TestFunction, x, l: float, quantizer: FixedPointQuantizer | None = None
) -> ClassicalReport:
    """g_i = (f(x + l*e_i) - f(x)) / l, using d+1 queries."""
    x, ev = _stencil(f, x, l, quantizer)
    f0 = ev(x)
    grad = np.empty(x.size)
    for i in range(x.size):
        shifted = x.copy()
        shifted[i] += l
        grad[i] = (ev(shifted) - f0) / l
    return _report(grad, x.size + 1, l, quantizer)


def central_difference(
    f: TestFunction, x, l: float, quantizer: FixedPointQuantizer | None = None
) -> ClassicalReport:
    """g_i = (f(x + (l/2)e_i) - f(x - (l/2)e_i)) / l, using 2d queries.

    Centering the stencil cancels the quadratic terms, leaving an error of
    order l^2 from the cubic ones.
    """
    x, ev = _stencil(f, x, l, quantizer)
    grad = np.empty(x.size)
    for i in range(x.size):
        hi, lo = x.copy(), x.copy()
        hi[i] += l / 2.0
        lo[i] -= l / 2.0
        grad[i] = (ev(hi) - ev(lo)) / l
    return _report(grad, 2 * x.size, l, quantizer)


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
    if ls[-1] / ls[0] < 10.0:
        raise ValueError("step sizes must span at least one decade")
    x = np.atleast_1d(np.asarray(x, dtype=float))
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
