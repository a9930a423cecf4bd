"""Catalog of test functions with analytic gradients and Hessians.

Every builder returns a `TestFunction` whose callbacks are vectorized over
leading axes: `eval` maps points of shape (..., d) to values of shape (...),
`grad` to (..., d), and `hess` to (..., d, d).  Scalar input is accepted for
one-dimensional functions.  Every coefficient must be finite.  A function
declares no range: `scanned_range` gives its exact min and max over a
lattice, one block at a time.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import ProblemSpec, _symmetric


@dataclass
class TestFunction:
    """A real scalar function of d reals with analytic derivative callbacks.

    `eval` must be vectorized, mapping points of shape (..., d) to values of
    shape (...), and each value must depend only on its own point: the phase
    grid is built by calling it on row-major blocks of at most
    `qsim.BLOCK_POINTS` lattice points.  `eval` must be safe to call from
    several threads at once, since the blocks may be split over threads;
    the catalog's functions are pure numpy.  Those threads live only for
    the call, so `eval` may itself call back into qgrad, for instance to
    build another phase grid.  The build, `scanned_range` and the run raise
    ValueError before any callback when `d` is not the lattice's.
    """

    name: str
    d: int
    eval: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]
    hess: Callable[[np.ndarray], np.ndarray]


def _points(x, d: int) -> np.ndarray:
    pts = np.asarray(x, dtype=float)
    if pts.ndim == 0:
        pts = pts.reshape(1)
    if pts.shape[-1] != d:
        raise ValueError(f"expected points with last axis {d}, got shape {pts.shape}")
    return pts


def _finite(name: str, value) -> np.ndarray:
    """`value` as a float array, after checking that it is finite."""
    arr = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite, got {arr.tolist()}")
    return arr


def linear(g, c: float = 0.0) -> TestFunction:
    """f(x) = c + g.x, the exactly-linear case (zero Hessian everywhere)."""
    g = np.atleast_1d(_finite("g", g))
    _finite("c", c)
    d = g.size

    def ev(x):
        return _points(x, d) @ g + c

    def gr(x):
        pts = _points(x, d)
        return np.broadcast_to(g, pts.shape).copy()

    def he(x):
        pts = _points(x, d)
        return np.zeros(pts.shape[:-1] + (d, d))

    return TestFunction(name="linear", d=d, eval=ev, grad=gr, hess=he)


def quadratic(g, H, c: float = 0.0) -> TestFunction:
    """f(x) = c + g.x + x^T H x / 2 with symmetric H."""
    g = np.atleast_1d(_finite("g", g))
    _finite("c", c)
    d = g.size
    H = _symmetric(H, d)

    def ev(x):
        pts = _points(x, d)
        return c + pts @ g + 0.5 * np.einsum("...i,ij,...j->...", pts, H, pts)

    def gr(x):
        return g + _points(x, d) @ H

    def he(x):
        pts = _points(x, d)
        return np.broadcast_to(H, pts.shape[:-1] + (d, d)).copy()

    return TestFunction(name="quadratic", d=d, eval=ev, grad=gr, hess=he)


def cubic_1d(a3: float) -> TestFunction:
    """f(x) = a3 * x^3 in one dimension; constant third derivative 6*a3."""
    _finite("a3", a3)

    def ev(x):
        return a3 * _points(x, 1)[..., 0] ** 3

    def gr(x):
        return 3.0 * a3 * _points(x, 1) ** 2

    def he(x):
        return (6.0 * a3 * _points(x, 1))[..., None]

    return TestFunction(name="cubic_1d", d=1, eval=ev, grad=gr, hess=he)


def sinusoid(amplitude: float, wavevector) -> TestFunction:
    """f(x) = amplitude * sin(k.x) with wavevector k."""
    _finite("amplitude", amplitude)
    k = np.atleast_1d(_finite("wavevector", wavevector))
    d = k.size

    def ev(x):
        return amplitude * np.sin(_points(x, d) @ k)

    def gr(x):
        return amplitude * np.cos(_points(x, d) @ k)[..., None] * k

    def he(x):
        return -amplitude * np.sin(_points(x, d) @ k)[..., None, None] * np.outer(k, k)

    return TestFunction(name="sinusoid", d=d, eval=ev, grad=gr, hess=he)


def scanned_range(fn: TestFunction, spec: ProblemSpec):
    """(min, max) of `fn` over every lattice point: exact bounds for the sampled domain.

    The values come block by block from the phase-grid build's lattice walk,
    threads and all, so `eval` is held to the same contract.  A NaN value
    gives NaN bounds.
    """
    from .qsim import _walk  # qsim imports this module

    runs = _walk(fn, spec, lambda blocks: [(v.min(), v.max()) for _, _, v in blocks])
    # numpy's min and max keep a block's NaN, where Python's min(inf, nan) drops it
    bounds = np.array([bound for run in runs for bound in run])
    return float(np.min(bounds[:, 0])), float(np.max(bounds[:, 1]))
