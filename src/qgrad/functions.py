"""Catalog of test functions with analytic gradients and Hessians.

Every builder returns a `TestFunction` whose callbacks are vectorized over
leading axes: `eval` maps points of shape (..., d) to values of shape (...),
`grad` to (..., d), and `hess` to (..., d, d).  Scalar input is accepted for
one-dimensional functions.  A function declares no range: `scanned_range`
gives its exact min and max over a lattice.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import ProblemSpec, encode_input, lattice_points


@dataclass
class TestFunction:
    """A real scalar function of d reals with analytic derivative callbacks.

    `eval` must be vectorized, mapping points of shape (..., d) to values of
    shape (...), and each value must depend only on its own point: the phase
    grid is built by calling it on row-major blocks of at most
    `qsim.BLOCK_POINTS` lattice points.
    """

    name: str
    d: int
    eval: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]
    hess: Callable[[np.ndarray], np.ndarray]


def _evaluate(f: TestFunction, points: np.ndarray) -> np.ndarray:
    """f at every point of a block in one vectorized call; `eval` must map (..., d) to (...)."""
    values = np.asarray(f.eval(points), dtype=float)
    if values.shape != points.shape[:-1]:
        raise ValueError(
            f"{f.name}: eval must be vectorized, points of shape {points.shape} gave values "
            f"of shape {values.shape}, expected {points.shape[:-1]}"
        )
    return values


def _points(x, d: int) -> np.ndarray:
    pts = np.asarray(x, dtype=float)
    if pts.ndim == 0:
        pts = pts.reshape(1)
    if pts.shape[-1] != d:
        raise ValueError(f"expected points with last axis {d}, got shape {pts.shape}")
    return pts


def linear(g, c: float = 0.0) -> TestFunction:
    """f(x) = c + g.x, the exactly-linear case (zero Hessian everywhere)."""
    g = np.atleast_1d(np.asarray(g, dtype=float))
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
    g = np.atleast_1d(np.asarray(g, dtype=float))
    H = np.atleast_2d(np.asarray(H, dtype=float))
    d = g.size
    if H.shape != (d, d):
        raise ValueError(f"H must have shape ({d}, {d}), got {H.shape}")
    if not np.allclose(H, H.T, rtol=1e-12, atol=1e-12):
        raise ValueError("H must be symmetric")

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

    def ev(x):
        return a3 * _points(x, 1)[..., 0] ** 3

    def gr(x):
        return 3.0 * a3 * _points(x, 1) ** 2

    def he(x):
        return (6.0 * a3 * _points(x, 1))[..., None]

    return TestFunction(name="cubic_1d", d=1, eval=ev, grad=gr, hess=he)


def sinusoid(amplitude: float, wavevector) -> TestFunction:
    """f(x) = amplitude * sin(k.x) with wavevector k."""
    k = np.atleast_1d(np.asarray(wavevector, dtype=float))
    d = k.size

    def ev(x):
        return amplitude * np.sin(_points(x, d) @ k)

    def gr(x):
        return amplitude * np.cos(_points(x, d) @ k)[..., None] * k

    def he(x):
        return -amplitude * np.sin(_points(x, d) @ k)[..., None, None] * np.outer(k, k)

    return TestFunction(name="sinusoid", d=d, eval=ev, grad=gr, hess=he)


CATALOG: dict[str, Callable[..., TestFunction]] = {
    "linear": linear,
    "quadratic": quadratic,
    "cubic_1d": cubic_1d,
    "sinusoid": sinusoid,
}


def scanned_range(fn: TestFunction, spec: ProblemSpec):
    """(min, max) of `fn` over every lattice point: exact bounds for the sampled domain.

    `eval` is held to the same contract as in the phase-grid build.
    """
    values = _evaluate(fn, encode_input(lattice_points(spec), spec))
    return float(np.min(values)), float(np.max(values))
