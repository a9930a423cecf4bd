"""Catalog of test functions with analytic gradients and Hessians.

Every builder returns a `TestFunction` whose callbacks are vectorized over
leading axes: `eval` maps points of shape (..., d) to values of shape (...),
`grad` to (..., d), and `hess` to (..., d, d).  Scalar input is accepted for
one-dimensional functions.  Every coefficient must be finite.  A value
or derivative too large for a float is inf or nan, without a numpy warning;
the build, the run and the precision budgets reject it with ValueError.  A
function declares no range: `scanned_range` gives its exact min and max over
a lattice, one block at a time.
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


def _catalog(name: str, d: int, ev, gr, he) -> TestFunction:
    """A catalog `TestFunction` whose callbacks run with numpy's overflow and
    invalid-value warnings off, so that a point too far out gives inf or nan."""

    def quiet(callback):
        def call(x):
            with np.errstate(over="ignore", invalid="ignore"):
                return callback(x)

        return call

    return TestFunction(name=name, d=d, eval=quiet(ev), grad=quiet(gr), hess=quiet(he))


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

    return _catalog("linear", d, ev, gr, he)


def _einsum_form(pts: np.ndarray, H: np.ndarray) -> np.ndarray:
    return np.einsum("...i,ij,...j->...", pts, H, pts)


def _slab_form(pts: np.ndarray, H: np.ndarray, rows: int) -> np.ndarray:
    """x^T H x for each row x of the (n, d) `pts`: the terms (x_i*H_ij)*x_j summed
    from +0.0 in row-major (i, j) order, in slabs of about `rows` rows (at least 2).

    Each slab's terms form one (d*d, rows) array, summed along its first axis.
    """
    n, d = pts.shape
    out = np.empty(n)
    # even slabs: with rows >= 4, none has a single row, which numpy would sum pairwise
    slabs = -(-n // rows)
    bounds = [n * i // slabs for i in range(slabs + 1)]
    for start, stop in zip(bounds[:-1], bounds[1:]):
        x = pts[start:stop].T.copy()
        terms = x[:, None, :] * H[:, :, None]
        terms *= x[None, :, :]
        np.add.reduce(terms.reshape(d * d, -1), axis=0, initial=0.0, out=out[start:stop])
        del x, terms  # before the next slab's are made, so one slab's are alive at a time
    return out


def _slabs_give_einsum_bits() -> bool:
    """Whether `_slab_form` gives `_einsum_form`'s bits for d = 2..8, on 16
    points and an H of magnitudes 1e-8..1e8 and either sign.

    The values follow golden-ratio sequences, so that no random generator is
    loaded at import; H is not symmetric, which tells more orders apart.
    """
    for d in range(2, 9):
        i = np.arange(16 * d + d * d)
        sign = np.where(i * 0.7548776662466927 % 1.0 < 0.5, -1.0, 1.0)
        v = sign * 10.0 ** (16.0 * (i * 0.6180339887498949 % 1.0) - 8.0)
        pts, H = v[:16 * d].reshape(16, d), v[16 * d:].reshape(d, d)
        if not np.array_equal(_slab_form(pts, H, 4), _einsum_form(pts, H)):
            return False
    return True


# numpy 2.4's einsum sums x^T H x over 3 or more rows in the slab order; where
# the installed numpy's does not, every input takes einsum
_SLABS = _slabs_give_einsum_bits()


def quadratic(g, H, c: float = 0.0) -> TestFunction:
    """f(x) = c + g.x + x^T H x / 2 with symmetric H.

    x^T H x has the bits of np.einsum("...i,ij,...j->...", x, H, x).  For
    an (n, d) array of n >= 3 points with d >= 2, einsum sums the terms
    (x_i*H_ij)*x_j from +0.0 in row-major (i, j) order, and `eval` takes
    that sum with a few numpy calls per slab of rows, each slab's terms
    within BLOCK_POINTS floats (512 KB).  One or two points, d = 1 and
    other shapes go to einsum itself, which sums in an order of its own
    there or is faster (d = 1); so does every input when a probe at import
    finds that the installed numpy's einsum does not sum in the slab order.
    """
    g = np.atleast_1d(_finite("g", g))
    _finite("c", c)
    d = g.size
    H = _symmetric(H, d)

    def ev(x):
        pts = _points(x, d)
        if not (_SLABS and d >= 2 and pts.ndim == 2 and len(pts) >= 3):
            return c + pts @ g + 0.5 * _einsum_form(pts, H)
        from .qsim import BLOCK_POINTS  # qsim imports this module

        form = _slab_form(pts, H, max(4, BLOCK_POINTS // (d * d)))
        # halved in place, as numpy's temporary elision halves the einsum above,
        # and taken before c + g.x, so that no block-sized sum waits through the slabs
        form *= 0.5
        return c + pts @ g + form

    def gr(x):
        return g + _points(x, d) @ H

    def he(x):
        pts = _points(x, d)
        return np.broadcast_to(H, pts.shape[:-1] + (d, d)).copy()

    return _catalog("quadratic", d, ev, gr, he)


def cubic_1d(a3: float) -> TestFunction:
    """f(x) = a3 * x^3 in one dimension; constant third derivative 6*a3."""
    _finite("a3", a3)

    def ev(x):
        return a3 * _points(x, 1)[..., 0] ** 3

    def gr(x):
        return 3.0 * a3 * _points(x, 1) ** 2

    def he(x):
        return (6.0 * a3 * _points(x, 1))[..., None]

    return _catalog("cubic_1d", 1, ev, gr, he)


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

    return _catalog("sinusoid", d, ev, gr, he)


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
