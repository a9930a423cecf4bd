"""Reference implementations the tests compare the fast paths against."""
from dataclasses import replace

import numpy as np

from qgrad import AmplitudeGrid, ProblemSpec, TestFunction, fixed_point, lattice_points

BRUTE_FORCE_MAX_POINTS = 4096


def brute_force_transform(grid: AmplitudeGrid) -> AmplitudeGrid:
    """Direct double-sum evaluation of the same transform, O(N^2d).

    Independent of the fast path; used as an oracle to validate it.  Guarded
    to small grids.
    """
    spec = grid.spec
    if spec.size > BRUTE_FORCE_MAX_POINTS:
        raise ValueError(f"brute-force transform limited to {BRUTE_FORCE_MAX_POINTS} points, got {spec.size}")
    coords = lattice_points(spec)
    out = np.empty(spec.size, dtype=complex)
    scale = spec.N ** (spec.d / 2.0)
    for i in range(spec.size):
        dots = coords @ coords[i]
        out[i] = np.sum(grid.amps * np.exp(-2j * np.pi * dots / spec.N)) / scale
    return replace(grid, amps=out)


def choice_draws(probs, shape, shots: int, seed: int) -> np.ndarray:
    """`Generator.choice` draws over the flat outcomes, unravelled to (shots, d)."""
    probs = np.asarray(probs, dtype=float).reshape(-1)
    rng = np.random.Generator(np.random.Philox(seed))
    flat = rng.choice(probs.size, size=shots, p=probs / probs.sum())
    return np.column_stack(np.unravel_index(flat, shape)).astype(np.int64)


def quantized(f: TestFunction, spec: ProblemSpec) -> TestFunction:
    """The blackbox that returns f in fixed point: `core.fixed_point` of `spec`
    (the unwrapped oracle register) times one unit, m*l/(N*N_o)."""
    step = (spec.m * spec.l) / (spec.N * spec.N_o)
    return replace(f, eval=lambda p: fixed_point(f.eval(p), spec) * step)
