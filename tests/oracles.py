"""Reference implementations the tests compare the fast paths against."""
from dataclasses import replace

import numpy as np

from qgrad import AmplitudeGrid, ProblemSpec, TestFunction, encode_input, fixed_point, lattice_points

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


def ideal_planewave(gradient, spec: ProblemSpec) -> AmplitudeGrid:
    """Exact linearized planewave state for a given gradient (unquantized).

    amplitude(delta) = N^(-d/2) * exp(i*2*pi*sum_j gradient_j*delta_j/m).
    """
    g = np.atleast_1d(np.asarray(gradient, dtype=float)).reshape(spec.d)
    phases = lattice_points(spec) @ (g / spec.m)
    amps = np.exp(2j * np.pi * phases) / spec.N ** (spec.d / 2.0)
    return AmplitudeGrid(spec, amps)


def ideal_state_fidelity(grid: AmplitudeGrid, true_gradient) -> float:
    """|<ideal|actual>| against the exact planewave for `true_gradient`.

    Bounded phase errors of at most theta per point keep this at cos(theta)
    or above, hence success probability at least cos^2(theta).  Each
    gradient component must lie in [-m/2, m/2), where a planewave decodes
    to itself.
    """
    spec = grid.spec
    g = np.atleast_1d(np.asarray(true_gradient, dtype=float)).reshape(spec.d)
    if not (np.all(g >= -spec.m / 2.0) and np.all(g < spec.m / 2.0)):
        raise ValueError(f"true_gradient components must lie in [-m/2, m/2) = [{-spec.m / 2}, {spec.m / 2})")
    return float(abs(np.vdot(ideal_planewave(g, spec).amps, grid.amps)))


def choice_draws(probs, shape, shots: int, seed: int) -> np.ndarray:
    """`Generator.choice` draws over the flat outcomes, unravelled to (shots, d)."""
    probs = np.asarray(probs, dtype=float).reshape(-1)
    rng = np.random.Generator(np.random.Philox(seed))
    flat = rng.choice(probs.size, size=shots, p=probs / probs.sum())
    return np.column_stack(np.unravel_index(flat, shape)).astype(np.int64)


def quadratic_form(pts, H) -> np.ndarray:
    """x^T H x for each row x of the (n, d) `pts`, in the catalog quadratic's
    order: the terms (x_i*H_ij)*x_j added one (i, j) at a time, in row-major
    order, to np.zeros(n), with elementwise adds only."""
    n, d = pts.shape
    out = np.zeros(n)
    for i in range(d):
        for j in range(d):
            out += (pts[:, i] * H[i, j]) * pts[:, j]
    return out


def quadratic_line(pts, g, H, c: float) -> np.ndarray:
    """The catalog quadratic of one variable at the (..., 1) `pts`, in its
    order: c + (0.0 + x_0*g_0) + 0.5*einsum("...i,ij,...j->...", x, H, x).

    0.0 + x_0*g_0 is g.x as a BLAS dot of one term gives it, a -0.0
    product summed to +0.0, with no BLAS call.
    """
    return c + (0.0 + pts[..., 0] * g[0]) + 0.5 * np.einsum("...i,ij,...j->...", pts, H, pts)


def quantized(f: TestFunction, spec: ProblemSpec) -> TestFunction:
    """The blackbox that returns f in fixed point: `core.fixed_point` of `spec`
    (the unwrapped oracle register) times one unit, m*l/(N*N_o)."""
    step = (spec.m * spec.l) / (spec.N * spec.N_o)
    return replace(f, eval=lambda p: fixed_point(f.eval(p), spec) * step)


def counted(f: TestFunction) -> tuple[TestFunction, list]:
    """f whose `eval` records a copy of the points of each call, and the list it appends them to."""
    batches = []

    def eval_(p):
        batches.append(np.array(p, dtype=float))
        return f.eval(p)
    return replace(f, eval=eval_), batches


def exact_phase_state(f: TestFunction, spec: ProblemSpec) -> AmplitudeGrid:
    """The unquantized phase grid exp(2*pi*i*r/N_o) / N^(d/2), r = N*N_o*f/(m*l).

    r is the real number that `core.fixed_point` rounds, taken the same way,
    and is reduced mod N_o before the exponential, where a large r would
    lose the digits of its phase.  Guarded to small grids.
    """
    if spec.size > BRUTE_FORCE_MAX_POINTS:
        raise ValueError(f"exact phase state limited to {BRUTE_FORCE_MAX_POINTS} points, got {spec.size}")
    values = np.asarray(f.eval(encode_input(lattice_points(spec), spec)), dtype=float)
    r = np.mod(values * (spec.N * spec.N_o) / (spec.m * spec.l), spec.N_o)
    return AmplitudeGrid(spec, np.exp(2j * np.pi * r / spec.N_o) / spec.N ** (spec.d / 2.0))
