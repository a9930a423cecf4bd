"""Exact amplitude-level simulation of single-query quantum gradient estimation.

The simulated register is the d-fold input lattice [0,N)^d only.  The output
register is never represented: it is prepared in the Fourier eigenstate of
addition modulo N_o, so writing the integer oracle value g(delta) into it by
modular addition multiplies the amplitude at |delta> by exactly
exp(i*2*pi*g(delta)/N_o).  For integer-valued oracles this phase action is
exact, not an approximation, and the output register stays unentangled for the
whole run.  One batched oracle invocation therefore builds the entire phase
grid, which is what makes the estimator a single-query algorithm at any d.
The simulation evaluates that one query in row-major blocks of whole
last-axis lines, so the state is the only lattice-sized array of the build.

Pipeline: build_phase_state -> fourier_transform -> outcome_distribution ->
sample, with decoding through `core.decode_outcome`.  The forward transform
maps a planewave exp(+i*2*pi*nu*delta/N) with integer nu to the deterministic
outcome k = nu mod N.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    ProblemSpec,
    _integer,
    decode_outcome,
    encode_input,
    lattice_points,
    nearest_lattice_index,
    quantize_output,
)
from .functions import TestFunction, _evaluate

# Lattice points per block of the phase-grid build, of |amps|^2, of sampling
# and of the d=1 variance (a build block is the whole last-axis lines that fit,
# or one segment of a longer line).  The block temporaries (sample points,
# values, register; cumulative sums, deviations) take O(BLOCK_POINTS * d)
# bytes whatever the lattice size.
BLOCK_POINTS = 2 ** 16


def _flat(values, spec: ProblemSpec, dtype, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=dtype).reshape(-1)
    if arr.size != spec.size:
        raise ValueError(f"{what} has length {arr.size}, expected N**d = {spec.size}")
    return arr


@dataclass
class AmplitudeGrid:
    """Complex amplitude field over the lattice of `spec`, flat row-major order."""

    spec: ProblemSpec
    amps: np.ndarray

    def __post_init__(self):
        self.amps = _flat(self.amps, self.spec, complex, "amps")

    def reshaped(self) -> np.ndarray:
        return self.amps.reshape(self.spec.shape)


@dataclass
class OutcomeDistribution:
    """Probability mass over the outcomes k of the lattice of `spec`, flat row-major."""

    spec: ProblemSpec
    probs: np.ndarray

    def __post_init__(self):
        self.probs = _flat(self.probs, self.spec, float, "probs")

    def reshaped(self) -> np.ndarray:
        return self.probs.reshape(self.spec.shape)

    def marginal(self, axis: int) -> np.ndarray:
        """Marginal probability over axis 0 <= axis < d, shape (N,), read-only.

        For d = 1 this is a view of `probs`, not a copy.
        """
        axis = _integer("axis", axis)
        if not 0 <= axis < self.spec.d:
            raise ValueError(f"axis must lie in [0, {self.spec.d}), got {axis}")
        other = tuple(i for i in range(self.spec.d) if i != axis)
        marginal = self.reshaped().sum(axis=other) if other else self.probs.view()
        marginal.flags.writeable = False
        return marginal


def build_phase_state(f: TestFunction, spec: ProblemSpec) -> AmplitudeGrid:
    """Phase grid from one batched oracle query.

    amplitude(delta) = N^(-d/2) * exp(i*2*pi*g(delta)/N_o) with
    g(delta) = quantize_output(f.eval(encode_input(delta))).  Every lattice
    evaluation belongs to the single superposed query.

    The state is filled in consecutive row-major blocks of at most
    BLOCK_POINTS points: max(1, BLOCK_POINTS // N) whole last-axis lines, or
    one segment of a line longer than that.  Only the first line and the
    line heads are enumerated and encoded; the other points copy their
    coordinates from them, which are the same floats.  `f.eval` is called
    once per block, must be vectorized, and must give each point's value
    from that point alone, not from the rest of the batch.  The 2**53 limit
    of `fixed_point` is checked block by block, and an error reports the
    offending block's min and max.  When N_o < N^d the phases are looked up
    in a table of the N_o register values; the table holds the same
    expression, so both ways give the same amplitudes to the bit.  The
    state, 16 bytes per point, is the only lattice-sized array built.
    """
    # glibc gives freed heap memory above its trim threshold back to the
    # kernel, and the threshold follows the largest mmapped chunk freed so far:
    # freeing one chunk the size of four (block, d) float64 arrays raises it
    # above a block's temporaries for the rest of the process.  One large build
    # barely notices (d=4, N=48: 0.7-1.0 s either way, 593 against 1,713 minor
    # faults); many small runs in one process fault far less: a pass of
    # perfbench's cli_studies (128 small estimations) takes about 10-250 minor
    # faults with this line and about 6,200 without it, in the same time within
    # noise (2-vCPU Xeon, Python 3.11, numpy 2.4).  tracemalloc counts the
    # chunk, so it also sets that pass's traced peak: 16.9 MB with the line,
    # 14.4 MB without.
    np.empty(4 * 8 * spec.d * min(spec.size, BLOCK_POINTS), dtype=np.uint8)
    amps = np.empty(spec.size, dtype=complex)
    scale = spec.N ** (spec.d / 2.0)
    table = None
    if spec.N_o < spec.size:
        table = np.exp(2j * np.pi * np.arange(spec.N_o) / spec.N_o) / scale
    N = spec.N
    lines = max(1, BLOCK_POINTS // N)
    for head in range(0, spec.size, lines * N):
        n = min(lines, (spec.size - head) // N)
        # one pass unless a line is longer than a block (then n = 1)
        for offset in range(0, N, BLOCK_POINTS):
            start, width = head + offset, min(BLOCK_POINTS, N - offset)
            stop = start + n * width
            g = quantize_output(_evaluate(f, _block_points(spec, start, n, width)), spec)
            if table is None:
                amps[start:stop] = np.exp(2j * np.pi * g / spec.N_o) / scale
            else:
                np.take(table, g, out=amps[start:stop])
    return AmplitudeGrid(spec, amps)


def _block_points(spec: ProblemSpec, start: int, lines: int, width: int) -> np.ndarray:
    """Encoded points of rows [start, start + lines * width), shape (lines * width, d).

    The rows are `lines` whole last-axis lines (width = N) or one segment of
    a line.  Along a line only the last coordinate changes, and encode_input
    maps each column on its own, so every point takes its leading
    coordinates from its line's head and its last one from the first line.
    """
    first = encode_input(lattice_points(spec, start, start + width), spec)
    if lines == 1:
        return first
    heads = encode_input(lattice_points(spec, start, start + lines * width, step=width), spec)
    points = np.empty((lines, width, spec.d))
    points[:, :, :-1] = heads[:, None, :-1]
    points[:, :, -1] = first[:, -1]
    return points.reshape(-1, spec.d)


def fourier_transform(grid: AmplitudeGrid, *, out: np.ndarray | None = None) -> AmplitudeGrid:
    """Unitary N-point forward discrete Fourier transform applied along every axis.

    a(delta) -> N^(-d/2) * sum_delta a(delta) exp(-i*2*pi*k.delta/N),
    so a planewave exp(+i*2*pi*nu.delta/N) lands on outcome k = nu mod N.
    Works for any N (mixed-radix / Bluestein under the hood).

    The result is written into `out`, a complex array of N**d entries that
    reshapes to the lattice without a copy, as numpy's `fftn(out=)` does;
    `out=grid.amps` transforms the grid in place.  By default a new array is
    allocated and the input grid is left unchanged.
    """
    spec = grid.spec
    a = grid.reshaped()
    scale = spec.N ** (spec.d / 2.0)
    # every axis pass writes the one output array, which is then scaled in place
    if out is None:
        out = np.empty(spec.shape, dtype=complex)
    else:
        out = out.reshape(spec.shape, copy=False)
    np.fft.fftn(a, out=out)
    out /= scale
    return replace(grid, amps=out.reshape(-1))


def outcome_distribution(grid: AmplitudeGrid, *, out: np.ndarray | None = None) -> OutcomeDistribution:
    """Computational-basis measurement probabilities |amps|^2 (no renormalizing).

    The probabilities are written into `out`, a float array of N**d entries
    (a new one by default), in ascending blocks of BLOCK_POINTS points.  So
    `out=grid.amps.view(float)[:N**d]` reuses the state's own buffer:
    writing block [s, e) of the floats overwrites no amplitude of a later
    block.
    """
    amps = grid.amps
    if out is None:
        out = np.empty(amps.size)
    for start in range(0, amps.size, BLOCK_POINTS):
        src = amps[start:start + BLOCK_POINTS]
        block = out[start:start + BLOCK_POINTS]
        if np.may_share_memory(src, block):
            # only the first block of the state's own buffer: numpy would run an
            # overlapping call through a buffered loop whose |a| can differ by an ulp
            src = src.copy()
        np.abs(src, out=block)
        np.square(block, out=block)
    return OutcomeDistribution(grid.spec, out)


def sample(dist: OutcomeDistribution, shots: int, seed: int) -> np.ndarray:
    """i.i.d. outcome draws, shape (shots, d), int64.

    Uses the counter-based Philox generator so a fixed seed gives the same
    sequence no matter how the surrounding work is scheduled.  The draws are
    those of `Generator.choice(N**d, shots, p=probs/probs.sum())`, without
    its N**d-entry temporaries: the cumulative sum of the normalized weights
    is taken in blocks of BLOCK_POINTS, once for its last value and once more
    to search the sorted uniforms block by block.  Weights that are negative
    or NaN, or whose sum is not finite and positive, raise ValueError.
    """
    shots = _integer("shots", shots)
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    total = float(dist.probs.sum())
    if not (np.isfinite(total) and total > 0.0):
        raise ValueError(f"weights sum to {total}, expected a finite positive sum")
    for _, cdf in _cumulative_blocks(dist.probs, total):
        last = cdf[-1]
    rng = np.random.Generator(np.random.Philox(seed))
    u = rng.random(shots)
    order = np.argsort(u, kind="stable")
    u = u[order]
    flat = np.empty(shots, dtype=np.int64)
    lo = 0
    for start, cdf in _cumulative_blocks(dist.probs, total):
        cdf /= last
        # the uniforms below this block's last value fall in this block
        hi = lo + int(np.searchsorted(u[lo:], cdf[-1], side="left"))
        flat[order[lo:hi]] = start + np.searchsorted(cdf, u[lo:hi], side="right")
        lo = hi
    return np.column_stack(np.unravel_index(flat, dist.spec.shape)).astype(np.int64)


def _cumulative_blocks(probs: np.ndarray, total: float):
    """(start, cumsum(probs / total)[start:start + BLOCK_POINTS]) for each block.

    Each block adds the previous block's last value into its first element
    before its own cumsum, which is the sequential sum `cumsum` takes over
    the whole array, bit for bit.
    """
    carry = 0.0
    for start in range(0, probs.size, BLOCK_POINTS):
        cdf = probs[start:start + BLOCK_POINTS] / total
        if not cdf.min() >= 0.0:
            raise ValueError(f"weights must be nonnegative, found one in [{start}, {start + cdf.size})")
        cdf[0] += carry
        np.cumsum(cdf, out=cdf)
        carry = cdf[-1]
        yield start, cdf


# -- Circular statistics on the periodic outcome lattice ---------------------
#
# The lattice has period N, so spreads are measured with wraparound distances:
# the signed shorter arc wrap(dk) = ((dk + N/2) mod N) - N/2 in [-N/2, N/2).


def wrap_signed(delta_k, N: int) -> np.ndarray:
    """Signed shorter-arc difference on the period-N lattice."""
    return (np.asarray(delta_k, dtype=float) + N / 2.0) % N - N / 2.0


def _weights(probs) -> tuple[np.ndarray, int, float]:
    """The weights as float64 (a view when they already are), their count N and their sum."""
    w = np.asarray(probs, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValueError(f"weights have shape {w.shape}, expected (N,) with N >= 1")
    total = float(w.sum())
    if not (np.isfinite(total) and total != 0.0):
        raise ValueError(f"weights sum to {total}, expected a finite nonzero sum")
    return w, w.size, total


def _resultant(w: np.ndarray, N: int) -> complex:
    """sum_k w_k exp(2*pi*i*k/N) from B + R roots of unity instead of N.

    With k = r*B + j (B = isqrt(N), R = N // B) the root factors into an outer
    root of r*B and an inner root of j.  The first R*B weights, viewed as an
    (R, B) matrix, meet the inner cos and sin rows in one real contraction; the
    N - R*B < B weights of the tail take their roots directly.

    No step calls BLAS: a threaded BLAS call leaves its worker thread spinning
    for a short while after it returns, and on a 2-core machine the allocating
    numpy calls that followed it (sampling, in a run) ran up to twice as slow.
    """
    B = math.isqrt(N)
    R = N // B
    ang = 2.0 * np.pi * np.arange(B) / N
    rows = np.einsum("rj,cj->rc", w[: R * B].reshape(R, B), np.vstack((np.cos(ang), np.sin(ang))))
    outer = np.exp(2j * np.pi * B * np.arange(R) / N)
    tail = np.exp(2j * np.pi * np.arange(R * B, N) / N)
    return complex(np.sum(outer * (rows[:, 0] + 1j * rows[:, 1])) + np.sum(w[R * B:] * tail))


def circular_mean(probs) -> float:
    """Mean lattice position of a weight vector of length N over [0, N), via the resultant.

    Undefined (returns 0.0) when the resultant vanishes, e.g. for the uniform
    distribution.  Takes O(N) additions and O(sqrt(N)) transcendental calls,
    and allocates nothing of length N.
    """
    w, N, total = _weights(probs)
    z = _resultant(w, N) / total
    if abs(z) < 1e-15:
        return 0.0
    mean = (N / (2.0 * np.pi)) * np.angle(z) % N
    # a tiny negative angle wraps to exactly N, which is the position 0
    return 0.0 if mean == N else float(mean)


def circular_variance(probs, mean: float) -> float:
    """Wrapped second moment (k^2 units) of a weight vector of length N about `mean`.

    The deviations are wrap_signed(k - mean, N), computed in blocks of at
    most BLOCK_POINTS entries, so nothing of length N is allocated.  The
    mean, usually `circular_mean(probs)`, must be finite with
    |mean| + 2N < 2**52.
    """
    w, N, total = _weights(probs)
    if not abs(mean) + 2 * N < 2.0 ** 52:
        raise ValueError(f"mean must be finite with |mean| + 2N below 2**52, got {mean} for N={N}")
    # while |mean| + 2N < 2**52, x = (k - mean) + N/2 is sorted and spans less
    # than N, so x mod N is x - j*N below (j + 1)*N and x - (j + 1)*N from
    # there on, j = floor(x[0] / N) (a float over an integer never rounds onto
    # an integer it is not): the values np.remainder gives, from two cheap
    # slices of each block instead of a modulo
    j = np.floor(((0.0 - mean) + N / 2.0) / N)
    second = 0.0
    for start in range(0, N, BLOCK_POINTS):
        x = np.arange(start, min(start + BLOCK_POINTS, N), dtype=float)
        x -= mean
        x += N / 2.0
        split = np.searchsorted(x, (j + 1) * N)
        x[:split] -= j * N
        x[split:] -= (j + 1) * N
        x -= N / 2.0
        np.square(x, out=x)
        second += float(np.einsum("k,k->", w[start:start + x.size], x))  # a dot product without BLAS
    return second / total


# -- End-to-end run -----------------------------------------------------------


@dataclass
class GradientEstimationReport:
    """Everything measured and derived from one end-to-end estimation run.

    success_probability is the mass at the lattice frequency nearest the true
    analytic gradient (ties toward the negative neighbor): the estimator
    cannot beat lattice resolution, so that outcome is "success".  It is 0.0
    when a component of the true gradient lies outside [-m/2, m/2): such a
    gradient aliases onto a wrong decoded value, so no outcome is a success.

    The run works in one state buffer, so `distribution.probs` is a float64
    view of the first N**d * 8 bytes of the complex128 state (16 bytes per
    point), which lives as long as the report holds the distribution.
    query_count is 1 for every run: the build's blocks are one superposed query.
    """

    spec: ProblemSpec
    mode_index: np.ndarray
    mode_gradient: np.ndarray
    true_gradient: np.ndarray
    success_index: np.ndarray
    success_probability: float
    distribution: OutcomeDistribution
    samples: np.ndarray
    circular_mean_k: np.ndarray
    circular_variance_k: np.ndarray
    query_count: int

    @property
    def sigma_k_measured(self) -> np.ndarray:
        return np.sqrt(self.circular_variance_k)

    @property
    def sigma_grad_measured(self) -> np.ndarray:
        return (self.spec.m / self.spec.N) * self.sigma_k_measured


def _gradient_in_range(g: np.ndarray, spec: ProblemSpec) -> bool:
    """Every component in [-m/2, m/2), the range a measured outcome can decode to."""
    return bool(np.all(g >= -spec.m / 2.0) and np.all(g < spec.m / 2.0))


def run_gradient_estimation(
    f: TestFunction, spec: ProblemSpec, shots: int = 1000, seed: int = 0
) -> GradientEstimationReport:
    """Full pipeline: phase grid, forward transform, measurement statistics.

    shots = 0 skips sampling and reports distribution-level quantities only.
    """
    shots = _integer("shots", shots)
    if shots < 0:
        raise ValueError(f"shots must be >= 0, got {shots}")
    true_gradient = np.atleast_1d(np.asarray(f.grad(spec.x0), dtype=float)).reshape(spec.d)
    success_index = nearest_lattice_index(true_gradient, spec)
    # the run owns its state: the transform, the probabilities and the
    # statistics all work in the one buffer the build fills
    grid = build_phase_state(f, spec)
    grid = fourier_transform(grid, out=grid.amps)
    dist = outcome_distribution(grid, out=grid.amps.view(float)[: spec.size])

    flat_mode = int(np.argmax(dist.probs))
    mode_index = np.array(np.unravel_index(flat_mode, spec.shape))
    success_probability = 0.0
    if _gradient_in_range(true_gradient, spec):
        success_probability = float(dist.probs[np.ravel_multi_index(tuple(success_index), spec.shape)])

    means = np.empty(spec.d)
    variances = np.empty(spec.d)
    for axis in range(spec.d):
        marginal = dist.marginal(axis)
        means[axis] = circular_mean(marginal)
        variances[axis] = circular_variance(marginal, means[axis])

    draws = sample(dist, shots, seed) if shots > 0 else np.empty((0, spec.d), dtype=np.int64)

    return GradientEstimationReport(
        spec=spec,
        mode_index=mode_index,
        mode_gradient=decode_outcome(mode_index, spec),
        true_gradient=true_gradient,
        success_index=success_index,
        success_probability=success_probability,
        distribution=dist,
        samples=draws,
        circular_mean_k=means,
        circular_variance_k=variances,
        query_count=1,
    )


# -- Phase errors -------------------------------------------------------------


def apply_phase_error(grid: AmplitudeGrid, errors) -> AmplitudeGrid:
    """New grid with per-point phases rotated by `errors` (radians, flat or shaped)."""
    eps = np.asarray(errors, dtype=float).reshape(-1)
    if eps.size != grid.amps.size:
        raise ValueError(f"errors has length {eps.size}, expected {grid.amps.size}")
    return replace(grid, amps=grid.amps * np.exp(1j * eps))
