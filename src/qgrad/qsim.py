"""Exact amplitude-level simulation of single-query quantum gradient estimation.

The simulated register is the d-fold input lattice [0,N)^d only.  The output
register is never represented: it is prepared in the Fourier eigenstate of
addition modulo N_o, so writing the integer oracle value g(delta) into it by
modular addition multiplies the amplitude at |delta> by exactly
exp(i*2*pi*g(delta)/N_o).  For integer-valued oracles this phase action is
exact, not an approximation, and the output register stays unentangled for the
whole run.  One batched oracle invocation therefore builds the entire phase
grid, which is what makes the estimator a single-query algorithm at any d.

Pipeline: build_phase_state -> fourier_transform -> outcome_distribution ->
sample, with decoding through `core.decode_outcome`.  The forward transform
maps a planewave exp(+i*2*pi*nu*delta/N) with integer nu to the deterministic
outcome k = nu mod N.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import (
    ProblemSpec,
    decode_outcome,
    encode_input,
    lattice_points,
    nearest_lattice_index,
    quantize_output,
)
from .functions import TestFunction

BRUTE_FORCE_MAX_POINTS = 4096


def _flat(values, spec: ProblemSpec, dtype, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=dtype).reshape(-1)
    if arr.size != spec.size:
        raise ValueError(f"{what} has length {arr.size}, expected N**d = {spec.size}")
    return arr


@dataclass
class AmplitudeGrid:
    """Complex amplitude field over the lattice of `spec`, flat row-major order.

    query_count records how many batched oracle invocations built the grid.
    """

    spec: ProblemSpec
    amps: np.ndarray
    query_count: int = 0

    def __post_init__(self):
        self.amps = _flat(self.amps, self.spec, complex, "amps")

    def reshaped(self) -> np.ndarray:
        return self.amps.reshape(self.spec.shape)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))


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
        """Marginal probability over a single axis, shape (N,)."""
        other = tuple(i for i in range(self.spec.d) if i != axis)
        return self.reshaped().sum(axis=other) if other else self.probs.copy()


def build_phase_state(f: TestFunction, spec: ProblemSpec) -> AmplitudeGrid:
    """Phase grid from one batched oracle query.

    amplitude(delta) = N^(-d/2) * exp(i*2*pi*g(delta)/N_o) with
    g(delta) = quantize_output(f(encode_input(delta))).  Every lattice
    evaluation belongs to the single superposed query, so query_count = 1.
    """
    deltas = lattice_points(spec)
    x = encode_input(deltas, spec)
    values = _evaluate(f, x)
    if f.f_min is not None or f.f_max is not None:
        _check_declared_range(values, f)
    g = quantize_output(values, spec)
    amps = np.exp(2j * np.pi * g / spec.N_o) / spec.N ** (spec.d / 2.0)
    return AmplitudeGrid(spec, amps, query_count=1)


def _evaluate(f: TestFunction, points: np.ndarray) -> np.ndarray:
    """Vectorized evaluation with a per-point fallback for scalar-only callables."""
    try:
        values = np.asarray(f.eval(points), dtype=float)
        if values.shape == points.shape[:-1]:
            return values
    except Exception:
        pass
    return np.array([float(f.eval(p)) for p in points])


def _check_declared_range(values: np.ndarray, f: TestFunction):
    scale = max(1.0, abs(f.f_min or 0.0), abs(f.f_max or 0.0))
    tol = 1e-9 * scale
    if f.f_min is not None and values.min() < f.f_min - tol:
        raise ValueError(f"{f.name}: sampled value {values.min()} below declared f_min={f.f_min}")
    if f.f_max is not None and values.max() > f.f_max + tol:
        raise ValueError(f"{f.name}: sampled value {values.max()} above declared f_max={f.f_max}")


def fourier_transform(grid: AmplitudeGrid, direction: str = "forward") -> AmplitudeGrid:
    """Unitary N-point discrete Fourier transform applied along every axis.

    forward: a(delta) -> N^(-d/2) * sum_delta a(delta) exp(-i*2*pi*k.delta/N),
    so a planewave exp(+i*2*pi*nu.delta/N) lands on outcome k = nu mod N.
    Works for any N (mixed-radix / Bluestein under the hood).
    """
    spec = grid.spec
    a = grid.reshaped()
    scale = spec.N ** (spec.d / 2.0)
    if direction == "forward":
        out = np.fft.fftn(a) / scale
    elif direction == "inverse":
        out = np.fft.ifftn(a) * scale
    else:
        raise ValueError(f"direction must be 'forward' or 'inverse', got {direction!r}")
    return replace(grid, amps=out.reshape(-1))


def brute_force_transform(grid: AmplitudeGrid, direction: str = "forward") -> AmplitudeGrid:
    """Direct double-sum evaluation of the same transform, O(N^2d).

    Independent of the fast path; used as an oracle to validate it.  Guarded
    to small grids.
    """
    spec = grid.spec
    if spec.size > BRUTE_FORCE_MAX_POINTS:
        raise ValueError(f"brute-force transform limited to {BRUTE_FORCE_MAX_POINTS} points, got {spec.size}")
    if direction == "forward":
        sign = -1.0
    elif direction == "inverse":
        sign = 1.0
    else:
        raise ValueError(f"direction must be 'forward' or 'inverse', got {direction!r}")
    coords = lattice_points(spec)
    out = np.empty(spec.size, dtype=complex)
    scale = spec.N ** (spec.d / 2.0)
    for i in range(spec.size):
        dots = coords @ coords[i]
        out[i] = np.sum(grid.amps * np.exp(sign * 2j * np.pi * dots / spec.N)) / scale
    return replace(grid, amps=out)


def outcome_distribution(grid: AmplitudeGrid) -> OutcomeDistribution:
    """Computational-basis measurement probabilities |amps|^2 (no renormalizing)."""
    return OutcomeDistribution(grid.spec, np.abs(grid.amps) ** 2)


def sample(dist: OutcomeDistribution, shots: int, seed: int) -> np.ndarray:
    """i.i.d. outcome draws, shape (shots, d), int64.

    Uses the counter-based Philox generator so a fixed seed gives the same
    sequence no matter how the surrounding work is scheduled.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    rng = np.random.Generator(np.random.Philox(seed))
    p = dist.probs / dist.probs.sum()
    flat = rng.choice(dist.probs.size, size=shots, p=p)
    return np.column_stack(np.unravel_index(flat, dist.spec.shape)).astype(np.int64)


# -- Circular statistics on the periodic outcome lattice ---------------------
#
# The lattice has period N, so spreads are measured with wraparound distances:
# the signed shorter arc wrap(dk) = ((dk + N/2) mod N) - N/2 in [-N/2, N/2).


def wrap_signed(delta_k, N: int) -> np.ndarray:
    """Signed shorter-arc difference on the period-N lattice."""
    return (np.asarray(delta_k, dtype=float) + N / 2.0) % N - N / 2.0


def circular_mean(probs, N: int) -> float:
    """Mean lattice position of a weight vector over [0, N), via the resultant.

    Undefined (returns 0.0) when the resultant vanishes, e.g. for the uniform
    distribution.
    """
    w = np.asarray(probs, dtype=float)
    w = w / w.sum()
    ang = 2.0 * np.pi * np.arange(N) / N
    z = np.sum(w * np.exp(1j * ang))
    if abs(z) < 1e-15:
        return 0.0
    return float((N / (2.0 * np.pi)) * np.angle(z) % N)


def circular_variance(probs, N: int, mean: float | None = None) -> float:
    """Wrapped second moment (k^2 units) about the circular mean."""
    w = np.asarray(probs, dtype=float)
    w = w / w.sum()
    mu = circular_mean(w, N) if mean is None else mean
    dev = wrap_signed(np.arange(N) - mu, N)
    return float(np.sum(w * dev ** 2))


# -- End-to-end run -----------------------------------------------------------


@dataclass
class GradientEstimationReport:
    """Everything measured and derived from one end-to-end estimation run.

    success_probability is the mass at the lattice frequency nearest the true
    analytic gradient (ties toward the negative neighbor): the estimator
    cannot beat lattice resolution, so that outcome is "success".  It is 0.0
    when a component of the true gradient lies outside [-m/2, m/2): such a
    gradient aliases onto a wrong decoded value, so no outcome is a success.
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


def run_gradient_estimation(
    f: TestFunction, spec: ProblemSpec, shots: int = 1000, seed: int = 0
) -> GradientEstimationReport:
    """Full pipeline: phase grid, forward transform, measurement statistics.

    shots = 0 skips sampling and reports distribution-level quantities only.
    """
    grid = build_phase_state(f, spec)
    transformed = fourier_transform(grid, "forward")
    dist = outcome_distribution(transformed)

    flat_mode = int(np.argmax(dist.probs))
    mode_index = np.array(np.unravel_index(flat_mode, spec.shape))
    true_gradient = np.atleast_1d(np.asarray(f.grad(spec.x0), dtype=float)).reshape(spec.d)
    success_index = nearest_lattice_index(true_gradient, spec)
    success_probability = 0.0
    if _gradient_in_range(true_gradient, spec):
        success_probability = float(dist.probs[np.ravel_multi_index(tuple(success_index), spec.shape)])

    means = np.empty(spec.d)
    variances = np.empty(spec.d)
    for axis in range(spec.d):
        marginal = dist.marginal(axis)
        means[axis] = circular_mean(marginal, spec.N)
        variances[axis] = circular_variance(marginal, spec.N, mean=means[axis])

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
        query_count=grid.query_count,
    )


# -- Ideal-state comparison ---------------------------------------------------


def ideal_planewave(gradient, spec: ProblemSpec) -> AmplitudeGrid:
    """Exact linearized planewave state for a given gradient (unquantized).

    amplitude(delta) = N^(-d/2) * exp(i*2*pi*sum_j gradient_j*delta_j/m).
    """
    g = np.atleast_1d(np.asarray(gradient, dtype=float)).reshape(spec.d)
    phases = lattice_points(spec) @ (g / spec.m)
    amps = np.exp(2j * np.pi * phases) / spec.N ** (spec.d / 2.0)
    return AmplitudeGrid(spec, amps)


def _gradient_in_range(g: np.ndarray, spec: ProblemSpec) -> bool:
    """Every component in [-m/2, m/2), the range a measured outcome can decode to."""
    return bool(np.all(g >= -spec.m / 2.0) and np.all(g < spec.m / 2.0))


def ideal_state_fidelity(grid: AmplitudeGrid, true_gradient) -> float:
    """|<ideal|actual>| against the exact planewave for `true_gradient`.

    Bounded phase errors of at most theta per point keep this at cos(theta)
    or above, hence success probability at least cos^2(theta).
    """
    spec = grid.spec
    g = np.atleast_1d(np.asarray(true_gradient, dtype=float)).reshape(spec.d)
    if not _gradient_in_range(g, spec):
        raise ValueError(f"true_gradient components must lie in [-m/2, m/2) = [{-spec.m / 2}, {spec.m / 2})")
    ideal = ideal_planewave(g, spec)
    return float(abs(np.vdot(ideal.amps, grid.amps)))


def apply_phase_error(grid: AmplitudeGrid, errors) -> AmplitudeGrid:
    """New grid with per-point phases rotated by `errors` (radians, flat or shaped)."""
    eps = np.asarray(errors, dtype=float).reshape(-1)
    if eps.size != grid.amps.size:
        raise ValueError(f"errors has length {eps.size}, expected {grid.amps.size}")
    return replace(grid, amps=grid.amps * np.exp(1j * eps))
