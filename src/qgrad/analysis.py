"""Analytic predictions: peak widths, support geometry, precision budgets.

Stationary-phase treatment of the quadratic term predicts that the outcome
distribution is (asymptotically) uniform on the parallelotope A*C, where
A = (N*l/m)*H, H is the Hessian at the evaluation point, and C is the unit
hypercube centered at the origin.  Second moments of a uniform unit cube are
<u_i u_j> = delta_ij / 12, which gives per-axis standard deviations

    sigma_k_i    = sqrt( (1/12) * sum_j A_ij^2 )        (lattice units)
    sigma_grad_i = (l / (2*sqrt(3))) * sqrt( sum_j H_ij^2 )   (gradient units)

The gradient-unit width is independent of N.  In one dimension it reduces to
sigma_k^2 = alpha^2 * N^2 / 3 with alpha = (l/2m) * f''.

Precision budgets: representing a range r at granularity s costs log2(r/s)
bits.  A classical estimator must resolve f to m*l/2^n, a quantum one to the
tighter (m*l/2^n) * (theta/2pi) so that every kicked-back phase is accurate
to within theta; the two differ by log2(2pi/theta) bits for any inputs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ProblemSpec, _integer, _positive, _real, _reals, _symmetric


@dataclass
class SigmaPrediction:
    """Per-axis spread predictions plus the predicted support parallelotope.

    The support region is the image of the centered unit hypercube under
    support_matrix (lattice units).
    """

    sigma_k: np.ndarray
    sigma_grad: np.ndarray
    support_matrix: np.ndarray


def stationary_phase_sigma(H, spec: ProblemSpec) -> SigmaPrediction:
    """Predicted outcome spread for Hessian H at the given problem parameters.

    A support matrix or spread beyond the floats raises ValueError.
    """
    H = _symmetric(H, spec.d)
    # each row's squares are taken scaled by a power of two near its largest
    # entry, so that they do not overflow; the scaling is exact
    exponent = np.frexp(np.abs(H).max(axis=1))[1]
    with np.errstate(over="ignore"):
        A = (spec.N * spec.l / spec.m) * H
        row_norms = np.ldexp(np.sqrt((np.ldexp(H, -exponent[:, None]) ** 2).sum(axis=1)), exponent)
        sigma_grad = spec.l / (2.0 * math.sqrt(3.0)) * row_norms
        sigma_k = (spec.N / spec.m) * sigma_grad
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(sigma_k))):
        raise ValueError(f"H = {H.tolist()} gives a support matrix (N*l/m)*H or a spread beyond the "
                         f"floats at N = {spec.N}, l = {spec.l}, m = {spec.m}")
    return SigmaPrediction(sigma_k=sigma_k, sigma_grad=sigma_grad, support_matrix=A)


def support_membership(k, prediction: SigmaPrediction, slack: float) -> np.ndarray:
    """Whether each signed frequency k lies in the predicted region, up to `slack` cells.

    k has shape (..., d), or is a scalar when d = 1; the result is a bool
    array of shape np.shape(k)[:-1], 0-d for one point.  Solves A*u = k
    (pseudo-inverse, so rank-deficient A degenerates to the supported
    subspace), clamps u to the unit cube, and maps the violation back
    through A: membership means the nearest in-region point, measured in
    lattice cells, is at most `slack` away in max-norm.  Every k must be
    real (complex is rejected) and finite, and the slack finite and >= 0.
    """
    slack = _real("slack", slack, finite=True)
    if slack < 0:
        raise ValueError(f"slack must be >= 0, got {slack}")
    A = prediction.support_matrix
    pts = _reals("k", k)
    if pts.ndim == 0:
        pts = pts.reshape(1)
    u = pts @ np.linalg.pinv(A).T
    np.clip(u, -0.5, 0.5, out=u)
    gap = u @ A.T
    gap -= pts
    np.abs(gap, out=gap)
    # the max-norm as a running np.maximum over the columns, in column 0 itself
    dist = gap[..., 0]
    for j in range(1, gap.shape[-1]):
        np.maximum(dist, gap[..., j], out=dist)
    return np.asarray(dist <= slack + 1e-12)


def classical_precision_bits(f_max: float, f_min: float, m: float, l: float, n: float) -> float:
    """Bits of function precision a classical estimator needs for n output bits."""
    return _bits(*_check_range(f_max, f_min, m, l, n))


def quantum_precision_bits(
    f_max: float, f_min: float, m: float, l: float, n: float, theta: float
) -> float:
    """Bits of function precision so every kicked-back phase is within theta.

    Valid for 0 < theta <= 2pi with 2pi/theta finite, so theta must be at
    least about 3.5e-308; theta = 2pi is the formal point where the
    requirement coincides with the classical one.
    """
    return _bits(*_check_range(f_max, f_min, m, l, n)) + math.log2(2.0 * math.pi / _check_theta(theta))


def _bits(f_max: float, f_min: float, m: float, l: float, n: float) -> float:
    """log2((f_max - f_min) * 2**n / (m*l)), summed as logs so that no step overflows.

    A range too wide for a float is taken as (f_max/2 - f_min/2) plus one bit.
    """
    span = f_max - f_min
    range_bits = math.log2(span) if math.isfinite(span) else math.log2(f_max / 2.0 - f_min / 2.0) + 1.0
    return range_bits + n - math.log2(m) - math.log2(l)


def _check_range(f_max, f_min, m, l, n) -> tuple[float, ...]:
    """(f_max, f_min, m, l, n) as floats, after checking that f_max > f_min, both
    and n finite, and m and l positive and finite."""
    f_max, f_min, n = (_real(name, value, finite=True)
                       for name, value in (("f_max", f_max), ("f_min", f_min), ("n", n)))
    if not f_max > f_min:
        raise ValueError(f"need f_max > f_min, got f_max={f_max}, f_min={f_min}")
    return f_max, f_min, _positive("m", m), _positive("l", l), n


def _check_theta(theta) -> float:
    theta = _real("theta", theta)
    if not 0.0 < theta <= 2.0 * math.pi:
        raise ValueError(f"theta must be in (0, 2*pi], got {theta}")
    if not 2.0 * math.pi / theta < math.inf:
        raise ValueError(f"theta = {theta} is too small: 2*pi/theta overflows the floats")
    return theta


def success_probability_bound(theta: float) -> float:
    """cos^2(theta): lower bound on hitting the ideal outcome when every
    phase is accurate to within theta."""
    theta = _real("theta", theta)
    if not 0.0 <= theta < math.pi / 2.0:
        raise ValueError(f"theta must be in [0, pi/2), got {theta}")
    return math.cos(theta) ** 2


def optimal_l(
    sigma: float, d2: float | None = None, d3: float | None = None,
    d: int = 1, mode: str = "quantum"
) -> float:
    """Largest sampling width achieving target uncertainty `sigma`.

    classical: l = 2*sqrt(6*sigma/D3)   (cubic term dominates, error l^2*D3/24)
    quantum:   l = 2*sqrt(3)*sigma/(D2*sqrt(d))   (quadratic term, error per axis)

    D2/D3 are typical magnitudes of second and third partial derivatives; pass
    worst-case values instead for a worst-case width.  sigma and the D needed
    by the mode must be finite and positive, d an integer >= 1, and the
    width they give a positive float: sigma/D2 in quantum mode and
    sigma/D3 in classical mode must neither overflow nor underflow to 0.
    """
    sigma = _positive("sigma", sigma)
    d = _integer("d", d, low=1)
    if mode == "classical":
        d3 = _positive("d3", d3)
        return _width(2.0 * math.sqrt(6.0 * sigma / d3), f"sigma = {sigma} over d3 = {d3}")
    if mode == "quantum":
        d2 = _positive("d2", d2)
        return _width(2.0 * math.sqrt(3.0) * sigma / (d2 * math.sqrt(d)), f"sigma = {sigma} over d2 = {d2}")
    raise ValueError(f"mode must be 'classical' or 'quantum', got {mode!r}")


def _width(l: float, given: str) -> float:
    if not 0 < l < math.inf:
        raise ValueError(f"{given} gives the width {l}; it must be positive and finite")
    return l
