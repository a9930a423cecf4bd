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

from .core import ProblemSpec


@dataclass
class SigmaPrediction:
    """Per-axis spread predictions plus the predicted support parallelotope.

    The support region is the image of the centered unit hypercube under
    support_matrix (lattice units).
    """

    sigma_k: np.ndarray
    sigma_grad: np.ndarray
    support_matrix: np.ndarray

    @property
    def support_volume(self) -> float:
        """|det A|, the lattice-cell volume of the predicted region."""
        return float(abs(np.linalg.det(self.support_matrix)))


def _symmetric(H, d: int) -> np.ndarray:
    H = np.atleast_2d(np.asarray(H, dtype=float))
    if H.shape != (d, d):
        raise ValueError(f"H must have shape ({d}, {d}), got {H.shape}")
    if not np.allclose(H, H.T, rtol=1e-9, atol=1e-12):
        raise ValueError("H must be symmetric")
    return H


def stationary_phase_sigma(H, spec: ProblemSpec) -> SigmaPrediction:
    """Predicted outcome spread for Hessian H at the given problem parameters."""
    H = _symmetric(H, spec.d)
    A = (spec.N * spec.l / spec.m) * H
    row_norms = np.sqrt((H ** 2).sum(axis=1))
    sigma_grad = spec.l / (2.0 * math.sqrt(3.0)) * row_norms
    sigma_k = (spec.N / spec.m) * sigma_grad
    return SigmaPrediction(sigma_k=sigma_k, sigma_grad=sigma_grad, support_matrix=A)


def support_membership(k, prediction: SigmaPrediction, slack: float) -> np.ndarray:
    """Whether each signed frequency k lies in the predicted region, up to `slack` cells.

    k has shape (..., d), or is a scalar when d = 1; the result is a bool
    array of shape np.shape(k)[:-1], 0-d for one point.  Solves A*u = k
    (pseudo-inverse, so rank-deficient A degenerates to the supported
    subspace), clamps u to the unit cube, and maps the violation back
    through A: membership means the nearest in-region point, measured in
    lattice cells, is at most `slack` away in max-norm.  The slack must be
    finite and >= 0.
    """
    if not 0 <= slack < np.inf:
        raise ValueError(f"slack must be finite and >= 0, got {slack}")
    A = prediction.support_matrix
    pts = np.asarray(k, dtype=float)
    if pts.ndim == 0:
        pts = pts.reshape(1)
    u = pts @ np.linalg.pinv(A).T
    nearest = np.clip(u, -0.5, 0.5) @ A.T
    return np.asarray(np.max(np.abs(nearest - pts), axis=-1) <= slack + 1e-12)


def classical_precision_bits(f_max: float, f_min: float, m: float, l: float, n: float) -> float:
    """Bits of function precision a classical estimator needs for n output bits."""
    _check_range(f_max, f_min, m, l)
    return math.log2((f_max - f_min) * 2.0 ** n / (m * l))


def quantum_precision_bits(
    f_max: float, f_min: float, m: float, l: float, n: float, theta: float
) -> float:
    """Bits of function precision so every kicked-back phase is within theta.

    Valid for 0 < theta <= 2pi; theta = 2pi is the formal point where the
    requirement coincides with the classical one.
    """
    _check_range(f_max, f_min, m, l)
    if not 0.0 < theta <= 2.0 * math.pi:
        raise ValueError(f"theta must be in (0, 2*pi], got {theta}")
    return math.log2((f_max - f_min) * 2.0 ** n / (m * l * theta / (2.0 * math.pi)))


def _check_range(f_max: float, f_min: float, m: float, l: float):
    if not f_max > f_min:
        raise ValueError(f"need f_max > f_min, got f_max={f_max}, f_min={f_min}")
    if not (m > 0 and l > 0):
        raise ValueError(f"m and l must be positive, got m={m}, l={l}")


def success_probability_bound(theta: float) -> float:
    """cos^2(theta): lower bound on hitting the ideal outcome when every
    phase is accurate to within theta."""
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
    worst-case values instead for a worst-case width.
    """
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if mode == "classical":
        if d3 is None or not d3 > 0:
            raise ValueError("classical mode needs a positive d3")
        return 2.0 * math.sqrt(6.0 * sigma / d3)
    if mode == "quantum":
        if d2 is None or not d2 > 0:
            raise ValueError("quantum mode needs a positive d2")
        if d < 1:
            raise ValueError(f"d must be >= 1, got {d}")
        return 2.0 * math.sqrt(3.0) * sigma / (d2 * math.sqrt(d))
    raise ValueError(f"mode must be 'classical' or 'quantum', got {mode!r}")
