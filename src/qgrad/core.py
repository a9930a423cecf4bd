"""Problem parameters and fixed-point maps between lattice indices and real values.

These maps tie the integer lattices to physical quantities:

    encode_input:    delta in [0,N)^d      ->  sample point x0 + (l/N)(delta - N/2)
    fixed_point:     real function value   ->  round(N*N_o*f / (m*l))
    quantize_output: real function value   ->  fixed_point(f) mod N_o
    decode_outcome:  outcome k in [0,N)^d  ->  gradient m*k'/N, k' = k or k - N

`l` is the side length of the sampled hypercube, `m` the width of the symmetric
interval [-m/2, m/2) assumed to bound each gradient component.  Rounding is
round-to-nearest with ties toward +inf, centralized in `round_half_up` so the
convention can be swapped in one place.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_MAX_POINTS = 2 ** 24

# float64 represents every integer of magnitude below 2**53 exactly.  The
# scaled oracle value must stay below it for round-to-nearest to be exact, and
# n_o <= 52 keeps the register value g < N_o, and so the phase g/N_o, exact.
EXACT_FLOAT_INT = 2.0 ** 53
MAX_N_O = 52


def round_half_up(x) -> np.ndarray:
    """Nearest integer, ties toward +inf (3.5 -> 4, -2.5 -> -2)."""
    return np.floor(np.asarray(x, dtype=float) + 0.5).astype(np.int64)


def round_half_down(x) -> np.ndarray:
    """Nearest integer, ties toward -inf (2.5 -> 2, -2.5 -> -3)."""
    return np.ceil(np.asarray(x, dtype=float) - 0.5).astype(np.int64)


@dataclass(frozen=True)
class ProblemSpec:
    """All parameters of one gradient-estimation problem.

    d     number of input registers (gradient components)
    N     lattice points per axis (any integer >= 2, not only powers of two)
    n_o   output-register bits, 1..MAX_N_O; the modular ring has N_o = 2**n_o elements
    l     side length of the sampled hypercube centered at x0
    m     width of the interval bounding each gradient component
    x0    evaluation point (defaults to the origin)
    max_points   cap on total lattice size N**d
    """

    d: int
    N: int
    n_o: int
    l: float
    m: float
    x0: np.ndarray | None = None
    max_points: int = DEFAULT_MAX_POINTS

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"d must be >= 1, got {self.d}")
        if self.N < 2:
            raise ValueError(f"N must be >= 2, got {self.N}")
        if not 1 <= self.n_o <= MAX_N_O:
            raise ValueError(f"n_o must lie in [1, {MAX_N_O}], got {self.n_o}")
        if not self.l > 0:
            raise ValueError(f"l must be positive, got {self.l}")
        if not self.m > 0:
            raise ValueError(f"m must be positive, got {self.m}")
        if self.N ** self.d > self.max_points:
            raise ValueError(
                f"lattice size N**d = {self.N}**{self.d} exceeds the budget "
                f"of {self.max_points} points"
            )
        x0 = np.zeros(self.d) if self.x0 is None else np.asarray(self.x0, dtype=float)
        if x0.shape != (self.d,):
            raise ValueError(f"x0 must have shape ({self.d},), got {x0.shape}")
        object.__setattr__(self, "x0", x0)

    @property
    def N_o(self) -> int:
        return 2 ** self.n_o

    @property
    def shape(self) -> tuple[int, ...]:
        """Lattice shape (N, ..., N), d axes."""
        return (self.N,) * self.d

    @property
    def size(self) -> int:
        """Total number of lattice points N**d."""
        return self.N ** self.d


def lattice_points(spec: ProblemSpec) -> np.ndarray:
    """All lattice index vectors, shape (N**d, d), row-major order.

    The one enumeration of [0,N)^d: row i equals np.unravel_index(i, spec.shape).
    """
    axes = [np.arange(spec.N)] * spec.d
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, spec.d)


def _index_array(values, spec: ProblemSpec, what: str) -> np.ndarray:
    arr = np.asarray(values)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.shape[-1] != spec.d:
        raise ValueError(f"{what} must have last axis of length d={spec.d}, got shape {arr.shape}")
    if np.any(arr < 0) or np.any(arr >= spec.N):
        raise ValueError(f"{what} components must lie in [0, {spec.N})")
    return arr


def encode_input(delta, spec: ProblemSpec) -> np.ndarray:
    """Physical sample point for lattice index `delta`, shape (..., d).

    Components lie in [x0 - l/2, x0 + l/2); the lattice midpoint delta = N/2
    maps exactly onto the evaluation point x0.
    """
    arr = _index_array(delta, spec, "delta")
    return spec.x0 + (spec.l / spec.N) * (arr - spec.N / 2.0)


def fixed_point(f_val, spec: ProblemSpec) -> np.ndarray:
    """Unwrapped fixed-point register: round(N*N_o*f / (m*l)) as int64.

    One unit corresponds to a function increment of m*l/(N*N_o).  This is the
    classical register; the oracle register is the same value mod N_o.  Scaled
    values that are not finite or not below 2**53 in magnitude cannot be
    rounded exactly and raise ValueError.
    """
    with np.errstate(over="ignore"):
        scaled = np.asarray(f_val, dtype=float) * (spec.N * spec.N_o) / (spec.m * spec.l)
    # min/max instead of an elementwise test: no temporary the size of the lattice
    if not (scaled.min() > -EXACT_FLOAT_INT and scaled.max() < EXACT_FLOAT_INT):
        raise ValueError(
            f"N*N_o*f/(m*l) must be finite and below 2**53 in magnitude, got values in "
            f"[{scaled.min()}, {scaled.max()}]; lower n_o or N, or widen m*l"
        )
    return round_half_up(scaled)


def quantize_output(f_val, spec: ProblemSpec):
    """Fixed-point oracle output: fixed_point(f) reduced mod N_o.

    The modular wrap models an n_o-bit register written by modular addition.
    Returns an int for scalar input.
    """
    q = fixed_point(f_val, spec) % spec.N_o
    if np.ndim(f_val) == 0:
        return int(q)
    return q


def signed_index(k, N: int) -> np.ndarray:
    """Centered representative of k mod N: k if k < N/2, else k - N."""
    arr = np.asarray(k)
    return np.where(arr < N / 2.0, arr, arr - N)


def decode_outcome(k, spec: ProblemSpec) -> np.ndarray:
    """Gradient estimate for measured outcome `k`: m * k'/N with signed k'.

    Outcomes at or above N/2 represent negative frequencies, so every decoded
    component lies in [-m/2, m/2).
    """
    arr = _index_array(k, spec, "k")
    return spec.m * signed_index(arr, spec.N).astype(float) / spec.N


def nearest_lattice_index(gradient, spec: ProblemSpec) -> np.ndarray:
    """Wrapped lattice index of the representable frequency nearest `gradient`.

    Ties (gradient exactly between two lattice frequencies) break toward the
    negative neighbor.  Used to define "success" for a run: the measurement
    cannot do better than the nearest point of the m/N grid.
    """
    g = np.atleast_1d(np.asarray(gradient, dtype=float))
    if g.shape[-1] != spec.d:
        raise ValueError(f"gradient must have last axis of length d={spec.d}")
    return round_half_down(spec.N * g / spec.m) % spec.N
