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

import operator
from dataclasses import dataclass

import numpy as np

MAX_POINTS = 2 ** 24

# float64 represents every integer of magnitude below 2**53 exactly.  The
# scaled oracle value must stay below it for round-to-nearest to be exact, and
# n_o <= 52 keeps the register value g < N_o, and so the phase g/N_o, exact.
EXACT_FLOAT_INT = 2.0 ** 53
MAX_N_O = 52


def round_half_up(x) -> np.ndarray:
    """Nearest integer, ties toward +inf (3.5 -> 4, -2.5 -> -2)."""
    return np.floor(np.asarray(x, dtype=float) + 0.5).astype(np.int64)


@dataclass(frozen=True)
class ProblemSpec:
    """All parameters of one gradient-estimation problem.

    d     number of input registers (gradient components)
    N     lattice points per axis: any integer >= 2, not only a power of two,
          with N**d <= MAX_POINTS
    n_o   output-register bits, 1..MAX_N_O; the modular ring has N_o = 2**n_o elements
    l     side length of the sampled hypercube centered at x0
    m     width of the interval bounding each gradient component
    x0    evaluation point, finite (defaults to the origin); stored as a
          read-only copy

    A spec is a value: it compares and hashes by its parameters, x0 included.
    """

    d: int
    N: int
    n_o: int
    l: float
    m: float
    x0: np.ndarray | None = None

    def __post_init__(self):
        for name in ("d", "N", "n_o"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if self.d < 1:
            raise ValueError(f"d must be >= 1, got {self.d}")
        if self.N < 2:
            raise ValueError(f"N must be >= 2, got {self.N}")
        if not 1 <= self.n_o <= MAX_N_O:
            raise ValueError(f"n_o must lie in [1, {MAX_N_O}], got {self.n_o}")
        if not 0 < self.l < np.inf:
            raise ValueError(f"l must be positive and finite, got {self.l}")
        if not 0 < self.m < np.inf:
            raise ValueError(f"m must be positive and finite, got {self.m}")
        if self.N ** self.d > MAX_POINTS:
            raise ValueError(
                f"lattice size N**d = {self.N}**{self.d} exceeds the budget "
                f"of {MAX_POINTS} points"
            )
        x0 = np.zeros(self.d) if self.x0 is None else np.array(self.x0, dtype=float)
        if x0.shape != (self.d,):
            raise ValueError(f"x0 must have shape ({self.d},), got {x0.shape}")
        if not np.all(np.isfinite(x0)):
            raise ValueError(f"x0 must be finite, got {x0}")
        x0.flags.writeable = False
        object.__setattr__(self, "x0", x0)

    def _key(self) -> tuple:
        return (self.d, self.N, self.n_o, self.l, self.m, tuple(self.x0.tolist()))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

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


def _integer(name: str, value) -> int:
    """`value` as a Python int; bools, floats and other non-integers raise ValueError."""
    if isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def lattice_points(
    spec: ProblemSpec, start: int = 0, stop: int | None = None, step: int = 1
) -> np.ndarray:
    """Lattice index vectors of rows range(start, stop, step), shape (len(range), d).

    The one enumeration of [0,N)^d, in row-major order: row i equals
    np.unravel_index(i, spec.shape).  The default range is the whole lattice;
    step=N gives the heads of the last-axis lines.
    """
    rows = np.arange(start, spec.size if stop is None else stop, step)
    return np.stack(np.unravel_index(rows, spec.shape), axis=-1)


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
    """
    return fixed_point(f_val, spec) % spec.N_o


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
    cannot do better than the nearest point of the m/N grid.  The scaled
    gradient N*g/m must be finite and below 2**63 in magnitude, the int64 range.
    """
    g = np.atleast_1d(np.asarray(gradient, dtype=float))
    if g.shape[-1] != spec.d:
        raise ValueError(f"gradient must have last axis of length d={spec.d}")
    with np.errstate(over="ignore"):
        scaled = spec.N * g / spec.m
    if not np.all(np.abs(scaled) < 2.0 ** 63):
        raise ValueError(f"N*g/m must be finite and below 2**63 in magnitude, got gradient {g}")
    # ties toward -inf: the negated round-half-up of the negated value
    return -round_half_up(-scaled) % spec.N
