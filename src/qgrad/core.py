"""Problem parameters and fixed-point maps between lattice indices and real values.

These maps tie the integer lattices to physical quantities:

    encode_input:    delta in [0,N)^d      ->  sample point x0 + (l/N)(delta - N/2)
    fixed_point:     real function value   ->  round(N*N_o*f / (m*l))
    quantize_output: real function value   ->  fixed_point(f) mod N_o
    decode_outcome:  outcome k in [0,N)^d  ->  gradient m*k'/N, k' = k or k - N

`l` is the side length of the sampled hypercube, `m` the width of the symmetric
interval [-m/2, m/2) assumed to bound each gradient component.  Rounding is
round-to-nearest with ties toward +inf, centralized in `_round_half_up` so the
convention can be swapped in one place.

Every number a caller passes to qgrad is taken by one of the checks here:
`_integer` for counts and indices, `_real` and `_positive` for real scalars,
and `_reals` for arrays of reals, which also takes the values a function's
callbacks return.  Each raises a one-line ValueError naming the argument for
a bool, complex, text or other non-number input, so no imaginary part is
dropped on the way, and, where the argument must be finite, for an inf or nan.
"""
from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

MAX_POINTS = 2 ** 24

# float64 represents every integer of magnitude below 2**53 exactly.  The
# scaled oracle value must stay below it for round-to-nearest to be exact, and
# n_o <= 52 keeps the register value g < N_o, and so the phase g/N_o, exact.
EXACT_FLOAT_INT = 2.0 ** 53
MAX_N_O = 52


def _round_half_up(x) -> np.ndarray:
    """Nearest integer as int64, ties toward +inf (3.5 -> 4, -2.5 -> -2).

    A float64 array is rounded in place before the cast, so callers pass
    one they own; a scalar gives an np.int64.
    """
    x = np.asarray(x, dtype=float)
    x += 0.5
    np.floor(x, out=x)
    return x.astype(np.int64)[()]


@dataclass(frozen=True)
class ProblemSpec:
    """All parameters of one gradient-estimation problem.

    d     number of input registers (gradient components)
    N     lattice points per axis: any integer >= 2, not only a power of two,
          with N**d <= MAX_POINTS
    n_o   output-register bits, 1..MAX_N_O; the modular ring has N_o = 2**n_o elements
    l     side length of the sampled hypercube centered at x0, stored as a float
    m     width of the interval bounding each gradient component, stored as a float
    x0    evaluation point, finite (defaults to the origin); stored as a
          read-only copy

    l and m must also keep N*l, m*l, N*N_o/(m*l) and N*l/m finite and
    nonzero, the scales of the maps below.

    A spec is a value: it compares and hashes by its parameters, x0 included.
    """

    d: int
    N: int
    n_o: int
    l: float
    m: float
    x0: np.ndarray | None = None

    def __post_init__(self):
        for name, low in (("d", 1), ("N", 2), ("n_o", 1)):
            object.__setattr__(self, name, _integer(name, getattr(self, name), low))
        for name in ("l", "m"):
            object.__setattr__(self, name, _positive(name, getattr(self, name)))
        if self.n_o > MAX_N_O:
            raise ValueError(f"n_o must lie in [1, {MAX_N_O}], got {_shown(self.n_o)}")
        # N >= 2, so a d or an N above these bounds is over budget without taking the power
        if self.d > MAX_POINTS.bit_length() - 1 or self.N > MAX_POINTS or self.N ** self.d > MAX_POINTS:
            raise ValueError(
                f"lattice size N**d = {_shown(self.N)}**{_shown(self.d)} exceeds the budget "
                f"of {MAX_POINTS} points"
            )
        # the lattice maps scale by these, so none may overflow or underflow to 0
        ml = self.m * self.l
        for what, value in (("N*l", self.N * self.l), ("m*l", ml),
                            ("N*N_o/(m*l)", self.N * self.N_o / ml if ml else 0.0),
                            ("N*l/m", self.N * self.l / self.m)):
            if not 0 < value < np.inf:
                raise ValueError(f"l = {self.l} and m = {self.m} give {what} = {value} at N = {self.N}, "
                                 f"n_o = {self.n_o}; it must be finite and nonzero")
        x0 = np.zeros(self.d) if self.x0 is None else np.array(_reals("x0", self.x0))
        if x0.shape != (self.d,):
            raise ValueError(f"x0 must have shape ({self.d},), got {x0.shape}")
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


def _integer(name: str, value, low: int | None = None, high: int | None = None) -> int:
    """`value` as a Python int; bools, floats and other non-integers raise
    ValueError, and so does an integer below `low` or above `high`."""
    if isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {_described(value)}") from None
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {_shown(value)}")
    if high is not None and value > high:
        raise ValueError(f"{name} must be <= {high}, got {_shown(value)}")
    return value


def _shown(value: int) -> str:
    """An integer for a message: its digits, or its sign and bit length when it is huge."""
    if abs(value) < 10 ** 18:
        return str(value)
    return f"{'-' if value < 0 else ''}<{value.bit_length()}-bit integer>"


def _described(value) -> str:
    """A rejected scalar argument for a one-line message: an array by its dtype
    and shape, whose repr may take many lines, anything else by its repr."""
    if isinstance(value, np.ndarray) and value.ndim:
        return f"an array of dtype {value.dtype} and shape {value.shape}"
    return repr(value)


def _real(name: str, value, finite: bool = False) -> float:
    """`value` as a Python float; bools, strings, arrays and other non-reals
    raise ValueError, as does an int beyond the floats, and so, with
    `finite`, do inf and nan."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {_described(value)}")
    try:
        value = float(value)
    except OverflowError:
        raise ValueError(f"{name} must be finite, got an integer beyond the floats") from None
    if finite and not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def _positive(name: str, value) -> float:
    """`_real(name, value)`, after checking that it is positive and finite."""
    value = _real(name, value)
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return value


def _reals(name: str, value, finite: bool = True) -> np.ndarray:
    """`value` as a float64 array, the array itself when it already is one.

    Integer and float arrays convert, and so do object arrays of real
    numbers, such as Python ints beyond 64 bits; anything else raises
    ValueError naming `name` (see `_check_reals`), as does a number beyond
    the floats (a Python int or a long double) and, with `finite`, an inf
    or nan.  The array is converted first and checked after, so a long
    double that the cast takes to inf is caught.  Without `finite`, only
    an object or long-double array is checked entry by entry: a float64
    array costs a dtype test.
    """
    arr = np.asarray(value)
    _check_reals(name, arr, finite=False)
    try:
        with np.errstate(over="ignore"):  # a long double beyond the floats casts to inf, caught below
            out = arr.astype(float, copy=False)
    except OverflowError:  # a Python int of an object array
        raise ValueError(f"{name} must be finite, got an integer beyond the floats") from None
    kind = arr.dtype.kind
    if kind == "O" or (kind == "f" and (finite or arr.dtype.itemsize > 8)):
        bad = ~np.isfinite(out)
        if bad.any():
            given = arr[bad]
            if not finite:  # only what the cast took past the floats
                given = given[np.isfinite(given.astype(np.longdouble))]
            if given.size:  # str(), as format() would print a long double through a float
                raise ValueError(f"{name} must be finite, got {given.flat[0]!s}")
    return out


def _check_reals(name: str, arr: np.ndarray, finite: bool = True) -> None:
    """Raise ValueError naming `name` unless `arr` is an integer or float
    array, or an object array of real numbers, and, with `finite`, each
    float in it is finite.  A bool, complex or text array raises, and so
    does an object entry that is a bool or no real number."""
    if arr.dtype.kind == "O":
        for x in arr.flat:
            if isinstance(x, bool) or not isinstance(x, numbers.Real):
                raise ValueError(f"{name} must be real, got an entry of type {type(x).__name__}")
            if finite and isinstance(x, (float, np.floating)) and not math.isfinite(x):
                raise ValueError(f"{name} must be finite, got {x}")
    elif arr.dtype.kind not in "iuf":
        raise ValueError(f"{name} must be real, got dtype {arr.dtype}")
    elif finite and arr.dtype.kind == "f":
        ok = np.isfinite(arr)
        if not ok.all():
            raise ValueError(f"{name} must be finite, got {arr[~ok].flat[0]}")


def _symmetric(H, d: int) -> np.ndarray:
    """H as a float (d, d) matrix, after checking that it is finite and symmetric
    (rtol = atol = 1e-12)."""
    H = np.atleast_2d(_reals("H", H))
    if H.shape != (d, d):
        raise ValueError(f"H must have shape ({d}, {d}), got {H.shape}")
    # np.allclose's test for finite entries, |H - H^T| <= atol + rtol*|H^T|,
    # without its generic setup; a difference past the floats is not close
    with np.errstate(over="ignore"):
        close = np.abs(H - H.T) <= 1e-12 + 1e-12 * np.abs(H.T)
    if not close.all():
        raise ValueError("H must be symmetric")
    return H


def lattice_points(
    spec: ProblemSpec, start: int = 0, stop: int | None = None, step: int = 1
) -> np.ndarray:
    """Lattice index vectors of rows range(start, stop, step), shape (len(range), d).

    The one enumeration of [0,N)^d, in row-major order: row i equals
    np.unravel_index(i, spec.shape).  The default range is the whole lattice;
    step=N gives the heads of the last-axis lines.  start and stop must be
    integers in [0, N**d], and step an integer >= 1.
    """
    start, step = _integer("start", start), _integer("step", step, low=1)
    stop = spec.size if stop is None else _integer("stop", stop)
    for name, value in (("start", start), ("stop", stop)):
        if not 0 <= value <= spec.size:
            raise ValueError(f"{name} must lie in [0, N**d = {spec.size}], got {_shown(value)}")
    # a step past N**d takes the rows that N**d takes, and numpy takes any step up to it
    rows = np.arange(start, stop, min(step, spec.size))
    return np.stack(np.unravel_index(rows, spec.shape), axis=-1)


def _index_array(values, spec: ProblemSpec, what: str) -> np.ndarray:
    arr = np.asarray(values)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.shape[-1] != spec.d:
        raise ValueError(f"{what} must have last axis of length d={spec.d}, got shape {arr.shape}")
    if arr.dtype.kind not in "iu":
        raise ValueError(f"{what} must be integers, got dtype {arr.dtype}")
    if arr.size and (arr.min() < 0 or arr.max() >= spec.N):
        raise ValueError(f"{what} components must lie in [0, {spec.N})")
    return arr


def encode_input(delta, spec: ProblemSpec) -> np.ndarray:
    """Physical sample point for lattice index `delta`, shape (..., d).

    Components lie in [x0 - l/2, x0 + l/2); the lattice midpoint delta = N/2
    maps exactly onto the evaluation point x0.
    """
    arr = _index_array(delta, spec, "delta")
    # one float array, scaled and then shifted in place: s*y + x0 is x0 + s*y
    points = arr - spec.N / 2.0
    points *= spec.l / spec.N
    points += spec.x0
    return points


def fixed_point(f_val, spec: ProblemSpec) -> np.ndarray:
    """Unwrapped fixed-point register: round(N*N_o*f / (m*l)) as int64.

    One unit corresponds to a function increment of m*l/(N*N_o).  This is the
    classical register; the oracle register is the same value mod N_o.  f_val
    must be real: complex is rejected.  Scaled values that are not finite or
    not below 2**53 in magnitude cannot be rounded exactly and raise
    ValueError.  An empty array gives an empty int64 array of its shape.
    """
    # one copy of the values, scaled, checked and rounded in place
    scaled = np.array(_reals("f_val", f_val, finite=False))
    with np.errstate(over="ignore"):
        scaled *= spec.N * spec.N_o
        scaled /= spec.m * spec.l
    # min/max instead of an elementwise test: no temporary the size of the lattice
    if scaled.size and not (scaled.min() > -EXACT_FLOAT_INT and scaled.max() < EXACT_FLOAT_INT):
        raise ValueError(
            f"N*N_o*f/(m*l) must be finite and below 2**53 in magnitude, got values in "
            f"[{scaled.min()}, {scaled.max()}]; lower n_o or N, or widen m*l"
        )
    return _round_half_up(scaled)


def quantize_output(f_val, spec: ProblemSpec):
    """Fixed-point oracle output: fixed_point(f) reduced mod N_o.

    The modular wrap models an n_o-bit register written by modular addition.
    N_o = 2**n_o with n_o <= 52, so the reduction is a mask of the low n_o
    bits, which gives the int64 `%` gives, negative registers included.
    """
    g = fixed_point(f_val, spec)
    g &= spec.N_o - 1
    return g


def signed_index(k, N: int) -> np.ndarray:
    """Centered representative of k mod N: k if k < N/2, else k - N.

    N must be an integer in [1, 2**63), k real (complex is rejected) and a
    float k finite; integer k is taken as it is, with no check of each
    entry, but unsigned k is taken as int64 and must lie below 2**63.
    """
    N = _integer("N", N)
    if not 1 <= N < 2 ** 63:
        raise ValueError(f"N must lie in [1, 2**63), got {_shown(N)}")
    arr = np.asarray(k)
    _check_reals("k", arr)
    if arr.dtype.kind == "u":  # arr - N would stay unsigned and wrap around
        if arr.size and arr.max() >= 2 ** 63:
            raise ValueError(f"k must lie below 2**63, got {arr.max()}")
        arr = arr.astype(np.int64)
    # integers compare in the integers, where N / 2.0 would round for N >= 2**53
    half = N - N // 2 if arr.dtype.kind == "i" else N / 2.0
    return np.where(arr < half, arr, arr - N)


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
    cannot do better than the nearest point of the m/N grid.  The gradient
    must be real, and the scaled gradient N*g/m finite and below 2**63 in
    magnitude, the int64 range.
    """
    g = np.atleast_1d(_reals("gradient", gradient, finite=False))
    if g.shape[-1] != spec.d:
        raise ValueError(f"gradient must have last axis of length d={spec.d}")
    with np.errstate(over="ignore"):
        scaled = spec.N * g / spec.m
    if not (np.abs(scaled) < 2.0 ** 63).all():
        raise ValueError(f"N*g/m must be finite and below 2**63 in magnitude, got gradient {g.tolist()}")
    # ties toward -inf: the negated round-half-up of the negated value
    return -_round_half_up(-scaled) % spec.N
