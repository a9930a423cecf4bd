"""Tests for problem parameters and the fixed-point encode/quantize/decode maps."""
import time
import warnings

import numpy as np
import pytest

from qgrad import (
    ProblemSpec,
    decode_outcome,
    encode_input,
    fixed_point,
    nearest_lattice_index,
    quadratic,
    quantize_output,
    signed_index,
)
from qgrad.core import _reals, _round_half_up, _symmetric


def spec_1d(N=4, n_o=3, l=1.0, m=1.0, x0=None):
    return ProblemSpec(d=1, N=N, n_o=n_o, l=l, m=m, x0=x0)


# --- Rounding convention (centralized, ties toward +inf) ---

def test_round_half_up_ties():
    assert _round_half_up(2.5) == 3
    assert _round_half_up(-2.5) == -2
    assert _round_half_up(3.2) == 3
    assert _round_half_up(-0.5) == 0


# --- encode_input: x = x0 + (l/N)(delta - N/2) ---

def test_encode_low_corner():
    # hand evaluation: (1/4)*(0 - 2) = -0.5
    assert encode_input([0], spec_1d()) == pytest.approx([-0.5])


def test_encode_midpoint_is_evaluation_point():
    assert encode_input([2], spec_1d()) == pytest.approx([0.0])


def test_encode_with_offset():
    # hand evaluation: 1.0 + (0.4/8)*(6 - 4) = 1.1
    spec = spec_1d(N=8, l=0.4, x0=[1.0])
    assert encode_input([6], spec) == pytest.approx([1.1])


@pytest.mark.parametrize("d,N,l,x0", [(1, 2 ** 20, 1.0, [0.0]), (1, 37, 0.3, [-1e-3]), (3, 17, 1.3, [0.7, -1e-3, 5.0]),
                                       (2, 6, 1e-9, [1e8, -0.0])])
@pytest.mark.parametrize("dtype", [np.int64, np.uint32])
def test_encode_has_the_bits_of_its_one_expression(d, N, l, x0, dtype):
    # built as one array, scaled and shifted in place: the same bits as x0 + (l/N)*(delta - N/2)
    spec = ProblemSpec(d=d, N=N, n_o=8, l=l, m=1.0, x0=x0)
    rows = np.linspace(0, spec.size - 1, 4099).astype(np.int64)
    for delta in (np.stack(np.unravel_index(rows, spec.shape), axis=-1).astype(dtype),
                  np.broadcast_to(np.arange(N, dtype=dtype)[:, None], (N, d)), np.full(d, N - 1, dtype=dtype)):
        got = encode_input(delta, spec)
        assert got.tobytes() == (spec.x0 + (spec.l / spec.N) * (delta - spec.N / 2.0)).tobytes()


# a float, a bool, a NaN or a string is no lattice index, even where it compares in range
NOT_INDICES = ([0.5], [True], [float("nan")], ["3"])


def test_encode_out_of_range_rejected():
    with pytest.raises(ValueError):
        encode_input([4], spec_1d())
    with pytest.raises(ValueError):
        encode_input([-1], spec_1d())
    for bad in NOT_INDICES:
        with pytest.raises(ValueError, match="integers"):
            encode_input(bad, spec_1d())


def test_encode_image_is_centered_half_open_cube():
    spec = ProblemSpec(d=2, N=10, n_o=3, l=0.7, m=1.0, x0=[2.0, -1.0])
    deltas = np.stack(np.meshgrid(np.arange(10), np.arange(10), indexing="ij"), -1).reshape(-1, 2)
    pts = encode_input(deltas, spec)
    lo = spec.x0 - spec.l / 2
    hi = spec.x0 + spec.l / 2
    assert np.all(pts >= lo - 1e-12)
    assert np.all(pts < hi)


def test_encode_affine_monotone_per_axis():
    spec = spec_1d(N=16, l=0.3)
    xs = encode_input(np.arange(16)[:, None], spec)[:, 0]
    steps = np.diff(xs)
    assert np.all(steps > 0)
    assert steps == pytest.approx(np.full(15, spec.l / spec.N))


def test_a_long_double_past_the_floats_is_no_inf():
    # converted first and checked after: a long double inf is taken as inf where
    # inf is allowed, and a finite one the cast takes to inf raises, with no warning
    big, inf = np.longdouble("1e400"), np.longdouble("inf")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _reals("v", np.array([inf, 2.0]), finite=False).tolist() == [np.inf, 2.0]
        for finite in (True, False):
            for values in (np.array([2.0, -big, inf]), np.array([1.0, big], dtype=object)):
                with pytest.raises(ValueError, match="^v must be finite, got -?1e\\+400$"):
                    _reals("v", values, finite=finite)


# --- quantize_output: round(N*N_o*f/(m*l)) mod N_o ---

def test_quantize_zero():
    assert quantize_output(0.0, spec_1d()) == 0


def test_quantize_rounds_to_nearest():
    # hand evaluation: 4*8*0.1/(1*1) = 3.2 -> 3
    assert quantize_output(0.1, spec_1d(N=4, n_o=3)) == 3


def test_quantize_modular_wrap():
    # hand evaluation: 4*8*0.25 = 8.0 -> 8 mod 8 = 0
    assert quantize_output(0.25, spec_1d(N=4, n_o=3)) == 0


def test_quantize_modular_linearity():
    # adding j exact quantizer units (m*l/(N*N_o) each) shifts the result by j mod N_o
    spec = spec_1d(N=4, n_o=3)
    step = spec.m * spec.l / (spec.N * spec.N_o)
    rng = np.random.default_rng(11)
    for _ in range(200):
        base = float(rng.integers(-200, 200)) * step + step * rng.choice([0.0, 0.125, 0.25])
        j = int(rng.integers(-40, 40))
        assert quantize_output(base + j * step, spec) == (quantize_output(base, spec) + j) % spec.N_o


def test_quantize_accepts_widest_register():
    spec = spec_1d(N=4, n_o=52)
    step = spec.m * spec.l / (spec.N * spec.N_o)
    assert quantize_output(-5 * step, spec) == spec.N_o - 5


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_quantize_rejects_non_finite(bad):
    with pytest.raises(ValueError):
        quantize_output(bad, spec_1d())
    with pytest.raises(ValueError):
        quantize_output(np.array([0.0, bad, 0.1]), spec_1d())


def test_quantize_rejects_values_beyond_exact_rounding():
    # N*N_o/(m*l) = 2**50: |f| = 8 scales to exactly 2**53, the first inexact magnitude
    spec = spec_1d(N=4, n_o=48)
    assert quantize_output(8.0 - 2.0 ** -45, spec) == spec.N_o - 32  # 2**53 - 32, still exact
    for f in (8.0, -8.0, 1e20):
        with pytest.raises(ValueError):
            quantize_output(f, spec)
    with pytest.raises(ValueError):
        quantize_output(np.array([0.0, -9.0]), spec)


@pytest.mark.parametrize("shape", [(0,), (0, 3), (2, 0)])
def test_empty_values_give_empty_registers(shape):
    # as the catalog's eval gives [] for no points
    spec = spec_1d()
    assert quadratic([0.1], [[0.4]]).eval(np.empty((0, 1))).shape == (0,)
    for quantize in (fixed_point, quantize_output):
        g = quantize(np.empty(shape), spec)
        assert g.dtype == np.int64 and g.shape == shape


def test_the_2_53_message_names_the_scaled_range():
    # N*N_o/(m*l) = 2**50, as above: 8 and -9 scale to 2**53 and -9 * 2**50
    spec = spec_1d(N=4, n_o=48)
    for quantize in (fixed_point, quantize_output):
        with pytest.raises(ValueError) as raised:
            quantize(np.array([0.0, -9.0, 8.0]), spec)
        assert str(raised.value) == (
            "N*N_o*f/(m*l) must be finite and below 2**53 in magnitude, got values in "
            f"[{-9.0 * 2.0 ** 50}, {2.0 ** 53}]; lower n_o or N, or widen m*l")


def test_quantize_overflow_raises_without_warning():
    # 1e300 * 2**50 overflows float64; only the ValueError may reach the caller
    spec = spec_1d(N=4, n_o=48)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for f in (1e300, np.array([0.0, -1e300])):
            with pytest.raises(ValueError):
                quantize_output(f, spec)


# --- decode_outcome: signed wrap then m*k'/N ---

def test_decode_zero_frequency():
    assert decode_outcome([0], spec_1d()) == pytest.approx([0.0])


def test_decode_negative_branch():
    # hand evaluation: k=7, N=8 -> k'=-1 -> 2*(-1)/8 = -0.25
    assert decode_outcome([7], spec_1d(N=8, m=2.0)) == pytest.approx([-0.25])


def test_decode_positive_branch():
    assert decode_outcome([3], spec_1d(N=8, m=2.0)) == pytest.approx([0.75])


def test_decode_out_of_range_rejected():
    with pytest.raises(ValueError):
        decode_outcome([8], spec_1d(N=8))
    for bad in NOT_INDICES:
        with pytest.raises(ValueError, match="integers"):
            decode_outcome(bad, spec_1d(N=8))


def test_decode_range_is_half_open_symmetric():
    spec = spec_1d(N=8, m=2.0)
    g = decode_outcome(np.arange(8)[:, None], spec)
    assert np.all(g >= -spec.m / 2)
    assert np.all(g < spec.m / 2)


@pytest.mark.parametrize("N", [4, 5, 8, 80])
def test_signed_round_trip(N):
    # decoding the wrapped index then re-deriving round(N*g/m) recovers k' exactly
    spec = spec_1d(N=N, m=1.5)
    lo = -(N // 2)
    hi = (N - 1) // 2
    for k_signed in range(lo, hi + 1):
        g = decode_outcome([k_signed % N], spec)
        assert _round_half_up(spec.N * g[0] / spec.m) == k_signed


@pytest.mark.parametrize("k,N,message", [
    (np.inf, 8, "k must be finite, got inf"),
    (np.array([1.0, np.nan]), 8, "k must be finite, got nan"),
    (3, 2 ** 63, "N must lie in [1, 2**63)"),
    (3, 0, "N must lie in [1, 2**63), got 0"),
    (3, 8.0, "N must be an integer"),
])
def test_signed_index_rejects_what_it_cannot_center(k, N, message):
    # a one-line ValueError that names the argument, and no numpy warning or OverflowError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as info:
            signed_index(k, N)
    assert str(info.value).startswith(message) and "\n" not in str(info.value)


def test_signed_index_is_exact_for_integers_beyond_2_53():
    # integer k is compared with N in the integers: N / 2.0 rounds once N >= 2**53
    N = 2 ** 62 + 2  # N / 2 = 2**61 + 1
    ks = np.array([0, 2 ** 61, 2 ** 61 + 1, N - 1])
    assert signed_index(ks, N).tolist() == [0, 2 ** 61, 2 ** 61 + 1 - N, -1]
    N = 2 ** 53 + 1  # odd: k < N/2 is k <= 2**52
    ks = np.array([2 ** 52, 2 ** 52 + 1])
    assert signed_index(ks, N).tolist() == [2 ** 52, 2 ** 52 + 1 - N]
    assert signed_index(np.arange(9), 9).tolist() == [0, 1, 2, 3, 4, -4, -3, -2, -1]
    # float k keeps its float comparison
    assert signed_index(np.array([3.0, 4.0, 4.5]), 8).tolist() == [3.0, -4.0, -3.5]


UNSIGNED = (np.uint8, np.uint16, np.uint32, np.uint64)


@pytest.mark.parametrize("dtype", UNSIGNED)
def test_unsigned_outcomes_decode_as_signed_ones(dtype):
    # arr - N in the unsigned dtype would wrap: uint8 5 - 8 is 253, and decodes to 31.625
    spec = spec_1d(N=8, m=1.0)
    ks = np.arange(8, dtype=dtype)
    assert signed_index(ks, 8).tolist() == signed_index(np.arange(8), 8).tolist() == [0, 1, 2, 3, -4, -3, -2, -1]
    assert signed_index(ks, 8).dtype == np.int64
    assert decode_outcome(np.array([5], dtype=dtype), spec).tolist() == [-0.375]
    assert decode_outcome(ks[:, None], spec).tolist() == decode_outcome(np.arange(8)[:, None], spec).tolist()
    assert signed_index(dtype(7), 8) == -1  # a 0-d unsigned k


def test_unsigned_k_beyond_int64_is_rejected():
    N = 2 ** 63 - 1
    assert signed_index(np.array([N - 1, 2 ** 62 - 1], dtype=np.uint64), N).tolist() == [-1, 2 ** 62 - 1]
    assert signed_index(np.array([], dtype=np.uint64), N).tolist() == []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as info:
            signed_index(np.array([1, 2 ** 63], dtype=np.uint64), 8)
    assert str(info.value) == f"k must lie below 2**63, got {2 ** 63}"


def test_signed_index_takes_integers_without_an_entry_check(monkeypatch):
    # decode_outcome and peak2d pass integer outcomes, which need no finiteness check
    def no_check(*args, **kwargs):
        raise AssertionError("integer input paid a finiteness check")

    spec = spec_1d(N=8, m=2.0)
    monkeypatch.setattr(np, "isfinite", no_check)
    assert signed_index(np.arange(8), 8).tolist() == [0, 1, 2, 3, -4, -3, -2, -1]
    assert decode_outcome([5], spec).tolist() == [-0.75]


# --- symmetry of a Hessian ---

def _allclose_symmetric(H) -> bool:
    with np.errstate(over="ignore", invalid="ignore"):
        return bool(np.allclose(H, H.T, rtol=1e-12, atol=1e-12))


def test_symmetry_check_accepts_exactly_what_allclose_accepts():
    # off-diagonal pairs at and around the tolerance edge |a - b| = atol + rtol*|b|,
    # with signed zeros, subnormals, huge entries and differences beyond the floats
    bases = [0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e-13, 1e-12, 1.0, -1.0, 3.7e5, 1e300, 1e308, -1e308]
    pairs = []
    for b in bases:
        edge = b + (1e-12 + 1e-12 * abs(b))
        for a in (b, -b, edge, np.nextafter(edge, np.inf), np.nextafter(edge, -np.inf), -edge):
            pairs += [(a, b), (b, a)]
    pairs += [(1e308, -1e308), (1.7976931348623157e308, -1.7976931348623157e308)]
    accepted = rejected = 0
    for a, b in pairs:
        H = np.array([[1.0, a], [b, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                _symmetric(H, 2)
                ok = True
            except ValueError as exc:
                assert str(exc) == "H must be symmetric"
                ok = False
        assert ok == _allclose_symmetric(H), (a, b)
        accepted, rejected = accepted + ok, rejected + (not ok)
    assert accepted and rejected


# --- nearest representable frequency (success definition) ---

def test_nearest_index_rounds_and_wraps():
    spec = spec_1d(N=8, m=1.0)
    assert nearest_lattice_index([0.26], spec) == [2]
    assert nearest_lattice_index([-0.26], spec) == [6]


def test_nearest_index_tie_goes_negative():
    # N*g/m = 1.5 exactly: tie between 1 and 2 resolves to 1
    spec = spec_1d(N=8, m=1.0)
    assert nearest_lattice_index([1.5 / 8], spec) == [1]
    assert nearest_lattice_index([-1.5 / 8], spec) == [8 - 2]


def test_round_half_down_ties():
    # nearest_lattice_index rounds N*g/m half down; with N = m that is g itself
    spec = spec_1d(N=8, m=8.0)
    for g, k in ((2.5, 2), (-2.5, -3), (0.5, 0), (-0.5, -1), (3.2, 3), (-3.7, -4)):
        assert nearest_lattice_index([g], spec) == [k % 8]
    big = 2.0 ** 63 - 1024  # the largest float64 below 2**63
    assert nearest_lattice_index([big], spec) == [int(big) % 8]
    assert nearest_lattice_index([-big], spec) == [-int(big) % 8]


def test_nearest_index_rejects_unrepresentable_gradient():
    # N*g/m must round into int64: not finite, or 2**63 and above, cannot
    spec = spec_1d(N=8, m=1.0)
    for g in (np.inf, -np.inf, np.nan, 1e300):
        with pytest.raises(ValueError):
            nearest_lattice_index([g], spec)


# --- ProblemSpec validation ---

@pytest.mark.parametrize(
    "kwargs",
    [
        dict(d=0, N=4, n_o=3, l=1.0, m=1.0),
        dict(d=1, N=1, n_o=3, l=1.0, m=1.0),
        dict(d=1, N=4, n_o=0, l=1.0, m=1.0),
        dict(d=1, N=4, n_o=3, l=0.0, m=1.0),
        dict(d=1, N=4, n_o=3, l=1.0, m=-2.0),
        dict(d=1, N=4, n_o=53, l=1.0, m=1.0),
        dict(d=1, N=4, n_o=63, l=1.0, m=1.0),
        dict(d=1, N=8.0, n_o=3, l=1.0, m=1.0),
        dict(d=2.0, N=4, n_o=3, l=1.0, m=1.0),
        dict(d=1, N=4, n_o=8.0, l=1.0, m=1.0),
        dict(d=True, N=4, n_o=3, l=1.0, m=1.0),
        dict(d=1, N=4, n_o=True, l=1.0, m=1.0),
        dict(d=1, N="4", n_o=3, l=1.0, m=1.0),
        dict(d=1, N=4, n_o=3, l=float("inf"), m=1.0),
        dict(d=1, N=4, n_o=3, l=float("nan"), m=1.0),
        dict(d=1, N=4, n_o=3, l=1.0, m=float("inf")),
        dict(d=1, N=4, n_o=3, l=1.0, m=float("nan")),
        dict(d=1, N=4, n_o=3, l=1.0, m=1.0, x0=[float("nan")]),
        dict(d=1, N=4, n_o=3, l=1.0, m=1.0, x0=[float("inf")]),
        dict(d=1, N=4, n_o=3, l="1", m=1.0),
        dict(d=1, N=4, n_o=3, l=np.array([1.0]), m=1.0),
        dict(d=1, N=4, n_o=3, l=True, m=1.0),
        dict(d=1, N=4, n_o=3, l=1.0, m="1"),
        dict(d=1, N=4, n_o=3, l=1.0, m=np.array(1.0)),
        dict(d=1, N=4, n_o=3, l=1.0, m=True),
    ],
)
def test_spec_rejects_bad_parameters(kwargs):
    with pytest.raises(ValueError):
        ProblemSpec(**kwargs)


@pytest.mark.parametrize(
    "l,m,what",
    [
        (1e308, 100.0, "N\\*l ="),  # N*l overflows
        (1e-200, 1e-200, "m\\*l ="),  # m*l underflows to 0
        (1.0, 1e-306, "N\\*N_o/\\(m\\*l\\) ="),  # the fixed-point scale overflows
        (1e-300, 1e300, "N\\*l/m ="),  # the Hessian scale underflows to 0
        (1e300, 1e-300, "N\\*l/m ="),  # and overflows
    ],
)
def test_spec_rejects_l_and_m_whose_products_leave_the_floats(l, m, what):
    with pytest.raises(ValueError, match=f"^l = .* and m = .* give {what}"):
        ProblemSpec(d=1, N=4, n_o=8, l=l, m=m)


def test_spec_budget_cap():
    # the cap is MAX_POINTS = 2**24 lattice points; construction allocates nothing
    for d, N in ((4, 65), (2, 4097)):
        with pytest.raises(ValueError):
            ProblemSpec(d=d, N=N, n_o=3, l=1.0, m=1.0)
    ProblemSpec(d=4, N=64, n_o=3, l=1.0, m=1.0)  # exactly 2**24: at budget, fine


def test_spec_rejects_huge_integers_before_the_power():
    # N**d is never taken for a d or an N over budget, and the message stays short
    huge = 10 ** 5000
    start = time.perf_counter()
    for kwargs in (dict(d=10 ** 8, N=3), dict(d=25, N=2), dict(d=huge, N=2), dict(d=1, N=huge),
                   dict(d=2, N=2 ** 24 + 1), dict(d=-huge, N=4), dict(d=1, N=-huge)):
        with pytest.raises(ValueError) as err:
            ProblemSpec(n_o=3, l=1.0, m=1.0, **kwargs)
        assert len(str(err.value)) < 200
    with pytest.raises(ValueError, match="n_o") as err:
        ProblemSpec(d=1, N=4, n_o=huge, l=1.0, m=1.0)
    assert len(str(err.value)) < 200
    assert time.perf_counter() - start < 5.0
    ProblemSpec(d=24, N=2, n_o=3, l=1.0, m=1.0)  # 2**24 points: at budget, fine


def test_spec_x0_default_and_shape():
    spec = ProblemSpec(d=3, N=4, n_o=2, l=1.0, m=1.0)
    assert spec.x0 == pytest.approx(np.zeros(3))
    with pytest.raises(ValueError):
        ProblemSpec(d=3, N=4, n_o=2, l=1.0, m=1.0, x0=[1.0, 2.0])


def test_spec_is_a_value():
    # the spec keeps its own read-only copy of x0, and compares and hashes by value
    x0 = np.array([0.1, 0.2])
    spec = ProblemSpec(d=2, N=8, n_o=4, l=1.0, m=1.0, x0=x0)
    before = encode_input([3, 5], spec)
    x0[0] = 9.0
    assert spec.x0.tolist() == [0.1, 0.2]
    assert np.array_equal(encode_input([3, 5], spec), before)
    with pytest.raises(ValueError, match="read-only"):
        spec.x0[1] = -5.0
    same = ProblemSpec(d=2, N=8, n_o=4, l=1.0, m=1.0, x0=[0.1, 0.2])
    assert spec == same and hash(spec) == hash(same)
    assert len({spec, same}) == 1
    assert spec != ProblemSpec(d=2, N=8, n_o=4, l=1.0, m=1.0, x0=[0.1, 0.3])
    assert spec != ProblemSpec(d=2, N=8, n_o=5, l=1.0, m=1.0, x0=[0.1, 0.2])
    assert spec != (2, 8, 4, 1.0, 1.0, (0.1, 0.2))


def test_spec_derived_quantities():
    spec = ProblemSpec(d=2, N=6, n_o=4, l=1.0, m=1.0)
    assert spec.N_o == 16
    assert spec.shape == (6, 6)
    assert spec.size == 36
    # numpy integers are stored as Python ints
    spec = ProblemSpec(d=np.int64(2), N=np.int32(6), n_o=np.uint8(4), l=1.0, m=1.0)
    assert [type(v) for v in (spec.d, spec.N, spec.n_o)] == [int, int, int]
    assert spec.N_o == 16 and spec.size == 36
    # integer and numpy widths are stored as Python floats, so the spec hashes
    spec = ProblemSpec(d=1, N=4, n_o=3, l=2, m=np.float32(0.5))
    assert (type(spec.l), type(spec.m)) == (float, float) and (spec.l, spec.m) == (2.0, 0.5)
    assert hash(spec) == hash(ProblemSpec(d=1, N=4, n_o=3, l=2.0, m=0.5))
