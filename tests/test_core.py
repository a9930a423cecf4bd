"""Tests for problem parameters and the fixed-point encode/quantize/decode maps."""
import warnings

import numpy as np
import pytest

from qgrad import (
    ProblemSpec,
    decode_outcome,
    encode_input,
    nearest_lattice_index,
    quantize_output,
    round_half_up,
)


def spec_1d(N=4, n_o=3, l=1.0, m=1.0, x0=None):
    return ProblemSpec(d=1, N=N, n_o=n_o, l=l, m=m, x0=x0)


# --- Rounding convention (centralized, ties toward +inf) ---

def test_round_half_up_ties():
    assert round_half_up(2.5) == 3
    assert round_half_up(-2.5) == -2
    assert round_half_up(3.2) == 3
    assert round_half_up(-0.5) == 0


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


def test_encode_out_of_range_rejected():
    with pytest.raises(ValueError):
        encode_input([4], spec_1d())
    with pytest.raises(ValueError):
        encode_input([-1], spec_1d())


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
        assert round_half_up(spec.N * g[0] / spec.m) == k_signed


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
    ],
)
def test_spec_rejects_bad_parameters(kwargs):
    with pytest.raises(ValueError):
        ProblemSpec(**kwargs)


def test_spec_budget_cap():
    # the cap is MAX_POINTS = 2**24 lattice points; construction allocates nothing
    for d, N in ((4, 65), (2, 4097)):
        with pytest.raises(ValueError):
            ProblemSpec(d=d, N=N, n_o=3, l=1.0, m=1.0)
    ProblemSpec(d=4, N=64, n_o=3, l=1.0, m=1.0)  # exactly 2**24: at budget, fine


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
