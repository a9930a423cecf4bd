"""Property-based tests of the lattice, the fixed-point maps, the transform and the state types."""
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qgrad import (
    AmplitudeGrid,
    OutcomeDistribution,
    ProblemSpec,
    apply_phase_error,
    build_phase_state,
    circular_mean,
    circular_variance,
    cubic_1d,
    decode_outcome,
    encode_input,
    fixed_point,
    fourier_transform,
    lattice_points,
    linear,
    nearest_lattice_index,
    qsim,
    quadratic,
    quantize_output,
    run_gradient_estimation,
    sinusoid,
    wrap_signed,
)
from oracles import exact_phase_state, ideal_planewave, ideal_state_fidelity

FAST = settings(max_examples=50, deadline=None)


@st.composite
def lattices(draw, max_d=3, max_N=12):
    d = draw(st.integers(1, max_d))
    N = draw(st.integers(2, max_N))
    return ProblemSpec(d=d, N=N, n_o=8, l=1.0, m=1.0)


@FAST
@given(lattices())
def test_lattice_points_rows_are_row_major_indices(spec):
    pts = lattice_points(spec)
    assert pts.shape == (spec.size, spec.d)
    expected = np.column_stack(np.unravel_index(np.arange(spec.size), spec.shape))
    assert np.array_equal(pts, expected)


@FAST
@given(lattices(), st.data())
def test_lattice_point_rows_are_slices_of_the_lattice(spec, data):
    a = data.draw(st.integers(0, spec.size))
    b = data.draw(st.integers(a, spec.size))
    step = data.draw(st.integers(1, spec.size + 1))
    assert np.array_equal(lattice_points(spec, a, b), lattice_points(spec)[a:b])
    assert np.array_equal(lattice_points(spec, a, b, step), lattice_points(spec)[a:b:step])


# largest N drawn per d, so that N**d stays a few thousand points
MAX_BUILD_N = {1: 300, 2: 48, 3: 13, 4: 7}


@FAST
@given(st.data())
def test_build_does_not_depend_on_the_blocking(data):
    # blocks of whole last-axis lines, several short lines, one line for a block
    # below N at d >= 2, runs inside the d = 1 line, or sizes that do not divide N:
    # every blocking gives the one-shot formula's amplitudes to the bit
    d = data.draw(st.integers(1, 4))
    N = data.draw(st.integers(2, MAX_BUILD_N[d]))
    size = N ** d
    # N_o = 2**n_o on both sides of N**d: the phase table and the direct exp
    n_o = data.draw(st.integers(1, size.bit_length() + 1))
    x0 = data.draw(st.lists(st.floats(-10.0, 10.0), min_size=d, max_size=d))
    spec = ProblemSpec(d=d, N=N, n_o=n_o, l=data.draw(st.floats(0.1, 4.0)), m=1.0, x0=x0)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    a = rng.uniform(-1.0, 1.0, size=(d, d))
    f = quadratic(rng.uniform(-1.0, 1.0, size=d), a + a.T)
    block = data.draw(st.one_of(st.integers(1, N), st.integers(1, size + 1)))
    g = quantize_output(f.eval(encode_input(lattice_points(spec), spec)), spec)
    expected = np.exp(2j * np.pi * g / spec.N_o) / spec.N ** (spec.d / 2.0)
    with mock.patch.object(qsim, "BLOCK_POINTS", block):
        assert np.array_equal(build_phase_state(f, spec).amps, expected)


@FAST
@given(st.integers(1, 300), st.integers(1, 50), st.one_of(st.integers(1, 700), st.just(qsim.BLOCK_POINTS)))
def test_blocks_are_whole_lines_that_cover_the_range_in_order(line, lines, block):
    # the one block rule: for n a multiple of `line`, every block is whole lines,
    # at least one, at most max(BLOCK_POINTS, line) long, and the blocks tile range(n)
    n = line * lines
    with mock.patch.object(qsim, "BLOCK_POINTS", block):
        bounds = qsim._blocks(n, line)
    assert [start for start, _ in bounds] == [0, *(stop for _, stop in bounds[:-1])]
    assert bounds[-1][1] == n
    for i, (start, stop) in enumerate(bounds):
        assert start % line == 0 and stop % line == 0
        assert line <= stop - start <= max(block, line)
        # every block but the last holds as many lines as fit
        assert i == len(bounds) - 1 or stop - start + line > block


@FAST
@given(lattices(max_d=2, max_N=40), st.data())
def test_integer_planewave_is_a_deterministic_outcome(spec, data):
    nu = np.array(data.draw(st.lists(st.integers(-100, 100), min_size=spec.d, max_size=spec.d)))
    phases = lattice_points(spec) @ nu / spec.N
    grid = AmplitudeGrid(spec, np.exp(2j * np.pi * phases) / spec.N ** (spec.d / 2.0))
    probs = np.abs(fourier_transform(grid).amps) ** 2
    k = np.ravel_multi_index(tuple(nu % spec.N), spec.shape)
    assert probs[k] == pytest.approx(1.0, abs=1e-9)


@FAST
@given(lattices(max_N=20), st.integers(0, 2 ** 32 - 1))
def test_fourier_transform_preserves_norm(spec, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=spec.size) + 1j * rng.normal(size=spec.size)
    grid = AmplitudeGrid(spec, amps)
    out = fourier_transform(grid)
    assert np.linalg.norm(out.amps) == pytest.approx(np.linalg.norm(grid.amps), rel=1e-10)


@FAST
@given(lattices(), st.integers(-5, 5).filter(lambda off: off != 0))
def test_state_types_reject_wrong_size(spec, offset):
    values = np.ones(max(spec.size + offset, 0))
    with pytest.raises(ValueError):
        AmplitudeGrid(spec, values)
    with pytest.raises(ValueError):
        OutcomeDistribution(spec, values)


@st.composite
def registers(draw, max_n_o=30):
    """Specs with arbitrary N, n_o, l and m (the fixed-point scale N*N_o/(m*l))."""
    return ProblemSpec(
        d=1,
        N=draw(st.integers(2, 64)),
        n_o=draw(st.integers(1, max_n_o)),
        l=draw(st.floats(0.01, 100.0)),
        m=draw(st.floats(0.01, 100.0)),
    )


def _step(spec):
    return spec.m * spec.l / (spec.N * spec.N_o)


@FAST
@given(registers(), st.data())
def test_oracle_register_is_fixed_point_mod_n_o(spec, data):
    # random values plus exact half-unit ties, where rounding conventions differ
    units = data.draw(st.lists(st.integers(-2 ** 20, 2 ** 20), min_size=1, max_size=20))
    values = np.concatenate([
        (np.array(units) + 0.5) * _step(spec),
        data.draw(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=20)),
    ])
    try:
        register = fixed_point(values, spec)
    except ValueError:
        with pytest.raises(ValueError):
            quantize_output(values, spec)
        return
    assert register.dtype == np.int64
    assert np.array_equal(register % spec.N_o, quantize_output(values, spec))
    assert int(register[0]) % spec.N_o == quantize_output(float(values[0]), spec)


@FAST
@given(registers(), st.integers(-2 ** 20, 2 ** 20), st.floats(-0.45, 0.45),
       st.integers(-2 ** 20, 2 ** 20))
def test_quantize_output_is_modular_linear(spec, k, frac, j):
    # adding j register units to f adds j mod N_o to the register
    base = (k + frac) * _step(spec)
    shifted = quantize_output(base + j * _step(spec), spec)
    assert shifted == (quantize_output(base, spec) + j) % spec.N_o


@FAST
@given(lattices(max_N=40), st.floats(0.01, 100.0))
def test_nearest_index_inverts_decode(spec, m):
    spec = replace(spec, m=m)
    ks = lattice_points(spec)
    assert np.array_equal(nearest_lattice_index(decode_outcome(ks, spec), spec), ks)


@FAST
@given(lattices(max_N=16), st.floats(0.0, np.pi / 2, exclude_max=True),
       st.integers(0, 2 ** 32 - 1))
def test_bounded_phase_noise_keeps_fidelity_above_cos_theta(spec, theta, seed):
    rng = np.random.default_rng(seed)
    g = rng.uniform(-spec.m / 2, spec.m / 2, size=spec.d)
    eps = rng.uniform(-theta, theta, size=spec.size)
    noisy = apply_phase_error(ideal_planewave(g, spec), eps)
    assert ideal_state_fidelity(noisy, g) ** 2 >= np.cos(theta) ** 2 - 1e-12


# -- The paper's guarantees, end to end --------------------------------------

# largest N per d, so that N**d stays at or below 4096 points
MAX_PAPER_N = {1: 4096, 2: 64, 3: 16, 4: 8}
# the one tolerance: a probability or fidelity at its bound may come out a few
# float64 roundings below it (the scale N**(d/2) and the exponential round each
# amplitude, the products and the sum round a few times more)
ROUNDINGS = 8 * np.finfo(float).eps


@st.composite
def paper_specs(draw, max_n_o):
    d = draw(st.integers(1, 4))
    return ProblemSpec(
        d=d,
        N=draw(st.integers(2, MAX_PAPER_N[d])),
        n_o=draw(st.integers(1, max_n_o)),
        l=draw(st.floats(0.1, 4.0)),
        m=draw(st.floats(0.1, 4.0)),
        x0=draw(st.lists(st.floats(-2.0, 2.0), min_size=d, max_size=d)),
    )


@FAST
@given(paper_specs(max_n_o=20), st.data())
def test_off_lattice_gradient_keeps_the_phase_estimation_bound(spec, data):
    # any gradient in [-m/2, m/2)^d: lattice frequency k plus an offset of up to half a step
    N, d = spec.N, spec.d
    k = np.array(data.draw(st.lists(st.integers(-(N // 2), (N - 1) // 2), min_size=d, max_size=d)))
    offset = np.array(data.draw(st.lists(st.floats(-0.5, 0.5), min_size=d, max_size=d)))
    g = spec.m * (k + offset) / N
    assume(np.all(g >= -spec.m / 2.0) and np.all(g < spec.m / 2.0))
    report = run_gradient_estimation(linear(g, c=data.draw(st.floats(-1.0, 1.0))), spec, shots=0)
    # each axis's distance from the success frequency, in cycles per lattice step
    delta = ((N * g / spec.m - report.success_index + N / 2.0) % N - N / 2.0) / N
    # the finite-N ideal mass sin^2(pi N delta) / (N^2 sin^2(pi delta)) per axis
    p_ideal = float(np.prod((np.sinc(N * delta) / np.sinc(delta)) ** 2))
    theta = np.pi / spec.N_o  # the largest phase rounding
    base = np.cos(theta) * np.sqrt(p_ideal) - np.sin(theta)
    if base > 0.0:
        assert report.success_probability >= base ** 2 - ROUNDINGS


def catalog_functions(d):
    scalars = st.floats(-2.0, 2.0)
    vectors = st.lists(scalars, min_size=d, max_size=d).map(np.array)
    symmetric = st.lists(vectors, min_size=d, max_size=d).map(lambda rows: np.array(rows) + np.array(rows).T)
    functions = [
        st.builds(linear, vectors, c=scalars),
        st.builds(quadratic, vectors, symmetric, c=scalars),
        st.builds(sinusoid, scalars, vectors),
    ]
    if d == 1:
        functions.append(st.builds(cubic_1d, scalars))
    return st.one_of(functions)


@FAST
@given(paper_specs(max_n_o=30), st.data())
def test_the_precision_budget_buys_the_phase_accuracy(spec, data):
    # rounding N*N_o*f/(m*l) moves each phase by at most pi/N_o, so the built
    # state keeps fidelity cos(pi/N_o) with the unquantized one
    f = data.draw(catalog_functions(spec.d))
    try:
        built = build_phase_state(f, spec)
    except ValueError as exc:
        assume("2**53" not in str(exc))  # a register past exact rounding is rejected, not built
        raise
    # np.sum's pairwise sum stays within ROUNDINGS; np.vdot came out up to 24 roundings below
    # the bound where n_o is near 30 and cos(pi/N_o) rounds to 1
    fidelity = abs(np.sum(exact_phase_state(f, spec).amps.conj() * built.amps))
    assert fidelity >= np.cos(np.pi / spec.N_o) - ROUNDINGS


# -- Circular statistics against the direct formulas ---------------------------


def direct_circular_mean(w, N):
    """Reference: the resultant from N complex roots, over normalized weights."""
    w = np.asarray(w, dtype=float) / np.sum(w)
    z = np.sum(w * np.exp(1j * (2.0 * np.pi * np.arange(N) / N)))
    return 0.0 if abs(z) < 1e-15 else float((N / (2.0 * np.pi)) * np.angle(z) % N)


def direct_circular_variance(w, N, mean):
    w = np.asarray(w, dtype=float) / np.sum(w)
    return float(np.sum(w * wrap_signed(np.arange(N) - mean, N) ** 2))


def assert_means_agree(mean, expected, N):
    assert 0.0 <= mean < N
    assert abs(wrap_signed(mean - expected, N)) <= 1e-12 * N


# primes, squares and non-squares whose tail N - R*B (B = isqrt(N), R = N // B)
# is empty (24, 2024, 4095, 4096), short (257, 4099) or B - 1 long (4031)
ODD_SIZES = [2, 3, 5, 7, 13, 97, 257, 1021, 4093, 4099, 4999, 24, 1000, 2024, 4031, 4095, 4096]


@st.composite
def weight_vectors(draw):
    N = draw(st.one_of(st.integers(2, 5000), st.sampled_from(ODD_SIZES)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["random", "point", "straddle"]))
    if kind == "random":
        w = rng.random(N) ** draw(st.sampled_from([1, 4, 16]))
    elif kind == "point":
        w = np.zeros(N)
        w[draw(st.integers(0, N - 1))] = draw(st.floats(1e-3, 1e3))
    else:
        # a peak centred within half a cell of the wrap, so it sits on both ends
        centre = draw(st.floats(-0.5, 0.5))
        width = draw(st.floats(0.3, max(0.3, N / 8)))
        w = np.exp(-0.5 * (wrap_signed(np.arange(N) - centre, N) / width) ** 2)
    return N, w


@FAST
@given(weight_vectors())
def test_circular_stats_match_the_direct_formulas(case):
    N, w = case
    mean = circular_mean(w)
    assert_means_agree(mean, direct_circular_mean(w, N), N)
    expected = direct_circular_variance(w, N, direct_circular_mean(w, N))
    assert circular_variance(w, mean) == pytest.approx(expected, rel=1e-12, abs=(1e-12 * N) ** 2)


@FAST
@given(weight_vectors(), st.one_of(st.floats(-3.0, 3.0), st.floats(-1e6, 1e6)),
       st.one_of(st.integers(1, 64), st.integers(65, 6000)))
def test_circular_variance_about_any_given_mean(case, frac, block):
    # a given mean need not lie in [0, N), nor within a few periods of it, and
    # the deviations may be summed in blocks of any size: any mean and any
    # block size give the direct formula's value
    N, w = case
    mean = frac * N
    expected = direct_circular_variance(w, N, mean)
    with mock.patch.object(qsim, "BLOCK_POINTS", block):
        assert circular_variance(w, mean) == pytest.approx(expected, rel=1e-12, abs=0)


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 400))
def test_point_mass_at_every_k(N):
    for k in range(N):
        w = np.zeros(N)
        w[k] = 1.0
        mean = circular_mean(w)
        assert_means_agree(mean, k, N)
        assert circular_variance(w, mean) <= (1e-12 * N) ** 2
