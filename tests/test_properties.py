"""Property-based tests of the lattice, the fixed-point maps, the transform and the state types."""
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgrad import (
    AmplitudeGrid,
    OutcomeDistribution,
    ProblemSpec,
    apply_phase_error,
    decode_outcome,
    fixed_point,
    fourier_transform,
    ideal_planewave,
    ideal_state_fidelity,
    lattice_points,
    nearest_lattice_index,
    quantize_output,
)

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
@given(lattices(max_d=2, max_N=40), st.data())
def test_integer_planewave_is_a_deterministic_outcome(spec, data):
    nu = np.array(data.draw(st.lists(st.integers(-100, 100), min_size=spec.d, max_size=spec.d)))
    phases = lattice_points(spec) @ nu / spec.N
    grid = AmplitudeGrid(spec, np.exp(2j * np.pi * phases) / spec.N ** (spec.d / 2.0))
    probs = np.abs(fourier_transform(grid).amps) ** 2
    k = np.ravel_multi_index(tuple(nu % spec.N), spec.shape)
    assert probs[k] == pytest.approx(1.0, abs=1e-9)


@FAST
@given(lattices(max_N=20), st.integers(0, 2 ** 32 - 1), st.sampled_from(["forward", "inverse"]))
def test_fourier_transform_preserves_norm(spec, seed, direction):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=spec.size) + 1j * rng.normal(size=spec.size)
    grid = AmplitudeGrid(spec, amps)
    assert fourier_transform(grid, direction).norm() == pytest.approx(grid.norm(), rel=1e-10)


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
