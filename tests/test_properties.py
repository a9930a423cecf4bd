"""Property-based tests of the lattice enumeration, the transform and the state types."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgrad import AmplitudeGrid, OutcomeDistribution, ProblemSpec, fourier_transform, lattice_points

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
