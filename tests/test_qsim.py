"""Tests for the amplitude-level simulator: phase grids, transforms, sampling, runs."""
from dataclasses import replace

import numpy as np
import pytest

from qgrad import (
    AmplitudeGrid,
    ProblemSpec,
    apply_phase_error,
    brute_force_transform,
    build_phase_state,
    circular_mean,
    circular_variance,
    encode_input,
    fourier_transform,
    ideal_planewave,
    ideal_state_fidelity,
    linear,
    outcome_distribution,
    quadratic,
    run_gradient_estimation,
    sample,
    with_scanned_range,
    wrap_signed,
)


def lattice(d, N):
    return ProblemSpec(d=d, N=N, n_o=8, l=1.0, m=1.0)


def random_grid(N, d, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=N ** d) + 1j * rng.normal(size=N ** d)
    amps /= np.linalg.norm(amps)
    return AmplitudeGrid(lattice(d, N), amps)


# --- build_phase_state ---

def test_zero_function_gives_flat_superposition():
    spec = ProblemSpec(d=1, N=8, n_o=4, l=1.0, m=1.0)
    grid = build_phase_state(linear([0.0]), spec)
    assert grid.amps == pytest.approx(np.full(8, 1 / np.sqrt(8)))
    assert grid.query_count == 1
    assert abs(np.sum(np.abs(grid.amps) ** 2) - 1.0) < 1e-10


def test_two_point_hand_calculation():
    # N=2, N_o=4, m=l=1, f(x)=x: sample points (l/N)(delta - N/2) = {-0.5, 0.0},
    # scale N*N_o/(m*l) = 8, so g = {round(-4.0) mod 4, round(0.0) mod 4} = {0, 0}
    spec = ProblemSpec(d=1, N=2, n_o=2, l=1.0, m=1.0)
    grid = build_phase_state(linear([1.0]), spec)
    expected = np.array([np.exp(2j * np.pi * 0 / 4), np.exp(2j * np.pi * 0 / 4)]) / np.sqrt(2)
    assert grid.amps == pytest.approx(expected)


def test_four_point_hand_calculation():
    # N=4, N_o=4, m=l=1, f(x)=0.3x: samples {-0.5,-0.25,0,0.25}, scale 16,
    # scaled {-2.4,-1.2,0,1.2} -> rounded {-2,-1,0,1} -> mod 4 {2,3,0,1}
    spec = ProblemSpec(d=1, N=4, n_o=2, l=1.0, m=1.0)
    grid = build_phase_state(linear([0.3]), spec)
    expected = 0.5 * np.array([-1.0, -1j, 1.0, 1j])
    assert grid.amps == pytest.approx(expected, abs=1e-12)


def test_quadratic_phase_field_matches_analytic_up_to_quantization():
    spec = ProblemSpec(d=2, N=12, n_o=6, l=0.8, m=1.0)
    H = 0.3 * np.array([[1.0, 0.4], [0.4, -0.5]])
    f = quadratic([0.05, -0.1], H, c=0.2)
    grid = build_phase_state(f, spec)
    deltas = np.stack(np.meshgrid(np.arange(12), np.arange(12), indexing="ij"), -1).reshape(-1, 2)
    analytic = 2 * np.pi * (spec.N / (spec.m * spec.l)) * f.eval(encode_input(deltas, spec))
    observed = np.angle(grid.amps * spec.N ** (spec.d / 2))
    mismatch = np.abs(np.angle(np.exp(1j * (observed - analytic))))
    assert np.max(mismatch) <= np.pi / spec.N_o + 1e-9


def test_declared_range_is_checked():
    spec = ProblemSpec(d=1, N=8, n_o=4, l=1.0, m=1.0)
    good = with_scanned_range(linear([1.0]), spec)
    build_phase_state(good, spec)  # bounds hold
    bad = linear([1.0])
    bad.f_min, bad.f_max = -0.1, 0.1  # too tight for values in [-0.5, 0.5)
    with pytest.raises(ValueError):
        build_phase_state(bad, spec)


def test_budget_guard():
    with pytest.raises(ValueError):
        ProblemSpec(d=2, N=64, n_o=4, l=1.0, m=1.0, max_points=1000)


def test_non_vectorized_eval_is_rejected():
    # one oracle query evaluates the whole lattice, so eval must map (n, d) to (n,)
    spec = ProblemSpec(d=1, N=8, n_o=4, l=1.0, m=1.0)
    f = linear([0.25])
    scalar_only = replace(f, name="scalar", eval=lambda x: float(np.asarray(x).reshape(-1)[0] * 0.25))
    column = replace(f, name="column", eval=lambda x: f.eval(x)[:, None])
    for bad in (scalar_only, column):
        with pytest.raises(ValueError, match=bad.name):
            build_phase_state(bad, spec)


# --- fourier_transform / brute_force_transform ---

def test_impulse_transforms_to_uniform_magnitudes():
    grid = AmplitudeGrid(lattice(1, 8), np.eye(8)[0])
    out = fourier_transform(grid)
    assert np.abs(out.amps) == pytest.approx(np.full(8, 1 / np.sqrt(8)))


def test_integer_planewave_maps_to_deterministic_outcome():
    N, nu = 8, 3
    amps = np.exp(2j * np.pi * nu * np.arange(N) / N) / np.sqrt(N)
    out = fourier_transform(AmplitudeGrid(lattice(1, N), amps))
    probs = np.abs(out.amps) ** 2
    assert probs[nu] == pytest.approx(1.0, abs=1e-12)


def test_forward_then_inverse_is_identity():
    grid = random_grid(6, 2, seed=3)
    back = fourier_transform(fourier_transform(grid, "forward"), "inverse")
    assert np.max(np.abs(back.amps - grid.amps)) < 1e-10


@pytest.mark.parametrize("N,d", [(4, 1), (6, 2), (16, 1), (5, 2)])
def test_unitarity_preserves_norm(N, d):
    grid = random_grid(N, d, seed=N * 10 + d)
    for direction in ("forward", "inverse"):
        out = fourier_transform(grid, direction)
        assert abs(out.norm() - 1.0) < 1e-10


@pytest.mark.parametrize("N,d", [(4, 1), (6, 2), (16, 1), (13, 1), (7, 2)])
def test_fast_path_agrees_with_brute_force(N, d):
    grid = random_grid(N, d, seed=100 + N + d)
    for direction in ("forward", "inverse"):
        fast = fourier_transform(grid, direction)
        slow = brute_force_transform(grid, direction)
        assert np.max(np.abs(fast.amps - slow.amps)) <= 1e-10


def test_brute_force_guard():
    grid = AmplitudeGrid(lattice(1, 8192), np.ones(8192) / np.sqrt(8192))
    with pytest.raises(ValueError):
        brute_force_transform(grid)


def test_direction_validated():
    grid = random_grid(4, 1, seed=0)
    with pytest.raises(ValueError):
        fourier_transform(grid, "sideways")


# --- outcome_distribution / sample ---

def test_uniform_grid_uniform_distribution():
    N = 8
    grid = AmplitudeGrid(lattice(1, N), np.full(N, 1 / np.sqrt(N)))
    dist = outcome_distribution(grid)
    assert dist.probs == pytest.approx(np.full(N, 1 / N))


def test_distribution_sum_tracks_norm_defect():
    grid = random_grid(8, 1, seed=5)
    grid.amps = grid.amps * 0.9  # norm defect on purpose
    dist = outcome_distribution(grid)
    assert dist.probs.sum() == pytest.approx(0.81)


def test_point_mass_sampling_is_constant():
    probs = np.zeros(16)
    probs[11] = 1.0
    dist = outcome_distribution(AmplitudeGrid(lattice(1, 16), np.sqrt(probs)))
    draws = sample(dist, shots=50, seed=3)
    assert np.all(draws == 11)


def test_sampling_is_deterministic_for_fixed_seed():
    grid = random_grid(10, 2, seed=9)
    dist = outcome_distribution(grid)
    a = sample(dist, shots=200, seed=42)
    b = sample(dist, shots=200, seed=42)
    c = sample(dist, shots=200, seed=43)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_uniform_sampling_frequencies_within_binomial_bound():
    N, shots = 16, 100_000
    grid = AmplitudeGrid(lattice(1, N), np.full(N, 1 / np.sqrt(N)))
    draws = sample(outcome_distribution(grid), shots=shots, seed=7)
    freqs = np.bincount(draws[:, 0], minlength=N) / shots
    p = 1.0 / N
    five_sigma = 5 * np.sqrt(p * (1 - p) / shots)
    assert np.max(np.abs(freqs - p)) < five_sigma


def test_sample_rejects_nonpositive_shots():
    dist = outcome_distribution(random_grid(4, 1, seed=1))
    with pytest.raises(ValueError):
        sample(dist, shots=0, seed=0)


# --- circular statistics on the periodic lattice ---

def test_wrap_signed_shorter_arc():
    assert wrap_signed(7, 8) == pytest.approx(-1.0)
    assert wrap_signed(-5, 8) == pytest.approx(3.0)
    assert wrap_signed(3, 8) == pytest.approx(3.0)


def test_circular_stats_point_mass():
    probs = np.zeros(16)
    probs[5] = 1.0
    assert circular_mean(probs, 16) == pytest.approx(5.0)
    assert circular_variance(probs, 16) == pytest.approx(0.0, abs=1e-20)


def test_circular_stats_straddle_the_wrap():
    # equal mass on k=0 and k=15: mean sits at 15.5, each point 0.5 away
    probs = np.zeros(16)
    probs[0] = probs[15] = 0.5
    mu = circular_mean(probs, 16)
    assert mu == pytest.approx(15.5)
    assert circular_variance(probs, 16) == pytest.approx(0.25)


# --- end-to-end runs ---

def test_exact_linear_run_hits_true_outcome():
    # nu = -3 is representable at N=6 and quantizes exactly with N_o = 32
    spec = ProblemSpec(d=1, N=6, n_o=5, l=1.0, m=1.0)
    f = linear([-3.0 / 6.0])
    report = run_gradient_estimation(f, spec, shots=16, seed=2)
    assert report.success_probability == pytest.approx(1.0, abs=1e-9)
    assert report.mode_index.tolist() == [3]
    assert report.mode_gradient == pytest.approx([-0.5])
    assert report.query_count == 1
    assert np.all(report.samples == 3)


def test_exact_linear_run_with_offset_evaluation_point():
    spec = ProblemSpec(d=1, N=16, n_o=6, l=0.5, m=1.0, x0=[0.37])
    f = linear([3.0 / 16.0], c=0.9)
    report = run_gradient_estimation(f, spec, shots=0)
    assert report.success_probability == pytest.approx(1.0, abs=1e-9)
    assert report.mode_gradient == pytest.approx([3.0 / 16.0])


def test_quadratic_width_matches_prediction_band():
    # alpha = 0.02 at N = 80: predicted wrapped variance alpha^2 N^2 / 3
    alpha, N = 0.02, 80
    spec = ProblemSpec(d=1, N=N, n_o=16, l=2 * alpha, m=1.0)
    f = quadratic([0.0], [[1.0]])
    report = run_gradient_estimation(f, spec, shots=0)
    predicted = alpha ** 2 * N ** 2 / 3.0
    assert predicted == pytest.approx(0.85333333, rel=1e-6)
    ratio = np.sqrt(report.circular_variance_k[0] / predicted)
    assert 0.75 <= ratio <= 1.25


def test_global_phase_invariance():
    spec = ProblemSpec(d=1, N=16, n_o=6, l=1.0, m=1.0)
    step = spec.m * spec.l / (spec.N * spec.N_o)
    f = quadratic([0.0], [[0.4]])
    g = quadratic([0.0], [[0.4]], c=37 * step)  # exact quantization multiple
    da = run_gradient_estimation(f, spec, shots=0).distribution.probs
    db = run_gradient_estimation(g, spec, shots=0).distribution.probs
    assert np.max(np.abs(da - db)) < 1e-12


def test_shift_covariance():
    # adding a*x with N*a/m integer and exact quantization rolls the distribution
    spec = ProblemSpec(d=1, N=16, n_o=6, l=1.0, m=1.0)
    nu = 5
    base = quadratic([0.0], [[0.4]])
    shifted = quadratic([nu * spec.m / spec.N], [[0.4]])
    db = run_gradient_estimation(base, spec, shots=0).distribution.probs
    ds = run_gradient_estimation(shifted, spec, shots=0).distribution.probs
    assert np.max(np.abs(ds - np.roll(db, nu))) < 1e-12


def test_success_probability_reads_nearest_representable():
    # true gradient strictly between lattice points: success index is the round
    spec = ProblemSpec(d=1, N=8, n_o=12, l=1.0, m=1.0)
    f = linear([0.26])  # N*g/m = 2.08, nearest k' = 2
    report = run_gradient_estimation(f, spec, shots=0)
    assert report.success_index.tolist() == [2]
    assert report.success_probability > 0.5


def test_aliased_gradient_is_never_a_success():
    # 0.75 lies outside [-m/2, m/2): it aliases onto -0.25, which must not count as success
    spec = ProblemSpec(d=1, N=8, n_o=12, l=1.0, m=1.0)
    report = run_gradient_estimation(linear([0.75]), spec, shots=0)
    assert report.mode_gradient.tolist() == [-0.25]
    assert report.distribution.probs[report.success_index[0]] == pytest.approx(1.0)
    assert report.success_probability == 0.0


# --- ideal-state fidelity and phase robustness ---

def test_fidelity_of_exact_planewave_is_one():
    spec = ProblemSpec(d=1, N=16, n_o=5, l=1.0, m=1.0)
    g = [3.0 / 16.0]
    grid = ideal_planewave(g, spec)
    assert ideal_state_fidelity(grid, g) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_rejects_out_of_range_gradient():
    spec = ProblemSpec(d=1, N=16, n_o=5, l=1.0, m=1.0)
    grid = ideal_planewave([0.0], spec)
    with pytest.raises(ValueError):
        ideal_state_fidelity(grid, [0.5])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_bounded_phase_noise_keeps_fidelity_bound(seed):
    theta = np.pi / 8
    spec = ProblemSpec(d=1, N=32, n_o=5, l=1.0, m=1.0)
    g = [5.0 / 32.0]
    rng = np.random.default_rng(seed)
    noisy = apply_phase_error(ideal_planewave(g, spec), rng.uniform(-theta, theta, 32))
    fid = ideal_state_fidelity(noisy, g)
    assert fid >= np.cos(theta) - 1e-12
    probs = outcome_distribution(fourier_transform(noisy)).probs
    assert probs[5] >= np.cos(theta) ** 2 - 1e-12


def test_adversarial_phase_noise_saturates_bound():
    # balanced +-theta pattern: <ideal|noisy> = mean(cos eps) = cos(theta) exactly
    theta = np.pi / 8
    spec = ProblemSpec(d=1, N=64, n_o=5, l=1.0, m=1.0)
    g = [7.0 / 64.0]
    eps = theta * np.tile([1.0, -1.0], 32)
    noisy = apply_phase_error(ideal_planewave(g, spec), eps)
    fid = ideal_state_fidelity(noisy, g)
    assert fid >= np.cos(theta) - 1e-12
    assert fid == pytest.approx(np.cos(theta), abs=1e-12)
    rng = np.random.default_rng(99)  # unbalanced signs can only do better
    eps2 = theta * rng.choice([-1.0, 1.0], size=64)
    noisy2 = apply_phase_error(ideal_planewave(g, spec), eps2)
    assert ideal_state_fidelity(noisy2, g) >= np.cos(theta) - 1e-12


def test_phase_error_shape_validated():
    spec = ProblemSpec(d=1, N=8, n_o=4, l=1.0, m=1.0)
    grid = ideal_planewave([0.0], spec)
    with pytest.raises(ValueError):
        apply_phase_error(grid, np.zeros(7))
