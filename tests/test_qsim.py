"""Tests for the amplitude-level simulator: phase grids, transforms, sampling, runs."""
import platform
import subprocess
import sys
import tracemalloc
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from qgrad import (
    AmplitudeGrid,
    ProblemSpec,
    apply_phase_error,
    build_phase_state,
    circular_mean,
    circular_variance,
    encode_input,
    fourier_transform,
    lattice_points,
    linear,
    outcome_distribution,
    qsim,
    quadratic,
    quantize_output,
    run_gradient_estimation,
    sample,
    sinusoid,
    wrap_signed,
)
from qgrad.qsim import BLOCK_POINTS
from oracles import brute_force_transform, choice_draws, ideal_planewave, ideal_state_fidelity


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


def test_budget_guard():
    with pytest.raises(ValueError):
        ProblemSpec(d=2, N=4097, n_o=4, l=1.0, m=1.0)  # over the 2**24-point cap


def test_non_vectorized_eval_is_rejected():
    # one oracle query evaluates the whole lattice, so eval must map (n, d) to (n,)
    spec = ProblemSpec(d=1, N=8, n_o=4, l=1.0, m=1.0)
    f = linear([0.25])
    scalar_only = replace(f, name="scalar", eval=lambda x: float(np.asarray(x).reshape(-1)[0] * 0.25))
    column = replace(f, name="column", eval=lambda x: f.eval(x)[:, None])
    for bad in (scalar_only, column):
        with pytest.raises(ValueError, match=bad.name):
            build_phase_state(bad, spec)


# several blocks with a partial tail; (table path, direct exp path) at d=1 and d>=2
STREAMED_CASES = [
    (ProblemSpec(d=1, N=2 * BLOCK_POINTS + 100, n_o=8, l=1.0, m=1.0), quadratic([0.1], [[0.4]])),
    (ProblemSpec(d=1, N=2 * BLOCK_POINTS + 100, n_o=18, l=1.0, m=1.0), quadratic([0.1], [[0.4]])),
    (ProblemSpec(d=2, N=300, n_o=10, l=1.0, m=1.0), sinusoid(0.5, [1.0, 2.0])),
    (ProblemSpec(d=2, N=300, n_o=17, l=1.0, m=1.0, x0=[0.1, -0.2]),
     quadratic([0.1, -0.2], [[0.3, 0.1], [0.1, -0.2]])),
    (ProblemSpec(d=3, N=50, n_o=8, l=0.5, m=1.0), quadratic([0.1, 0.0, 0.2], np.diag([0.1, 0.2, -0.1]))),
]


@pytest.mark.parametrize("spec,f", STREAMED_CASES)
def test_streamed_build_matches_one_shot_formula(spec, f):
    assert spec.size > BLOCK_POINTS and spec.size % BLOCK_POINTS != 0
    g = quantize_output(f.eval(encode_input(lattice_points(spec), spec)), spec)
    expected = np.exp(2j * np.pi * g / spec.N_o) / spec.N ** (spec.d / 2.0)
    assert np.array_equal(build_phase_state(f, spec).amps, expected)


def test_streamed_build_takes_both_phase_paths():
    assert {spec.N_o < spec.size for spec, _ in STREAMED_CASES} == {True, False}


def _spike_at_last_point(spec, height):
    """f = 0 everywhere except `height` at the last lattice point, inside the last block."""
    edge = encode_input([spec.N - 1], spec)[0]
    return replace(linear([0.0]), name="spike", eval=lambda x: np.where(x[..., 0] >= edge, height, 0.0))


def test_range_violations_in_the_last_block_raise():
    spec = ProblemSpec(d=1, N=2 * BLOCK_POINTS + 3, n_o=8, l=1.0, m=1.0)
    with pytest.raises(ValueError, match="2\\*\\*53"):
        build_phase_state(_spike_at_last_point(spec, 1e30), spec)


def test_build_calls_each_stage_once_per_block(monkeypatch):
    # perfbench's per-layer tracing wraps these qsim globals; the build must look them up.
    # eval and quantize_output run once per block; lattice_points and encode_input
    # once per one-line block or segment, twice (first line, line heads) per multi-line block
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("lattice_points", "encode_input", "quantize_output"):
        monkeypatch.setattr(qsim, name, counted(name, getattr(qsim, name)))
    d2, d1 = STREAMED_CASES[2], STREAMED_CASES[0]
    small = (ProblemSpec(d=2, N=5, n_o=8, l=1.0, m=1.0), d2[1])
    # (case, BLOCK_POINTS, blocks, enumerations)
    cases = [
        (d2, BLOCK_POINTS, 2, 4),  # 300 lines of 300: blocks of 218 and 82 lines
        (d1, BLOCK_POINTS, 3, 3),  # one line of 2B + 100: segments B, B, 100
        (small, 10, 3, 5),  # 5 lines of 5: blocks of 2, 2 and 1 lines
        (small, 3, 10, 10),  # each line in segments of 3 and 2
    ]
    for (spec, f), block, blocks, enumerations in cases:
        calls.clear()
        monkeypatch.setattr(qsim, "BLOCK_POINTS", block)
        f = replace(f, eval=counted("eval", f.eval))
        build_phase_state(f, spec)
        assert calls == {"lattice_points": enumerations, "encode_input": enumerations,
                         "quantize_output": blocks, "eval": blocks}


def _traced_peak(call) -> int:
    """tracemalloc peak of call() above the bytes allocated before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


MEMORY_CASES = [
    pytest.param(ProblemSpec(d=2, N=1024, n_o=16, l=1.0, m=1.0),
                 quadratic([0.1, -0.2], [[0.2, 0.05], [0.05, -0.1]]), id="16"),  # phase table
    pytest.param(ProblemSpec(d=2, N=1024, n_o=24, l=1.0, m=1.0),
                 quadratic([0.1, -0.2], [[0.2, 0.05], [0.05, -0.1]]), id="24"),  # direct exp
    pytest.param(ProblemSpec(d=1, N=2 ** 20, n_o=16, l=1.0, m=1.0),
                 quadratic([0.1], [[0.002]]), id="d1"),  # circular statistics over the whole state
]


@pytest.mark.parametrize("spec,f", MEMORY_CASES)
def test_state_memory_per_point(spec, f):
    slack = 8 * 2 ** 20
    assert _traced_peak(lambda: build_phase_state(f, spec)) <= 16 * spec.size + slack
    # the transform, the probabilities, the statistics and sampling add nothing lattice-sized
    assert _traced_peak(lambda: run_gradient_estimation(f, spec, shots=1000)) <= 16 * spec.size + slack


FAULT_PROBE = """
import resource
import numpy as np
from qgrad import ProblemSpec, build_phase_state, quadratic
spec = ProblemSpec(d=4, N=24, n_o=16, l=1.0, m=1.0)
f = quadratic([0.1, -0.2, 0.3, 0.05], np.diag([0.2, -0.1, 0.15, 0.05]))
build_phase_state(f, spec)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
build_phase_state(f, spec)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before, 16 * spec.size // 4096)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="counts page faults under glibc's allocator")
def test_build_keeps_block_temporaries_mapped():
    # a fresh interpreter, so the allocator's state is the build's own doing: a
    # second build of 6 blocks faults in at most its state's pages, not each
    # block's temporaries again
    proc = subprocess.run(
        [sys.executable, "-c", FAULT_PROBE],
        env={"PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src"), "PATH": "/usr/bin:/bin"},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    faults, state_pages = map(int, proc.stdout.split())
    assert faults <= state_pages


def test_1d_circular_statistics_read_the_distribution_in_place():
    spec, f = MEMORY_CASES[2].values
    dist = outcome_distribution(fourier_transform(build_phase_state(f, spec)))
    marginal = dist.marginal(0)
    assert not marginal.flags.writeable and np.shares_memory(marginal, dist.probs)

    def stats():
        m = dist.marginal(0)
        circular_variance(m, circular_mean(m))
    assert _traced_peak(stats) <= 2 * 2 ** 20  # block temporaries only, whatever N is


def test_marginal_axis_must_name_a_lattice_axis():
    # at d=2 an axis outside [0, d) once summed over every axis, giving the total mass
    spec = ProblemSpec(d=2, N=8, n_o=8, l=1.0, m=1.0)
    dist = outcome_distribution(fourier_transform(build_phase_state(linear([0.125, -0.25]), spec)))
    for axis in (-1, 2, 5):
        with pytest.raises(ValueError, match="axis"):
            dist.marginal(axis)
    for axis in (1.0, True, "0"):
        with pytest.raises(ValueError, match="integer"):
            dist.marginal(axis)
    for axis in range(spec.d):
        marginal = dist.marginal(np.int64(axis))
        assert marginal.shape == (spec.N,) and not marginal.flags.writeable
        assert np.array_equal(marginal, dist.reshaped().sum(axis=1 - axis))


def test_run_calls_each_stage_through_qsim_globals(monkeypatch):
    # perfbench's per-layer tracing wraps these qsim globals; the run must look them up
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("fourier_transform", "outcome_distribution", "circular_variance", "sample"):
        monkeypatch.setattr(qsim, name, counted(name, getattr(qsim, name)))
    spec = ProblemSpec(d=2, N=16, n_o=8, l=1.0, m=1.0)
    run_gradient_estimation(quadratic([0.1, -0.2], [[0.2, 0.05], [0.05, -0.1]]), spec, shots=10)
    assert calls == {"fourier_transform": 1, "outcome_distribution": 1, "circular_variance": spec.d, "sample": 1}


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
    before = grid.amps.copy()
    forward = fourier_transform(grid)
    # the inverse of the unitary transform F is a -> conj(F(conj(a)))
    back = fourier_transform(replace(forward, amps=forward.amps.conj())).amps.conj()
    assert np.max(np.abs(back - grid.amps)) < 1e-10
    assert np.array_equal(grid.amps, before)  # the transform leaves its input unchanged


@pytest.mark.parametrize("N,d", [(2 ** 12, 1), (48, 2), (17, 2), (19, 2), (17 * 19, 1)])
def test_transform_into_its_own_buffer_gives_the_same_bits(N, d):
    grid = random_grid(N, d, seed=N + d)
    expected = fourier_transform(grid).amps
    buf = grid.amps.copy()
    out = fourier_transform(AmplitudeGrid(grid.spec, buf), out=buf)
    assert np.shares_memory(out.amps, buf)
    assert np.array_equal(out.amps, expected)
    with pytest.raises(ValueError):
        fourier_transform(grid, out=np.empty(grid.spec.size + 1, dtype=complex))


@pytest.mark.parametrize("N,d", [(4, 1), (6, 2), (16, 1), (5, 2)])
def test_unitarity_preserves_norm(N, d):
    grid = random_grid(N, d, seed=N * 10 + d)
    out = fourier_transform(grid)
    assert abs(np.linalg.norm(out.amps) - 1.0) < 1e-10


@pytest.mark.parametrize("N,d", [(4, 1), (6, 2), (16, 1), (13, 1), (7, 2)])
def test_fast_path_agrees_with_brute_force(N, d):
    grid = random_grid(N, d, seed=100 + N + d)
    fast = fourier_transform(grid)
    slow = brute_force_transform(grid)
    assert np.max(np.abs(fast.amps - slow.amps)) <= 1e-10


def test_brute_force_guard():
    grid = AmplitudeGrid(lattice(1, 8192), np.ones(8192) / np.sqrt(8192))
    with pytest.raises(ValueError):
        brute_force_transform(grid)


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


@pytest.mark.parametrize("N,d", [(8, 1), (300, 2), (BLOCK_POINTS + 5, 1)])
def test_probabilities_into_the_state_buffer_give_the_same_bits(N, d):
    grid = random_grid(N, d, seed=N)
    expected = outcome_distribution(grid).probs
    buf = grid.amps.copy()
    dist = outcome_distribution(AmplitudeGrid(grid.spec, buf), out=buf.view(float)[: grid.spec.size])
    assert np.shares_memory(dist.probs, buf)
    assert np.array_equal(dist.probs, expected)


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
    for shots in (0, -1, 2.5, True, "3"):
        with pytest.raises(ValueError):
            sample(dist, shots=shots, seed=0)
    # a run takes shots = 0 (no sampling) but no negative or non-integer count
    spec = ProblemSpec(d=1, N=8, n_o=4, l=1.0, m=1.0)
    for shots in (-5, 2.5, True):
        with pytest.raises(ValueError, match="shots"):
            run_gradient_estimation(linear([0.25]), spec, shots=shots)


def test_sample_rejects_unusable_weights():
    spec = lattice(1, 8)
    for probs in (np.zeros(8), [0.5, np.inf, 0, 0, 0, 0, 0, 0], [0.5, np.nan, 0, 0, 0, 0, 0, 0],
                  [0.5, -0.1, 0.6, 0, 0, 0, 0, 0]):
        with pytest.raises(ValueError, match="weights"):
            sample(qsim.OutcomeDistribution(spec, probs), shots=10, seed=0)


def _sampling_cases():
    rng = np.random.default_rng(5)
    sparse = np.zeros(200)
    sparse[[3, 64, 65, 199]] = [1e-3, 0.5, 0.25, 2.0]
    last = np.zeros(150)
    last[-1] = 1.0
    straddle = rng.random(130)
    straddle[60:72] = 0.0  # a zero run across the block edges at 63 and 64 (7 and 64 points)
    return [
        pytest.param(rng.random(257), (257,), id="random"),
        pytest.param(sparse, (200,), id="sparse"),
        pytest.param(last, (150,), id="last"),
        pytest.param(straddle, (130,), id="straddle"),
        pytest.param(rng.random(12 * 12) ** 4, (12, 12), id="d2"),
        pytest.param(np.eye(9).reshape(-1) * np.arange(81), (9, 9), id="d2_sparse"),
    ]


@pytest.mark.parametrize("block", [1, 7, 64])
@pytest.mark.parametrize("probs,shape", _sampling_cases())
def test_blocked_sampling_matches_generator_choice(monkeypatch, block, probs, shape):
    monkeypatch.setattr(qsim, "BLOCK_POINTS", block)
    spec = ProblemSpec(d=len(shape), N=shape[0], n_o=8, l=1.0, m=1.0)
    dist = qsim.OutcomeDistribution(spec, probs)
    for seed in (0, 1, 2):
        assert np.array_equal(sample(dist, shots=2000, seed=seed), choice_draws(probs, shape, 2000, seed))


def test_run_rejects_unrepresentable_gradient_before_building():
    # the true gradient is checked before any query, so f is never evaluated
    def no_queries(points):
        raise AssertionError("f evaluated before the gradient check")

    spec = ProblemSpec(d=1, N=8, n_o=4, l=1.0, m=1.0)
    for g in (np.inf, np.nan):
        f = replace(linear([0.25]), eval=no_queries, grad=lambda x, g=g: np.array([g]))
        with pytest.raises(ValueError):
            run_gradient_estimation(f, spec, shots=0)


# --- circular statistics on the periodic lattice ---

def test_wrap_signed_shorter_arc():
    assert wrap_signed(7, 8) == pytest.approx(-1.0)
    assert wrap_signed(-5, 8) == pytest.approx(3.0)
    assert wrap_signed(3, 8) == pytest.approx(3.0)


def test_circular_stats_point_mass():
    probs = np.zeros(16)
    probs[5] = 1.0
    assert circular_mean(probs) == pytest.approx(5.0)
    assert circular_variance(probs, circular_mean(probs)) == pytest.approx(0.0, abs=1e-20)


def test_circular_mean_never_returns_N():
    # the resultant's angle is a tiny negative number, which % N rounds to N
    probs = np.zeros(16)
    probs[0], probs[15] = 1.0, 1e-18
    assert circular_mean(probs) == 0.0
    assert circular_variance(probs, circular_mean(probs)) == pytest.approx(1e-18)


def test_circular_stats_reject_unusable_weights():
    # not one axis of at least one weight, or a sum that cannot normalize them
    signed = np.tile([1.0, -1.0], 8)
    with_inf = np.ones(16)
    with_inf[3] = np.inf
    with_nan = np.ones(16)
    with_nan[3] = np.nan
    cases = (np.ones((4, 4)), np.ones(0), np.zeros(16), signed, with_inf, with_nan)
    for stat in (circular_mean, lambda w: circular_variance(w, 0.0)):
        for w in cases:
            with pytest.raises(ValueError, match="expected"):
                stat(w)
    # a given mean past the |mean| + 2N < 2**52 limit of exact wrapping
    point = np.zeros(8)
    point[3] = 1.0
    for mean in (2.0 ** 60, -2.0 ** 60, np.inf, np.nan):
        with pytest.raises(ValueError, match="mean"):
            circular_variance(point, mean)


def test_circular_stats_straddle_the_wrap():
    # equal mass on k=0 and k=15: mean sits at 15.5, each point 0.5 away
    probs = np.zeros(16)
    probs[0] = probs[15] = 0.5
    mu = circular_mean(probs)
    assert mu == pytest.approx(15.5)
    assert circular_variance(probs, mu) == pytest.approx(0.25)


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
