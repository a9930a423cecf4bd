"""Acceptance gate: every criterion at its stated tolerance, one line per result.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""
import math
from contextlib import contextmanager

import numpy as np
import pytest

from qgrad import (
    AmplitudeGrid,
    ProblemSpec,
    apply_phase_error,
    build_phase_state,
    central_difference,
    classical_precision_bits,
    cubic_1d,
    encode_input,
    error_scaling_fit,
    forward_difference,
    fourier_transform,
    lattice_points,
    linear,
    outcome_distribution,
    quadratic,
    quantum_precision_bits,
    run_gradient_estimation,
    signed_index,
    stationary_phase_sigma,
    support_membership,
)
from oracles import brute_force_transform, counted, ideal_planewave, ideal_state_fidelity


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"{label}: FAIL")
        raise
    print(f"{label}: PASS")


def quadratic_bench(alpha, N, n_o=16, m=1.0):
    """1D curvature benchmark: f'' = 1, l = 2*m*alpha."""
    spec = ProblemSpec(d=1, N=N, n_o=n_o, l=2.0 * m * alpha, m=m)
    return quadratic([0.0], [[1.0]]), spec


# Exactly-quantizing planewave setups per lattice size: nu with N | N_o * nu.
EXACT_CASES = {8: (3, -2, 5), 80: (5, -10, 6), 128: (7, -3, 9)}


def test_a1_single_query_accounting():
    with criterion("[A1] single query for any d, d+1 / 2d classically"):
        for d, N in ((1, 8), (2, 8), (3, 8), (5, 4), (8, 2)):
            spec = ProblemSpec(d=d, N=N, n_o=4, l=1.0, m=1.0)
            # the calls made: a one-block lattice is one eval call on every lattice point
            f, batches = counted(linear(np.full(d, 0.1)))
            report = run_gradient_estimation(f, spec, shots=0)
            assert report.query_count == len(batches) == 1
            assert np.array_equal(batches[0], encode_input(lattice_points(spec), spec))
            batches.clear()
            assert forward_difference(f, spec.x0, spec.l).queries == len(batches) == d + 1
            batches.clear()
            assert central_difference(f, spec.x0, spec.l).queries == len(batches) == 2 * d


def test_a2_exact_linear_probability_one():
    with criterion("[A2] exactly representable linear case is deterministic"):
        for N, (nu1, nu2, n_o) in EXACT_CASES.items():
            spec1 = ProblemSpec(d=1, N=N, n_o=n_o, l=1.0, m=1.0)
            rep1 = run_gradient_estimation(linear([nu1 / N]), spec1, shots=0)
            assert rep1.success_probability == pytest.approx(1.0, abs=1e-9)
            assert rep1.mode_index.tolist() == [nu1 % N]

            spec2 = ProblemSpec(d=2, N=N, n_o=n_o, l=1.0, m=1.0)
            rep2 = run_gradient_estimation(linear([nu1 / N, nu2 / N]), spec2, shots=0)
            assert rep2.success_probability == pytest.approx(1.0, abs=1e-9)
            assert rep2.mode_index.tolist() == [nu1 % N, nu2 % N]


def _sweep_points():
    points = [(0.02, N) for N in (16, 32, 64, 128, 256)]
    points += [(a, 80) for a in (0.005, 0.01, 0.02, 0.03, 0.04, 0.05)]
    return points


def test_a3_width_sweeps_match_prediction():
    with criterion("[A3] 1D width sweeps within 25% of the prediction"):
        gated = 0
        for alpha, N in _sweep_points():
            f, spec = quadratic_bench(alpha, N)
            report = run_gradient_estimation(f, spec, shots=0)
            assert abs(report.distribution.probs.sum() - 1.0) <= 1e-10
            predicted = alpha * N / math.sqrt(3.0)
            measured = float(report.sigma_k_measured[0])
            if 1.0 <= predicted <= N / 6.0:  # peak resolvable and unwrapped
                gated += 1
                assert abs(measured - predicted) <= 0.25 * predicted, (
                    f"alpha={alpha} N={N}: measured {measured}, predicted {predicted}")
        assert gated >= 4  # the band is exercised, not vacuous


def test_a4_peak_shape_mass_fractions():
    with criterion("[A4] 2D peak mass inside/outside the predicted square"):
        for N in (64, 128):
            spec = ProblemSpec(d=2, N=N, n_o=16, l=100.0, m=1.0)
            H = (spec.m / spec.N) * 0.1 * np.array([[1.0, 1.0], [1.0, -1.0]])
            dist = outcome_distribution(
                fourier_transform(build_phase_state(quadratic([0.0, 0.0], H), spec)))
            assert abs(dist.probs.sum() - 1.0) <= 1e-10
            pred = stationary_phase_sigma(H, spec)
            ks = signed_index(np.arange(N), N)
            K1, K2 = np.meshgrid(ks, ks, indexing="ij")
            signed = np.stack([K1, K2], axis=-1).reshape(-1, 2)
            inside = support_membership(signed, pred, slack=1.5)
            inside_outer = support_membership(signed, pred, slack=3.0)
            mass_inside = float(dist.probs[inside].sum())
            mass_outside = float(dist.probs[~inside_outer].sum())
            assert mass_inside >= 0.80, f"N={N}: mass inside {mass_inside}"
            assert mass_outside <= 0.10, f"N={N}: mass outside {mass_outside}"


def test_a5_phase_robustness_bound():
    with criterion("[A5] 1000 bounded-noise trials respect the fidelity bound"):
        theta = math.pi / 8
        N = 32
        spec = ProblemSpec(d=1, N=N, n_o=5, l=1.0, m=1.0)
        rng = np.random.default_rng(2024)
        min_fid, min_success = 1.0, 1.0
        for _ in range(1000):
            nu = int(rng.integers(-N // 2, N // 2))
            g = [nu / N]
            noisy = apply_phase_error(ideal_planewave(g, spec),
                                      rng.uniform(-theta, theta, N))
            min_fid = min(min_fid, ideal_state_fidelity(noisy, g))
            probs = outcome_distribution(fourier_transform(noisy)).probs
            min_success = min(min_success, float(probs[nu % N]))
        assert min_fid >= math.cos(theta) - 1e-12
        assert min_success >= math.cos(theta) ** 2 - 1e-12
        assert math.cos(theta) ** 2 == pytest.approx(0.8535533905932737)


def test_a6_precision_bit_gap():
    with criterion("[A6] quantum-classical precision gap is log2(2*pi/theta)"):
        rng = np.random.default_rng(7)
        for _ in range(500):
            f_min = float(rng.uniform(-4, 4))
            f_max = f_min + float(rng.uniform(1e-3, 8.0))
            m = float(rng.uniform(1e-2, 5.0))
            l = float(rng.uniform(1e-2, 5.0))
            n = int(rng.integers(0, 16))
            theta = float(rng.uniform(1e-3, 2 * math.pi))
            gap = quantum_precision_bits(f_max, f_min, m, l, n, theta) - \
                classical_precision_bits(f_max, f_min, m, l, n)
            assert abs(gap - math.log2(2 * math.pi / theta)) <= 1e-12
        gap_pi8 = quantum_precision_bits(1.0, 0.0, 1.0, 1.0, 8, math.pi / 8) - \
            classical_precision_bits(1.0, 0.0, 1.0, 1.0, 8)
        assert abs(gap_pi8 - 4.0) <= 1e-12


def test_a7_transform_oracle_equivalence():
    with criterion("[A7] fast transform equals brute force, unitary to 1e-10"):
        rng = np.random.default_rng(123)
        for _ in range(200):
            d = int(rng.integers(1, 3))
            N = int(rng.integers(2, 17))
            amps = rng.normal(size=N ** d) + 1j * rng.normal(size=N ** d)
            amps /= np.linalg.norm(amps)
            grid = AmplitudeGrid(ProblemSpec(d=d, N=N, n_o=8, l=1.0, m=1.0), amps)
            fast = fourier_transform(grid)
            slow = brute_force_transform(grid)
            assert np.max(np.abs(fast.amps - slow.amps)) <= 1e-10
            assert abs(np.linalg.norm(fast.amps) - 1.0) <= 1e-10


def test_a8_classical_error_laws():
    with criterion("[A8] central differences: exact quadratics, slope-2 cubics"):
        rng = np.random.default_rng(5)
        for _ in range(20):
            d = int(rng.integers(1, 4))
            A = rng.normal(size=(d, d))
            f = quadratic(rng.normal(size=d), A + A.T, c=float(rng.normal()))
            x = rng.normal(size=d)
            rep = central_difference(f, x, float(rng.uniform(0.01, 1.0)))
            true = f.grad(x)
            rel = np.max(np.abs(rep.gradient_estimate - true)) / max(1.0, np.max(np.abs(true)))
            assert rel <= 1e-12
        slope = error_scaling_fit(cubic_1d(1.0), [0.0], np.logspace(-2, 0, 8), method="central")
        assert not np.isnan(slope)
        assert abs(slope - 2.0) <= 0.1


def test_a9_gradient_unit_width_independent_of_lattice():
    with criterion("[A9] gradient-unit width: exact prediction, <25% drift measured"):
        sizes = (32, 64, 128, 256, 512)
        alpha, m = 0.06, 1.0
        H = [[1.0]]
        predictions, measured = [], []
        for N in sizes:
            f, spec = quadratic_bench(alpha, N, m=m)
            predictions.append(stationary_phase_sigma(H, spec).sigma_grad[0])
            report = run_gradient_estimation(f, spec, shots=0)
            measured.append(float(report.sigma_grad_measured[0]))
        predictions = np.array(predictions)
        assert np.max(np.abs(predictions - predictions[0])) <= 1e-12
        drift = max(measured) / min(measured) - 1.0
        assert drift < 0.25, f"measured spread drifts by {drift:.3%} across N"
