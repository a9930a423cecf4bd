"""Tests for the analytic predictors: peak widths, support geometry, precision bits."""
import math

import numpy as np
import pytest

from qgrad import (
    ProblemSpec,
    build_phase_state,
    classical_precision_bits,
    fourier_transform,
    optimal_l,
    outcome_distribution,
    quadratic,
    quantum_precision_bits,
    signed_index,
    stationary_phase_sigma,
    success_probability_bound,
    support_membership,
)


def spec_for(N=80, d=1, l=1.0, m=1.0):
    return ProblemSpec(d=d, N=N, n_o=8, l=l, m=m)


# --- stationary-phase widths ---

def test_zero_hessian_degenerate_prediction():
    pred = stationary_phase_sigma(np.zeros((2, 2)), spec_for(d=2))
    assert pred.sigma_k == pytest.approx([0.0, 0.0])
    assert pred.sigma_grad == pytest.approx([0.0, 0.0])
    assert pred.support_volume == pytest.approx(0.0)


def test_one_dimensional_reduction():
    # alpha = (l/2m) f'' = 0.02 at N=80: sigma_k^2 = alpha^2 N^2 / 3
    spec = spec_for(N=80, l=1.0, m=1.0)
    fpp = 2 * spec.m * 0.02 / spec.l
    pred = stationary_phase_sigma([[fpp]], spec)
    assert pred.sigma_k[0] ** 2 == pytest.approx(0.85333333333, rel=1e-9)


def test_supported_square_geometry():
    # (N/m) H = 0.1*[[1,1],[1,-1]]: support is a square of side sqrt(2)/10 * l
    # rotated 45 degrees
    spec = spec_for(N=128, d=2, l=40.0)
    H = (spec.m / spec.N) * 0.1 * np.array([[1.0, 1.0], [1.0, -1.0]])
    pred = stationary_phase_sigma(H, spec)
    A = pred.support_matrix
    corners = 0.5 * np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=float)
    images = corners @ A.T
    r = 0.1 * spec.l
    expected = {(r, 0.0), (0.0, r), (0.0, -r), (-r, 0.0)}
    assert {(round(p[0], 9), round(p[1], 9)) for p in images} == expected
    side = np.linalg.norm(images[0] - images[1])
    assert side == pytest.approx(math.sqrt(2) / 10 * spec.l)


def test_sigma_consistency_between_units():
    spec = spec_for(N=64, d=2, l=0.5, m=2.0)
    H = np.array([[0.3, 0.1], [0.1, -0.2]])
    pred = stationary_phase_sigma(H, spec)
    assert pred.sigma_grad == pytest.approx((spec.m / spec.N) * pred.sigma_k)
    assert pred.sigma_k ** 2 == pytest.approx((pred.support_matrix ** 2).sum(axis=1) / 12.0)


def test_asymmetric_hessian_rejected():
    with pytest.raises(ValueError):
        stationary_phase_sigma([[1.0, 0.5], [0.0, 1.0]], spec_for(d=2))


def test_sigma_grad_independent_of_lattice_size():
    H = np.array([[0.7, 0.2], [0.2, -0.4]])
    values = []
    for N in (32, 64, 128, 256, 512):
        spec = ProblemSpec(d=2, N=N, n_o=8, l=0.3, m=1.0)
        values.append(stationary_phase_sigma(H, spec).sigma_grad)
    base = values[0]
    for v in values[1:]:
        assert np.max(np.abs(v - base)) < 1e-12


# --- support membership ---

def test_origin_is_inside_any_nonsingular_region():
    pred = stationary_phase_sigma(0.01 * np.eye(2), spec_for(d=2))
    assert support_membership([0.0, 0.0], pred, slack=0.0)


def test_membership_inside_and_outside():
    spec = ProblemSpec(d=2, N=10, n_o=4, l=1.0, m=1.0)
    H = (2.0 * spec.m) / (spec.N * spec.l) * np.eye(2)  # A = 2I
    pred = stationary_phase_sigma(H, spec)
    assert support_membership([0.9, 0.9], pred, slack=0.0)   # u = (0.45, 0.45)
    assert not support_membership([1.2, 0.0], pred, slack=0.0)  # u1 = 0.6
    assert support_membership([1.2, 0.0], pred, slack=0.25)


def test_membership_degenerate_hessian():
    pred = stationary_phase_sigma(np.zeros((2, 2)), spec_for(d=2))
    assert support_membership([0.0, 0.0], pred, slack=0.0)
    assert not support_membership([1.0, 0.0], pred, slack=0.5)
    assert support_membership([1.0, 0.0], pred, slack=1.0)


def test_membership_vectorized():
    spec = ProblemSpec(d=2, N=10, n_o=4, l=1.0, m=1.0)
    H = (2.0 * spec.m) / (spec.N * spec.l) * np.eye(2)
    pred = stationary_phase_sigma(H, spec)
    flags = support_membership(np.array([[0.0, 0.0], [1.2, 0.0]]), pred, slack=0.0)
    assert flags.tolist() == [True, False]


def test_membership_has_one_return_type():
    # a bool array of shape np.shape(k)[:-1], 0-d for one point
    spec = ProblemSpec(d=2, N=10, n_o=4, l=1.0, m=1.0)
    pred = stationary_phase_sigma((2.0 * spec.m) / (spec.N * spec.l) * np.eye(2), spec)
    for k in ([0.0, 0.0], np.zeros((3, 2)), np.zeros((2, 4, 2))):
        flags = support_membership(k, pred, slack=0.0)
        assert isinstance(flags, np.ndarray) and flags.dtype == bool
        assert flags.shape == np.shape(k)[:-1]
    one_d = stationary_phase_sigma([[0.5]], ProblemSpec(d=1, N=10, n_o=4, l=1.0, m=1.0))
    assert support_membership(0.0, one_d, slack=0.0).shape == ()


def test_membership_rejects_unusable_slack():
    # a NaN or negative slack put every point outside the region
    pred = stationary_phase_sigma(0.01 * np.eye(2), spec_for(d=2))
    for slack in (np.nan, -5.0, -1e-9, np.inf):
        with pytest.raises(ValueError, match="slack"):
            support_membership([0.0, 0.0], pred, slack=slack)


# --- precision budgets ---

def test_classical_bits_unit_case():
    assert classical_precision_bits(1.0, 0.0, 1.0, 1.0, 0) == pytest.approx(0.0)


def test_classical_bits_value():
    # log2(1 / (1*0.1/256)) = log2(2560)
    assert classical_precision_bits(1.0, 0.0, 1.0, 0.1, 8) == pytest.approx(
        11.321928094887362, abs=1e-12
    )


def test_each_extra_output_bit_costs_one_input_bit():
    for n in range(0, 12):
        delta = classical_precision_bits(2.0, -1.0, 1.0, 0.5, n + 1) - classical_precision_bits(
            2.0, -1.0, 1.0, 0.5, n
        )
        assert delta == pytest.approx(1.0, abs=1e-12)


def test_quantum_bits_pi_eighth_adds_four():
    q = quantum_precision_bits(1.0, 0.0, 1.0, 1.0, 8, math.pi / 8)
    assert q == pytest.approx(8.0 + 4.0, abs=1e-12)


def test_quantum_bits_formal_identity_at_two_pi():
    c = classical_precision_bits(3.0, 0.5, 2.0, 0.4, 6)
    q = quantum_precision_bits(3.0, 0.5, 2.0, 0.4, 6, 2 * math.pi)
    assert q == pytest.approx(c, abs=1e-12)


def test_precision_gap_identity_randomized():
    rng = np.random.default_rng(31)
    for _ in range(300):
        f_min = rng.uniform(-5, 5)
        f_max = f_min + rng.uniform(1e-3, 10.0)
        m = rng.uniform(1e-2, 10.0)
        l = rng.uniform(1e-2, 10.0)
        n = int(rng.integers(0, 20))
        theta = rng.uniform(1e-3, 2 * math.pi)
        gap = quantum_precision_bits(f_max, f_min, m, l, n, theta) - classical_precision_bits(
            f_max, f_min, m, l, n
        )
        assert abs(gap - math.log2(2 * math.pi / theta)) < 1e-12


def test_precision_input_validation():
    with pytest.raises(ValueError):
        classical_precision_bits(1.0, 1.0, 1.0, 1.0, 4)
    with pytest.raises(ValueError):
        quantum_precision_bits(1.0, 0.0, 1.0, 1.0, 4, 0.0)
    with pytest.raises(ValueError):
        quantum_precision_bits(1.0, 0.0, 1.0, 1.0, 4, 7.0)


# --- success bound and optimal width ---

def test_success_bound_values():
    assert success_probability_bound(0.0) == pytest.approx(1.0)
    assert success_probability_bound(math.pi / 8) == pytest.approx(0.8535533905932737)
    assert success_probability_bound(math.pi / 4) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        success_probability_bound(math.pi / 2)
    with pytest.raises(ValueError):
        success_probability_bound(-0.1)


def test_optimal_width_frozen_cases():
    # classical: 2*sqrt(6*(D3/24)/D3) = 1; quantum: 2*sqrt(3)*(D2/(2 sqrt 3)))/D2 = 1
    d3 = 0.7
    assert optimal_l(d3 / 24.0, d3=d3, mode="classical") == pytest.approx(1.0)
    d2 = 1.9
    assert optimal_l(d2 / (2 * math.sqrt(3)), d2=d2, d=1, mode="quantum") == pytest.approx(1.0)


def test_optimal_width_scales_inverse_sqrt_d():
    base = optimal_l(0.1, d2=1.0, d=1, mode="quantum")
    for d in (2, 4, 9):
        assert optimal_l(0.1, d2=1.0, d=d, mode="quantum") == pytest.approx(base / math.sqrt(d))


def test_optimal_width_validation():
    with pytest.raises(ValueError):
        optimal_l(0.1, mode="classical")
    with pytest.raises(ValueError):
        optimal_l(0.1, mode="quantum")
    with pytest.raises(ValueError):
        optimal_l(0.1, d2=1.0, mode="other")


# --- stationary-phase normalization sanity against simulation ---

def test_predicted_region_mass_density():
    # a flat peak of height 1/|det A| over |det A| cells should carry mass ~ 1
    spec = ProblemSpec(d=2, N=128, n_o=16, l=100.0, m=1.0)
    H = (spec.m / spec.N) * 0.1 * np.array([[1.0, 1.0], [1.0, -1.0]])
    pred = stationary_phase_sigma(H, spec)
    dist = outcome_distribution(fourier_transform(build_phase_state(quadratic([0, 0], H), spec)))
    ks = signed_index(np.arange(spec.N), spec.N)
    K1, K2 = np.meshgrid(ks, ks, indexing="ij")
    signed = np.stack([K1, K2], axis=-1).reshape(-1, 2)
    inside = support_membership(signed, pred, slack=0.0)
    median_density = float(np.median(dist.probs[inside]))
    assert 0.8 <= median_density * pred.support_volume <= 1.2
