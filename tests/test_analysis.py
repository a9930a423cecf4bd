"""Tests for the analytic predictors: peak widths, support geometry, precision bits."""
import math
import warnings

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
    assert abs(np.linalg.det(pred.support_matrix)) == pytest.approx(0.0)


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


def test_a_hessian_whose_squares_overflow():
    # the 1D benchmark at l = 1e-300: f'' = 2*m*alpha/l = 5e299, whose square
    # once overflowed to a printed sigma_pred of inf; sigma_grad is m*alpha/sqrt(3)
    spec = spec_for(N=256, l=1e-300, m=0.5)
    pred = stationary_phase_sigma([[2 * spec.m * 0.5 / spec.l]], spec)
    assert pred.sigma_grad[0] == pytest.approx(0.5 * 0.5 / math.sqrt(3), rel=1e-12)
    # a spread or support matrix beyond the floats is rejected, not returned as inf
    for H in ([[1e308]], [[1e300, 1e300], [1e300, 1e300]]):
        with pytest.raises(ValueError, match="beyond the floats"):
            stationary_phase_sigma(H, spec_for(N=256, d=len(H), l=1e9, m=1.0))


def test_asymmetric_hessian_rejected():
    with pytest.raises(ValueError):
        stationary_phase_sigma([[1.0, 0.5], [0.0, 1.0]], spec_for(d=2))


def test_one_symmetry_tolerance_for_prediction_and_function():
    # an asymmetry of 1e-10 relative passes neither check; one of 1e-13 passes both
    spec = spec_for(d=2)
    for eps, accepted in ((1e-10, False), (1e-13, True)):
        H = [[1.0, 0.5 + eps], [0.5, 1.0]]
        for check in (lambda: stationary_phase_sigma(H, spec), lambda: quadratic([0.0, 0.0], H)):
            if accepted:
                check()
            else:
                with pytest.raises(ValueError, match="symmetric"):
                    check()


def test_hessian_must_be_finite():
    # a NaN Hessian was reported as asymmetric, and an infinite one was accepted
    spec = spec_for(d=2)
    for bad in (np.nan, np.inf, -np.inf):
        for H in ([[bad, 0.0], [0.0, 1.0]], [[1.0, bad], [bad, 1.0]]):
            for check in (lambda: stationary_phase_sigma(H, spec), lambda: quadratic([0.0, 0.0], H)):
                with pytest.raises(ValueError, match="H must be finite"):
                    check()


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


def test_membership_rejects_k_that_is_not_finite():
    # inf once warned "invalid value encountered in matmul", nan gave False
    pred = stationary_phase_sigma(0.01 * np.eye(2), spec_for(d=2))
    for k in ([[np.inf, 0.0]], [[np.nan, 0.0]], [[0.0, 0.0], [1.0, -np.inf]]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="k must be finite") as info:
                support_membership(k, pred, slack=1.5)
        assert "\n" not in str(info.value)


def test_membership_masks_equal_the_max_of_the_distances():
    # the running column maximum gives the bits of a max over the last axis
    spec = ProblemSpec(d=3, N=32, n_o=8, l=40.0, m=1.0)
    pred = stationary_phase_sigma(np.array([[0.02, 0.01, 0.0], [0.01, -0.03, 0.005], [0.0, 0.005, 0.01]]), spec)
    k = np.random.default_rng(5).uniform(-16, 16, size=(4000, 3))
    A = pred.support_matrix
    nearest = np.clip(k @ np.linalg.pinv(A).T, -0.5, 0.5) @ A.T
    for slack in (0.0, 0.5, 1.5, 3.0):
        expected = np.max(np.abs(nearest - k), axis=-1) <= slack + 1e-12
        assert np.array_equal(support_membership(k, pred, slack=slack), expected)
        assert 0 < expected.sum() < len(k)


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


def test_precision_bits_reject_non_finite_inputs():
    # each of these once returned nan or inf, or raised "math domain error"
    good = dict(f_max=1.0, f_min=0.0, m=1.0, l=1.0, n=4.0)
    bad = [("n", math.nan), ("n", math.inf), ("f_max", math.inf), ("f_max", math.nan),
           ("f_min", -math.inf), ("f_min", math.nan), ("m", math.inf), ("m", math.nan),
           ("l", math.inf), ("l", -1.0)]
    for name, value in bad:
        args = {**good, name: value}
        with pytest.raises(ValueError, match="finite"):
            classical_precision_bits(**args)
        with pytest.raises(ValueError, match="finite"):
            quantum_precision_bits(**args, theta=math.pi / 8)


def test_precision_bits_of_finite_inputs_whose_intermediates_overflow():
    # f_max - f_min overflows, 2**n overflows, m*l underflows to 0
    assert classical_precision_bits(1e308, -1e308, 1.0, 1.0, 4) == pytest.approx(math.log2(1e308) + 1 + 4)
    assert classical_precision_bits(1.0, 0.0, 1.0, 1.0, 2000) == pytest.approx(2000.0)
    assert classical_precision_bits(1.0, 0.0, 1e-300, 1e-300, 4) == pytest.approx(4 - 2 * math.log2(1e-300))
    assert quantum_precision_bits(1e308, -1e308, 1e-300, 1e-300, 2000, math.pi / 8) == pytest.approx(
        math.log2(1e308) + 1 + 2000 - 2 * math.log2(1e-300) + 4)


def test_quantum_bits_reject_theta_whose_reciprocal_overflows():
    # 2*pi/theta was inf, and so was the answer
    with pytest.raises(ValueError, match="theta"):
        quantum_precision_bits(2, 1, 1, 1, 4, theta=5e-324)
    assert math.isfinite(quantum_precision_bits(2, 1, 1, 1, 4, theta=2 * math.pi / 1.7e308))


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


def test_optimal_width_rejects_non_finite_and_non_integer_inputs():
    # sigma=inf once gave an infinite width, d2 or d3 = inf a width of 0.0
    for sigma in (math.inf, math.nan):
        for mode in ("classical", "quantum"):
            with pytest.raises(ValueError, match="sigma"):
                optimal_l(sigma, d2=1.0, d3=1.0, mode=mode)
    for value in (math.inf, math.nan, 0.0):
        with pytest.raises(ValueError, match="d3"):
            optimal_l(0.1, d3=value, mode="classical")
        with pytest.raises(ValueError, match="d2"):
            optimal_l(0.1, d2=value, mode="quantum")
    for d in (2.5, True, "2"):
        with pytest.raises(ValueError, match="integer"):
            optimal_l(0.1, d2=1.0, d=d, mode="quantum")
    for d in (0, -3):
        with pytest.raises(ValueError, match="d must be >= 1"):
            optimal_l(0.1, d2=1.0, d=d, mode="quantum")


@pytest.mark.parametrize("args,names", [
    ((1.0, 5e-324), "sigma = 1.0 over d2 = 5e-324"),
    ((1e308, 1.0), "sigma = 1e+308 over d2 = 1.0"),
    ((1.0, None, 5e-324, 1, "classical"), "sigma = 1.0 over d3 = 5e-324"),
    ((1e-300, 1e300), "sigma = 1e-300 over d2 = 1e+300"),
])
def test_optimal_width_rejects_a_width_beyond_the_floats(args, names):
    # finite inputs whose width overflowed to inf, or underflowed to 0.0
    with pytest.raises(ValueError, match="positive and finite") as info:
        optimal_l(*args)
    assert str(info.value).startswith(names)


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
    assert 0.8 <= median_density * abs(np.linalg.det(pred.support_matrix)) <= 1.2
