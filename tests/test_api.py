"""The public API: adding or removing a name, a field or a parameter is a deliberate edit here."""
import inspect
from dataclasses import fields

import qgrad

PUBLIC = {
    "ProblemSpec", "encode_input", "fixed_point", "quantize_output", "decode_outcome",
    "signed_index", "nearest_lattice_index", "round_half_up", "lattice_points",
    "TestFunction", "CATALOG", "linear", "quadratic", "cubic_1d", "sinusoid", "scanned_range",
    "AmplitudeGrid", "OutcomeDistribution", "GradientEstimationReport", "build_phase_state",
    "fourier_transform", "outcome_distribution", "sample", "run_gradient_estimation",
    "ideal_planewave", "ideal_state_fidelity", "apply_phase_error", "circular_mean",
    "circular_variance", "wrap_signed",
    "ClassicalReport", "ScalingFit", "forward_difference", "central_difference",
    "error_scaling_fit",
    "SigmaPrediction", "stationary_phase_sigma", "support_membership",
    "classical_precision_bits", "quantum_precision_bits", "success_probability_bound",
    "optimal_l",
    "__version__",
}


def test_public_api_is_pinned():
    assert set(qgrad.__all__) == PUBLIC
    assert len(qgrad.__all__) == len(PUBLIC)  # no name listed twice
    for name in PUBLIC:
        assert hasattr(qgrad, name), name


def test_single_form_types_are_pinned():
    # a function is its callbacks, with no declared range and no call shortcut
    assert [f.name for f in fields(qgrad.TestFunction)] == ["name", "d", "eval", "grad", "hess"]
    assert "__call__" not in vars(qgrad.TestFunction)
    assert [f.name for f in fields(qgrad.AmplitudeGrid)] == ["spec", "amps"]
    # forward only; `out` is keyword-only
    params = inspect.signature(qgrad.fourier_transform).parameters
    assert [(p.name, p.kind) for p in params.values()] == [
        ("grid", inspect.Parameter.POSITIONAL_OR_KEYWORD),
        ("out", inspect.Parameter.KEYWORD_ONLY),
    ]
