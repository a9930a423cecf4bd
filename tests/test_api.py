"""The public API: adding or removing a name, a field or a parameter is a deliberate edit here."""
import dataclasses
import inspect
from dataclasses import fields

import qgrad

PUBLIC = {
    "ProblemSpec", "encode_input", "fixed_point", "quantize_output", "decode_outcome",
    "signed_index", "nearest_lattice_index", "lattice_points",
    "TestFunction", "linear", "quadratic", "cubic_1d", "sinusoid", "scanned_range",
    "AmplitudeGrid", "OutcomeDistribution", "GradientEstimationReport", "build_phase_state",
    "fourier_transform", "outcome_distribution", "sample", "run_gradient_estimation",
    "apply_phase_error", "circular_mean", "circular_variance", "wrap_signed",
    "ClassicalReport", "forward_difference", "central_difference",
    "error_scaling_fit",
    "SigmaPrediction", "stationary_phase_sigma", "support_membership",
    "classical_precision_bits", "quantum_precision_bits", "success_probability_bound",
    "optimal_l",
    "__version__",
}

# every public function's parameters, without annotations
SIGNATURES = {
    "encode_input": "(delta, spec)",
    "fixed_point": "(f_val, spec)",
    "quantize_output": "(f_val, spec)",
    "decode_outcome": "(k, spec)",
    "signed_index": "(k, N)",
    "nearest_lattice_index": "(gradient, spec)",
    "lattice_points": "(spec, start=0, stop=None, step=1)",
    "linear": "(g, c=0.0)",
    "quadratic": "(g, H, c=0.0)",
    "cubic_1d": "(a3)",
    "sinusoid": "(amplitude, wavevector)",
    "scanned_range": "(fn, spec)",
    "build_phase_state": "(f, spec)",
    "fourier_transform": "(grid, *, in_place=False)",
    "outcome_distribution": "(grid, *, in_place=False)",
    "sample": "(dist, shots, seed)",
    "run_gradient_estimation": "(f, spec, shots=1000, seed=0)",
    "apply_phase_error": "(grid, errors)",
    "circular_mean": "(probs)",
    "circular_variance": "(probs, mean)",
    "wrap_signed": "(delta_k, N)",
    "forward_difference": "(f, x, l)",
    "central_difference": "(f, x, l)",
    "error_scaling_fit": "(f, x, l_values, method='central')",
    "stationary_phase_sigma": "(H, spec)",
    "support_membership": "(k, prediction, slack)",
    "classical_precision_bits": "(f_max, f_min, m, l, n)",
    "quantum_precision_bits": "(f_max, f_min, m, l, n, theta)",
    "success_probability_bound": "(theta)",
    "optimal_l": "(sigma, d2=None, d3=None, d=1, mode='quantum')",
}

# every public dataclass: (fields, other public attributes: methods and properties)
DATACLASSES = {
    "ProblemSpec": (["d", "N", "n_o", "l", "m", "x0"], ["N_o", "shape", "size"]),
    "TestFunction": (["name", "d", "eval", "grad", "hess"], []),
    "AmplitudeGrid": (["spec", "amps", "value_range"], ["reshaped"]),
    "OutcomeDistribution": (["spec", "probs"], ["marginal", "reshaped"]),
    "GradientEstimationReport": (
        ["spec", "mode_index", "mode_gradient", "true_gradient", "success_index",
         "success_probability", "distribution", "samples", "circular_mean_k",
         "circular_variance_k", "value_range"],
        ["query_count", "sigma_grad_measured", "sigma_k_measured"],
    ),
    "ClassicalReport": (["gradient_estimate", "queries"], []),
    "SigmaPrediction": (["sigma_k", "sigma_grad", "support_matrix"], []),
}


def _parameters(fn) -> str:
    sig = inspect.signature(fn)
    params = [p.replace(annotation=p.empty) for p in sig.parameters.values()]
    return str(sig.replace(parameters=params, return_annotation=sig.empty))


def test_public_api_is_pinned():
    assert set(qgrad.__all__) == PUBLIC
    assert len(qgrad.__all__) == len(PUBLIC)  # no name listed twice
    for name in PUBLIC:
        assert hasattr(qgrad, name), name
    # every public name but the version has its form pinned below
    assert set(SIGNATURES) | set(DATACLASSES) | {"__version__"} == PUBLIC


def test_single_form_types_are_pinned():
    # a function is its callbacks, with no declared range and no call shortcut
    assert [f.name for f in fields(qgrad.TestFunction)] == ["name", "d", "eval", "grad", "hess"]
    assert "__call__" not in vars(qgrad.TestFunction)
    assert [f.name for f in fields(qgrad.AmplitudeGrid)] == ["spec", "amps", "value_range"]
    # forward only; `in_place` is keyword-only
    params = inspect.signature(qgrad.fourier_transform).parameters
    assert [(p.name, p.kind) for p in params.values()] == [
        ("grid", inspect.Parameter.POSITIONAL_OR_KEYWORD),
        ("in_place", inspect.Parameter.KEYWORD_ONLY),
    ]


def test_every_public_function_signature_is_pinned():
    functions = {name for name in PUBLIC if inspect.isfunction(getattr(qgrad, name))}
    assert functions == set(SIGNATURES)
    for name, expected in SIGNATURES.items():
        assert _parameters(getattr(qgrad, name)) == expected, name


def test_every_public_dataclass_is_pinned():
    classes = {name for name in PUBLIC if dataclasses.is_dataclass(getattr(qgrad, name))}
    assert classes == set(DATACLASSES)
    for name, (expected_fields, expected_members) in DATACLASSES.items():
        cls = getattr(qgrad, name)
        names = [f.name for f in fields(cls)]
        assert names == expected_fields, name
        members = sorted(k for k in vars(cls) if not k.startswith("_") and k not in names)
        assert members == expected_members, name
