"""Single-query quantum gradient estimation, simulated exactly at desk scale.

A d-dimensional gradient is read out of one superposed oracle query: the
quantized function value is kicked back as a phase, a discrete Fourier
transform per register turns the resulting planewave into a lattice outcome,
and decoding maps the outcome to a gradient estimate.  The package pairs the
simulator with classical finite-difference baselines and analytic predictions
for precision requirements and peak geometry, so each quantitative claim can
be checked numerically.
"""
from .core import (
    ProblemSpec,
    decode_outcome,
    encode_input,
    fixed_point,
    lattice_points,
    nearest_lattice_index,
    quantize_output,
    round_half_up,
    signed_index,
)
from .functions import (
    CATALOG,
    TestFunction,
    cubic_1d,
    linear,
    quadratic,
    scanned_range,
    sinusoid,
)
from .qsim import (
    AmplitudeGrid,
    GradientEstimationReport,
    OutcomeDistribution,
    apply_phase_error,
    build_phase_state,
    circular_mean,
    circular_variance,
    fourier_transform,
    outcome_distribution,
    run_gradient_estimation,
    sample,
    wrap_signed,
)
from .classical import (
    ClassicalReport,
    ScalingFit,
    central_difference,
    error_scaling_fit,
    forward_difference,
)
from .analysis import (
    SigmaPrediction,
    classical_precision_bits,
    optimal_l,
    quantum_precision_bits,
    stationary_phase_sigma,
    success_probability_bound,
    support_membership,
)

__version__ = "0.1.0"

__all__ = [
    "ProblemSpec",
    "encode_input",
    "fixed_point",
    "quantize_output",
    "decode_outcome",
    "signed_index",
    "nearest_lattice_index",
    "round_half_up",
    "TestFunction",
    "CATALOG",
    "linear",
    "quadratic",
    "cubic_1d",
    "sinusoid",
    "scanned_range",
    "AmplitudeGrid",
    "OutcomeDistribution",
    "GradientEstimationReport",
    "lattice_points",
    "build_phase_state",
    "fourier_transform",
    "outcome_distribution",
    "sample",
    "run_gradient_estimation",
    "apply_phase_error",
    "circular_mean",
    "circular_variance",
    "wrap_signed",
    "ClassicalReport",
    "ScalingFit",
    "forward_difference",
    "central_difference",
    "error_scaling_fit",
    "SigmaPrediction",
    "stationary_phase_sigma",
    "support_membership",
    "classical_precision_bits",
    "quantum_precision_bits",
    "success_probability_bound",
    "optimal_l",
    "__version__",
]
