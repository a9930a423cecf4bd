"""Every public function that takes numbers gives a finite answer of its
documented type, or raises a one-line ValueError, and never warns.

The property draws each numeric argument from the edge pools of the
command-line fuzzer, in every integer and float dtype, unsigned included,
and as Python numbers, complex numbers, object arrays and text.
"""
import math
import re
import warnings
from dataclasses import fields, is_dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qgrad
from qgrad import (
    AmplitudeGrid,
    ClassicalReport,
    GradientEstimationReport,
    OutcomeDistribution,
    ProblemSpec,
    SigmaPrediction,
    apply_phase_error,
    build_phase_state,
    central_difference,
    circular_mean,
    circular_variance,
    classical_precision_bits,
    cubic_1d,
    decode_outcome,
    encode_input,
    error_scaling_fit,
    fixed_point,
    forward_difference,
    fourier_transform,
    lattice_points,
    linear,
    nearest_lattice_index,
    optimal_l,
    outcome_distribution,
    quadratic,
    quantize_output,
    quantum_precision_bits,
    run_gradient_estimation,
    sample,
    signed_index,
    sinusoid,
    stationary_phase_sigma,
    success_probability_bound,
    support_membership,
    wrap_signed,
)

POOL = (0, 1, -1, 5e-324, 1e-300, 1e308, -1e308, math.inf, -math.inf, math.nan, 2 ** 63, 2 ** 70)
# ordinary entries, so that an edge value also sits among good ones
ORDINARY = (0.5, 2, 3)
DTYPES = [np.dtype(name) for name in ("int8", "int16", "int32", "int64", "uint8", "uint16", "uint32",
                                      "uint64", "float16", "float32", "float64", "longdouble")]
FORMS = ("python", "dtype", "complex", "object", "object with a complex entry", "text")


def _fits(value, dtype) -> bool:
    if dtype.kind == "f":
        return True
    info = np.iinfo(dtype)
    return float(value).is_integer() and info.min <= value <= info.max


def _nested(values: list, shape: tuple):
    """`values` as nested lists of `shape`, or the one value for shape ()."""
    if not shape:
        return values[0]
    step = len(values) // shape[0]
    return [_nested(values[i * step:(i + 1) * step], shape[1:]) for i in range(shape[0])]


@st.composite
def numbers_of(draw, shape):
    """An argument of `shape`, () for a scalar, in one of FORMS."""
    form = draw(st.sampled_from(FORMS))
    dtype = draw(st.sampled_from(DTYPES)) if form == "dtype" else np.dtype(float)
    pool = [v for v in POOL + ORDINARY if _fits(v, dtype)]
    values = draw(st.lists(st.sampled_from(pool), min_size=math.prod(shape), max_size=math.prod(shape)))
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")  # float16 takes 1e308 as inf, with a warning
        if form == "python":
            return _nested(values, shape)
        if form == "dtype":
            arr = np.array(values, dtype=dtype).reshape(shape)
            return arr[()] if draw(st.booleans()) else arr  # a scalar of the dtype, or an array
        if form == "complex":
            return _nested([complex(v, 1.0) for v in values], shape)
        if form == "text":
            return _nested([str(v) for v in values], shape)
        arr = np.empty(len(values), dtype=object)
        arr[:] = values
        if form == "object with a complex entry":
            arr[0] = complex(arr[0], 1.0)
        return arr.reshape(shape)


def _finite(value) -> bool:
    """Whether every number in `value`, a result or a dataclass of results, is finite."""
    if is_dataclass(value):
        return all(_finite(getattr(value, field.name)) for field in fields(value))
    if callable(value) or value is None or isinstance(value, str):
        return True
    if isinstance(value, tuple):
        return all(_finite(v) for v in value)
    arr = np.asarray(value)
    if arr.dtype.kind == "O":
        return all(math.isfinite(v) for v in arr.flat)
    return arr.dtype.kind in "biu" or bool(np.isfinite(arr).all())


SPEC = ProblemSpec(d=2, N=4, n_o=4, l=1.0, m=1.0)
LINE = ProblemSpec(d=1, N=8, n_o=4, l=1.0, m=1.0)
H = [[0.3, 0.1], [0.1, -0.2]]
F = quadratic([0.1, -0.2], H)
GRID = build_phase_state(linear([0.25]), LINE)
DIST = outcome_distribution(fourier_transform(build_phase_state(F, SPEC)))
PREDICTION = stationary_phase_sigma(H, SPEC)


def _answering(v, d=1):
    """A function whose eval gives the number `v` at every point, with gradient 0.25."""
    return qgrad.TestFunction("pool", d, lambda x: np.broadcast_to(np.asarray(v), np.shape(x)[:-1]),
                              lambda x: np.full(d, 0.25), lambda x: np.zeros((d, d)))


def _with_gradient(v):
    """linear([0.25]) with its gradient callback giving `v`."""
    f = linear([0.25])
    return qgrad.TestFunction("pool", 1, f.eval, lambda x: v, f.hess)


# name -> (shape of the drawn argument, call, documented type, whether the answer must be finite)
SITES = {
    "ProblemSpec d": ((), lambda v: ProblemSpec(d=v, N=4, n_o=4, l=1.0, m=1.0), ProblemSpec, True),
    "ProblemSpec N": ((), lambda v: ProblemSpec(d=1, N=v, n_o=4, l=1.0, m=1.0), ProblemSpec, True),
    "ProblemSpec n_o": ((), lambda v: ProblemSpec(d=1, N=4, n_o=v, l=1.0, m=1.0), ProblemSpec, True),
    "ProblemSpec l": ((), lambda v: ProblemSpec(d=1, N=4, n_o=4, l=v, m=1.0), ProblemSpec, True),
    "ProblemSpec m": ((), lambda v: ProblemSpec(d=1, N=4, n_o=4, l=1.0, m=v), ProblemSpec, True),
    "ProblemSpec x0": ((2,), lambda v: ProblemSpec(d=2, N=4, n_o=4, l=1.0, m=1.0, x0=v), ProblemSpec, True),
    "encode_input": ((2,), lambda v: encode_input(v, SPEC), np.ndarray, True),
    "fixed_point": ((3,), lambda v: fixed_point(v, SPEC), np.ndarray, True),
    "quantize_output": ((3,), lambda v: quantize_output(v, SPEC), np.ndarray, True),
    "decode_outcome": ((2,), lambda v: decode_outcome(v, SPEC), np.ndarray, True),
    "signed_index k": ((3,), lambda v: signed_index(v, 8), np.ndarray, True),
    "signed_index N": ((), lambda v: signed_index(np.arange(3), v), np.ndarray, True),
    "nearest_lattice_index": ((2,), lambda v: nearest_lattice_index(v, SPEC), np.ndarray, True),
    "lattice_points start": ((), lambda v: lattice_points(SPEC, start=v), np.ndarray, True),
    "lattice_points stop": ((), lambda v: lattice_points(SPEC, stop=v), np.ndarray, True),
    "lattice_points step": ((), lambda v: lattice_points(SPEC, step=v), np.ndarray, True),
    "linear g": ((2,), linear, qgrad.TestFunction, True),
    "linear c": ((), lambda v: linear([1.0], c=v), qgrad.TestFunction, True),
    "quadratic g": ((2,), lambda v: quadratic(v, H), qgrad.TestFunction, True),
    "quadratic H": ((2, 2), lambda v: quadratic([0.0, 0.0], v), qgrad.TestFunction, True),
    "quadratic c": ((), lambda v: quadratic([0.0], [[1.0]], c=v), qgrad.TestFunction, True),
    "cubic_1d": ((), cubic_1d, qgrad.TestFunction, True),
    "sinusoid amplitude": ((), lambda v: sinusoid(v, [1.0]), qgrad.TestFunction, True),
    "sinusoid wavevector": ((2,), lambda v: sinusoid(1.0, v), qgrad.TestFunction, True),
    # a catalog function overflows to inf, or gives nan, far out, by design
    "eval": ((3, 2), F.eval, np.ndarray, False),
    "grad": ((3, 2), F.grad, np.ndarray, False),
    "hess": ((3, 2), F.hess, np.ndarray, False),
    "build_phase_state": ((), lambda v: build_phase_state(_answering(v), LINE), AmplitudeGrid, True),
    "run_gradient_estimation eval": ((), lambda v: run_gradient_estimation(_answering(v), LINE, shots=4),
                                     GradientEstimationReport, True),
    "run_gradient_estimation grad": ((1,), lambda v: run_gradient_estimation(_with_gradient(v), LINE, shots=4),
                                     GradientEstimationReport, True),
    "run_gradient_estimation shots": ((), lambda v: run_gradient_estimation(linear([0.25]), LINE, shots=v),
                                      GradientEstimationReport, True),
    "run_gradient_estimation seed": ((), lambda v: run_gradient_estimation(linear([0.25]), LINE, shots=4, seed=v),
                                     GradientEstimationReport, True),
    "apply_phase_error": ((8,), lambda v: apply_phase_error(GRID, v), AmplitudeGrid, True),
    # a container: the run's own statistics and sampling check the weights
    "OutcomeDistribution": ((8,), lambda v: OutcomeDistribution(LINE, v), OutcomeDistribution, False),
    "marginal": ((), DIST.marginal, np.ndarray, True),
    "sample shots": ((), lambda v: sample(DIST, v, 0), np.ndarray, True),
    "sample seed": ((), lambda v: sample(DIST, 4, v), np.ndarray, True),
    "circular_mean": ((4,), circular_mean, float, True),
    "circular_variance weights": ((4,), lambda v: circular_variance(v, 1.0), float, True),
    "circular_variance mean": ((), lambda v: circular_variance([0.1, 0.2, 0.3, 0.4], v), float, True),
    "wrap_signed delta_k": ((3,), lambda v: wrap_signed(v, 8), np.ndarray, True),
    "wrap_signed N": ((), lambda v: wrap_signed(np.arange(3), v), np.ndarray, True),
    "stationary_phase_sigma": ((2, 2), lambda v: stationary_phase_sigma(v, SPEC), SigmaPrediction, True),
    "support_membership k": ((3, 2), lambda v: support_membership(v, PREDICTION, 1.0), np.ndarray, True),
    "support_membership slack": ((), lambda v: support_membership([[0, 1]], PREDICTION, v), np.ndarray, True),
    "classical_precision_bits f_max": ((), lambda v: classical_precision_bits(v, 0.0, 1.0, 1.0, 4), float, True),
    "classical_precision_bits f_min": ((), lambda v: classical_precision_bits(1.0, v, 1.0, 1.0, 4), float, True),
    "classical_precision_bits m": ((), lambda v: classical_precision_bits(1.0, 0.0, v, 1.0, 4), float, True),
    "classical_precision_bits l": ((), lambda v: classical_precision_bits(1.0, 0.0, 1.0, v, 4), float, True),
    "classical_precision_bits n": ((), lambda v: classical_precision_bits(1.0, 0.0, 1.0, 1.0, v), float, True),
    "quantum_precision_bits theta": ((), lambda v: quantum_precision_bits(1.0, 0.0, 1.0, 1.0, 4, v), float, True),
    "success_probability_bound": ((), success_probability_bound, float, True),
    "optimal_l sigma": ((), lambda v: optimal_l(v, d2=1.0), float, True),
    "optimal_l d2": ((), lambda v: optimal_l(0.1, d2=v), float, True),
    "optimal_l d3": ((), lambda v: optimal_l(0.1, d3=v, mode="classical"), float, True),
    "optimal_l d": ((), lambda v: optimal_l(0.1, d2=1.0, d=v), float, True),
    "forward_difference x": ((2,), lambda v: forward_difference(F, v, 0.1), ClassicalReport, True),
    "forward_difference l": ((), lambda v: forward_difference(F, [0.0, 0.0], v), ClassicalReport, True),
    "central_difference x": ((2,), lambda v: central_difference(F, v, 0.1), ClassicalReport, True),
    "central_difference l": ((), lambda v: central_difference(F, [0.0, 0.0], v), ClassicalReport, True),
    # nan at the floating-point noise floor, by design
    "error_scaling_fit": ((4,), lambda v: error_scaling_fit(cubic_1d(1.0), [0.0], v), float, False),
}


@pytest.mark.parametrize("site", SITES)
@settings(max_examples=15, deadline=None)
@given(st.data())
def test_every_number_is_answered_or_a_value_error(site, data):
    shape, call, kind, finite = SITES[site]
    value = data.draw(numbers_of(shape), label="value")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            answer = call(value)
        except ValueError as exc:
            assert "\n" not in str(exc), str(exc)
        else:
            assert isinstance(answer, kind), type(answer)
            assert not finite or _finite(answer), answer
    assert not caught, [str(w.message) for w in caught]


def _complex_eval(d=1):
    """A function of d variables whose values are exp(1j*x_0), of unit modulus."""
    return qgrad.TestFunction("phasor", d, lambda x: np.exp(1j * np.asarray(x)[..., 0]),
                              lambda x: np.zeros(np.shape(x)), lambda x: np.zeros(np.shape(x) + (d,)))


# each once dropped an imaginary part with a ComplexWarning, or raised
# TypeError, ZeroDivisionError or a warning, or answered wrongly
CASES = {
    "eval points": (lambda: linear([1.0]).eval(np.array([[0.5 + 1j]])), "^x must be real"),
    "linear g": (lambda: linear(np.array([1j])), "^g must be real"),
    "linear c": (lambda: linear([1.0], c=np.complex128(1j)), "^c must be real"),
    "quadratic g": (lambda: quadratic(np.array([1j]), [[1.0]]), "^g must be real"),
    "quadratic c": (lambda: quadratic([1.0], [[1.0]], c=np.complex128(1j)), "^c must be real"),
    "cubic_1d a3": (lambda: cubic_1d(np.complex128(1j)), "^a3 must be real"),
    "sinusoid amplitude": (lambda: sinusoid(np.complex128(1j), [1.0]), "^amplitude must be real"),
    "sinusoid wavevector": (lambda: sinusoid(1.0, np.array([1j])), "^wavevector must be real"),
    "ProblemSpec x0": (lambda: ProblemSpec(d=1, N=4, n_o=4, l=1.0, m=1.0, x0=np.array([1j])), "^x0 must be real"),
    "symmetric H": (lambda: stationary_phase_sigma(np.array([[1j]]), LINE), "^H must be real"),
    "fixed_point": (lambda: fixed_point(np.array([0.5 + 9j]), LINE), "^f_val must be real"),
    "quantize_output": (lambda: quantize_output(np.array([0.5 + 9j]), LINE), "^f_val must be real"),
    "nearest_lattice_index": (lambda: nearest_lattice_index(np.array([0.5 + 1j]), LINE), "^gradient must be real"),
    "signed_index": (lambda: signed_index(np.array([5 + 1j]), 8), "^k must be real"),
    "lattice_points step 0": (lambda: lattice_points(LINE, step=0), "^step must be >= 1"),
    "lattice_points step 2**63": (lambda: lattice_points(LINE, step=2 ** 63), None),
    "lattice_points start": (lambda: lattice_points(LINE, start=0.5), "^start must be an integer"),
    "lattice_points stop": (lambda: lattice_points(LINE, stop=2.5), "^stop must be an integer"),
    "lattice_points stop past the lattice": (lambda: lattice_points(LINE, stop=2 ** 70), "^stop must lie in"),
    "linear of no variables": (lambda: linear([]), "^g must have at least one component"),
    "sinusoid of no variables": (lambda: sinusoid(1.0, []), "^wavevector must have at least one component"),
    "quadratic of no variables": (lambda: quadratic([], np.zeros((0, 0))), "^g must have at least one component"),
    "support_membership k": (lambda: support_membership(np.array([[1j, 0.0]]), PREDICTION, 1.0), "^k must be real"),
    "support_membership slack": (lambda: support_membership([[0.0, 0.0]], PREDICTION, "1"), "^slack must be"),
    "classical_precision_bits": (lambda: classical_precision_bits("1", 0.0, 1.0, 1.0, 4), "^f_max must be"),
    "quantum_precision_bits theta": (lambda: quantum_precision_bits(1.0, 0.0, 1.0, 1.0, 4, "1"), "^theta must be"),
    "success_probability_bound": (lambda: success_probability_bound("0.5"), "^theta must be"),
    "optimal_l": (lambda: optimal_l("0.1", d2=1.0), "^sigma must be"),
    "forward_difference x": (lambda: forward_difference(F, np.array([1j, 0.0]), 0.1), "^x must be real"),
    "forward_difference l": (lambda: forward_difference(F, [0.0, 0.0], "0.1"), "^l must be"),
    "central_difference eval": (lambda: central_difference(_complex_eval(), [0.0], 0.1),
                                "^the value of phasor must be real"),
    "error_scaling_fit complex": (lambda: error_scaling_fit(F, [0.0, 0.0], np.logspace(-2, 0, 4) + 0j),
                                  "^l_values must be real"),
    "error_scaling_fit 2-D": (lambda: error_scaling_fit(F, [0.0, 0.0], [[0.1, 1, 2, 3]]), "^l_values must be a 1-D"),
    "error_scaling_fit 5e-324": (lambda: error_scaling_fit(cubic_1d(1.0), [0.0], [1, 1, 1, 5e-324]), None),
    "build_phase_state eval": (lambda: build_phase_state(_complex_eval(), LINE), "^the values of phasor must be real"),
    "run_gradient_estimation eval": (lambda: run_gradient_estimation(_complex_eval(), LINE),
                                     "^the values of phasor must be real"),
    "run_gradient_estimation grad": (lambda: run_gradient_estimation(_with_gradient(np.array([0.25 + 1j])), LINE),
                                     "^the gradient of pool must be real"),
    "apply_phase_error": (lambda: apply_phase_error(GRID, np.full(8, 1j)), "^errors must be real"),
    "OutcomeDistribution": (lambda: OutcomeDistribution(LINE, np.full(8, 0.125 + 0j)), "^probs must be real"),
    "wrap_signed": (lambda: wrap_signed(np.array([0.5 + 1j]), 8), "^delta_k must be real"),
    "circular_mean complex": (lambda: circular_mean(np.array([0.5 + 1j, 1.0])), "^weights must be real"),
    "circular_mean of an inf and a -inf": (lambda: circular_mean([0.0, 0.0, np.inf, -np.inf]), "^weights sum to nan"),
    "circular_mean resultant beyond the floats": (lambda: circular_mean([1e308, 0.0, -1e308, 1.0]),
                                                  "resultant over their sum"),
    "circular_variance mean": (lambda: circular_variance(np.ones(4), "x"), "^mean must be a real number"),
    "circular_variance beyond the floats": (lambda: circular_variance([0.0, 0.0, 0.0, 1e308], 1.0),
                                            "give a variance of inf"),
}


@pytest.mark.parametrize("call,message", CASES.values(), ids=CASES)
def test_a_bad_number_is_a_value_error_that_names_it(call, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            answer = call()
        except ValueError as exc:
            assert message is None or re.search(message, str(exc)), str(exc)
            assert "\n" not in str(exc)
        else:
            # a bad number with a right answer: a step past the lattice takes one row,
            # and step sizes that span a decade from 5e-324 give a slope or a ValueError
            assert message is None, answer
