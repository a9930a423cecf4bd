"""Tests for the CSV experiment runner: columns, determinism, exit codes."""
import contextlib
import csv
import io
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgrad import (
    ProblemSpec,
    lattice_points,
    quadratic,
    run_gradient_estimation,
    signed_index,
    stationary_phase_sigma,
    support_membership,
)
from qgrad import cli, qsim
from qgrad.cli import main
from qgrad.qsim import BLOCK_POINTS

SRC = str(Path(__file__).resolve().parents[1] / "src")


def read_csv(path):
    comments, rows = [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#"):
                comments.append(line.rstrip("\n"))
            else:
                rows.append(line.rstrip("\n"))
    parsed = list(csv.reader(rows))
    return comments, parsed[0], parsed[1:]


# --- run ---

def test_run_exact_linear_success_column(tmp_path):
    out = tmp_path / "run.csv"
    code = main([
        "run", "--d", "1", "--N", "8", "--n-o", "5", "--l", "1", "--m", "1",
        "--function", "linear", "--gradient", "0.375", "--shots", "32",
        "--seed", "1", "--out", str(out),
    ])
    assert code == 0
    comments, header, rows = read_csv(out)
    assert header == ["axis", "true_gradient", "decoded_mode", "success_prob",
                      "sigma_pred", "sigma_meas"]
    assert len(rows) == 1
    assert float(rows[0][3]) == pytest.approx(1.0, abs=1e-9)
    assert float(rows[0][1]) == pytest.approx(0.375)
    assert any("config" in c and "version=" in c for c in comments)


def test_run_quadratic_alpha_sigma_columns(tmp_path):
    out = tmp_path / "run80.csv"
    code = main([
        "run", "--d", "1", "--N", "80", "--n-o", "16", "--l", "0.04", "--m", "1",
        "--function", "quadratic", "--alpha", "0.02", "--shots", "0", "--out", str(out),
    ])
    assert code == 0
    _, _, rows = read_csv(out)
    sigma_pred, sigma_meas = float(rows[0][4]), float(rows[0][5])
    # gradient-unit prediction for the 1D benchmark: m*alpha/sqrt(3)
    assert sigma_pred == pytest.approx(0.02 / math.sqrt(3), rel=1e-9)
    assert 0.75 <= sigma_meas / sigma_pred <= 1.25


def test_run_n_bits_alias(tmp_path):
    out = tmp_path / "bits.csv"
    assert main(["run", "--n-bits", "3", "--function", "linear",
                 "--gradient", "0.25", "--n-o", "6", "--shots", "0",
                 "--out", str(out)]) == 0
    comments, _, rows = read_csv(out)
    assert any('"n_bits": 3' in c for c in comments)
    assert float(rows[0][3]) == pytest.approx(1.0, abs=1e-9)  # N=8, nu=2 exact


def test_run_byte_identical_for_same_flags(tmp_path):
    args = ["run", "--d", "2", "--N", "12", "--n-o", "8", "--l", "0.5",
            "--function", "quadratic", "--hessian", "0.2,0.05,0.05,-0.1",
            "--shots", "64", "--seed", "9"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


# --- sweeps ---

def test_sweep_n_predicted_column(tmp_path):
    out = tmp_path / "sweep_n.csv"
    ns = [16, 32, 64, 128, 256]
    assert main(["sweep-n", "--alpha", "0.02", "--N", ",".join(map(str, ns)),
                 "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    assert header == ["N", "sigma_pred", "sigma_meas"]
    for (n, row) in zip(ns, rows):
        assert int(row[0]) == n
        # CSV carries 12 significant digits
        assert float(row[1]) == pytest.approx(0.02 * n / math.sqrt(3), rel=1e-11)
    meas = [float(r[2]) for r in rows]
    assert all(b > a for a, b in zip(meas, meas[1:]))  # monotone in N


def test_sweep_alpha_columns_and_determinism(tmp_path):
    args = ["sweep-alpha", "--N", "80", "--alpha", "0.01,0.03,0.05"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    _, header, rows = read_csv(a)
    assert header == ["alpha", "sigma_pred", "sigma_meas"]
    assert [float(r[0]) for r in rows] == [0.01, 0.03, 0.05]


def test_sweep_alpha_zero_is_point_mass(tmp_path):
    out = tmp_path / "zero.csv"
    assert main(["sweep-alpha", "--N", "32", "--alpha", "0", "--out", str(out)]) == 0
    _, _, rows = read_csv(out)
    assert float(rows[0][1]) == 0.0
    assert float(rows[0][2]) == pytest.approx(0.0, abs=1e-9)


def test_sweep_n_zero_curvature_floors(tmp_path):
    out = tmp_path / "zero_n.csv"
    assert main(["sweep-n", "--alpha", "0", "--N", "16,64", "--out", str(out)]) == 0
    _, _, rows = read_csv(out)
    for row in rows:
        assert float(row[2]) == pytest.approx(0.0, abs=1e-9)


# --- peak2d ---

def test_peak2d_mask_and_mass(tmp_path):
    out = tmp_path / "peak.csv"
    assert main(["peak2d", "--N", "64", "--l", "50", "--out", str(out)]) == 0
    comments, header, rows = read_csv(out)
    assert header == ["k1", "k2", "prob", "inside_predicted"]
    assert len(rows) == 64 * 64
    mass_inside = sum(float(r[2]) for r in rows if r[3] == "1")
    declared = next(c for c in comments if "mass_inside" in c)
    assert mass_inside == pytest.approx(float(declared.split("=")[-1]), abs=1e-9)
    assert mass_inside >= 0.80
    total = sum(float(r[2]) for r in rows)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_peak2d_mask_matches_membership(tmp_path):
    out = tmp_path / "peak.csv"
    assert main(["peak2d", "--N", "32", "--l", "30", "--slack-cells", "1.5",
                 "--out", str(out)]) == 0
    _, _, rows = read_csv(out)
    spec = ProblemSpec(d=2, N=32, n_o=16, l=30.0, m=1.0)
    H = (spec.m / spec.N) * 0.1 * np.array([[1.0, 1.0], [1.0, -1.0]])
    pred = stationary_phase_sigma(H, spec)
    for r in rows[:200]:
        k = [float(r[0]), float(r[1])]
        assert (r[3] == "1") == bool(support_membership(k, pred, slack=1.5))


def test_peak2d_zero_hessian_point_mass(tmp_path):
    out = tmp_path / "flat.csv"
    assert main(["peak2d", "--N", "16", "--hessian", "0,0,0,0", "--out", str(out)]) == 0
    _, _, rows = read_csv(out)
    by_k = {(r[0], r[1]): (float(r[2]), r[3]) for r in rows}
    prob0, inside0 = by_k[("0", "0")]
    assert prob0 == pytest.approx(1.0, abs=1e-9)
    assert inside0 == "1"


def _traced_peak(call) -> int:
    """tracemalloc peak of call() above the bytes allocated before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_peak2d_memory_per_point(tmp_path):
    # the run's 16 B/point state, an 8 B/point copy of the probabilities and two
    # 1 B/point masks; the rows are formatted one lattice line at a time
    N = 512
    out = tmp_path / "peak.csv"
    peak = _traced_peak(lambda: main(["peak2d", "--N", str(N), "--out", str(out)]))
    assert peak <= 32 * N * N + 8 * 2 ** 20
    assert out.stat().st_size > 25 * N * N


@pytest.mark.parametrize("N", [40, 300])
def test_peak2d_does_not_depend_on_the_blocking(tmp_path, monkeypatch, N):
    # the mask blocks (whole lattice lines, one line at 64 points) and the row blocks
    # (one line each) must not change a byte, the two mass comments included
    written = []
    for block in (64, 4096, 2 ** 16):
        monkeypatch.setattr(qsim, "BLOCK_POINTS", block)
        out = tmp_path / f"peak{block}.csv"
        assert main(["peak2d", "--N", str(N), "--l", "60", "--out", str(out)]) == 0
        written.append(out.read_bytes())
    assert written[1] == written[0] and written[2] == written[0]
    # the mask column is the membership of the whole signed grid at once
    comments, _, rows = read_csv(tmp_path / "peak64.csv")
    assert sum("mass_" in c for c in comments) == 2
    spec = ProblemSpec(d=2, N=N, n_o=16, l=60.0, m=1.0)
    pred = stationary_phase_sigma((spec.m / N) * 0.1 * np.array([[1.0, 1.0], [1.0, -1.0]]), spec)
    k = np.array([[int(r[0]), int(r[1])] for r in rows])
    assert np.array_equal(np.array([r[3] == "1" for r in rows]), support_membership(k, pred, slack=1.5))


@pytest.mark.parametrize("N", [17, 33])
@pytest.mark.parametrize("hessian", [None, "0,0,0,0", "0.01,0.006,0.006,-0.01"],
                         ids=["default", "mask-mostly-0", "mask-mostly-1"])
@pytest.mark.parametrize("to_stdout", [False, True], ids=["file", "stdout"])
def test_peak2d_rows_equal_row_by_row_formatting(tmp_path, capsys, N, hessian, to_stdout):
    # the per-line templates hold the k1, k2 and mask text; every byte must read as
    # the generic "%d,%d,%.12g,%d" of each row's values
    out = "-" if to_stdout else str(tmp_path / "peak.csv")
    argv = ["peak2d", "--N", str(N), "--out", out] + ([] if hessian is None else ["--hessian", hessian])
    assert main(argv) == 0
    text = capsys.readouterr().out if to_stdout else Path(out).read_text(encoding="utf-8")
    spec = ProblemSpec(d=2, N=N, n_o=16, l=100.0, m=1.0)
    H = ((spec.m / N) * 0.1 * np.array([[1.0, 1.0], [1.0, -1.0]]) if hessian is None
         else np.array([float(h) for h in hessian.split(",")]).reshape(2, 2))
    probs = run_gradient_estimation(quadratic([0.0, 0.0], H), spec, shots=0, seed=0).distribution.probs
    signed = signed_index(lattice_points(spec), N)
    inside = support_membership(signed, stationary_phase_sigma(H, spec), slack=1.5)
    rows = ["%d,%d,%.12g,%d\n" % (k1, k2, p, flag)
            for (k1, k2), p, flag in zip(signed.tolist(), probs.tolist(), inside.tolist())]
    assert text.split("k1,k2,prob,inside_predicted\n")[1].splitlines(keepends=True) == rows


# --- compare-classical ---

def test_compare_classical_queries_and_gap(tmp_path):
    out = tmp_path / "cmp.csv"
    assert main(["compare-classical", "--d", "8", "--N", "4", "--l", "0.1",
                 "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    assert header == ["method", "queries", "err_max", "bits_required", "bit_gap", "slope_fit"]
    table = {r[0]: r for r in rows}
    assert int(table["quantum"][1]) == 1
    assert int(table["forward"][1]) == 9
    assert int(table["central"][1]) == 16
    assert float(table["quantum"][4]) == pytest.approx(4.0, abs=1e-9)  # theta = pi/8
    assert float(table["central"][5]) == pytest.approx(2.0, abs=0.1)
    assert float(table["forward"][5]) == pytest.approx(1.0, abs=0.1)


# --- cell text ---

def test_write_csv_cell_text(tmp_path):
    floats = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e16, float(2 ** 53),
              np.float64(0.1), np.float32(0.1)]
    flags = [True, False, np.True_, np.int64(7)]
    rows = [(f, flags[i % len(flags)], "") for i, f in enumerate(floats)]
    out = tmp_path / "cells.csv"
    cli._write_csv(str(out), ["note"], {"x": "%.12g", "n": "%d", "s": "%s"}, [rows])
    assert out.read_text(encoding="utf-8") == (
        "# note\n"
        "x,n,s\n"
        "0,1,\n"
        "-0,0,\n"
        "inf,1,\n"
        "-inf,7,\n"
        "nan,1,\n"
        "4.94065645841e-324,0,\n"
        "1e+16,1,\n"
        "9.00719925474e+15,7,\n"
        "0.1,1,\n"
        "0.10000000149,0,\n"
    )
    # every float cell reads format(float(x), ".12g")
    cells = [ln.split(",")[0] for ln in out.read_text(encoding="utf-8").splitlines()[2:]]
    assert cells == [format(float(x), ".12g") for x in floats]


# --- exit codes and entry points ---

def test_validation_failure_exits_2(tmp_path):
    # --alpha needs d=1
    assert main(["run", "--d", "2", "--function", "quadratic", "--alpha", "0.02",
                 "--out", str(tmp_path / "x.csv")]) == 2
    # budget blown: N**d too large
    assert main(["run", "--d", "4", "--N", "256", "--function", "linear",
                 "--out", str(tmp_path / "y.csv")]) == 2
    # bad hessian length
    assert main(["peak2d", "--hessian", "1,2,3", "--out", str(tmp_path / "z.csv")]) == 2
    # output register wider than exact fixed-point arithmetic allows
    assert main(["run", "--n-o", "63", "--out", str(tmp_path / "w.csv")]) == 2
    # a negative shot count
    assert main(["run", "--shots", "-3", "--out", str(tmp_path / "s.csv")]) == 2
    # an evaluation point that is not finite
    assert main(["run", "--x0", "nan", "--out", str(tmp_path / "n.csv")]) == 2
    # a negative seed, also where no shot is drawn
    for argv in (["sweep-n", "--N", "16"], ["sweep-alpha", "--N", "16", "--alpha", "0.02"],
                 ["run", "--shots", "0"]):
        assert main([*argv, "--seed", "-1", "--out", str(tmp_path / "r.csv")]) == 2


def test_function_options_exit_2(tmp_path, capsys):
    cases = [
        (["run", "--function", "bogus"], "unknown function 'bogus'"),
        (["run", "--function", "quadratic", "--alpha", "0.02", "--hessian", "1"],
         "--alpha and --hessian are mutually exclusive"),
        (["run", "--d", "2", "--function", "quadratic", "--hessian", "1,2,3"],
         "--hessian needs 4 row-major entries"),
        (["run", "--d", "2", "--gradient", "1,2,3"], "--gradient needs 1 or 2 components"),
        (["run", "--d", "2", "--function", "sinusoid", "--wavevector", "1,2,3"],
         "--wavevector needs 1 or 2 components"),
        (["run", "--d", "2", "--function", "cubic_1d"], "cubic_1d is one-dimensional"),
        (["sweep-n", "--N", ""], "--N must list at least one lattice size"),
        (["sweep-alpha", "--alpha", ""], "--alpha must list at least one curvature"),
    ]
    for argv, message in cases:
        out = tmp_path / "f.csv"
        assert main([*argv, "--out", str(out)]) == 2, argv
        assert message in capsys.readouterr().err, argv
        assert not out.exists()


def test_run_rejects_a_hessian_that_is_not_finite(tmp_path, capsys):
    # inf once ran and failed on the gradient N*g/m; nan was called asymmetric
    for hessian in ("inf", "nan", "1,-inf,-inf,1"):
        out = tmp_path / "h.csv"
        d = "2" if "," in hessian else "1"
        assert main(["run", "--d", d, "--function", "quadratic", "--hessian", hessian,
                     "--shots", "0", "--out", str(out)]) == 2
        assert "H must be finite" in capsys.readouterr().err
        assert not out.exists()


def test_scales_that_overflow_or_underflow_exit_2(tmp_path, capsys):
    # N*l overflows, N*N_o/(m*l) overflows, N*l overflows: once exit 0 from a NaN matrix, or exit 1
    cases = [
        ["run", "--function", "quadratic", "--alpha", "5e-324", "--l", "1e308", "--m", "100", "--n-bits", "1"],
        ["sweep-n", "--m", "5e-324", "--N", "16"],
        ["peak2d", "--n-bits", "6", "--l", "1e308", "--m", "1e15"],
    ]
    for argv in cases:
        out = tmp_path / "o.csv"
        assert main([*argv, "--out", str(out)]) == 2, argv
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: l = ") and " and m = " in err[0], err
        assert not out.exists()


def test_non_finite_coefficients_exit_2(tmp_path, capsys):
    # each once exited 1 on a RuntimeWarning or named the gradient N*g/m instead of the flag
    cases = [
        (["--function", "cubic_1d", "--a3", "inf"], "a3 must be finite"),
        (["--function", "sinusoid", "--d", "2", "--wavevector", "3,inf"], "wavevector must be finite"),
        (["--function", "sinusoid", "--amplitude", "nan"], "amplitude must be finite"),
        (["--gradient", "nan"], "g must be finite"),
        (["--function", "quadratic", "--coeff", "inf"], "c must be finite"),
    ]
    for argv, message in cases:
        out = tmp_path / "o.csv"
        assert main(["run", *argv, "--out", str(out)]) == 2, argv
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {message}"), err
        assert not out.exists()


# the edge values drawn for every flag, beside ordinary ones
EDGES = ["0", "1", "-1", "5e-324", "1e-300", "1e308", "1e-308", "inf", "-inf", "nan", "-0"]


def _value(ordinary):
    return st.sampled_from(EDGES) | ordinary


REAL = _value(st.sampled_from(["0.5", "2", "-3", "0.001", "100", "0.02"]))
COUNT = _value(st.sampled_from(["0", "3", "52", "1000", "30", "16"]))


@st.composite
def _real_list(draw, most):
    return ",".join(draw(st.lists(REAL, min_size=1, max_size=most)))


@st.composite
def _lattice(draw, d_flag, ds, max_points=4096):
    """--d, and --N or --n-bits, whose lattice holds at most max_points points when d is valid."""
    argv, d = [], draw(ds)
    if d_flag and draw(st.booleans()):
        text = draw(_value(st.just(str(d))))
        argv += ["--d", text]
        d = int(text) if text.lstrip("-").isdigit() and int(text) >= 1 else 1
    top = max(2, int(round(max_points ** (1 / d))))
    while top ** d > max_points:
        top -= 1
    which = draw(st.sampled_from(["--N", "--n-bits", "both"]))
    if which in ("--N", "both"):
        argv += ["--N", draw(_value(st.integers(2, top).map(str)))]
    if which in ("--n-bits", "both"):
        argv += ["--n-bits", draw(_value(st.integers(1, top.bit_length() - 1).map(str)))]
    return argv, d


def _options(draw, flags):
    """Each flag of `flags` (name -> strategy of its text) given or left at its default."""
    return [item for flag, values in flags.items() if draw(st.booleans()) for item in (flag, draw(values))]


SHARED = {"--n-o": COUNT, "--m": REAL, "--seed": COUNT}


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(["run", "sweep-n", "sweep-alpha", "peak2d", "compare-classical"]))
    if command == "run":
        lattice, d = draw(_lattice(True, st.integers(1, 12)))
        flags = {**SHARED, "--l": REAL, "--x0": _real_list(d), "--gradient": _real_list(d),
                 "--hessian": _real_list(d * d), "--alpha": REAL, "--coeff": REAL, "--a3": REAL,
                 "--amplitude": REAL, "--wavevector": _real_list(d), "--shots": COUNT}
        lattice += ["--function", draw(st.sampled_from(["linear", "quadratic", "cubic_1d", "sinusoid"]))]
    elif command == "sweep-n":
        sizes = st.lists(_value(st.integers(2, 4096).map(str)), min_size=1, max_size=3).map(",".join)
        lattice, flags = [], {**SHARED, "--alpha": REAL, "--N": sizes}
    elif command == "sweep-alpha":
        lattice = []
        flags = {**SHARED, "--alpha": _real_list(3), "--N": _value(st.integers(2, 4096).map(str))}
    elif command == "peak2d":
        lattice, _ = draw(_lattice(False, st.just(2)))
        flags = {**SHARED, "--l": REAL, "--hessian": _real_list(4), "--slack-cells": REAL,
                 "--slack-cells-outer": REAL}
    else:
        lattice, d = draw(_lattice(True, st.integers(1, 12)))
        flags = {**SHARED, "--l": REAL, "--x0": _real_list(d), "--theta": REAL}
    return [command, *lattice, *_options(draw, flags), "--out", os.devnull]


@settings(max_examples=300, deadline=None)
@given(command_lines())
def test_every_command_line_exits_0_or_2(argv):
    # an input is answered or rejected with one error line: never a traceback or a warning
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a value it cannot parse
            code = exc.code
    assert code in (0, 2), err.getvalue()
    assert not caught, [str(w.message) for w in caught]
    if code == 2:
        # argparse prints its usage lines above its error line; a rejection by qgrad is the one line
        lines = err.getvalue().splitlines()
        assert sum("error:" in line for line in lines) == 1, lines
        assert len(lines) == 1 or lines[0].startswith("usage:"), lines


def test_values_beyond_the_floats(tmp_path, capsys):
    # each once warned on the way (exit 1 under the warning filter), or, the
    # first, exited 0 with a sigma_pred of inf
    out = tmp_path / "o.csv"
    assert main(["run", "--n-bits", "8", "--function", "quadratic", "--m", "0.5", "--l", "1e-300",
                 "--alpha", "0.5", "--out", str(out)]) == 0
    assert read_csv(out)[2][0][4] == "0.144337567297"
    cases = [
        (["run", "--function", "sinusoid", "--amplitude", "1e308", "--wavevector", "2"], "N*g/m must be finite"),
        (["run", "--function", "cubic_1d", "--x0", "1e308"], "N*g/m must be finite"),
        (["compare-classical", "--x0", "1e308,1,0.1"], "f_max, f_min and n must be finite"),
        (["compare-classical", "--N", "2", "--n-o", "3", "--m", "100", "--l", "1e-308"],
         "m = 100.0 and l = 1e-308 give the benchmark curvature"),
        (["peak2d", "--n-bits", "2", "--l", "0.1", "--hessian", "0.02,0,5e-324,1e308"], "N*N_o*f/(m*l) must be finite"),
        (["compare-classical", "--d", "-1", "--x0", "1"], "d must be >= 1"),  # once "--x0 needs 1 or -1 components"
    ]
    for argv, message in cases:
        out = tmp_path / "x.csv"
        assert main([*argv, "--out", str(out)]) == 2, argv
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {message}"), err
        assert not out.exists()


def test_peak2d_rejects_bad_slack_before_the_run(tmp_path, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("peak2d ran the estimation before checking its slack")

    monkeypatch.setattr("qgrad.cli.run_gradient_estimation", no_run)
    # a membership slack that is not finite and >= 0
    for flag in ("--slack-cells", "--slack-cells-outer"):
        for slack in ("nan", "-5", "inf"):
            out = tmp_path / "p.csv"
            assert main(["peak2d", "--N", "16", flag, slack, "--out", str(out)]) == 2
            assert not out.exists()


def test_compare_classical_rejects_bad_theta_before_the_run(tmp_path, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("compare-classical scanned or ran the estimation before checking --theta")

    monkeypatch.setattr("qgrad.cli.run_gradient_estimation", no_run)
    monkeypatch.setattr("qgrad.cli.scanned_range", no_run)
    # quantum_precision_bits takes theta in (0, 2*pi]
    for theta in ("0", "-1", "nan", "7"):
        out = tmp_path / "c.csv"
        assert main(["compare-classical", "--d", "2", "--N", "8", "--theta", theta, "--out", str(out)]) == 2
        assert not out.exists()


def test_huge_n_bits_exits_2_before_the_power(tmp_path, capsys):
    # 2**n_bits is not taken for an n_bits outside [1, 24]
    for n_bits in ("1000000000", "25", "0", "-3"):
        out = tmp_path / "n.csv"
        assert main(["run", "--n-bits", n_bits, "--out", str(out)]) == 2
        assert "--n-bits must lie in [1, 24]" in capsys.readouterr().err
        assert not out.exists()


def test_program_fault_exits_1_with_its_traceback(tmp_path, monkeypatch, capsys):
    # a fault raised on a build worker thread still shows the frame it came from
    def broken_register(values, spec):
        raise TypeError("register fault")

    monkeypatch.setattr("qgrad.qsim.quantize_output", broken_register)
    out = tmp_path / "fault.csv"
    assert main(["run", "--d", "1", "--N", str(3 * BLOCK_POINTS), "--function", "linear",
                 "--gradient", "0.25", "--shots", "0", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("Traceback") and "broken_register" in err
    assert err.rstrip().endswith("TypeError: register fault")
    assert not out.exists()


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["run", "--bogus"])
    assert err.value.code == 2


def test_module_entry_point(tmp_path):
    out = tmp_path / "entry.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "qgrad.cli", "run", "--N", "8", "--n-o", "5",
         "--function", "linear", "--gradient", "0.25", "--shots", "0", "--out", str(out)],
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()


def test_stdout_output():
    proc = subprocess.run(
        [sys.executable, "-m", "qgrad.cli", "sweep-n", "--alpha", "0.02", "--N", "16,32"],
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "N,sigma_pred,sigma_meas" in proc.stdout
