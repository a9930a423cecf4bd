"""Experiment runner: deterministic CSV artifacts for each study.

Subcommands
    run                one end-to-end estimation, per-axis summary rows
    sweep-n            peak width vs lattice size at fixed curvature alpha
    sweep-alpha        peak width vs curvature at fixed lattice size
    peak2d             full 2D outcome distribution with predicted-region mask
    compare-classical  query counts, achieved error, precision bits per method

Every CSV starts with comment lines recording the full configuration and the
tool version; identical flags and seed produce byte-identical files.  Each
column has one printf code: %d for integers and 1/0 flags, %.12g for floats
(up to 12 significant digits, '.' decimal separator, -0 kept) and %s for text.
Exit codes: 0 success, 2 invalid configuration (one-line message), 1 runtime
failure (traceback on stderr).
"""
from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import sys
import traceback
from dataclasses import replace

import numpy as np

from . import __version__, qsim
from .analysis import (
    _check_theta,
    classical_precision_bits,
    quantum_precision_bits,
    stationary_phase_sigma,
    support_membership,
)
from .classical import central_difference, error_scaling_fit, forward_difference
from .core import MAX_POINTS, ProblemSpec, _shown, lattice_points, signed_index
from .functions import cubic_1d, linear, quadratic, scanned_range, sinusoid
from .qsim import run_gradient_estimation

# the catalog builders `--function` may name
_FUNCTIONS = ("linear", "quadratic", "cubic_1d", "sinusoid")


def _int_list(text: str) -> list[int]:
    return [int(t) for t in text.split(",") if t.strip()]


def _float_list(text: str) -> list[float]:
    return [float(t) for t in text.split(",") if t.strip()]


def _write_csv(out: str, comments: list[str], columns: dict[str, str], blocks=(), *, templated=()):
    """Write comment lines, the header and one line per row of each block of rows.

    `columns` maps each column name to its printf code: "%d" (ints, bools as
    1/0), "%.12g" (floats) or "%s" (text).  Each block is formatted with one
    % operation and written before the next block is formatted, so only one
    block's text is held at a time.  A caller that knows some cells' text
    in advance passes `templated` in place of `blocks`: pairs (template,
    values), the template holding a block's lines with that text written in
    and the columns' codes where the values go, so only the values are
    converted.
    """
    line = ",".join(columns.values()) + "\n"
    head = "".join(f"# {c}\n" for c in comments) + ",".join(columns) + "\n"
    cells = (tuple(itertools.chain.from_iterable(rows)) for rows in blocks)
    rows_text = ((line * (len(values) // len(columns)), values) for values in cells)
    with (contextlib.nullcontext(sys.stdout) if out == "-"
          else open(out, "w", encoding="utf-8", newline="")) as fh:
        fh.write(head)
        for template, values in itertools.chain(rows_text, templated):
            fh.write(template % values)


def _config_comment(args: argparse.Namespace) -> str:
    # the destination path is not part of the experiment configuration
    cfg = {k: v for k, v in sorted(vars(args).items()) if k not in ("handler", "out")}
    return f"config {json.dumps(cfg, sort_keys=True)} version={__version__}"


def _per_axis(values: list[float], d: int, flag: str) -> list[float]:
    """A "1 or d components" option: one component is repeated on every axis."""
    if len(values) == 1:
        values = values * d
    if len(values) != d:
        raise ValueError(f"{flag} needs 1 or {d} components, got {len(values)}")
    return values


def _spec_from_args(args, d: int | None = None) -> ProblemSpec:
    d = d if d is not None else args.d
    N = args.N
    if args.n_bits is not None:
        # checked before the power, which takes gigabytes for a huge n_bits
        top = MAX_POINTS.bit_length() - 1  # 2**top is the largest N of one axis
        if not 1 <= args.n_bits <= top:
            raise ValueError(f"--n-bits must lie in [1, {top}], got {_shown(args.n_bits)}")
        N = 2 ** args.n_bits
    spec = ProblemSpec(d=d, N=N, n_o=args.n_o, l=args.l, m=args.m)
    x0 = getattr(args, "x0", None)
    # after the spec has checked d, which sets the length of --x0
    return spec if x0 is None else replace(spec, x0=_per_axis(x0, d, "--x0"))


def _build_function(args, spec: ProblemSpec):
    name = args.function
    if name not in _FUNCTIONS:
        raise ValueError(f"unknown function {name!r}; choose from {sorted(_FUNCTIONS)}")
    grad = np.array(_per_axis(args.gradient, spec.d, "--gradient"))
    if name == "linear":
        return linear(grad, c=args.coeff)
    if name == "quadratic":
        if args.alpha is not None and args.hessian is not None:
            raise ValueError("--alpha and --hessian are mutually exclusive")
        if args.alpha is not None:
            if spec.d != 1:
                raise ValueError("--alpha defines a 1D curvature benchmark; use --d 1")
            H = np.array([[2.0 * spec.m * args.alpha / spec.l]])
        elif args.hessian is not None:
            if len(args.hessian) != spec.d ** 2:
                raise ValueError(f"--hessian needs {spec.d ** 2} row-major entries")
            H = np.array(args.hessian).reshape(spec.d, spec.d)
        else:
            H = np.zeros((spec.d, spec.d))
        return quadratic(grad, H, c=args.coeff)
    if name == "cubic_1d":
        if spec.d != 1:
            raise ValueError("cubic_1d is one-dimensional; use --d 1")
        return cubic_1d(args.a3)
    # the _FUNCTIONS check above leaves "sinusoid"
    return sinusoid(args.amplitude, _per_axis(args.wavevector, spec.d, "--wavevector"))


# -- Subcommands ---------------------------------------------------------------


def cmd_run(args) -> int:
    spec = _spec_from_args(args)
    f = _build_function(args, spec)
    report = run_gradient_estimation(f, spec, shots=args.shots, seed=args.seed)
    pred = stationary_phase_sigma(f.hess(spec.x0), spec)
    rows = zip(range(spec.d), report.true_gradient, report.mode_gradient,
               [report.success_probability] * spec.d, pred.sigma_grad,
               report.sigma_grad_measured)
    columns = {"axis": "%d", "true_gradient": "%.12g", "decoded_mode": "%.12g",
               "success_prob": "%.12g", "sigma_pred": "%.12g", "sigma_meas": "%.12g"}
    _write_csv(args.out, [_config_comment(args)], columns, [rows])
    print(
        f"queries={report.query_count} mode={report.mode_index.tolist()} "
        f"success_prob={report.success_probability:.6f}",
        file=sys.stderr if args.out == "-" else sys.stdout,
    )
    return 0


SWEEP_L = 0.2


def _sweep_point(alpha: float, N: int, args):
    """One 1D curvature benchmark: fixed l, f'' = 2*m*alpha/l so (l/2m)f'' = alpha.

    The outcome distribution depends on (alpha, N) only, so the fixed width is
    a free choice; it is recorded in the CSV header.  alpha = 0 degenerates to
    a point mass at the zero frequency.
    """
    spec = ProblemSpec(d=1, N=N, n_o=args.n_o, l=SWEEP_L, m=args.m)
    f = quadratic([0.0], [[2.0 * args.m * alpha / SWEEP_L]], c=0.0)
    report = run_gradient_estimation(f, spec, shots=0, seed=args.seed)
    sigma_pred = alpha * N / math.sqrt(3.0)
    sigma_meas = float(report.sigma_k_measured[0])
    return sigma_pred, sigma_meas


def _write_sweep(args, column: str, code: str, points) -> int:
    """One CSV row per (value, alpha, N) point; `column` names the swept value
    and `code` is its printf code.

    Sweeps run with shots=0, so no random stream is drawn; --seed is checked
    like any seed and otherwise only enters the config header.
    """
    rows = [[value, *_sweep_point(alpha, N, args)] for value, alpha, N in points]
    comments = [
        _config_comment(args),
        f"benchmark m={args.m:.12g} l={SWEEP_L:.12g} fpp=2*m*alpha/l; sigma in lattice units",
    ]
    columns = {column: code, "sigma_pred": "%.12g", "sigma_meas": "%.12g"}
    _write_csv(args.out, comments, columns, [rows])
    return 0


def cmd_sweep_n(args) -> int:
    if not args.N:
        raise ValueError("--N must list at least one lattice size")
    return _write_sweep(args, "N", "%d", [(N, args.alpha, N) for N in args.N])


def cmd_sweep_alpha(args) -> int:
    if not args.alpha:
        raise ValueError("--alpha must list at least one curvature")
    return _write_sweep(args, "alpha", "%.12g", [(alpha, alpha, args.N) for alpha in args.alpha])


def cmd_peak2d(args) -> int:
    spec = _spec_from_args(args, d=2)
    if args.hessian is not None:
        if len(args.hessian) != 4:
            raise ValueError("--hessian needs 4 row-major entries")
        H = np.array(args.hessian).reshape(2, 2)
    else:
        H = (spec.m / spec.N) * 0.1 * np.array([[1.0, 1.0], [1.0, -1.0]])
    f = quadratic([0.0, 0.0], H, c=0.0)
    # the masks come first, so a bad slack is rejected before the run; they are
    # taken per block of whole lattice lines and kept whole, 1 B/point each
    pred = stationary_phase_sigma(H, spec)
    N = spec.N
    inside = np.empty(spec.size, dtype=bool)
    inside_outer = np.empty(spec.size, dtype=bool)
    rows = N * max(1, qsim.BLOCK_POINTS // N)
    for start in range(0, spec.size, rows):
        stop = min(start + rows, spec.size)
        signed = signed_index(lattice_points(spec, start, stop), N)
        inside[start:stop] = support_membership(signed, pred, slack=args.slack_cells)
        inside_outer[start:stop] = support_membership(signed, pred, slack=args.slack_cells_outer)
    # the CSV needs only the probabilities: an 8 B/point copy lets the run's
    # 16 B/point state go before the rows are written
    flat = run_gradient_estimation(f, spec, shots=0, seed=args.seed).distribution.probs.copy()
    mass_inside = float(flat[inside].sum())
    mass_outside = float(flat[~inside_outer].sum())

    comments = [
        _config_comment(args),
        f"hessian={json.dumps(H.tolist())}",
        f"mass_inside_slack_{args.slack_cells:.12g}={mass_inside:.12g}",
        f"mass_outside_slack_{args.slack_cells_outer:.12g}={mass_outside:.12g}",
    ]
    # each row's k1, k2 and mask text is written into its line's template, so
    # only the probabilities are converted: "%.12g" once per row
    k = signed_index(np.arange(N), N).tolist()
    pieces = [np.array([f"{k2},%.12g,{flag}\n" for k2 in k], dtype=object) for flag in (0, 1)]

    def lattice_lines():
        for i, k1 in enumerate(k):
            line = slice(i * N, (i + 1) * N)
            start = f"{k1},"
            template = start + start.join(np.where(inside[line], pieces[1], pieces[0]).tolist())
            yield template, tuple(flat[line].tolist())

    columns = {"k1": "%d", "k2": "%d", "prob": "%.12g", "inside_predicted": "%d"}
    _write_csv(args.out, comments, columns, templated=lattice_lines())
    print(
        f"mass_inside={mass_inside:.6f} mass_outside={mass_outside:.6f}",
        file=sys.stderr if args.out == "-" else sys.stdout,
    )
    return 0


def cmd_compare_classical(args) -> int:
    spec = _spec_from_args(args)
    # Benchmark: lattice-representable gradient plus mild curvature, so the
    # quantum mode is exact while forward differences feel the quadratic term.
    g = np.full(spec.d, spec.m / spec.N)
    curvature = 0.1 * spec.m / spec.l
    if not curvature < np.inf:
        raise ValueError(f"m = {spec.m} and l = {spec.l} give the benchmark curvature 0.1*m/l = "
                         f"{curvature}; it must be finite")
    H = curvature * np.eye(spec.d)
    f = quadratic(g, H, c=0.0)
    true = f.grad(spec.x0)

    _check_theta(args.theta)  # before the scan and the run, which take the most time
    f_min, f_max = scanned_range(f, spec)
    n_bits_out = math.log2(spec.N)
    bits_classical = classical_precision_bits(f_max, f_min, spec.m, spec.l, n_bits_out)
    bits_quantum = quantum_precision_bits(f_max, f_min, spec.m, spec.l, n_bits_out, args.theta)

    report = run_gradient_estimation(f, spec, shots=0, seed=args.seed)
    fwd = forward_difference(f, spec.x0, spec.l)
    ctr = central_difference(f, spec.x0, spec.l)

    slope_fwd = error_scaling_fit(quadratic([0.0], [[1.0]]), [0.0],
                                  np.logspace(-2, 0, 8), method="forward")
    slope_ctr = error_scaling_fit(cubic_1d(1.0), [0.0],
                                  np.logspace(-2, 0, 8), method="central")

    err_q = float(np.max(np.abs(report.mode_gradient - true)))
    err_f = float(np.max(np.abs(fwd.gradient_estimate - true)))
    err_c = float(np.max(np.abs(ctr.gradient_estimate - true)))

    # bit_gap and slope_fit are empty on some rows, so they are text columns
    rows = [
        ["quantum", report.query_count, err_q, bits_quantum,
         f"{bits_quantum - bits_classical:.12g}", ""],
        ["forward", fwd.queries, err_f, bits_classical, "", f"{slope_fwd:.12g}"],
        ["central", ctr.queries, err_c, bits_classical, "", f"{slope_ctr:.12g}"],
    ]
    comments = [
        _config_comment(args),
        f"benchmark quadratic g_j=m/N hessian=0.1*m/l*I; theta={args.theta:.12g}",
        "slope_fit: forward on a pure quadratic, central on a pure cubic",
    ]
    columns = {"method": "%s", "queries": "%d", "err_max": "%.12g", "bits_required": "%.12g",
               "bit_gap": "%s", "slope_fit": "%s"}
    _write_csv(args.out, comments, columns, [rows])
    return 0


# -- Argument parsing ------------------------------------------------------------


def _add_shared(p: argparse.ArgumentParser):
    """Options every subcommand takes: register bits, gradient bound, seed, output."""
    p.add_argument("--n-o", type=int, default=16, help="output-register bits")
    p.add_argument("--m", type=float, default=1.0, help="gradient-bound interval width")
    p.add_argument("--seed", type=int, default=0, help="base RNG seed, an integer >= 0")
    p.add_argument("--out", default="-", help="output CSV path ('-' for stdout)")


def _add_common(p: argparse.ArgumentParser, l_default: float = 1.0, n_default: int = 128):
    group = p.add_mutually_exclusive_group()
    group.add_argument("--N", type=int, default=n_default, help="lattice points per axis")
    group.add_argument("--n-bits", type=int, default=None, help="input bits per axis (N = 2**n_bits)")
    p.add_argument("--l", type=float, default=l_default, help="sampled hypercube side length")
    _add_shared(p)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qgrad", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"qgrad {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="one end-to-end gradient estimation")
    _add_common(run)
    run.add_argument("--d", type=int, default=1, help="number of dimensions")
    run.add_argument("--x0", type=_float_list, default=None, help="evaluation point, comma-separated")
    run.add_argument("--function", default="linear", help=f"one of {sorted(_FUNCTIONS)}")
    run.add_argument("--gradient", type=_float_list, default=[0.0], help="linear coefficients")
    run.add_argument("--hessian", type=_float_list, default=None, help="row-major Hessian entries")
    run.add_argument("--alpha", type=float, default=None, help="1D curvature (l/2m)*f''")
    run.add_argument("--coeff", type=float, default=0.0, help="constant offset")
    run.add_argument("--a3", type=float, default=1.0, help="cubic coefficient")
    run.add_argument("--amplitude", type=float, default=1.0, help="sinusoid amplitude")
    run.add_argument("--wavevector", type=_float_list, default=[1.0], help="sinusoid wavevector")
    run.add_argument("--shots", type=int, default=1000, help="measurement samples (0 to skip)")
    run.set_defaults(handler=cmd_run)

    sweep_n = sub.add_parser("sweep-n", help="peak width vs lattice size at fixed alpha")
    sweep_n.add_argument("--alpha", type=float, default=0.02, help="curvature (l/2m)*f''")
    sweep_n.add_argument("--N", type=_int_list, default=[16, 32, 64, 128, 256],
                         help="comma-separated lattice sizes")
    _add_shared(sweep_n)
    sweep_n.set_defaults(handler=cmd_sweep_n)

    sweep_a = sub.add_parser("sweep-alpha", help="peak width vs curvature at fixed N")
    sweep_a.add_argument("--alpha", type=_float_list,
                         default=[0.005, 0.01, 0.02, 0.03, 0.04, 0.05],
                         help="comma-separated curvatures")
    sweep_a.add_argument("--N", type=int, default=80, help="lattice size")
    _add_shared(sweep_a)
    sweep_a.set_defaults(handler=cmd_sweep_alpha)

    peak = sub.add_parser("peak2d", help="2D outcome distribution and predicted region")
    _add_common(peak, l_default=100.0)
    peak.add_argument("--hessian", type=_float_list, default=None,
                      help="row-major Hessian (default 0.1*(m/N)*[[1,1],[1,-1]])")
    peak.add_argument("--slack-cells", type=float, default=1.5,
                      help="membership slack, lattice cells")
    peak.add_argument("--slack-cells-outer", type=float, default=3.0,
                      help="outer slack for the leakage mass")
    peak.set_defaults(handler=cmd_peak2d)

    cmp_p = sub.add_parser("compare-classical", help="query counts, errors, precision bits")
    _add_common(cmp_p, l_default=0.1, n_default=16)
    cmp_p.add_argument("--d", type=int, default=3, help="number of dimensions")
    cmp_p.add_argument("--x0", type=_float_list, default=None)
    cmp_p.add_argument("--theta", type=float, default=math.pi / 8,
                       help="per-point phase accuracy target")
    cmp_p.set_defaults(handler=cmd_compare_classical)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        # a fault of the program, not of its input: show where it happened
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
