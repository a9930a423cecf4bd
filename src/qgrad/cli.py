"""Experiment runner: deterministic CSV artifacts for each study.

Subcommands
    run                one end-to-end estimation, per-axis summary rows
    sweep-n            peak width vs lattice size at fixed curvature alpha
    sweep-alpha        peak width vs curvature at fixed lattice size
    peak2d             full 2D outcome distribution with predicted-region mask
    compare-classical  query counts, achieved error, precision bits per method

Every CSV starts with comment lines recording the full configuration and the
tool version; identical flags and seed produce byte-identical files.  Floats
are written with up to 12 significant digits, '.' decimal separator.
Exit codes: 0 success, 2 invalid configuration, 1 runtime failure.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .analysis import (
    classical_precision_bits,
    quantum_precision_bits,
    stationary_phase_sigma,
    support_membership,
)
from .classical import central_difference, error_scaling_fit, forward_difference
from .core import ProblemSpec, lattice_points, signed_index
from .functions import CATALOG, cubic_1d, linear, quadratic, scanned_range, sinusoid
from .qsim import run_gradient_estimation


def _int_list(text: str) -> list[int]:
    return [int(t) for t in text.split(",") if t.strip()]


def _float_list(text: str) -> list[float]:
    return [float(t) for t in text.split(",") if t.strip()]


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".12g")
    return str(value)


def _write_csv(out: str, comments: list[str], columns: list[str], rows: list[list]):
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(columns))
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    text = "\n".join(lines) + "\n"
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _config_comment(args: argparse.Namespace) -> str:
    # the destination path is not part of the experiment configuration
    cfg = {k: v for k, v in sorted(vars(args).items()) if k not in ("handler", "out")}
    return f"config {json.dumps(cfg, sort_keys=True)} version={__version__}"


def _resolve_n(args) -> int:
    if getattr(args, "n_bits", None) is not None:
        return 2 ** args.n_bits
    return args.N


def _per_axis(values: list[float], d: int, flag: str) -> list[float]:
    """A "1 or d components" option: one component is repeated on every axis."""
    if len(values) == 1:
        values = values * d
    if len(values) != d:
        raise ValueError(f"{flag} needs 1 or {d} components, got {len(values)}")
    return values


def _spec_from_args(args, d: int | None = None, N: int | None = None) -> ProblemSpec:
    d = d if d is not None else args.d
    N = N if N is not None else _resolve_n(args)
    x0 = getattr(args, "x0", None)
    x0 = None if x0 is None else _per_axis(x0, d, "--x0")
    return ProblemSpec(d=d, N=N, n_o=args.n_o, l=args.l, m=args.m, x0=x0)


def _build_function(args, spec: ProblemSpec):
    name = args.function
    if name not in CATALOG:
        raise ValueError(f"unknown function {name!r}; choose from {sorted(CATALOG)}")
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
    if name == "sinusoid":
        return sinusoid(args.amplitude, _per_axis(args.wavevector, spec.d, "--wavevector"))
    raise ValueError(f"unknown function {name!r}")


# -- Subcommands ---------------------------------------------------------------


def cmd_run(args) -> int:
    spec = _spec_from_args(args)
    f = _build_function(args, spec)
    report = run_gradient_estimation(f, spec, shots=args.shots, seed=args.seed)
    pred = stationary_phase_sigma(f.hess(spec.x0), spec)
    rows = []
    for axis in range(spec.d):
        rows.append([
            axis,
            float(report.true_gradient[axis]),
            float(report.mode_gradient[axis]),
            report.success_probability,
            float(pred.sigma_grad[axis]),
            float(report.sigma_grad_measured[axis]),
        ])
    _write_csv(
        args.out,
        [_config_comment(args)],
        ["axis", "true_gradient", "decoded_mode", "success_prob", "sigma_pred", "sigma_meas"],
        rows,
    )
    print(
        f"queries=1 mode={report.mode_index.tolist()} "
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
    report = run_gradient_estimation(f, spec, shots=0)
    sigma_pred = alpha * N / math.sqrt(3.0)
    sigma_meas = float(report.sigma_k_measured[0])
    return sigma_pred, sigma_meas


def _write_sweep(args, column: str, points) -> int:
    """One CSV row per (value, alpha, N) point; `column` names the swept value.

    Sweeps run with shots=0, so no random stream is drawn; --seed only enters
    the config header.
    """
    rows = [[value, *_sweep_point(alpha, N, args)] for value, alpha, N in points]
    comments = [
        _config_comment(args),
        f"benchmark m={_fmt(args.m)} l={_fmt(SWEEP_L)} fpp=2*m*alpha/l; sigma in lattice units",
    ]
    _write_csv(args.out, comments, [column, "sigma_pred", "sigma_meas"], rows)
    return 0


def cmd_sweep_n(args) -> int:
    if not args.N:
        raise ValueError("--N must list at least one lattice size")
    return _write_sweep(args, "N", [(N, args.alpha, N) for N in args.N])


def cmd_sweep_alpha(args) -> int:
    if not args.alpha:
        raise ValueError("--alpha must list at least one curvature")
    return _write_sweep(args, "alpha", [(alpha, alpha, args.N) for alpha in args.alpha])


def cmd_peak2d(args) -> int:
    spec = _spec_from_args(args, d=2)
    if args.hessian is not None:
        if len(args.hessian) != 4:
            raise ValueError("--hessian needs 4 row-major entries")
        H = np.array(args.hessian).reshape(2, 2)
    else:
        H = (spec.m / spec.N) * 0.1 * np.array([[1.0, 1.0], [1.0, -1.0]])
    f = quadratic([0.0, 0.0], H, c=0.0)
    report = run_gradient_estimation(f, spec, shots=0, seed=args.seed)
    pred = stationary_phase_sigma(H, spec)

    probs = report.distribution.reshaped()
    signed = signed_index(lattice_points(spec), spec.N)
    inside = support_membership(signed, pred, slack=args.slack_cells)
    inside_outer = support_membership(signed, pred, slack=args.slack_cells_outer)
    flat = probs.reshape(-1)
    mass_inside = float(flat[inside].sum())
    mass_outside = float(flat[~inside_outer].sum())

    comments = [
        _config_comment(args),
        f"hessian={json.dumps(H.tolist())}",
        f"mass_inside_slack_{_fmt(args.slack_cells)}={_fmt(mass_inside)}",
        f"mass_outside_slack_{_fmt(args.slack_cells_outer)}={_fmt(mass_outside)}",
    ]
    rows = [
        [int(signed[i, 0]), int(signed[i, 1]), float(flat[i]), bool(inside[i])]
        for i in range(flat.size)
    ]
    _write_csv(args.out, comments, ["k1", "k2", "prob", "inside_predicted"], rows)
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
    H = (0.1 * spec.m / spec.l) * np.eye(spec.d)
    f = quadratic(g, H, c=0.0)
    true = f.grad(spec.x0)

    report = run_gradient_estimation(f, spec, shots=0, seed=args.seed)
    fwd = forward_difference(f, spec.x0, spec.l)
    ctr = central_difference(f, spec.x0, spec.l)

    f_min, f_max = scanned_range(f, spec)
    n_bits_out = math.log2(spec.N)
    bits_classical = classical_precision_bits(f_max, f_min, spec.m, spec.l, n_bits_out)
    bits_quantum = quantum_precision_bits(f_max, f_min, spec.m, spec.l, n_bits_out, args.theta)

    slope_fwd = error_scaling_fit(quadratic([0.0], [[1.0]]), [0.0],
                                  np.logspace(-2, 0, 8), method="forward").slope
    slope_ctr = error_scaling_fit(cubic_1d(1.0), [0.0],
                                  np.logspace(-2, 0, 8), method="central").slope

    err_q = float(np.max(np.abs(report.mode_gradient - true)))
    err_f = float(np.max(np.abs(fwd.gradient_estimate - true)))
    err_c = float(np.max(np.abs(ctr.gradient_estimate - true)))

    rows = [
        ["quantum", report.query_count, err_q, bits_quantum, bits_quantum - bits_classical, ""],
        ["forward", fwd.queries, err_f, bits_classical, "", slope_fwd],
        ["central", ctr.queries, err_c, bits_classical, "", slope_ctr],
    ]
    comments = [
        _config_comment(args),
        f"benchmark quadratic g_j=m/N hessian=0.1*m/l*I; theta={_fmt(args.theta)}",
        "slope_fit: forward on a pure quadratic, central on a pure cubic",
    ]
    _write_csv(args.out, comments,
               ["method", "queries", "err_max", "bits_required", "bit_gap", "slope_fit"], rows)
    return 0


# -- Argument parsing ------------------------------------------------------------


def _add_shared(p: argparse.ArgumentParser):
    """Options every subcommand takes: register bits, gradient bound, seed, output."""
    p.add_argument("--n-o", type=int, default=16, help="output-register bits")
    p.add_argument("--m", type=float, default=1.0, help="gradient-bound interval width")
    p.add_argument("--seed", type=int, default=0, help="base RNG seed")
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
    run.add_argument("--function", default="linear", help=f"one of {sorted(CATALOG)}")
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
    except Exception as exc:  # pragma: no cover - defensive
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
