"""Benchmark workloads: inputs drawn from a seed, one op each, and its output check.

Each workload is driven by one client in a closed loop: the next op starts
when the previous one returns.  The program under test only sees the inputs
generated here from the workload seed.

    dense_d4     run_gradient_estimation, d=4 N=48 (5.3M points), full Hessian
    wide_d1      run_gradient_estimation, d=1 N=2**22, peak of 10^2..10^3 cells
    cli_studies  one pass of qgrad.cli.main over five subcommands

Checks hold for every seed (single query, normalisation, mode inside the
predicted support region, exit codes, CSV shapes).  At DEFAULT_SEED the
values recorded in reference.json are checked as well.

Regenerate reference.json from the current program with

    PYTHONPATH=src python3 perfbench/workloads.py > perfbench/reference.json
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Modules rather than names, so that a traced run sees the attributes it patches.
from qgrad import analysis, classical, cli, core, functions, qsim
from qgrad import ProblemSpec, TestFunction, quadratic

NAMES = ("dense_d4", "wide_d1", "cli_studies")
DEFAULT_SEED = 0
REFERENCE_PATH = Path(__file__).with_name("reference.json")

NORM_TOL = 1e-9       # |sum p - 1| of a unitary run
SLACK_CELLS = 1.5     # support_membership slack for the mode, as the CLI uses
REF_RTOL = 1e-9       # relative tolerance on recorded float references

RUN_COLUMNS = "axis,true_gradient,decoded_mode,success_prob,sigma_pred,sigma_meas"
SWEEP_N_COLUMNS = "N,sigma_pred,sigma_meas"
SWEEP_ALPHA_COLUMNS = "alpha,sigma_pred,sigma_meas"
PEAK2D_COLUMNS = "k1,k2,prob,inside_predicted"
COMPARE_COLUMNS = "method,queries,err_max,bits_required,bit_gap,slope_fit"


# -- Estimation workloads ----------------------------------------------------------


@dataclass
class Estimation:
    """One run_gradient_estimation call on a seeded quadratic.

    `support` is the predicted support matrix A = (N*l/m)*H in lattice cells;
    the Hessian is derived from it so that the peak size is set directly.
    """

    spec: ProblemSpec
    fn: TestFunction
    hessian: np.ndarray
    shots: int
    shot_seed: int
    reference: dict | None = None
    counters: dict = field(default_factory=dict)

    def run(self):
        return qsim.run_gradient_estimation(self.fn, self.spec, shots=self.shots, seed=self.shot_seed)

    def check(self, report) -> list[str]:
        spec = self.spec
        bad = []
        if report.query_count != 1:
            bad.append(f"query_count={report.query_count}, expected 1")
        drift = abs(float(report.distribution.probs.sum()) - 1.0)
        if not drift <= NORM_TOL:
            bad.append(f"|sum p - 1| = {drift:.3g} > {NORM_TOL}")
        # the predicted region is centred on the true gradient's (off-lattice) frequency
        offset = qsim.wrap_signed(report.mode_index - spec.N * report.true_gradient / spec.m, spec.N)
        region = analysis.stationary_phase_sigma(self.hessian, spec)
        if not analysis.support_membership(offset, region, slack=SLACK_CELLS):
            bad.append(f"mode offset {offset.round(3).tolist()} cells outside the predicted support region")
        samples = report.samples
        if samples.shape != (self.shots, spec.d) or samples.min() < 0 or samples.max() >= spec.N:
            bad.append(f"samples of shape {samples.shape} outside [0, {spec.N})")
        ref = self.reference
        if ref is not None:
            if report.mode_index.tolist() != ref["mode_index"]:
                bad.append(f"mode_index {report.mode_index.tolist()} != reference {ref['mode_index']}")
            if not math.isclose(report.success_probability, ref["success_probability"], rel_tol=REF_RTOL):
                bad.append(f"success_probability {report.success_probability!r} != "
                           f"reference {ref['success_probability']!r}")
            if not np.allclose(report.circular_variance_k, ref["circular_variance_k"], rtol=REF_RTOL, atol=0):
                bad.append(f"circular_variance_k {report.circular_variance_k.tolist()} != "
                           f"reference {ref['circular_variance_k']}")
        return bad

    def arrays(self) -> dict[str, int]:
        """Largest arrays of one op, bytes, computed from the shapes."""
        P, d = self.spec.size, self.spec.d
        return {
            "lattice index array int64 (P x d)": P * d * 8,
            "encoded points float64 (P x d)": P * d * 8,
            "state complex128 (P)": P * 16,
            "outcome probabilities float64 (P)": P * 8,
        }


def _estimation(spec_kw: dict, support: np.ndarray, k_true: np.ndarray,
                shot_seed: int, reference: dict | None) -> Estimation:
    spec = ProblemSpec(**spec_kw)
    H = support * spec.m / (spec.N * spec.l)
    grad = k_true * spec.m / spec.N
    # f.grad(x0) = g + H x0 = grad: the peak sits at k_true, off the lattice
    fn = quadratic(grad - H @ spec.x0, H)
    return Estimation(spec=spec, fn=fn, hessian=H, shots=1000,
                      shot_seed=shot_seed, reference=reference)


def dense_d4(seed: int, d: int = 4, N: int = 48, reference: dict | None = None) -> Estimation:
    """Full symmetric Hessian whose support spans 2 to 6 cells along each eigenvector.

    A well-conditioned support keeps the stationary-phase region meaningful in
    every direction (a near-zero eigenvalue leaves only the ~1 cell diffraction
    width there).  The peak stays within N/4 + 6 cells of the origin, so it
    never aliases.
    """
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    eig = rng.uniform(2.0, 6.0, d) * rng.choice([-1.0, 1.0], d)
    support = (q * eig) @ q.T
    support = (support + support.T) / 2.0
    x0 = rng.uniform(-1.0, 1.0, d)
    k_true = rng.uniform(-N / 4.0, N / 4.0, d)
    shot_seed = int(rng.integers(2 ** 32))
    return _estimation(dict(d=d, N=N, n_o=16, l=1.0, m=1.0, x0=x0),
                       support, k_true, shot_seed, reference)


def wide_d1(seed: int, N: int = 2 ** 22, log10_cells: tuple[float, float] = (2.0, 3.0),
            reference: dict | None = None) -> Estimation:
    """1D quadratic whose predicted peak spans 10**log10_cells lattice cells."""
    rng = np.random.default_rng(seed)
    width = 10.0 ** rng.uniform(*log10_cells)
    x0 = rng.uniform(-1.0, 1.0, 1)
    k_true = rng.uniform(-N / 4.0, N / 4.0, 1)
    shot_seed = int(rng.integers(2 ** 32))
    return _estimation(dict(d=1, N=N, n_o=16, l=1.0, m=1.0, x0=x0),
                       np.array([[width]]), k_true, shot_seed, reference)


# -- CLI workload ------------------------------------------------------------------


@dataclass(frozen=True)
class Command:
    label: str            # CSV file stem; the traced span is cli.<label>
    argv: tuple[str, ...]
    rows: int             # expected CSV data rows
    columns: str          # expected CSV header


def cli_commands(seed: int, tiny: bool = False) -> list[Command]:
    s = ("--seed", str(seed))
    if tiny:
        ns, n_alpha, alphas, n_peak, d_cmp = range(16, 65, 16), 64, range(1, 5), 16, 2
    else:
        ns, n_alpha, alphas, n_peak, d_cmp = range(16, 1025, 16), 1024, range(1, 65), 256, 8
    n_run = 16 if tiny else 128
    return [
        Command("run", ("run", "--d", "2", "--N", str(n_run), "--function", "quadratic",
                        "--hessian", "0.2,0.05,0.05,-0.1", "--shots", "1000", *s), 2, RUN_COLUMNS),
        Command("sweep_n", ("sweep-n", "--alpha", "0.02", "--N", ",".join(map(str, ns)), *s),
                len(ns), SWEEP_N_COLUMNS),
        Command("sweep_alpha", ("sweep-alpha", "--N", str(n_alpha),
                                "--alpha", ",".join(f"{i / 1000:g}" for i in alphas), *s),
                len(alphas), SWEEP_ALPHA_COLUMNS),
        Command("peak2d", ("peak2d", "--N", str(n_peak), "--l", "100", *s), n_peak ** 2, PEAK2D_COLUMNS),
        Command("compare_classical", ("compare-classical", "--d", str(d_cmp), "--N", "4",
                                      "--theta", "0.3926990817", *s), 3, COMPARE_COLUMNS),
    ]


@dataclass
class CliStudies:
    """One pass of qgrad.cli.main over five subcommands, each writing a CSV."""

    commands: list[Command]
    workdir: Path
    reference: dict | None = None
    counters: dict = field(default_factory=dict)

    def __post_init__(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        parser = cli.build_parser()
        self._parsed = {c.label: parser.parse_args(c.argv) for c in self.commands}

    def _csv(self, label: str) -> Path:
        return self.workdir / f"{label}.csv"

    def run(self) -> dict[str, int]:
        codes = {}
        with contextlib.redirect_stdout(io.StringIO()):
            for c in self.commands:
                codes[c.label] = cli.main([*c.argv, "--out", str(self._csv(c.label))])
        return codes

    def check(self, codes: dict[str, int]) -> list[str]:
        """Check each CSV, then delete it so the next op cannot pass on stale files."""
        bad, rows, nbytes = [], 0, 0
        for c in self.commands:
            path = self._csv(c.label)
            if codes.get(c.label) != 0:
                bad.append(f"{c.label}: exit code {codes.get(c.label)}")
            if not path.is_file():
                bad.append(f"{c.label}: no CSV written")
                continue
            data = path.read_bytes()
            path.unlink()
            body = [ln for ln in data.decode("utf-8").splitlines() if not ln.startswith("#")]
            rows += max(len(body) - 1, 0)
            nbytes += len(data)
            if not body or body[0] != c.columns:
                bad.append(f"{c.label}: header {body[:1]} != {c.columns!r}")
            elif len(body) - 1 != c.rows:
                bad.append(f"{c.label}: {len(body) - 1} rows, expected {c.rows}")
            if self.reference is not None and hashlib.sha256(data).hexdigest() != self.reference[c.label]:
                bad.append(f"{c.label}: CSV SHA-256 differs from the reference")
        self.counters = {"cli.csv_rows": rows, "cli.csv_bytes": nbytes}
        return bad

    def replay(self):
        """The computation of run() through the public API, without the CLI.

        Argument parsing happened at construction; sweeps run as a plain
        loop.  main() minus this is the CLI's own cost: parsing, sweep
        scheduling and CSV formatting.
        """
        for c in self.commands:
            _REPLAY[c.label](self._parsed[c.label])

    def arrays(self) -> dict[str, int]:
        peak = self._parsed["peak2d"]
        P = peak.N ** 2
        return {
            "peak2d state complex128 (N^2)": P * 16,
            "peak2d signed outcome grid int64 (N^2 x 2)": P * 2 * 8,
            "largest sweep state complex128 (N)": max(self._parsed["sweep_n"].N) * 16,
        }


def _spec(a, d: int, N: int | None = None, l: float | None = None) -> ProblemSpec:
    return ProblemSpec(d=d, N=a.N if N is None else N, n_o=a.n_o, l=a.l if l is None else l, m=a.m)


def _replay_run(a):
    spec = _spec(a, a.d)
    f = quadratic(np.zeros(a.d), np.array(a.hessian).reshape(a.d, a.d))
    qsim.run_gradient_estimation(f, spec, shots=a.shots, seed=a.seed)
    analysis.stationary_phase_sigma(f.hess(spec.x0), spec)


def _replay_sweep(a, points):
    for alpha, N in points:
        spec = _spec(a, 1, N=N, l=cli.SWEEP_L)
        f = quadratic([0.0], [[2.0 * a.m * alpha / cli.SWEEP_L]])
        qsim.run_gradient_estimation(f, spec, shots=0, seed=a.seed)


def _replay_peak2d(a):
    spec = _spec(a, 2)
    H = (spec.m / spec.N) * 0.1 * np.array([[1.0, 1.0], [1.0, -1.0]])
    report = qsim.run_gradient_estimation(quadratic([0.0, 0.0], H), spec, shots=0, seed=a.seed)
    pred = analysis.stationary_phase_sigma(H, spec)
    ks = core.signed_index(np.arange(spec.N), spec.N)
    signed = np.stack(np.meshgrid(ks, ks, indexing="ij"), axis=-1).reshape(-1, 2)
    flat = report.distribution.probs
    flat[analysis.support_membership(signed, pred, slack=a.slack_cells)].sum()
    flat[~analysis.support_membership(signed, pred, slack=a.slack_cells_outer)].sum()


def _replay_compare(a):
    spec = _spec(a, a.d)
    f = quadratic(np.full(spec.d, spec.m / spec.N), (0.1 * spec.m / spec.l) * np.eye(spec.d))
    qsim.run_gradient_estimation(f, spec, shots=0, seed=a.seed)
    classical.forward_difference(f, spec.x0, spec.l)
    classical.central_difference(f, spec.x0, spec.l)
    f_min, f_max = functions.scanned_range(f, spec)
    n_bits = math.log2(spec.N)
    analysis.classical_precision_bits(f_max, f_min, spec.m, spec.l, n_bits)
    analysis.quantum_precision_bits(f_max, f_min, spec.m, spec.l, n_bits, a.theta)
    classical.error_scaling_fit(quadratic([0.0], [[1.0]]), [0.0], np.logspace(-2, 0, 8), method="forward")
    classical.error_scaling_fit(functions.cubic_1d(1.0), [0.0], np.logspace(-2, 0, 8), method="central")


_REPLAY = {
    "run": _replay_run,
    "sweep_n": lambda a: _replay_sweep(a, [(a.alpha, N) for N in a.N]),
    "sweep_alpha": lambda a: _replay_sweep(a, [(alpha, a.N) for alpha in a.alpha]),
    "peak2d": _replay_peak2d,
    "compare_classical": _replay_compare,
}


# -- Registry ----------------------------------------------------------------------


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def build(name: str, seed: int, workdir: Path, reference: dict | None = None):
    """Full-size workload `name`; reference values apply at DEFAULT_SEED only."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
    ref = None
    if seed == DEFAULT_SEED:
        ref = (load_reference() if reference is None else reference)[name]
    if name == "dense_d4":
        return dense_d4(seed, reference=ref)
    if name == "wide_d1":
        return wide_d1(seed, reference=ref)
    return CliStudies(cli_commands(seed), workdir, reference=ref)


def record_reference(workdir: Path) -> dict:
    """Reference values of the current program at DEFAULT_SEED."""
    out = {}
    for name in ("dense_d4", "wide_d1"):
        report = build(name, DEFAULT_SEED, workdir, reference={name: None}).run()
        out[name] = {
            "mode_index": report.mode_index.tolist(),
            "success_probability": report.success_probability,
            "circular_variance_k": report.circular_variance_k.tolist(),
        }
    studies = build("cli_studies", DEFAULT_SEED, workdir, reference={"cli_studies": None})
    codes = studies.run()
    out["cli_studies"] = {}
    for c in studies.commands:
        if codes[c.label] != 0:
            raise RuntimeError(f"{c.label} exited with {codes[c.label]}")
        out["cli_studies"][c.label] = hashlib.sha256(studies._csv(c.label).read_bytes()).hexdigest()
        studies._csv(c.label).unlink()
    return out


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent.parent) as tmp:
        print(json.dumps(record_reference(Path(tmp)), indent=2))
