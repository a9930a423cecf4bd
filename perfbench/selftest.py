"""Self-test of the benchmark harness at tiny sizes, a few seconds in all.

    python3 perfbench/selftest.py          (or: python3 -m pytest perfbench/selftest.py)

Shows that the output checks are not vacuous: a grid perturbed with the
public apply_phase_error, an op that raises, a wrong reference value or a
wrong CSV each fail the check and count as failed ops, while the tiny
unperturbed workloads pass.  Also checks the span arithmetic and that
BENCHMARK.json names exactly the metrics the harness prints.
"""
from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402

worker.import_qgrad()

import numpy as np  # noqa: E402
from qgrad import apply_phase_error, lattice_points, qsim  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SEEDS = (0, 1, 2)


def tiny(name: str, seed: int, workdir: Path):
    if name == "dense_d4":
        return workloads.dense_d4(seed, d=2, N=16)
    if name == "wide_d1":
        return workloads.wide_d1(seed, N=256, log10_cells=(0.5, 1.0))
    return workloads.CliStudies(workloads.cli_commands(seed, tiny=True), workdir)


def scratch_dir():
    """A temporary directory inside the checkout."""
    worker.OUT.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=worker.OUT)


def one_op(workload) -> list[list[str]]:
    return worker.closed_loop(workload, 0.0)[1]


def test_unperturbed_tiny_workloads_pass():
    with scratch_dir() as tmp:
        for name in workloads.NAMES:
            for seed in SEEDS:
                failures = one_op(tiny(name, seed, Path(tmp)))
                assert run.count_failed(failures) == 0, (name, seed, failures)


def _shifted_build(shift_cells: int):
    """build_phase_state followed by a phase ramp that moves the peak along axis 0."""
    original = qsim.build_phase_state

    def build(f, spec):
        grid = original(f, spec)
        ramp = 2.0 * np.pi * shift_cells * lattice_points(spec)[:, 0] / spec.N
        return apply_phase_error(grid, ramp)
    return build


def test_perturbed_grid_fails():
    for name in ("dense_d4", "wide_d1"):
        for seed in SEEDS:
            w = tiny(name, seed, Path("."))
            with tracing.patched([(qsim, "build_phase_state", _shifted_build(w.spec.N // 2))]):
                failures = one_op(w) + one_op(w)
            assert run.count_failed(failures) == 2, (name, seed, failures)
            assert all("outside the predicted support region" in " ".join(f) for f in failures)


def test_raising_op_fails():
    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    w = tiny("dense_d4", 0, Path("."))
    with tracing.patched([(qsim, "run_gradient_estimation", broken)]):
        failures = one_op(w)
    assert run.count_failed(failures) == 1 and "injected" in failures[0][0]


def test_wrong_reference_fails():
    for name in ("dense_d4", "wide_d1"):
        w = tiny(name, 0, Path("."))
        report = w.run()
        right = {
            "mode_index": report.mode_index.tolist(),
            "success_probability": report.success_probability,
            "circular_variance_k": report.circular_variance_k.tolist(),
        }
        w.reference = right
        assert run.count_failed(one_op(w)) == 0
        wrong_mode = [(k + 1) % w.spec.N for k in right["mode_index"]]
        for key, value in (("mode_index", wrong_mode),
                           ("success_probability", right["success_probability"] * (1 + 1e-6)),
                           ("circular_variance_k", [v * (1 + 1e-6) for v in right["circular_variance_k"]])):
            w.reference = {**right, key: value}
            failures = one_op(w)
            assert run.count_failed(failures) == 1 and key in failures[0][0], (name, key, failures)


def test_wrong_csv_fails():
    with scratch_dir() as tmp:
        w = tiny("cli_studies", 0, Path(tmp))
        codes = w.run()
        right = {c.label: hashlib.sha256(w._csv(c.label).read_bytes()).hexdigest()
                 for c in w.commands}
        assert w.check(codes) == []
        w.reference = right
        assert run.count_failed(one_op(w)) == 0
        w.reference = {**right, "peak2d": "0" * 64}
        failures = one_op(w)
        assert run.count_failed(failures) == 1 and "peak2d" in failures[0][0]
        w.reference = None
        w.commands[3] = workloads.Command(w.commands[3].label, w.commands[3].argv,
                                          w.commands[3].rows + 1, w.commands[3].columns)
        failures = one_op(w)
        assert run.count_failed(failures) == 1 and "rows" in failures[0][0]


def test_self_time_and_busy():
    rec = tracing.Recorder()
    spans = [tracing.Span(0, "qsim.build_phase_state", "op0", None, 0.0, 10.0),
             tracing.Span(1, "qsim.lattice_points", "op0", 0, 1.0, 3.0),
             tracing.Span(2, "core.encode_input", "op0", 0, 2.0, 5.0),
             tracing.Span(3, "functions.eval", "op0", 0, 8.0, 9.0)]
    rec.spans = spans
    m = tracing.layer_metrics(rec, [1.0], [2.0])
    assert m["qsim.build_phase_state.s"] == 10.0
    assert m["qsim.phase_exp.s"] == 10.0 - (4.0 + 1.0)
    assert m["functions.eval.calls_per_query"] == 1.0
    assert m["trace.overhead_ratio"] == 2.0


def test_traced_tiny_run_reports_every_layer():
    with scratch_dir() as tmp:
        for name in workloads.NAMES:
            w = tiny(name, 1, Path(tmp))
            out = worker.traced_run(w, 0.0, Path(tmp) / "spans.json")
            assert set(out["layers"]) == set(tracing.UNITS)
            assert run.count_failed(out["failures"]) == 0 and not out["untimed_failures"]
            layers = out["layers"]
            assert layers["qsim.run_gradient_estimation.s"] > 0
            assert layers["functions.eval.calls_per_query"] == 1.0
            assert layers["qsim.build_phase_state.peak_B_per_pt"] > 0
            if name == "cli_studies":
                assert layers["cli.csv_rows"] == sum(c.rows for c in w.commands)
                assert layers["cli.peak2d.s"] > 0 and layers["qsim.run_gradient_estimation.s_per_call_small"] > 0
            else:
                assert layers["qsim.points"] == w.spec.size and layers["cli.run.s"] == 0
            doc = json.loads((Path(tmp) / "spans.json").read_text())
            assert doc["spans"] and doc["fields"][:6] == ["id", "name", "op", "parent", "start", "end"]


def test_benchmark_json_matches_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES) == list(run.WORKLOADS)


if __name__ == "__main__":
    tests = [(n, f) for n, f in sorted(globals().items()) if n.startswith("test_") and callable(f)]
    bad = 0
    for name, fn in tests:
        try:
            fn()
        except AssertionError as exc:
            bad += 1
            print(f"FAIL {name}: {exc!r}")
        else:
            print(f"ok   {name}")
    sys.exit(1 if bad else 0)
