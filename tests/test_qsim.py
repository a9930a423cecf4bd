"""Tests for the amplitude-level simulator: phase grids, transforms, sampling, runs."""
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from qgrad import (
    AmplitudeGrid,
    OutcomeDistribution,
    ProblemSpec,
    apply_phase_error,
    build_phase_state,
    circular_mean,
    circular_variance,
    cli,
    cubic_1d,
    encode_input,
    fixed_point,
    fourier_transform,
    lattice_points,
    linear,
    outcome_distribution,
    qsim,
    quadratic,
    quantize_output,
    run_gradient_estimation,
    sample,
    scanned_range,
    sinusoid,
    wrap_signed,
)
from qgrad.qsim import BLOCK_POINTS
from oracles import brute_force_transform, choice_draws, counted, ideal_planewave, ideal_state_fidelity


def lattice(d, N):
    return ProblemSpec(d=d, N=N, n_o=8, l=1.0, m=1.0)


def random_grid(N, d, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=N ** d) + 1j * rng.normal(size=N ** d)
    amps /= np.linalg.norm(amps)
    return AmplitudeGrid(lattice(d, N), amps)


# --- build_phase_state ---

def test_zero_function_gives_flat_superposition():
    spec = ProblemSpec(d=1, N=8, n_o=4, l=1.0, m=1.0)
    grid = build_phase_state(linear([0.0]), spec)
    assert grid.amps == pytest.approx(np.full(8, 1 / np.sqrt(8)))
    assert abs(np.sum(np.abs(grid.amps) ** 2) - 1.0) < 1e-10


def test_two_point_hand_calculation():
    # N=2, N_o=4, m=l=1, f(x)=x: sample points (l/N)(delta - N/2) = {-0.5, 0.0},
    # scale N*N_o/(m*l) = 8, so g = {round(-4.0) mod 4, round(0.0) mod 4} = {0, 0}
    spec = ProblemSpec(d=1, N=2, n_o=2, l=1.0, m=1.0)
    grid = build_phase_state(linear([1.0]), spec)
    expected = np.array([np.exp(2j * np.pi * 0 / 4), np.exp(2j * np.pi * 0 / 4)]) / np.sqrt(2)
    assert grid.amps == pytest.approx(expected)


def test_four_point_hand_calculation():
    # N=4, N_o=4, m=l=1, f(x)=0.3x: samples {-0.5,-0.25,0,0.25}, scale 16,
    # scaled {-2.4,-1.2,0,1.2} -> rounded {-2,-1,0,1} -> mod 4 {2,3,0,1}
    spec = ProblemSpec(d=1, N=4, n_o=2, l=1.0, m=1.0)
    grid = build_phase_state(linear([0.3]), spec)
    expected = 0.5 * np.array([-1.0, -1j, 1.0, 1j])
    assert grid.amps == pytest.approx(expected, abs=1e-12)


def test_quadratic_phase_field_matches_analytic_up_to_quantization():
    spec = ProblemSpec(d=2, N=12, n_o=6, l=0.8, m=1.0)
    H = 0.3 * np.array([[1.0, 0.4], [0.4, -0.5]])
    f = quadratic([0.05, -0.1], H, c=0.2)
    grid = build_phase_state(f, spec)
    deltas = np.stack(np.meshgrid(np.arange(12), np.arange(12), indexing="ij"), -1).reshape(-1, 2)
    analytic = 2 * np.pi * (spec.N / (spec.m * spec.l)) * f.eval(encode_input(deltas, spec))
    observed = np.angle(grid.amps * spec.N ** (spec.d / 2))
    mismatch = np.abs(np.angle(np.exp(1j * (observed - analytic))))
    assert np.max(mismatch) <= np.pi / spec.N_o + 1e-9


def test_budget_guard():
    with pytest.raises(ValueError):
        ProblemSpec(d=2, N=4097, n_o=4, l=1.0, m=1.0)  # over the 2**24-point cap


def test_non_vectorized_eval_is_rejected():
    # one oracle query evaluates the whole lattice, so eval must map (n, d) to (n,)
    spec = ProblemSpec(d=1, N=8, n_o=4, l=1.0, m=1.0)
    f = linear([0.25])
    scalar_only = replace(f, name="scalar", eval=lambda x: float(np.asarray(x).reshape(-1)[0] * 0.25))
    column = replace(f, name="column", eval=lambda x: f.eval(x)[:, None])
    for bad in (scalar_only, column):
        with pytest.raises(ValueError, match=bad.name):
            build_phase_state(bad, spec)


# several blocks with a partial tail; (table path, direct exp path) at d=1 and d>=2
STREAMED_CASES = [
    (ProblemSpec(d=1, N=2 * BLOCK_POINTS + 100, n_o=8, l=1.0, m=1.0), quadratic([0.1], [[0.4]])),
    (ProblemSpec(d=1, N=2 * BLOCK_POINTS + 100, n_o=18, l=1.0, m=1.0), quadratic([0.1], [[0.4]])),
    (ProblemSpec(d=2, N=300, n_o=10, l=1.0, m=1.0), sinusoid(0.5, [1.0, 2.0])),
    (ProblemSpec(d=2, N=300, n_o=17, l=1.0, m=1.0, x0=[0.1, -0.2]),
     quadratic([0.1, -0.2], [[0.3, 0.1], [0.1, -0.2]])),
    (ProblemSpec(d=3, N=50, n_o=8, l=0.5, m=1.0), quadratic([0.1, 0.0, 0.2], np.diag([0.1, 0.2, -0.1]))),
]
# one block, with fewer lattice points than register values: still the table path
SMALL_CASES = [
    (ProblemSpec(d=1, N=1000, n_o=16, l=1.0, m=1.0, x0=[0.2]), cubic_1d(0.8)),
    (ProblemSpec(d=2, N=100, n_o=14, l=1.0, m=1.0), sinusoid(0.5, [1.0, 2.0])),
]


@pytest.mark.parametrize("spec,f", STREAMED_CASES + SMALL_CASES)
def test_streamed_build_matches_one_shot_formula(spec, f):
    assert spec.size < spec.N_o <= BLOCK_POINTS or (spec.size > BLOCK_POINTS and spec.size % BLOCK_POINTS != 0)
    g = quantize_output(f.eval(encode_input(lattice_points(spec), spec)), spec)
    expected = np.exp(2j * np.pi * g / spec.N_o) / spec.N ** (spec.d / 2.0)
    assert np.array_equal(build_phase_state(f, spec).amps, expected)


def test_streamed_build_takes_both_phase_paths(monkeypatch):
    # a table exactly when N_o <= BLOCK_POINTS, whatever the lattice size
    asked = []
    phases = qsim._phases
    monkeypatch.setattr(qsim, "_phases", lambda N_o: asked.append(N_o) or phases(N_o))
    for spec, f in STREAMED_CASES + SMALL_CASES:
        asked.clear()
        build_phase_state(f, spec)
        assert asked == ([spec.N_o] if spec.N_o <= BLOCK_POINTS else []), spec
    assert {spec.N_o <= BLOCK_POINTS for spec, _ in STREAMED_CASES} == {True, False}


def test_phase_tables_are_shared_and_read_only():
    # one table per register size n_o <= 16, 2 MB at most over all of them
    qsim._phases.cache_clear()
    f = linear([0.3])
    for n_o in range(1, 18):
        build_phase_state(f, ProblemSpec(d=1, N=64, n_o=n_o, l=1.0, m=1.0))
        assert qsim._phases.cache_info().currsize == min(n_o, 16)
    tables = [qsim._phases(2 ** n_o) for n_o in range(1, 17)]
    assert qsim._phases.cache_info().currsize == 16
    assert sum(table.nbytes for table in tables) < 2 ** 21
    for table in tables:
        assert not table.flags.writeable
        assert table is qsim._phases(table.size)
        assert np.array_equal(table, np.exp(2j * np.pi * np.arange(table.size) / table.size))
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0.0


def _spike_at_last_point(spec, height):
    """f = 0 everywhere except `height` at the last lattice point, inside the last block."""
    edge = encode_input([spec.N - 1], spec)[0]
    return replace(linear([0.0]), name="spike", eval=lambda x: np.where(x[..., 0] >= edge, height, 0.0))


def test_range_violations_in_the_last_block_raise():
    spec = ProblemSpec(d=1, N=2 * BLOCK_POINTS + 3, n_o=8, l=1.0, m=1.0)
    with pytest.raises(ValueError, match="2\\*\\*53"):
        build_phase_state(_spike_at_last_point(spec, 1e30), spec)


def test_nan_in_the_last_block_gives_nan_bounds():
    spec = ProblemSpec(d=1, N=2 * BLOCK_POINTS + 3, n_o=8, l=1.0, m=1.0)
    lo, hi = scanned_range(_spike_at_last_point(spec, np.nan), spec)
    assert np.isnan(lo) and np.isnan(hi)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("d,N", [(1, 23), (2, 5), (3, 5)])
def test_the_run_reports_the_range_scanned_range_finds(monkeypatch, d, N, workers):
    # blocks of at most 7 points: 4 runs of the d = 1 line, one line per block at
    # d >= 2, so the range is combined over several blocks and, with 2 workers, chunks
    monkeypatch.setattr(qsim, "BLOCK_POINTS", 7)
    monkeypatch.setattr(qsim, "_WORKERS", workers)
    rng = np.random.default_rng(d)
    H = rng.normal(size=(d, d))
    spec = ProblemSpec(d=d, N=N, n_o=12, l=1.0, m=1.0, x0=np.full(d, 0.1))
    catalog = [linear(rng.normal(size=d), c=0.5), quadratic(rng.normal(size=d), H + H.T),
               sinusoid(0.7, rng.normal(size=d)), *([cubic_1d(0.8)] if d == 1 else [])]
    for f in catalog:
        report = run_gradient_estimation(f, spec, shots=0)
        assert report.value_range == scanned_range(f, spec), f.name
        assert build_phase_state(f, spec).value_range == report.value_range, f.name
        values = f.eval(encode_input(lattice_points(spec), spec))
        assert report.value_range == (values.min(), values.max()), f.name


def test_the_value_range_survives_the_transform_and_phase_errors():
    spec = ProblemSpec(d=2, N=8, n_o=8, l=1.0, m=1.0)
    f = quadratic([0.1, -0.2], [[0.3, 0.1], [0.1, -0.2]])
    grid = build_phase_state(f, spec)
    assert grid.value_range == scanned_range(f, spec)
    assert fourier_transform(grid).value_range == grid.value_range
    assert apply_phase_error(grid, np.full(spec.size, 0.1)).value_range == grid.value_range
    assert fourier_transform(grid, in_place=True).value_range == scanned_range(f, spec)
    # a grid that no query built has no range
    assert random_grid(4, 2, 0).value_range is None


def test_build_calls_each_stage_once_per_block(monkeypatch):
    # perfbench's per-layer tracing wraps these qsim globals; the build must look them up.
    # eval and quantize_output run once per block; at d >= 2 lattice_points (the
    # line heads) runs once and encode_input twice (the heads and the run of last
    # coordinates), at d = 1 encode_input once (the run is the block)
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("lattice_points", "encode_input", "quantize_output"):
        monkeypatch.setattr(qsim, name, counted(name, getattr(qsim, name)))
    d2, d1 = STREAMED_CASES[2], STREAMED_CASES[0]
    small = (ProblemSpec(d=2, N=5, n_o=8, l=1.0, m=1.0), d2[1])
    # (case, BLOCK_POINTS, blocks)
    cases = [
        (d2, BLOCK_POINTS, 2),  # 300 lines of 300: blocks of 218 and 82 lines
        (d1, BLOCK_POINTS, 3),  # one line of 2B + 100: runs B, B, 100
        (small, 10, 3),  # 5 lines of 5: blocks of 2, 2 and 1 lines
        (small, 3, 5),  # lines longer than a block: one line per block
    ]
    for (spec, f), block, blocks in cases:
        calls.clear()
        monkeypatch.setattr(qsim, "BLOCK_POINTS", block)
        f = replace(f, eval=counted("eval", f.eval))
        build_phase_state(f, spec)
        heads = blocks if spec.d > 1 else 0
        assert calls == Counter(lattice_points=heads, encode_input=blocks + heads,
                                quantize_output=blocks, eval=blocks)


@pytest.mark.parametrize("spec,blocks", [
    (STREAMED_CASES[0][0], 3),  # one line of 2B + 100 points
    (ProblemSpec(d=3, N=48, n_o=8, l=1.0, m=1.0), 2),  # 48**3 points, 1365 lines per block
])
def test_the_build_queries_every_lattice_row_once(monkeypatch, spec, blocks):
    # the one superposed query: the eval batches of all workers together hold
    # each encoded lattice point exactly once
    monkeypatch.setattr(qsim, "_WORKERS", 2)
    f, batches = counted(quadratic(np.full(spec.d, 0.1), 0.4 * np.eye(spec.d)))
    build_phase_state(f, spec)
    assert len(batches) == blocks
    points = np.concatenate(batches)
    points = points[np.lexsort(points.T[::-1])]  # row-major order, as the encoding keeps it
    assert np.array_equal(points, encode_input(lattice_points(spec), spec))


@pytest.mark.parametrize("d,N", [(1, 23), (2, 7), (3, 5)])
@pytest.mark.parametrize("block", [1, 2, 3, 4, 6, 7, 8, 24, 50, 200])
def test_no_block_straddles_a_line_end(monkeypatch, d, N, block):
    # at d >= 2 each eval batch is whole last-axis lines, at least one; at d = 1 it
    # is the whole line or a run of BLOCK_POINTS rows inside it (the last one shorter)
    spec = ProblemSpec(d=d, N=N, n_o=8, l=1.0, m=1.0)
    monkeypatch.setattr(qsim, "BLOCK_POINTS", block)
    f, batches = counted(quadratic(np.full(d, 0.1), 0.4 * np.eye(d)))
    build_phase_state(f, spec)
    rows = encode_input(lattice_points(spec), spec)
    width = min(N, block) if d == 1 else N * max(1, block // N)
    start = 0
    for batch in sorted(batches, key=lambda batch: tuple(batch[0])):  # the workers' batches in row order
        assert len(batch) == min(width, spec.size - start)
        assert np.array_equal(batch, rows[start:start + len(batch)])
        start += len(batch)
    assert start == spec.size


# d=1, four blocks (B, B, B, 100): two workers take blocks 0-1 and 2-3
FOUR_BLOCKS = ProblemSpec(d=1, N=3 * BLOCK_POINTS + 100, n_o=8, l=1.0, m=1.0)


def test_every_blocked_loop_asks_the_one_rule(monkeypatch, tmp_path):
    # the walk, peak2d's masks, |a|^2, sampling, the variance and the four-step's
    # rows take their bounds from qsim._blocks and compute none of their own
    asked = []
    blocks = qsim._blocks

    def recorded(n, line=1):
        asked.append((sys._getframe(1).f_code.co_name, line))  # the caller, and its line
        return blocks(n, line)

    monkeypatch.setattr(qsim, "_blocks", recorded)
    assert cli.main(["peak2d", "--N", "40", "--out", str(tmp_path / "peak.csv")]) == 0
    assert set(asked) >= {("cmd_peak2d", 40), ("_walk", 40)}
    asked.clear()
    run_gradient_estimation(linear([0.1]), FOUR_BLOCKS, shots=100, seed=0)
    assert set(asked) == {("_walk", 1), ("outcome_distribution", 1), ("sample", 1), ("_variance", 1)}
    asked.clear()
    monkeypatch.setattr(qsim, "BLOCK_POINTS", 1024)
    shapes = _four_step_shapes(monkeypatch)
    fourier_transform(random_grid(64 ** 2, 1, seed=3))
    assert shapes == [(64, 64)] and asked == [("lines", 64)]  # one run of 64 rows


def _row_point(spec, row):
    return encode_input([row], spec)[0]


def test_the_first_failing_block_in_row_order_raises():
    # blocks 1 and 3 both fail; the error is block 1's, as when the blocks run one after another
    spec = FOUR_BLOCKS
    x1, x3 = _row_point(spec, BLOCK_POINTS + 5), _row_point(spec, 3 * BLOCK_POINTS + 5)
    spikes = replace(linear([0.0]), name="spikes", eval=lambda x: np.where(
        x[..., 0] == x1, 1e30, np.where(x[..., 0] == x3, 3e30, 0.0)))
    with pytest.raises(ValueError) as expected:
        fixed_point(np.array([0.0, 1e30]), spec)  # block 1's values: zeros and one spike
    with pytest.raises(ValueError) as raised:
        build_phase_state(spikes, spec)
    assert str(raised.value) == str(expected.value)

    def short(x):  # one value too few in every block holding x1 or x3
        values = np.zeros(x.shape[:-1])
        return values[1:] if np.isin([x1, x3], x[..., 0]).any() else values
    with pytest.raises(ValueError, match=f"shape \\({BLOCK_POINTS}, 1\\) gave values of shape "
                                         f"\\({BLOCK_POINTS - 1},\\)"):
        build_phase_state(replace(linear([0.0]), name="short", eval=short), spec)


def test_a_failed_build_leaves_the_next_one_unchanged():
    spec, f = FOUR_BLOCKS, quadratic([0.1], [[0.4]])
    expected = build_phase_state(f, spec).amps
    edge = _row_point(spec, 2 * BLOCK_POINTS)

    def fails_late(x):
        if x[0, 0] >= edge:
            raise RuntimeError("late block")
        return f.eval(x)
    with pytest.raises(RuntimeError, match="late block"):
        build_phase_state(replace(f, eval=fails_late), spec)
    assert np.array_equal(build_phase_state(f, spec).amps, expected)


# (spec, f, BLOCK_POINTS) whose build, transform and run must not depend on the worker count
POOLED_CASES = [
    pytest.param(ProblemSpec(d=2, N=257, n_o=10, l=1.0, m=1.0),
                 quadratic([0.1, -0.2], [[0.3, 0.1], [0.1, -0.2]]), BLOCK_POINTS, id="prime"),
    pytest.param(ProblemSpec(d=3, N=49, n_o=12, l=0.5, m=1.0),
                 sinusoid(0.5, [1.0, 2.0, -1.0]), BLOCK_POINTS, id="odd"),
    pytest.param(ProblemSpec(d=6, N=2, n_o=8, l=1.0, m=1.0),
                 quadratic(np.linspace(-0.2, 0.3, 6), np.diag(np.linspace(0.1, 0.3, 6))), BLOCK_POINTS, id="d6N2"),
    pytest.param(STREAMED_CASES[0][0], STREAMED_CASES[0][1], BLOCK_POINTS, id="d1"),
    pytest.param(ProblemSpec(d=2, N=5, n_o=8, l=1.0, m=1.0), sinusoid(0.5, [1.0, 2.0]), 3, id="block3"),
    # a square line above the block takes the four-step transform
    pytest.param(ProblemSpec(d=1, N=64 ** 2, n_o=12, l=1.0, m=1.0), quadratic([0.1], [[0.4]]), 1024,
                 id="four-step"),
]


def _outputs(f, spec):
    grid = build_phase_state(f, spec)
    report = run_gradient_estimation(f, spec, shots=500, seed=3)
    return (grid.amps, fourier_transform(grid).amps, report.distribution.probs, report.samples,
            report.circular_mean_k, report.circular_variance_k, report.mode_index, report.success_probability)


class NoThread:
    def __init__(self, *args, **kwargs):
        raise AssertionError("a thread was started")


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("spec,f,block", POOLED_CASES)
def test_the_pool_gives_the_bits_of_one_worker(monkeypatch, spec, f, block, workers):
    monkeypatch.setattr(qsim, "BLOCK_POINTS", block)
    monkeypatch.setattr(qsim, "_WORKERS", 1)
    monkeypatch.setattr(threading, "Thread", NoThread)  # one worker works on the calling thread
    serial = _outputs(f, spec)
    monkeypatch.undo()
    monkeypatch.setattr(qsim, "BLOCK_POINTS", block)
    monkeypatch.setattr(qsim, "_WORKERS", workers)
    for got, want in zip(_outputs(f, spec), serial):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("workers", [1, 2])
def test_the_quadratic_builds_the_bits_of_einsum(monkeypatch, workers):
    # six d = 4 blocks, whose values take the slab sums, against the catalog's
    # old einsum expression; n_o and m*l put about 50 bits of f in each register
    monkeypatch.setattr(qsim, "_WORKERS", workers)
    rng = np.random.default_rng(7)
    A = rng.normal(size=(4, 4))
    g, H, c = rng.normal(size=4), A + A.T, 0.3
    spec = ProblemSpec(d=4, N=24, n_o=40, l=2.0, m=2.0 ** -3, x0=rng.normal(size=4))
    f = quadratic(g, H, c=c)
    einsum = replace(f, eval=lambda x: c + x @ g + 0.5 * np.einsum("...i,ij,...j->...", x, H, x))
    values = [np.concatenate([v for run in qsim._walk(fn, spec, lambda blocks: [v for _, _, v in blocks])
                              for v in run]) for fn in (f, einsum)]
    assert values[0].size == spec.size and np.array_equal(values[0], values[1])
    assert np.array_equal(build_phase_state(f, spec).amps, build_phase_state(einsum, spec).amps)


def test_usable_cores_without_sched_getaffinity(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        assert qsim._usable_cores() == len(os.sched_getaffinity(0))
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert qsim._usable_cores() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # the count is unknown
    assert qsim._usable_cores() == 1


def _python(code: str) -> str:
    """stdout of `code` run in a fresh interpreter, which must exit 0 within 60 s."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_without_sched_getaffinity():
    # macOS and Windows have no sched_getaffinity
    code = "import os; del os.sched_getaffinity; import qgrad; print(qgrad.qsim._WORKERS)"
    assert int(_python(code)) == (os.cpu_count() or 1)


# the scripts below set two workers, so that they start threads on one core too
def test_no_thread_outlives_a_call():
    _python(f"""
import threading
from qgrad import ProblemSpec, build_phase_state, fourier_transform, qsim, quadratic, run_gradient_estimation
qsim._WORKERS = 2
before = threading.active_count()
run_gradient_estimation(quadratic([0.1], [[0.4]]), ProblemSpec(d=1, N={3 * BLOCK_POINTS}, n_o=12, l=1.0, m=1.0))
spec = ProblemSpec(d=2, N=512, n_o=12, l=1.0, m=1.0)
fourier_transform(build_phase_state(quadratic([0.1, 0.2], [[0.3, 0.1], [0.1, -0.2]]), spec))
assert threading.active_count() == before, threading.enumerate()
""")


def test_an_eval_may_build_another_phase_grid():
    # every chunk of the outer build waits on a nested build of its own
    _python(f"""
from dataclasses import replace
import numpy as np
from qgrad import ProblemSpec, build_phase_state, linear, qsim
qsim._WORKERS = 2
f = linear([0.25])
def nested(x):
    build_phase_state(f, ProblemSpec(d=1, N={3 * BLOCK_POINTS}, n_o=12, l=1.0, m=1.0))
    return f.eval(x)
spec = ProblemSpec(d=1, N={2 * BLOCK_POINTS}, n_o=12, l=1.0, m=1.0)
assert np.array_equal(build_phase_state(replace(f, eval=nested), spec).amps, build_phase_state(f, spec).amps)
""")


def test_a_fork_child_runs_after_its_parent_ran():
    # the child of a process that ran on several threads starts threads of its own
    _python("""
import multiprocessing
from qgrad import ProblemSpec, qsim, quadratic, run_gradient_estimation
qsim._WORKERS = 2
def run():
    spec = ProblemSpec(d=2, N=1024, n_o=12, l=1.0, m=1.0)
    run_gradient_estimation(quadratic([0.1, -0.2], [[0.3, 0.1], [0.1, -0.2]]), spec, shots=0)
run()
child = multiprocessing.get_context("fork").Process(target=run)
child.start()
child.join(30)
if child.exitcode is None:
    child.kill()
    child.join()
assert child.exitcode == 0, f"fork child exit code {child.exitcode}"
""")


def test_a_one_block_lattice_stays_on_the_calling_thread(monkeypatch, tmp_path):
    monkeypatch.setattr(threading, "Thread", NoThread)
    monkeypatch.setattr(qsim, "_WORKERS", 2)
    spec = ProblemSpec(d=1, N=BLOCK_POINTS, n_o=12, l=1.0, m=1.0)
    f = quadratic([0.1], [[0.4]])
    run_gradient_estimation(f, spec, shots=10)
    scanned_range(f, spec)
    build_phase_state(sinusoid(0.5, [1.0, 2.0, -1.0, 0.5]), ProblemSpec(d=4, N=16, n_o=8, l=1.0, m=1.0))
    # a one-axis pass over one block of points: the d=2 transform's two passes
    d2 = ProblemSpec(d=2, N=256, n_o=12, l=1.0, m=1.0)
    fourier_transform(build_phase_state(quadratic([0.1, -0.2], [[0.3, 0.1], [0.1, -0.2]]), d2))
    for argv in (["run", "--d", "2", "--N", "128"], ["peak2d", "--N", "256"]):
        assert cli.main([*argv, "--out", str(tmp_path / "o.csv")]) == 0, argv


def test_a_single_chunk_makes_no_executor(monkeypatch, tmp_path):
    # every pass of a one-block run is one chunk: a plain call on the calling thread
    monkeypatch.setattr(qsim, "ThreadPoolExecutor", NoThread)
    monkeypatch.setattr(qsim, "_WORKERS", 2)
    report = run_gradient_estimation(quadratic([0.1], [[0.4]]), ProblemSpec(d=1, N=BLOCK_POINTS, n_o=12, l=1.0, m=1.0),
                                     shots=10)
    assert report.samples.shape == (10, 1)
    assert cli.main(["run", "--d", "2", "--N", "128", "--out", str(tmp_path / "o.csv")]) == 0


def test_a_pass_splits_by_its_work(monkeypatch):
    # d=8, N=4 is one block of points: the inner axes are seven blocks of work, axis 0 is one
    spec = ProblemSpec(d=8, N=4, n_o=12, l=1.0, m=1.0)
    grid = build_phase_state(quadratic(np.full(8, 0.1), np.eye(8) * 0.2), spec)
    threads = {}
    for name in ("fftn", "fft"):
        def recorded(*args, _name=name, _fn=getattr(np.fft, name), **kwargs):
            threads.setdefault(_name, set()).add(threading.current_thread().name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, recorded)
    monkeypatch.setattr(qsim, "_WORKERS", 2)
    fourier_transform(grid)
    main = threading.main_thread().name
    assert threads == {"fftn": {main, "qgrad_0"}, "fft": {main}}


@pytest.mark.parametrize("workers", [1, 2])
def test_a_run_samples_beside_its_statistics(monkeypatch, workers):
    # more than one block: sampling goes to a second worker when there is one
    threads = {}

    def recorded(name, fn):
        def wrapper(*args, **kwargs):
            threads.setdefault(name, set()).add(threading.current_thread().name)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("_variance", "sample"):
        monkeypatch.setattr(qsim, name, recorded(name, getattr(qsim, name)))
    monkeypatch.setattr(qsim, "_WORKERS", workers)
    run_gradient_estimation(quadratic([0.1], [[0.4]]), ProblemSpec(d=1, N=2 * BLOCK_POINTS, n_o=12, l=1.0, m=1.0),
                            shots=10)
    main = threading.main_thread().name
    assert threads == {"_variance": {main}, "sample": {main if workers == 1 else "qgrad_0"}}


def test_a_failed_thread_start_joins_the_started_threads(monkeypatch):
    # three chunks of one slow block each: qgrad_0 starts and sleeps, qgrad_1 fails to start
    starts = []

    class SecondStartFails(threading.Thread):
        def start(self):
            starts.append(self.name)
            if len(starts) == 2:
                raise RuntimeError("can't start new thread")
            super().start()

    def slow(x):
        time.sleep(0.5)
        return np.zeros(x.shape[:-1])

    monkeypatch.setattr(qsim, "_WORKERS", 3)
    monkeypatch.setattr(threading, "Thread", SecondStartFails)
    spec = ProblemSpec(d=1, N=3 * BLOCK_POINTS, n_o=8, l=1.0, m=1.0)
    with pytest.raises(RuntimeError, match="can't start new thread"):
        build_phase_state(replace(linear([0.0]), eval=slow), spec)
    assert starts == ["qgrad_0", "qgrad_1"]
    assert not [t.name for t in threading.enumerate() if t.name.startswith("qgrad_")]


def _traced_peak(call) -> int:
    """tracemalloc peak of call() above the bytes allocated before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


MEMORY_CASES = [
    pytest.param(ProblemSpec(d=2, N=1024, n_o=16, l=1.0, m=1.0),
                 quadratic([0.1, -0.2], [[0.2, 0.05], [0.05, -0.1]]), id="16"),  # phase table
    pytest.param(ProblemSpec(d=2, N=1024, n_o=24, l=1.0, m=1.0),
                 quadratic([0.1, -0.2], [[0.2, 0.05], [0.05, -0.1]]), id="24"),  # direct exp
    pytest.param(ProblemSpec(d=1, N=2 ** 20, n_o=16, l=1.0, m=1.0),
                 quadratic([0.1], [[0.002]]), id="d1"),  # circular statistics over the whole state
    # a register wider than one block takes the direct exp: a table of N_o entries
    # would be a second array nearly the size of the lattice
    pytest.param(ProblemSpec(d=1, N=2 ** 20, n_o=19, l=1.0, m=1.0),
                 quadratic([0.1], [[0.002]]), id="d1-wide-register"),
]


@pytest.mark.parametrize("spec,f", MEMORY_CASES)
def test_state_memory_per_point(spec, f):
    slack = 8 * 2 ** 20
    assert _traced_peak(lambda: build_phase_state(f, spec)) <= 16 * spec.size + slack
    # the transform, the probabilities, the statistics and sampling add nothing lattice-sized
    assert _traced_peak(lambda: run_gradient_estimation(f, spec, shots=1000)) <= 16 * spec.size + slack


def test_scanned_range_holds_one_block_at_a_time():
    # 5.3M points: evaluated in one piece the scan once took 96 bytes per point
    spec = ProblemSpec(d=4, N=48, n_o=16, l=1.0, m=1.0)
    f = quadratic([0.1, -0.2, 0.3, 0.05], np.diag([0.2, -0.1, 0.15, 0.05]))
    assert _traced_peak(lambda: scanned_range(f, spec)) <= 16 * 2 ** 20


def test_1d_circular_statistics_read_the_distribution_in_place():
    spec, f = MEMORY_CASES[2].values
    dist = outcome_distribution(fourier_transform(build_phase_state(f, spec)))
    marginal = dist.marginal(0)
    assert not marginal.flags.writeable and np.shares_memory(marginal, dist.probs)

    def stats():
        m = dist.marginal(0)
        circular_variance(m, circular_mean(m))
    assert _traced_peak(stats) <= 2 * 2 ** 20  # block temporaries only, whatever N is


def test_marginal_axis_must_name_a_lattice_axis():
    # at d=2 an axis outside [0, d) once summed over every axis, giving the total mass
    spec = ProblemSpec(d=2, N=8, n_o=8, l=1.0, m=1.0)
    dist = outcome_distribution(fourier_transform(build_phase_state(linear([0.125, -0.25]), spec)))
    for axis in (-1, 2, 5):
        with pytest.raises(ValueError, match="axis"):
            dist.marginal(axis)
    for axis in (1.0, True, "0"):
        with pytest.raises(ValueError, match="integer"):
            dist.marginal(axis)
    for axis in range(spec.d):
        marginal = dist.marginal(np.int64(axis))
        assert marginal.shape == (spec.N,) and not marginal.flags.writeable
        assert np.array_equal(marginal, dist.reshaped().sum(axis=1 - axis))


def test_run_calls_each_stage_through_qsim_globals(monkeypatch):
    # perfbench's per-layer tracing wraps these qsim globals; the run must look them up
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("fourier_transform", "outcome_distribution", "sample"):
        monkeypatch.setattr(qsim, name, counted(name, getattr(qsim, name)))
    spec = ProblemSpec(d=2, N=16, n_o=8, l=1.0, m=1.0)
    run_gradient_estimation(quadratic([0.1, -0.2], [[0.2, 0.05], [0.05, -0.1]]), spec, shots=10)
    assert calls == {"fourier_transform": 1, "outcome_distribution": 1, "sample": 1}


@pytest.mark.parametrize("d,N", [(1, 2 * BLOCK_POINTS + 5), (2, 40), (3, 12)])
def test_the_run_sums_each_marginal_once(monkeypatch, d, N):
    # the run's statistics are the public functions' to the bit, from one `_weights` sum per axis
    sums = Counter()
    weights = qsim._weights

    def counted(probs):
        sums[sys._getframe(1).f_code.co_name] += 1
        return weights(probs)

    monkeypatch.setattr(qsim, "_weights", counted)
    rng = np.random.default_rng(d)
    H = rng.normal(size=(d, d))
    spec = ProblemSpec(d=d, N=N, n_o=10, l=1.0, m=1.0, x0=np.full(d, 0.1))
    report = run_gradient_estimation(quadratic(rng.normal(size=d), H + H.T), spec, shots=0)
    assert sums == {"statistics": d}
    for axis in range(d):
        marginal = report.distribution.marginal(axis)
        mean = circular_mean(marginal)
        assert report.circular_mean_k[axis].tobytes() == np.float64(mean).tobytes()
        variance = circular_variance(marginal, report.circular_mean_k[axis])
        assert report.circular_variance_k[axis].tobytes() == np.float64(variance).tobytes()


# --- fourier_transform / brute_force_transform ---

def test_impulse_transforms_to_uniform_magnitudes():
    grid = AmplitudeGrid(lattice(1, 8), np.eye(8)[0])
    out = fourier_transform(grid)
    assert np.abs(out.amps) == pytest.approx(np.full(8, 1 / np.sqrt(8)))


def test_integer_planewave_maps_to_deterministic_outcome():
    N, nu = 8, 3
    amps = np.exp(2j * np.pi * nu * np.arange(N) / N) / np.sqrt(N)
    out = fourier_transform(AmplitudeGrid(lattice(1, N), amps))
    probs = np.abs(out.amps) ** 2
    assert probs[nu] == pytest.approx(1.0, abs=1e-12)


def test_forward_then_inverse_is_identity():
    grid = random_grid(6, 2, seed=3)
    before = grid.amps.copy()
    forward = fourier_transform(grid)
    # the inverse of the unitary transform F is a -> conj(F(conj(a)))
    back = fourier_transform(replace(forward, amps=forward.amps.conj())).amps.conj()
    assert np.max(np.abs(back - grid.amps)) < 1e-10
    assert np.array_equal(grid.amps, before)  # the transform leaves its input unchanged


@pytest.mark.parametrize("N,d", [(2 ** 12, 1), (48, 2), (17, 2), (19, 2), (17 * 19, 1), (2 ** 18, 1)])
def test_transform_into_its_own_buffer_gives_the_same_bits(N, d):
    grid = random_grid(N, d, seed=N + d)
    before = grid.amps.copy()
    expected = fourier_transform(grid).amps
    assert np.array_equal(grid.amps, before)  # the default transform leaves its input unchanged
    buf = grid.amps.copy()
    out = fourier_transform(AmplitudeGrid(grid.spec, buf), in_place=True)
    assert np.shares_memory(out.amps, buf)
    assert np.array_equal(out.amps, expected)


@pytest.mark.parametrize("N,d", [(4, 1), (6, 2), (16, 1), (5, 2)])
def test_unitarity_preserves_norm(N, d):
    grid = random_grid(N, d, seed=N * 10 + d)
    out = fourier_transform(grid)
    assert abs(np.linalg.norm(out.amps) - 1.0) < 1e-10


@pytest.mark.parametrize("N,d", [(4, 1), (6, 2), (16, 1), (13, 1), (7, 2)])
def test_fast_path_agrees_with_brute_force(N, d):
    grid = random_grid(N, d, seed=100 + N + d)
    fast = fourier_transform(grid)
    slow = brute_force_transform(grid)
    assert np.max(np.abs(fast.amps - slow.amps)) <= 1e-10


def test_brute_force_guard():
    grid = AmplitudeGrid(lattice(1, 8192), np.ones(8192) / np.sqrt(8192))
    with pytest.raises(ValueError):
        brute_force_transform(grid)


def _four_step_shapes(monkeypatch) -> list:
    """The shapes `fourier_transform` passes to `qsim._four_step` from now on."""
    shapes = []
    four_step = qsim._four_step

    def wrapper(a, scale):
        shapes.append(a.shape)
        four_step(a, scale)
    monkeypatch.setattr(qsim, "_four_step", wrapper)
    return shapes


def test_four_step_agrees_with_brute_force(monkeypatch):
    monkeypatch.setattr(qsim, "BLOCK_POINTS", 1024)
    shapes = _four_step_shapes(monkeypatch)
    grid = random_grid(64 ** 2, 1, seed=41)
    fast = fourier_transform(grid)
    assert shapes == [(64, 64)]
    # the double sum's own error, about 3.6e-14 here, dominates
    assert np.max(np.abs(fast.amps - brute_force_transform(grid).amps)) <= 1e-12


@pytest.mark.parametrize("N", [2 ** 18, 2 ** 20])
def test_four_step_agrees_with_pocketfft(monkeypatch, N):
    shapes = _four_step_shapes(monkeypatch)
    grid = random_grid(N, 1, seed=N)
    got = fourier_transform(grid).amps
    assert shapes == [(math.isqrt(N),) * 2]
    expected = np.fft.fft(grid.amps) / N ** 0.5
    # 1.8 and 2.3 roundings here
    assert np.max(np.abs(got - expected)) <= 8 * np.finfo(float).eps * np.max(np.abs(expected))


@pytest.mark.parametrize("n1", [257, 300, 2048])
def test_twiddle_tables_have_the_bits_of_one_expression(n1):
    # built in place to lower the transform's peak; the rows of `hi` and of `lo`
    N, j2 = n1 * n1, np.arange(n1)
    for k1 in (64 * np.arange(-(-n1 // 64)), np.arange(min(64, n1))):
        expected = np.exp(-2j * np.pi * (k1[:, None] * j2 % N) / N)
        assert qsim._twiddles(k1, j2, N).tobytes() == expected.tobytes()
    # one int and one complex table, and numpy's cast buffers
    entries = -(-n1 // 64) * n1
    assert _traced_peak(lambda: qsim._twiddles(64 * np.arange(-(-n1 // 64)), j2, N)) <= 24 * entries + 2 ** 18


@pytest.mark.parametrize("N", [2, 3, 1000, 200003, STREAMED_CASES[0][0].N, 2 ** 17, BLOCK_POINTS])
def test_other_lines_stay_on_pocketfft(monkeypatch, N):
    # N not a square, or a square not above the block
    shapes = _four_step_shapes(monkeypatch)
    grid = random_grid(N, 1, seed=N)
    got = fourier_transform(grid).amps
    assert shapes == []
    assert np.array_equal(got, np.fft.fftn(grid.amps) / N ** 0.5)


# --- outcome_distribution / sample ---

def test_uniform_grid_uniform_distribution():
    N = 8
    grid = AmplitudeGrid(lattice(1, N), np.full(N, 1 / np.sqrt(N)))
    dist = outcome_distribution(grid)
    assert dist.probs == pytest.approx(np.full(N, 1 / N))


def test_distribution_sum_tracks_norm_defect():
    grid = random_grid(8, 1, seed=5)
    grid.amps = grid.amps * 0.9  # norm defect on purpose
    dist = outcome_distribution(grid)
    assert dist.probs.sum() == pytest.approx(0.81)


@pytest.mark.parametrize("N,d", [(8, 1), (300, 2), (BLOCK_POINTS + 5, 1)])
def test_probabilities_into_the_state_buffer_give_the_same_bits(N, d):
    grid = random_grid(N, d, seed=N)
    expected = outcome_distribution(grid).probs
    buf = grid.amps.copy()
    dist = outcome_distribution(AmplitudeGrid(grid.spec, buf), in_place=True)
    assert np.shares_memory(dist.probs, buf)
    assert np.array_equal(dist.probs, expected)


def test_in_place_works_on_a_strided_grid():
    # the grid stores a contiguous copy of strided input, and no copy of contiguous input
    x = random_grid(16, 1, seed=7).amps
    spec = lattice(1, 8)
    assert np.shares_memory(AmplitudeGrid(spec, x[:8]).amps, x)
    strided = AmplitudeGrid(spec, x[::2])
    assert strided.amps.flags.c_contiguous and not np.shares_memory(strided.amps, x)
    expected = fourier_transform(strided).amps
    assert np.array_equal(fourier_transform(AmplitudeGrid(spec, x[::2]), in_place=True).amps, expected)
    expected = outcome_distribution(strided).probs
    assert np.array_equal(outcome_distribution(AmplitudeGrid(spec, x[::2]), in_place=True).probs, expected)
    assert OutcomeDistribution(spec, (np.abs(x) ** 2)[::2]).probs.flags.c_contiguous


def test_point_mass_sampling_is_constant():
    probs = np.zeros(16)
    probs[11] = 1.0
    dist = outcome_distribution(AmplitudeGrid(lattice(1, 16), np.sqrt(probs)))
    draws = sample(dist, shots=50, seed=3)
    assert np.all(draws == 11)


def test_sampling_is_deterministic_for_fixed_seed():
    grid = random_grid(10, 2, seed=9)
    dist = outcome_distribution(grid)
    a = sample(dist, shots=200, seed=42)
    b = sample(dist, shots=200, seed=42)
    c = sample(dist, shots=200, seed=43)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_uniform_sampling_frequencies_within_binomial_bound():
    N, shots = 16, 100_000
    grid = AmplitudeGrid(lattice(1, N), np.full(N, 1 / np.sqrt(N)))
    draws = sample(outcome_distribution(grid), shots=shots, seed=7)
    freqs = np.bincount(draws[:, 0], minlength=N) / shots
    p = 1.0 / N
    five_sigma = 5 * np.sqrt(p * (1 - p) / shots)
    assert np.max(np.abs(freqs - p)) < five_sigma


def test_sample_rejects_nonpositive_shots():
    dist = outcome_distribution(random_grid(4, 1, seed=1))
    for shots in (0, -1, 2.5, True, "3"):
        with pytest.raises(ValueError):
            sample(dist, shots=shots, seed=0)
    # a run takes shots = 0 (no sampling) but no negative or non-integer count
    spec = ProblemSpec(d=1, N=8, n_o=4, l=1.0, m=1.0)
    for shots in (-5, 2.5, True):
        with pytest.raises(ValueError, match="shots"):
            run_gradient_estimation(linear([0.25]), spec, shots=shots)


def test_seed_is_checked_at_entry():
    # with or without sampling, a seed is an integer >= 0
    spec = ProblemSpec(d=1, N=8, n_o=4, l=1.0, m=1.0)
    dist = outcome_distribution(random_grid(4, 1, seed=1))
    for seed in (1.5, -1, True, "1", -10 ** 5000):
        with pytest.raises(ValueError, match="seed"):
            sample(dist, shots=5, seed=seed)
        for shots in (0, 5):
            with pytest.raises(ValueError, match="seed"):
                run_gradient_estimation(linear([0.25]), spec, shots=shots, seed=seed)
    assert sample(dist, shots=5, seed=np.int64(3)).shape == (5, 1)


def test_sample_rejects_unusable_weights():
    spec = lattice(1, 8)
    for probs in (np.zeros(8), [0.5, np.inf, 0, 0, 0, 0, 0, 0], [0.5, np.nan, 0, 0, 0, 0, 0, 0],
                  [0.5, -0.1, 0.6, 0, 0, 0, 0, 0]):
        with pytest.raises(ValueError, match="weights"):
            sample(qsim.OutcomeDistribution(spec, probs), shots=10, seed=0)


@pytest.mark.parametrize("bad", [0, 7, 13, 14, 15])
def test_sample_checks_the_weights_of_blocks_no_draw_reaches(monkeypatch, bad):
    # four blocks of 4; every draw lands in block 1, so blocks 0, 2 and 3 are never searched
    monkeypatch.setattr(qsim, "BLOCK_POINTS", 4)
    spec = lattice(1, 16)
    for value in (-0.1, np.nan):
        probs = np.zeros(16)
        probs[5] = 1.0
        probs[bad] = value
        if bad == 13:  # a block whose mass is zero in sum, so its range holds no uniform
            probs[12] = 0.1
        with pytest.raises(ValueError, match="weights"):
            sample(qsim.OutcomeDistribution(spec, probs), shots=10, seed=0)


def _sampling_cases():
    rng = np.random.default_rng(5)
    sparse = np.zeros(200)
    sparse[[3, 64, 65, 199]] = [1e-3, 0.5, 0.25, 2.0]
    last = np.zeros(150)
    last[-1] = 1.0
    straddle = rng.random(130)
    straddle[60:72] = 0.0  # a zero run across the block edges at 63 and 64 (7 and 64 points)
    return [
        # a peak of 12 cells across the block edges at 189, 192 and 196 (7 and 64 points),
        # with zero-mass blocks before the first draw and after the last
        pytest.param(_narrow_peak(400, 192), (400,), id="narrow"),
        pytest.param(rng.random(257), (257,), id="random"),
        pytest.param(sparse, (200,), id="sparse"),
        pytest.param(last, (150,), id="last"),
        pytest.param(straddle, (130,), id="straddle"),
        pytest.param(rng.random(12 * 12) ** 4, (12, 12), id="d2"),
        pytest.param(np.eye(9).reshape(-1) * np.arange(81), (9, 9), id="d2_sparse"),
    ]


def _narrow_peak(size: int, edge: int) -> np.ndarray:
    """Zero weights but for a Gaussian peak over the 12 cells edge - 6 .. edge + 5."""
    probs = np.zeros(size)
    cells = np.arange(edge - 6, edge + 6)
    probs[cells] = np.exp(-0.5 * ((cells - edge + 0.5) / 2.0) ** 2)
    return probs


@pytest.mark.parametrize("block", [1, 7, 64])
@pytest.mark.parametrize("probs,shape", _sampling_cases())
def test_blocked_sampling_matches_generator_choice(monkeypatch, block, probs, shape):
    monkeypatch.setattr(qsim, "BLOCK_POINTS", block)
    spec = ProblemSpec(d=len(shape), N=shape[0], n_o=8, l=1.0, m=1.0)
    dist = qsim.OutcomeDistribution(spec, probs)
    for seed in (0, 1, 2):
        for shots in (1, 2000):
            assert np.array_equal(sample(dist, shots=shots, seed=seed), choice_draws(probs, shape, shots, seed))


def test_sampling_searches_only_the_blocks_the_draws_reach(monkeypatch):
    # four blocks of the real size; the peak straddles the edge between blocks 1 and 2
    probs = _narrow_peak(4 * BLOCK_POINTS, 2 * BLOCK_POINTS)
    dist = qsim.OutcomeDistribution(ProblemSpec(d=1, N=probs.size, n_o=8, l=1.0, m=1.0), probs)
    searched = []
    block_cdf = qsim._block_cdf

    def recorded(probs, start, *args):
        searched.append(start)
        return block_cdf(probs, start, *args)

    monkeypatch.setattr(qsim, "_block_cdf", recorded)
    for seed in (0, 1):
        for shots in (1, 2000):
            searched.clear()
            draws = sample(dist, shots=shots, seed=seed)
            assert np.array_equal(draws, choice_draws(probs, (probs.size,), shots, seed))
            # one pass over every block, then a second over the blocks holding a draw
            hit = sorted({int(k) // BLOCK_POINTS * BLOCK_POINTS for k in draws[:, 0]})
            assert searched == [0, BLOCK_POINTS, 2 * BLOCK_POINTS, 3 * BLOCK_POINTS, *hit]
            assert set(hit) <= {BLOCK_POINTS, 2 * BLOCK_POINTS}
            assert shots == 1 or len(hit) == 2


def test_run_rejects_unrepresentable_gradient_before_building():
    # the true gradient is checked before any query, so f is never evaluated
    def no_queries(points):
        raise AssertionError("f evaluated before the gradient check")

    spec = ProblemSpec(d=1, N=8, n_o=4, l=1.0, m=1.0)
    for g in (np.inf, np.nan):
        f = replace(linear([0.25]), eval=no_queries, grad=lambda x, g=g: np.array([g]))
        with pytest.raises(ValueError):
            run_gradient_estimation(f, spec, shots=0)


def test_a_function_of_another_d_is_rejected():
    # eval works on the 2-d points, but the function says it takes one variable
    def no_gradient(x):
        raise AssertionError("grad called before the d check")

    spec = ProblemSpec(d=2, N=8, n_o=4, l=1.0, m=1.0)
    f = replace(linear([0.25, 0.0]), name="declared_1d", d=1, grad=no_gradient)
    for call in (build_phase_state, scanned_range, run_gradient_estimation):
        with pytest.raises(ValueError, match="declared_1d is a function of d = 1 variables, but the lattice has d = 2"):
            call(f, spec)


# --- circular statistics on the periodic lattice ---

def test_wrap_signed_shorter_arc():
    assert wrap_signed(7, 8) == pytest.approx(-1.0)
    assert wrap_signed(-5, 8) == pytest.approx(3.0)
    assert wrap_signed(3, 8) == pytest.approx(3.0)


@pytest.mark.parametrize("delta_k,N,message", [
    (3, 0, "N must be positive and finite, got 0.0"),
    (3, -8, "N must be positive and finite, got -8.0"),
    (3, np.inf, "N must be positive and finite, got inf"),
    (3, np.nan, "N must be positive and finite, got nan"),
    (3, "8", "N must be a real number"),
    (np.nan, 8, "delta_k must be finite, got nan"),
    (np.inf, 8, "delta_k must be finite, got inf"),
    ([1.0, -np.inf], 8, "delta_k must be finite, got -inf"),
    # an object array's float entries beside Python ints beyond 64 bits
    (np.array([2 ** 70, np.nan], dtype=object), 8, "delta_k must be finite, got nan"),
    (np.array([2 ** 70, np.inf], dtype=object), 8, "delta_k must be finite, got inf"),
    (np.array([3, -np.inf], dtype=object), 7.5, "delta_k must be finite, got -inf"),
])
def test_wrap_signed_rejects_what_it_cannot_wrap(delta_k, N, message):
    # a one-line ValueError that names the argument, and no numpy warning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as info:
            wrap_signed(delta_k, N)
    assert str(info.value).startswith(message) and "\n" not in str(info.value)


def test_wrap_signed_takes_integers_without_an_entry_check(monkeypatch):
    def no_check(*args, **kwargs):
        raise AssertionError("integer input paid a finiteness check")

    expected = wrap_signed(np.arange(-8, 9), 8)
    monkeypatch.setattr(np, "isfinite", no_check)
    assert np.array_equal(wrap_signed(np.arange(-8, 9), 8), expected)


def _shorter_arc(k: int, n: int) -> float:
    """((k + n/2) mod n) - n/2 for integers, in Python's exact ints, rounded once."""
    return float((k + n // 2) % n - n // 2)


def test_wrap_signed_keeps_integers_exact():
    # float64 holds integers only below 2**53, so the wrap is taken in the integers
    assert wrap_signed(2 ** 53 + 1, 8) == 1.0
    assert wrap_signed(np.int64(2 ** 62) + 1, 8) == 1.0
    assert wrap_signed(2 ** 70, 8) == 0.0
    ks = [0, 3, -5, 2 ** 53 + 1, -(2 ** 53) - 3, 2 ** 62 + 5, -(2 ** 63), 2 ** 63 - 1]
    big = ks + [2 ** 70 + 7, -(2 ** 90) + 1, 2 ** 64 - 1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for N in (7, 8, 8.0, 10 ** 6 + 1, 2.0 ** 60, 2.0 ** 64, 1.1e308):
            n = int(N)
            assert wrap_signed(np.array(ks, dtype=np.int64), N).tolist() == [_shorter_arc(k, n) for k in ks]
            assert wrap_signed(big, N).tolist() == [_shorter_arc(k, n) for k in big]
            assert wrap_signed(np.array([2 ** 64 - 1], dtype=np.uint64), N) == _shorter_arc(2 ** 64 - 1, n)
            assert wrap_signed(-1, N) == -1.0 and isinstance(wrap_signed(-1, N), np.float64)
    assert wrap_signed(np.arange(6).reshape(2, 3), 4).tolist() == [[0.0, 1.0, -2.0], [-1.0, 0.0, 1.0]]


def test_wrap_signed_keeps_the_bits_of_float_input():
    # perfbench's checks wrap float offsets: one add, one remainder, one subtract
    rng = np.random.default_rng(5)
    for N in (8, 7.5, 48, 2 ** 22, 1e300):
        x = rng.uniform(-3.0, 3.0, size=1000) * N
        assert wrap_signed(x, N).tobytes() == ((x + N / 2.0) % N - N / 2.0).tobytes()


@pytest.mark.parametrize("delta_k,N,words", [
    (2 ** 53, 7.5, ["delta_k", "2**53", "7.5"]),  # not exact as a float, and not reducible mod 7.5
    (np.array([0, -(2 ** 60)]), 0.5, ["delta_k", "2**53", "0.5"]),
    (1.7e308, 1.7e308, ["delta_k", "N = 1.7e+308"]),  # delta_k + N/2 overflows
    (np.array([0.0, 1.2e308]), 1.2e308, ["delta_k", "N = 1.2e+308"]),
])
def test_wrap_signed_rejects_what_leaves_the_floats(delta_k, N, words):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as info:
            wrap_signed(delta_k, N)
    message = str(info.value)
    assert all(word in message for word in words) and "\n" not in message, message
    # just inside the domain
    assert wrap_signed(2 ** 53 - 1, 7.5) == (2.0 ** 53 - 1 + 3.75) % 7.5 - 3.75
    assert np.isfinite(wrap_signed(1e308, 1.2e308))


def test_circular_stats_point_mass():
    probs = np.zeros(16)
    probs[5] = 1.0
    assert circular_mean(probs) == pytest.approx(5.0)
    assert circular_variance(probs, circular_mean(probs)) == pytest.approx(0.0, abs=1e-20)


def test_circular_mean_never_returns_N():
    # the resultant's angle is a tiny negative number, which % N rounds to N
    probs = np.zeros(16)
    probs[0], probs[15] = 1.0, 1e-18
    assert circular_mean(probs) == 0.0
    assert circular_variance(probs, circular_mean(probs)) == pytest.approx(1e-18)


def test_circular_mean_of_uniform_weights_is_zero():
    # the resultant of N equal weights vanishes, so the mean is undefined and reads 0.0
    for N in [*range(2, 300), 2 ** 16, 2 ** 20]:
        assert circular_mean(np.ones(N)) == 0.0, N


def test_circular_stats_reject_unusable_weights():
    # not one axis of at least one weight, or a sum that cannot normalize them
    signed = np.tile([1.0, -1.0], 8)
    with_inf = np.ones(16)
    with_inf[3] = np.inf
    with_nan = np.ones(16)
    with_nan[3] = np.nan
    cases = (np.ones((4, 4)), np.ones(0), np.zeros(16), signed, with_inf, with_nan)
    for stat in (circular_mean, lambda w: circular_variance(w, 0.0)):
        for w in cases:
            with pytest.raises(ValueError, match="expected"):
                stat(w)
    # a given mean past the |mean| + 2N < 2**52 limit of exact wrapping
    point = np.zeros(8)
    point[3] = 1.0
    for mean in (2.0 ** 60, -2.0 ** 60, np.inf, np.nan):
        with pytest.raises(ValueError, match="mean"):
            circular_variance(point, mean)


def test_circular_stats_raise_only_their_own_error_on_an_overflowing_sum():
    # the sum of the weights once warned "overflow encountered in reduce" first
    for stat in (circular_mean, lambda w: circular_variance(w, 0.0)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="weights sum to inf"):
                stat(np.full(4, 1e308))


def test_circular_stats_straddle_the_wrap():
    # equal mass on k=0 and k=15: mean sits at 15.5, each point 0.5 away
    probs = np.zeros(16)
    probs[0] = probs[15] = 0.5
    mu = circular_mean(probs)
    assert mu == pytest.approx(15.5)
    assert circular_variance(probs, mu) == pytest.approx(0.25)


# --- end-to-end runs ---

def test_exact_linear_run_hits_true_outcome():
    # nu = -3 is representable at N=6 and quantizes exactly with N_o = 32
    spec = ProblemSpec(d=1, N=6, n_o=5, l=1.0, m=1.0)
    f = linear([-3.0 / 6.0])
    report = run_gradient_estimation(f, spec, shots=16, seed=2)
    assert report.success_probability == pytest.approx(1.0, abs=1e-9)
    assert report.mode_index.tolist() == [3]
    assert report.mode_gradient == pytest.approx([-0.5])
    assert report.query_count == 1
    assert np.all(report.samples == 3)


def test_exact_linear_run_with_offset_evaluation_point():
    spec = ProblemSpec(d=1, N=16, n_o=6, l=0.5, m=1.0, x0=[0.37])
    f = linear([3.0 / 16.0], c=0.9)
    report = run_gradient_estimation(f, spec, shots=0)
    assert report.success_probability == pytest.approx(1.0, abs=1e-9)
    assert report.mode_gradient == pytest.approx([3.0 / 16.0])


def test_quadratic_width_matches_prediction_band():
    # alpha = 0.02 at N = 80: predicted wrapped variance alpha^2 N^2 / 3
    alpha, N = 0.02, 80
    spec = ProblemSpec(d=1, N=N, n_o=16, l=2 * alpha, m=1.0)
    f = quadratic([0.0], [[1.0]])
    report = run_gradient_estimation(f, spec, shots=0)
    predicted = alpha ** 2 * N ** 2 / 3.0
    assert predicted == pytest.approx(0.85333333, rel=1e-6)
    ratio = np.sqrt(report.circular_variance_k[0] / predicted)
    assert 0.75 <= ratio <= 1.25


def test_global_phase_invariance():
    spec = ProblemSpec(d=1, N=16, n_o=6, l=1.0, m=1.0)
    step = spec.m * spec.l / (spec.N * spec.N_o)
    f = quadratic([0.0], [[0.4]])
    g = quadratic([0.0], [[0.4]], c=37 * step)  # exact quantization multiple
    da = run_gradient_estimation(f, spec, shots=0).distribution.probs
    db = run_gradient_estimation(g, spec, shots=0).distribution.probs
    assert np.max(np.abs(da - db)) < 1e-12


def test_shift_covariance():
    # adding a*x with N*a/m integer and exact quantization rolls the distribution
    spec = ProblemSpec(d=1, N=16, n_o=6, l=1.0, m=1.0)
    nu = 5
    base = quadratic([0.0], [[0.4]])
    shifted = quadratic([nu * spec.m / spec.N], [[0.4]])
    db = run_gradient_estimation(base, spec, shots=0).distribution.probs
    ds = run_gradient_estimation(shifted, spec, shots=0).distribution.probs
    assert np.max(np.abs(ds - np.roll(db, nu))) < 1e-12


def test_success_probability_reads_nearest_representable():
    # true gradient strictly between lattice points: success index is the round
    spec = ProblemSpec(d=1, N=8, n_o=12, l=1.0, m=1.0)
    f = linear([0.26])  # N*g/m = 2.08, nearest k' = 2
    report = run_gradient_estimation(f, spec, shots=0)
    assert report.success_index.tolist() == [2]
    assert report.success_probability > 0.5


def test_aliased_gradient_is_never_a_success():
    # 0.75 lies outside [-m/2, m/2): it aliases onto -0.25, which must not count as success
    spec = ProblemSpec(d=1, N=8, n_o=12, l=1.0, m=1.0)
    report = run_gradient_estimation(linear([0.75]), spec, shots=0)
    assert report.mode_gradient.tolist() == [-0.25]
    assert report.distribution.probs[report.success_index[0]] == pytest.approx(1.0)
    assert report.success_probability == 0.0


# --- ideal-state fidelity and phase robustness ---

def test_fidelity_of_exact_planewave_is_one():
    spec = ProblemSpec(d=1, N=16, n_o=5, l=1.0, m=1.0)
    g = [3.0 / 16.0]
    grid = ideal_planewave(g, spec)
    assert ideal_state_fidelity(grid, g) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_rejects_out_of_range_gradient():
    spec = ProblemSpec(d=1, N=16, n_o=5, l=1.0, m=1.0)
    grid = ideal_planewave([0.0], spec)
    with pytest.raises(ValueError):
        ideal_state_fidelity(grid, [0.5])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_bounded_phase_noise_keeps_fidelity_bound(seed):
    theta = np.pi / 8
    spec = ProblemSpec(d=1, N=32, n_o=5, l=1.0, m=1.0)
    g = [5.0 / 32.0]
    rng = np.random.default_rng(seed)
    noisy = apply_phase_error(ideal_planewave(g, spec), rng.uniform(-theta, theta, 32))
    fid = ideal_state_fidelity(noisy, g)
    assert fid >= np.cos(theta) - 1e-12
    probs = outcome_distribution(fourier_transform(noisy)).probs
    assert probs[5] >= np.cos(theta) ** 2 - 1e-12


def test_adversarial_phase_noise_saturates_bound():
    # balanced +-theta pattern: <ideal|noisy> = mean(cos eps) = cos(theta) exactly
    theta = np.pi / 8
    spec = ProblemSpec(d=1, N=64, n_o=5, l=1.0, m=1.0)
    g = [7.0 / 64.0]
    eps = theta * np.tile([1.0, -1.0], 32)
    noisy = apply_phase_error(ideal_planewave(g, spec), eps)
    fid = ideal_state_fidelity(noisy, g)
    assert fid >= np.cos(theta) - 1e-12
    assert fid == pytest.approx(np.cos(theta), abs=1e-12)
    rng = np.random.default_rng(99)  # unbalanced signs can only do better
    eps2 = theta * rng.choice([-1.0, 1.0], size=64)
    noisy2 = apply_phase_error(ideal_planewave(g, spec), eps2)
    assert ideal_state_fidelity(noisy2, g) >= np.cos(theta) - 1e-12


def test_phase_error_shape_validated():
    spec = ProblemSpec(d=1, N=8, n_o=4, l=1.0, m=1.0)
    grid = ideal_planewave([0.0], spec)
    with pytest.raises(ValueError):
        apply_phase_error(grid, np.zeros(7))


def test_phase_errors_must_be_finite():
    # a NaN error once gave a NaN state without a word
    spec = ProblemSpec(d=1, N=8, n_o=4, l=1.0, m=1.0)
    grid = ideal_planewave([0.0], spec)
    for bad in (np.nan, np.inf, -np.inf):
        errors = np.zeros(8)
        errors[3] = bad
        with pytest.raises(ValueError, match="finite"):
            apply_phase_error(grid, errors)
