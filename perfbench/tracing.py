"""Span recorder and per-layer metrics for the traced benchmark run.

Spans are recorded from the benchmark's side of each layer boundary: the
public functions of qgrad's modules are replaced, for the traced ops only, by
wrappers that open a span around the original call.  Nothing inside the
package is changed.  Each span records name, start, end, parent and op id;
spans stay in memory and are written when the run ends.  Self times and the
metrics marked derived are computed from the recorded spans afterwards.
"""
from __future__ import annotations

import functools
import json
import math
import statistics
import threading
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, replace


@dataclass(slots=True)
class Span:
    id: int
    name: str
    op: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    points: int = 0        # lattice points the call works on, 0 when it has none
    mem_start: int = -1    # traced bytes at entry; -1 when memory was not tracked
    mem_peak: int = -1     # highest traced bytes while open


def _points(args) -> int:
    """Lattice size of a call, from its first ProblemSpec, grid or distribution argument."""
    for a in args:
        if hasattr(a, "N_o"):
            return a.size
        for attr in ("amps", "probs"):
            if hasattr(a, attr):
                return getattr(a, attr).size
    return 0


class Recorder:
    """In-memory spans of one traced run.

    A span opened on a worker thread with no open span of its own takes the
    innermost open span of the main thread as parent (the CLI sweeps run on
    a thread pool while the main thread waits inside the subcommand).
    Memory is tracked with tracemalloc for main-thread spans only, when
    `track_memory` is set and tracemalloc is running.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, dict[str, float]] = defaultdict(dict)
        self.op = "setup"
        self.track_memory = False
        self._main = threading.get_ident()
        self._stacks: dict[int, list[Span]] = {}
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str, points: int = 0):
        tid = threading.get_ident()
        stack = self._stacks.setdefault(tid, [])
        enclosing = stack or self._stacks.get(self._main, [])
        parent = enclosing[-1].id if enclosing else None
        with self._lock:
            sp = Span(len(self.spans), name, self.op, parent, points=points)
            self.spans.append(sp)
        memory = self.track_memory and tid == self._main
        if memory:
            current, peak = tracemalloc.get_traced_memory()
            for outer in stack:
                outer.mem_peak = max(outer.mem_peak, peak)
            tracemalloc.reset_peak()
            sp.mem_start = sp.mem_peak = current
        stack.append(sp)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            stack.pop()
            if memory:
                peak = tracemalloc.get_traced_memory()[1]
                for s in (*stack, sp):
                    s.mem_peak = max(s.mem_peak, peak)

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, _points(args)):
                return fn(*args, **kwargs)
        return traced

    def count(self, counters: dict[str, float]):
        self.counters[self.op].update(counters)

    def write(self, path):
        rows = [[s.id, s.name, s.op, s.parent, s.start, s.end, s.points, s.mem_start, s.mem_peak]
                for s in self.spans]
        doc = {"fields": ["id", "name", "op", "parent", "start", "end", "points", "mem_start", "mem_peak"],
               "spans": rows, "counters": self.counters}
        path.write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")


# -- Layer boundaries --------------------------------------------------------------

# qgrad.qsim attribute -> span name; build_phase_state and run_gradient_estimation
# look these up as module globals, so replacing them exposes the pipeline stages.
QSIM_CALLS = (
    ("lattice_points", "qsim.lattice_points"),
    ("encode_input", "core.encode_input"),
    ("quantize_output", "core.quantize_output"),
    ("build_phase_state", "qsim.build_phase_state"),
    ("fourier_transform", "qsim.fourier_transform"),
    ("outcome_distribution", "qsim.outcome_distribution"),
    ("circular_mean", "qsim.circular_mean"),
    ("circular_variance", "qsim.circular_variance"),
    ("sample", "qsim.sample"),
    ("run_gradient_estimation", "qsim.run_gradient_estimation"),
)

# qgrad.cli attribute -> span name: the entry point, each subcommand, and the
# library calls the subcommands make through names imported into cli.
CLI_CALLS = (
    ("main", "cli.main"),
    ("cmd_run", "cli.run"),
    ("cmd_sweep_n", "cli.sweep_n"),
    ("cmd_sweep_alpha", "cli.sweep_alpha"),
    ("cmd_peak2d", "cli.peak2d"),
    ("cmd_compare_classical", "cli.compare_classical"),
    ("run_gradient_estimation", "qsim.run_gradient_estimation"),
    ("stationary_phase_sigma", "analysis.stationary_phase_sigma"),
    ("support_membership", "analysis.support_membership"),
    ("forward_difference", "classical.forward_difference"),
    ("central_difference", "classical.central_difference"),
    ("error_scaling_fit", "classical.error_scaling_fit"),
    ("scanned_range", "functions.scanned_range"),
)

EVAL = "functions.eval"
CIRCULAR_STATS = ("qsim.marginal", "qsim.circular_mean", "qsim.circular_variance")
SWEEPS = ("cli.sweep_n", "cli.sweep_alpha")
REPLAY = "cli.replay"


def layer_patches(rec: Recorder, workload) -> list[tuple[object, str, object]]:
    """(object, attribute, traced replacement) for every layer boundary."""
    from qgrad import cli, qsim

    def with_traced_eval(factory):
        @functools.wraps(factory)
        def build(*args, **kwargs):
            fn = factory(*args, **kwargs)
            return replace(fn, eval=rec.wrap(fn.eval, EVAL))
        return build

    patches = [(qsim, attr, rec.wrap(getattr(qsim, attr), name)) for attr, name in QSIM_CALLS]
    patches += [(cli, attr, rec.wrap(getattr(cli, attr), name)) for attr, name in CLI_CALLS]
    patches.append((qsim.OutcomeDistribution, "marginal",
                    rec.wrap(qsim.OutcomeDistribution.marginal, "qsim.marginal")))
    patches.append((cli, "quadratic", with_traced_eval(cli.quadratic)))
    if hasattr(workload, "fn"):
        patches.append((workload, "fn", replace(workload.fn, eval=rec.wrap(workload.fn.eval, EVAL))))
    return patches


@contextmanager
def patched(patches):
    saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in patches]
    try:
        for obj, attr, new in patches:
            setattr(obj, attr, new)
        yield
    finally:
        for obj, attr, old in reversed(saved):
            setattr(obj, attr, old)


# -- Per-layer metrics ---------------------------------------------------------------

# metric -> span names whose busy time (union of intervals, per op) it reports
BUSY = {
    "qsim.lattice_points.s": ("qsim.lattice_points",),
    "core.encode_input.s": ("core.encode_input",),
    "functions.eval.s": (EVAL,),
    "core.quantize_output.s": ("core.quantize_output",),
    "qsim.build_phase_state.s": ("qsim.build_phase_state",),
    "qsim.fourier_transform.s": ("qsim.fourier_transform",),
    "qsim.outcome_distribution.s": ("qsim.outcome_distribution",),
    "qsim.circular_stats.s": CIRCULAR_STATS,
    "qsim.sample.s": ("qsim.sample",),
    "qsim.run_gradient_estimation.s": ("qsim.run_gradient_estimation",),
    "cli.run.s": ("cli.run",),
    "cli.sweep_n.s": ("cli.sweep_n",),
    "cli.sweep_alpha.s": ("cli.sweep_alpha",),
    "cli.peak2d.s": ("cli.peak2d",),
    "cli.compare_classical.s": ("cli.compare_classical",),
    "analysis.stationary_phase_sigma.s": ("analysis.stationary_phase_sigma",),
    "analysis.support_membership.s": ("analysis.support_membership",),
    "classical.forward_difference.s": ("classical.forward_difference",),
    "classical.central_difference.s": ("classical.central_difference",),
    "classical.error_scaling_fit.s": ("classical.error_scaling_fit",),
    "functions.scanned_range.s": ("functions.scanned_range",),
}

# derived: self time of a span, i.e. its duration minus what its child spans cover
SELF = {
    "qsim.phase_exp.s": "qsim.build_phase_state",
    "qsim.run_gradient_estimation.unaccounted_s": "qsim.run_gradient_estimation",
}

# traced peak inside the call minus traced bytes at entry, over the call's N^d
PEAK = {
    "qsim.build_phase_state.peak_B_per_pt": "qsim.build_phase_state",
    "qsim.fourier_transform.peak_B_per_pt": "qsim.fourier_transform",
    "qsim.run_gradient_estimation.peak_B_per_pt": "qsim.run_gradient_estimation",
}

DERIVED = ("qsim.phase_exp.s", "qsim.run_gradient_estimation.unaccounted_s", "cli.format_s")

# metric -> unit; every one is reported on every workload, 0 where the
# workload never enters the layer
UNITS = {
    **{name: "s" for name in BUSY},
    **{name: "s" for name in SELF},
    **{name: "B/pt" for name in PEAK},
    "qsim.fourier_transform.share": "fraction",
    "qsim.fourier_transform.gflops": "GFLOP/s",
    "qsim.points": "count",
    "functions.eval.calls_per_query": "count",
    "qsim.run_gradient_estimation.s_per_call_small": "s",
    "cli.format_s": "s",
    "cli.csv_rows": "count",
    "cli.csv_bytes": "B",
    "trace.overhead_ratio": "ratio",
}


def _union(intervals) -> float:
    total, lo, hi = 0.0, None, None
    for s, e in sorted(intervals):
        if hi is None or s > hi:
            if hi is not None:
                total += hi - lo
            lo, hi = s, e
        else:
            hi = max(hi, e)
    return total if hi is None else total + hi - lo


def _median(values, default=0.0) -> float:
    values = list(values)
    return statistics.median(values) if values else default


def _op_metrics(spans: list[Span], children: dict[int, list[Span]], counters: dict) -> dict[str, float]:
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def busy(*names):
        return _union((s.start, s.end) for n in names for s in by_name[n])

    def self_time(sp):
        covered = [(max(c.start, sp.start), min(c.end, sp.end)) for c in children[sp.id]]
        return (sp.end - sp.start) - _union((a, b) for a, b in covered if b > a)

    m = {metric: busy(*names) for metric, names in BUSY.items()}
    m.update({metric: sum(self_time(s) for s in by_name[name]) for metric, name in SELF.items()})
    run_s, fft_s = m["qsim.run_gradient_estimation.s"], m["qsim.fourier_transform.s"]
    m["qsim.fourier_transform.share"] = fft_s / run_s if run_s else 0.0
    flops = sum(5.0 * s.points * math.log2(s.points) for s in by_name["qsim.fourier_transform"] if s.points > 1)
    m["qsim.fourier_transform.gflops"] = flops / fft_s / 1e9 if fft_s else 0.0
    m["qsim.points"] = sum(s.points for s in by_name["qsim.run_gradient_estimation"])
    builds = {s.id for s in by_name["qsim.build_phase_state"]}
    evals = sum(1 for s in by_name[EVAL] if s.parent in builds)
    m["functions.eval.calls_per_query"] = evals / len(builds) if builds else 0.0
    sweeps = {s.id for n in SWEEPS for s in by_name[n]}
    m["qsim.run_gradient_estimation.s_per_call_small"] = _median(
        s.end - s.start for s in by_name["qsim.run_gradient_estimation"] if s.parent in sweeps)
    m["cli.csv_rows"] = counters.get("cli.csv_rows", 0)
    m["cli.csv_bytes"] = counters.get("cli.csv_bytes", 0)
    return m


def layer_metrics(rec: Recorder, untraced: list[float], traced: list[float]) -> dict[str, float]:
    """Median over traced ops of every per-layer metric; memory from the "mem" op.

    Ops are named op<i> (timed, traced), replay<i> (the same computation
    through the public API, cli_studies only) and mem (tracemalloc on).
    """
    by_op: dict[str, list[Span]] = defaultdict(list)
    children: dict[int, list[Span]] = defaultdict(list)
    for s in rec.spans:
        by_op[s.op].append(s)
        if s.parent is not None:
            children[s.parent].append(s)
    timed = sorted(op for op in by_op if op.startswith("op"))
    per_op = [_op_metrics(by_op[op], children, rec.counters.get(op, {})) for op in timed]
    out = {name: _median(m[name] for m in per_op) for name in per_op[0]} if per_op else {}

    format_s = []
    for op in timed:
        replay = [s for s in by_op.get("replay" + op[2:], []) if s.name == REPLAY]
        if replay:
            main = _union((s.start, s.end) for s in by_op[op] if s.name == "cli.main")
            format_s.append(main - _union((s.start, s.end) for s in replay))
    out["cli.format_s"] = _median(format_s)

    for metric, name in PEAK.items():
        out[metric] = _median((s.mem_peak - s.mem_start) / s.points for s in by_op.get("mem", [])
                              if s.name == name and s.points and s.mem_start >= 0)
    out["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    return {name: out.get(name, 0.0) for name in UNITS}
