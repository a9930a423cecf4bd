"""One benchmark process for one workload; run.py starts it and reads its last stdout line.

A probe sets the workload up from a fresh interpreter (import qgrad, build
the inputs, one checked warm-up op) and reports how long that took from the
moment run.py spawned it.  The main process does the same, then:

    --trace 0   timed closed loop for --seconds, then one untimed op under
                tracemalloc for the peak memory of an op
    --trace 1   untimed-by-spans loop for --seconds, the same loop with every
                layer boundary traced, then one traced op under tracemalloc
                for per-call peak bytes; spans are written to
                .perfbench/spans-<workload>-seed<seed>.json

Every op's output is checked; a check failure or an exception counts as a
failed op.  The result is one JSON line on stdout.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import time
import tracemalloc
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"


def import_qgrad():
    """Import qgrad from this checkout's src/, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    import qgrad

    if Path(qgrad.__file__).resolve().parent != (SRC / "qgrad").resolve():
        raise ImportError(f"qgrad imported from {qgrad.__file__}, not from {SRC}")
    return qgrad


def checked(workload, result) -> list[str]:
    try:
        return workload.check(result)
    except Exception as exc:  # a malformed result fails its op instead of ending the run
        return [f"check raised {exc!r}"]


def timed_op(workload) -> tuple[float, list[str]]:
    """Wall time of one op and its check failures; an exception is a failure."""
    t0 = time.perf_counter()
    try:
        result = workload.run()
    except Exception as exc:  # the loop keeps running and counts the op as failed
        return time.perf_counter() - t0, [f"raised {exc!r}"]
    elapsed = time.perf_counter() - t0
    return elapsed, checked(workload, result)


def closed_loop(workload, seconds: float, before_op=None, after_op=None) -> tuple[list[float], list[list[str]]]:
    """One client: the next op starts when the previous one returned and was checked."""
    latencies, failures = [], []
    deadline = time.perf_counter() + seconds
    while True:
        if before_op:
            before_op(len(latencies))
        elapsed, bad = timed_op(workload)
        if after_op:
            after_op(len(latencies))
        latencies.append(elapsed)
        failures.append(bad)
        if time.perf_counter() >= deadline:
            return latencies, failures


def peak_bytes(workload) -> tuple[int, list[str]]:
    """tracemalloc peak of one op above what was allocated before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = workload.run()
        peak = tracemalloc.get_traced_memory()[1] - base
    except Exception as exc:  # counted as a failed untimed op
        return 0, [f"raised {exc!r}"]
    finally:
        tracemalloc.stop()
    return peak, checked(workload, result)


def traced_run(workload, seconds: float, spans_path: Path) -> dict:
    """Untraced loop, traced loop and a memory-traced op; returns per-layer metrics."""
    untraced, fail_u = closed_loop(workload, seconds)
    rec = tracing.Recorder()
    replay = getattr(workload, "replay", None)

    def before(i):
        rec.op = f"op{i}"

    def after(i):
        rec.count(workload.counters)
        if replay is not None:
            rec.op = f"replay{i}"
            with rec.span(tracing.REPLAY):
                replay()

    with tracing.patched(tracing.layer_patches(rec, workload)):
        traced, fail_t = closed_loop(workload, seconds, before, after)
        rec.op, rec.track_memory = "mem", True
        _, mem_fail = peak_bytes(workload)
    rec.write(spans_path)
    return {
        "latencies": untraced + traced,
        "failures": fail_u + fail_t,
        "untimed_failures": mem_fail,
        "layers": tracing.layer_metrics(rec, untraced, traced),
        "spans_file": str(spans_path),
    }


def environment(workload) -> dict:
    import numpy as np

    llc = None
    try:
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            if (index / "level").read_text().strip() == "3":
                size = (index / "size").read_text().strip()
                llc = int(size[:-1]) * 1024 if size.endswith("K") else int(size)
    except (OSError, ValueError):
        pass
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    arrays = workload.arrays()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "llc_bytes": llc,
        "blas_threads_cap": os.environ.get("OMP_NUM_THREADS"),
        "arrays_computed_bytes": arrays,
        "largest_array_over_llc": max(arrays.values()) / llc if llc else None,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true", help="set up, report the set-up time and exit")
    p.add_argument("--spawned-at", type=float, required=True, help="time.monotonic() at spawn")
    args = p.parse_args(argv)

    import_qgrad()
    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"tmp-{os.getpid()}"
    try:
        workload = workloads.build(args.workload, args.seed, workdir)
        _, setup_failures = timed_op(workload)
        out = {"setup_s": time.monotonic() - args.spawned_at, "untimed_failures": setup_failures}
        if not args.probe:
            if args.trace:
                spans = OUT / f"spans-{args.workload}-seed{args.seed}.json"
                result = traced_run(workload, args.seconds, spans)
                result["untimed_failures"] += setup_failures
                out.update(result)
            else:
                latencies, failures = closed_loop(workload, args.seconds)
                peak, mem_failures = peak_bytes(workload)
                out.update(latencies=latencies, failures=failures, peak_bytes=peak,
                           untimed_failures=setup_failures + mem_failures)
            out["env"] = environment(workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
