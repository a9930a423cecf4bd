"""qgrad benchmark: end-to-end and per-layer metrics for three workloads.

    python3 perfbench/run.py --workload dense_d4 --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --trace 1

Run from anywhere; qgrad is imported from the src/ next to this directory.
One client drives each workload in a closed loop, with BLAS threads capped
at the number of usable cores.  --trace 0 reports the end-to-end metrics,
--trace 1 the per-layer metrics of a separate traced run.  Every metric is
printed by name and unit, then the last stdout line is one JSON object with
keys correct, attempted, failed and metrics.  See README.md here.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import DERIVED, UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("dense_d4", "wide_d1", "cli_studies")
SETUP_RUNS = 3          # fresh interpreters per run; setup_s is their median
DEADLINE_S = 170.0      # a run must end within 180 s
TAIL_BEYOND = 10        # samples required beyond the reported tail percentile

END_TO_END = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "ops_per_s": "1/s",
    "peak_mb": "MB",
}


class RunFailed(RuntimeError):
    pass


def tail(latencies: list[float]) -> tuple[float, str]:
    """Highest whole percentile with at least TAIL_BEYOND samples beyond it.

    Below 2 * TAIL_BEYOND samples no percentile above the median qualifies,
    and the median is reported.
    """
    n = len(latencies)
    p = max(50, math.floor(100.0 * (1.0 - TAIL_BEYOND / n)))
    if n < 2:
        return latencies[0], "p50"
    return statistics.quantiles(latencies, n=100, method="inclusive")[p - 1], f"p{p}"


def count_failed(failures: list[list[str]]) -> int:
    """Ops whose check listed at least one failure (an exception is one)."""
    return sum(1 for bad in failures if bad)


def spawn(args, workload: str, deadline: float, probe: bool) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spawned-at", repr(time.monotonic())]
    if probe:
        cmd.append("--probe")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunFailed(f"{workload}: worker exceeded the {DEADLINE_S:g} s budget")
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunFailed(f"{workload}: worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def worker_env() -> dict:
    env = dict(os.environ)
    cap = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = cap
    return env


def measure(args, workload: str, deadline: float) -> tuple[bool, int, int, dict, list[str]]:
    """One workload: (correct, attempted, failed, {metric: value}, report lines)."""
    probes = [] if args.trace else [spawn(args, workload, deadline, probe=True) for _ in range(SETUP_RUNS - 1)]
    main = spawn(args, workload, deadline, probe=False)
    lat, failures = main["latencies"], main["failures"]
    failed = count_failed(failures)
    untimed = [msg for run in (*probes, main) for msg in run["untimed_failures"]]
    messages = [msg for bad in failures for msg in bad] + [f"untimed op: {m}" for m in untimed]
    lines = [f"workload {workload} seed {args.seed}: {len(lat)} ops, closed loop, 1 client"]
    if args.trace:
        metrics = main["layers"]
        notes = {name: "derived" for name in DERIVED}
        lines.append(f"  spans written to {main['spans_file']}")
    else:
        setups = [run["setup_s"] for run in (*probes, main)]
        tail_s, tail_label = tail(lat)
        metrics = {
            "setup_s": statistics.median(setups),
            "latency_p50_s": statistics.median(lat),
            "latency_tail_s": tail_s,
            "ops_per_s": (len(lat) - failed) / sum(lat),
            "peak_mb": main["peak_bytes"] / 1e6,
        }
        notes = {
            "setup_s": f"median of {len(setups)} fresh interpreters",
            "latency_p50_s": f"{len(lat)} samples",
            "latency_tail_s": f"{tail_label} of {len(lat)} samples",
            "ops_per_s": "checked ops over their summed wall time",
            "peak_mb": "tracemalloc peak of one untimed op",
        }
    units = UNITS if args.trace else END_TO_END
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        lines.append(f"  {name:<48} {value:14.6g} {units[name]}{note}")
    lines.append(f"  {'fail_ratio':<48} {failed / len(lat):14.6g} ratio  ({failed} of {len(lat)} ops)")
    lines.extend(f"  check failed: {m}" for m in messages[:10])
    lines.append("  env " + json.dumps(main["env"]))
    return not failed and not untimed, len(lat), failed, metrics, lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    p.add_argument("--seed", type=int, default=0, help="workload seed (non-negative)")
    p.add_argument("--seconds", type=float, default=10.0, help="length of each timed loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if not (ROOT / "src" / "qgrad" / "__init__.py").is_file():
        print(f"error: no qgrad sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + DEADLINE_S * len(names)
    correct, attempted, failed, metrics = True, 0, 0, {}
    try:
        for name in names:
            ok, n, bad, values, lines = measure(args, name, deadline)
            print("\n".join(lines), flush=True)
            correct, attempted, failed = correct and ok, attempted + n, failed + bad
            prefix = "" if len(names) == 1 else f"{name}."
            units = UNITS if args.trace else END_TO_END
            metrics.update({prefix + k: {"value": v, "unit": units[k]} for k, v in values.items()})
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
