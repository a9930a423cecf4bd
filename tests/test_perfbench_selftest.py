"""The benchmark's self-test passes against the current program.

perfbench/selftest.py runs every workload at tiny sizes and checks that the
benchmark's output checks accept correct results and reject wrong ones, so a
program change that breaks them fails here.
"""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        env={"PATH": "/usr/bin:/bin"},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
