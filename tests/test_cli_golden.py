"""Golden CSV bytes for every CLI subcommand at small sizes.

The SHA-256 values were recorded from the program before the lattice and
sweep refactor; any change to them means the CLI artifacts changed.  To
re-record after an intended output change, run this file as a script.
The "run-negative-zero" case pins a signed-zero cell ("-0"); it was recorded
before the writer took one printf code per column.  The cubic, sinusoid and
curvature-free quadratic "run" cases cover the catalog's other builders; they
were recorded before the lattice walk was folded into one function.
"""
import hashlib
import sys

import pytest

from qgrad.cli import main

GOLDEN = {
    "run": (
        ["run", "--d", "2", "--N", "16", "--function", "quadratic",
         "--hessian", "0.2,0.05,0.05,-0.1", "--shots", "100", "--seed", "3"],
        "3357f756eeffc571154e189136bcf1219ae08450603681d22f46617d4eb124a9",
    ),
    "run-negative-zero": (
        ["run", "--function", "linear", "--gradient", "-0", "--N", "8", "--n-o", "5",
         "--shots", "0"],
        "0b7ff39ce1ca6df974967ce3039c3a2fcf749be42c2a519f5b56032904867fd3",
    ),
    "run-cubic-1d": (
        ["run", "--function", "cubic_1d", "--a3", "0.5", "--N", "32", "--n-o", "12",
         "--shots", "50", "--seed", "2"],
        "57190bffcd1ffcea2216b93c66b81909601ff1bba0381d7a3128b9b8bc47d8a4",
    ),
    "run-sinusoid": (
        ["run", "--d", "2", "--N", "16", "--function", "sinusoid", "--amplitude", "0.3",
         "--wavevector", "0.5,-0.25", "--shots", "40", "--seed", "4"],
        "ae1ceaa3a5c66866649ff4c0fa896eb785cba4d03ce2baea2be80f5b993bdaf5",
    ),
    "run-quadratic-without-curvature": (
        ["run", "--d", "2", "--N", "8", "--function", "quadratic", "--gradient", "0.25,-0.125",
         "--shots", "20", "--seed", "1"],
        "82eb3742d7d17ea0699ec8f342022b83b180baa32d58ef8a759aad58d90e45e1",
    ),
    "sweep-n": (
        ["sweep-n", "--alpha", "0.02", "--N", "16,24,40", "--seed", "5"],
        "810641ff384b2ae4dda56e5e34a20f309dde686a0e43d7d19961e011419ba7a4",
    ),
    "sweep-alpha": (
        ["sweep-alpha", "--N", "40", "--alpha", "0.01,0.02,0.03"],
        "399cde32f18ad2292f163e27863fc0321d95846c7ee29198dd2ea0136f03e8ce",
    ),
    "peak2d": (
        ["peak2d", "--N", "16", "--l", "100"],
        "39b5f67b329d49d7f61afbf0ea6715feeec6680a678ea7de440af94210d0d587",
    ),
    "compare-classical": (
        ["compare-classical", "--d", "2", "--N", "4"],
        "266a4933fa23ec51c99afd64fb795e5c45c292ef1f73eb9b30eb9576def77494",
    ),
    "compare-classical-line-blocks": (
        ["compare-classical", "--d", "3", "--N", "48"],
        "7e174ed3a1044ed5d2a0f7931501ad8edc3234b4e53a412f127fca2142e3bf65",
    ),
    "compare-classical-line-segments": (
        ["compare-classical", "--d", "1", "--N", "200003"],
        "eb9c3d1e8db614278931792693532adc77a68d9e255a2ff9f656973867c50b4d",
    ),
}


def _csv_sha256(argv, path) -> str:
    assert main([*argv, "--out", str(path)]) == 0
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_csv_bytes_match_golden(name, tmp_path):
    argv, digest = GOLDEN[name]
    assert _csv_sha256(argv, tmp_path / "out.csv") == digest


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        for name, (argv, _) in GOLDEN.items():
            print(name, _csv_sha256(argv, Path(tmp) / "out.csv"), file=sys.stderr)
