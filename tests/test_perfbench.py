"""The benchmark under perfbench/ reaches into the package by name: it
wraps module functions in trace spans and calls the io loaders.  A
rename or deletion breaks only its traced mode, which its self-test
exercises."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parents[1]


def test_perfbench_selftest_passes():
    result = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                            capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stderr
