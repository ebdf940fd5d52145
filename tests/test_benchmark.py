"""The benchmark under perfbench/ relies on names in robustpr; its own fast tests check them."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_fast_tests_pass():
    # The traced tests run whole workloads; the rest check the CLI runner table,
    # the patched aliases, population_grid's signature and BENCHMARK.json.
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "-k", "not traced", "perfbench"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
