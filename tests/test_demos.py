"""Smoke test: every script under demos/ runs to completion from a source checkout."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_demo(demo, tmp_path):
    # The demos write their outputs under the temporary directory.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path),
               PYTHONWARNINGS="error::RuntimeWarning")
    return subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path):
    done = run_demo(demo, tmp_path)
    assert done.returncode == 0, done.stderr


def test_convergence_demo_recovers_corrupted_data_without_the_oracle(tmp_path):
    done = run_demo(ROOT / "demos" / "solve_convergence.py", tmp_path)
    assert done.returncode == 0, done.stderr
    (line,) = [ln for ln in done.stdout.splitlines() if ln.startswith("corrupted:")]
    fields = dict(tok.split("=") for tok in line.split(":", 2)[2].split())
    assert fields["step_rule"] == "geometric"
    assert fields["status"] == "converged"
    assert fields["restarts"] == "0"
    assert int(fields["iters"]) <= 140
    assert float(fields["final_rel_dist"]) <= 1e-10


def test_image_demo_prints_seconds_next_to_matvecs(tmp_path):
    done = run_demo(ROOT / "demos" / "image_recovery.py", tmp_path)
    assert done.returncode == 0, done.stderr
    stages = {}
    for line in done.stdout.splitlines():
        name, _, rest = line.partition(":")
        if name in ("init", "solve"):
            stages[name] = dict(tok.split("=") for tok in rest.split())
    init, solve = stages["init"], stages["solve"]
    assert float(init["init_s"]) > 0 and float(solve["solve_s"]) > 0
    assert int(init["init_matvecs"]) == 2 * (int(init["init_iters"]) + 1)
    assert int(solve["solve_matvecs"]) == 2 * int(solve["iterations"])
