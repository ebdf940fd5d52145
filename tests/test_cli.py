import json

import numpy as np
import pytest

from robustpr import netpbm
from robustpr.cli import main


def test_solve_round_trip(tmp_path):
    out = tmp_path / "runs"
    code = main(["solve", "d=10", "m=40", "seeds=0", "max_iters=50",
                 f"out_dir={out}", "quiet=true"])
    assert code == 0
    assert (out / "trace_seed0.csv").exists()
    assert (out / "summary.json").exists()


def test_config_file_with_overrides(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("d=10\nm=40\nseeds=0\nmax_iters=5\nquiet=true\n")
    out = tmp_path / "runs"
    code = main(["solve", "-c", str(cfg), f"out_dir={out}", "max_iters=3"])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary[0]["iterations"] == 3


def test_unknown_key_is_usage_error(tmp_path, capsys):
    assert main(["solve", "d=10", "m=40", "bogus=1"]) == 1
    assert "unknown key" in capsys.readouterr().err


def test_unknown_command_is_usage_error():
    assert main(["frobnicate"]) == 1


def test_missing_required_key_is_usage_error():
    assert main(["solve", "d=10"]) == 1


def test_malformed_override_is_usage_error():
    assert main(["solve", "d10"]) == 1


def test_missing_config_file_is_io_error(tmp_path):
    assert main(["solve", "-c", str(tmp_path / "absent.cfg")]) == 2


def test_unwritable_output_is_io_error(tmp_path):
    img = tmp_path / "in.pgm"
    netpbm.write_image(img, np.zeros((4, 4), dtype=np.uint8))
    code = main(["image", f"input={img}",
                 "output=/nonexistent-dir/out.pgm", "k=2"])
    assert code == 2


def test_malformed_image_is_io_error(tmp_path):
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P5\n4 4\n255\n\x00")
    code = main(["image", f"input={bad}", f"output={tmp_path/'o.pgm'}", "k=2"])
    assert code == 2


def test_non_finite_candidate_scores_are_numerical_failure(tmp_path):
    cand = tmp_path / "cand.json"
    cand.write_text("[[1e308, 1e308]]")
    truth = tmp_path / "truth.json"
    truth.write_text("[1.0, 1.0]")
    code = main(["certify", f"candidates={cand}", f"truth={truth}", "m=10",
                 f"out={tmp_path/'c.json'}", "quiet=true"])
    assert code == 3


def test_zero_signal_landscape_is_usage_error(tmp_path):
    code = main(["landscape", "xbar=0,0", "grid_n=5",
                 f"out={tmp_path/'g.csv'}", "quiet=true"])
    assert code == 1


def test_landscape_and_probe_commands(tmp_path):
    assert main(["landscape", "xbar=1,1", "grid_n=11", "half_width=2",
                 f"out={tmp_path/'g.csv'}", "quiet=true"]) == 0
    assert (tmp_path / "g.csv").exists()
    assert main(["probe", "probe=sharpness", "d=8", "m=40", "samples=10",
                 f"out={tmp_path/'p.json'}", "quiet=true"]) == 0
    assert "kappa_hat" in json.loads((tmp_path / "p.json").read_text())


def test_image_command_end_to_end(tmp_path):
    img = np.linspace(0, 255, 64, dtype=np.uint8).reshape(8, 8)
    src = tmp_path / "in.pgm"
    netpbm.write_image(src, img)
    out = tmp_path / "out.pgm"
    code = main(["image", f"input={src}", f"output={out}", "k=3", "seed=2",
                 "quiet=true"])
    assert code == 0
    np.testing.assert_array_equal(netpbm.read_image(out), img)


def test_non_finite_solve_is_numerical_failure(tmp_path, capsys):
    # Noise at scale 1e308 overflows to inf, and inf * 0 to NaN, while the
    # measurements are taken; the solve must stop at once and exit with 3.
    with pytest.warns(RuntimeWarning):
        code = main(["solve", "d=10", "m=40", "noise_p_fail=0.5", "noise_scale=1e308",
                     "seeds=0", f"out_dir={tmp_path}", "quiet=true"])
    assert code == 3
    assert "non-finite objective or subgradient" in capsys.readouterr().err
