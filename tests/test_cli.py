import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from robustpr import cli, netpbm
from robustpr.cli import main

ROOT = Path(__file__).resolve().parents[1]


def documented_command_lines():
    """Every ``robustpr <command> ...`` example in README.md and the demos' comments."""
    pattern = re.compile(r"^(?:#\s+)?(robustpr [a-z].*)$")
    lines = []
    for path in [ROOT / "README.md", *sorted((ROOT / "demos").glob("*.py"))]:
        lines += [m.group(1) for m in map(pattern.match, path.read_text().splitlines()) if m]
    return lines


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


def test_uniform_noise_at_huge_scale_is_numerical_failure(tmp_path, capsys):
    # The uniform draw is taken on [-1, 1] and scaled, so a scale near the
    # float limit overflows only in the objective, as with Gaussian noise.
    with pytest.warns(RuntimeWarning):
        code = main(["solve", "d=10", "m=40", "noise_p_fail=0.5", "noise_scale=1e308",
                     "noise_kind=uniform", "seeds=0", f"out_dir={tmp_path}", "quiet=true"])
    assert code == 3
    assert "non-finite objective or subgradient" in capsys.readouterr().err


def _certify_files(tmp_path, candidate, truth):
    cand = tmp_path / "cand.json"
    cand.write_text(json.dumps([candidate]))
    signal = tmp_path / "truth.json"
    signal.write_text(json.dumps(truth))
    return [f"candidates={cand}", f"truth={signal}", "m=10"]


def test_certify_a_huge_signal_at_itself_is_near_signal(tmp_path):
    # |xbar|^3 overflows here; the scores must not form it.
    out = tmp_path / "c.json"
    args = _certify_files(tmp_path, [1e120, 1e120], [1e120, 1e120])
    assert main(["certify", *args, f"out={out}", "quiet=true"]) == 0
    (cert,) = json.loads(out.read_text())
    assert cert["verdict"] == "near_signal" and cert["block1_score"] == 0.0


def test_certify_a_tiny_signal_overflows_as_a_numerical_failure(tmp_path, capsys):
    # |xbar|^3 underflows to 0 here; block1 overflows and is reported, not raised.
    args = _certify_files(tmp_path, [1.0, 1.0], [1e-120, 1e-120])
    assert main(["certify", *args, f"out={tmp_path/'c.json'}", "quiet=true"]) == 3
    assert "non-finite certificate scores for candidate 0" in capsys.readouterr().err


def test_certify_harvest_skips_converged_seeds(tmp_path):
    out = tmp_path / "c.json"
    assert main(["certify", "d=10", "m=80", "seeds=0,1,2", "max_iters=2000",
                 f"out={out}", "quiet=true"]) == 0
    assert json.loads(out.read_text()) == []


@pytest.mark.parametrize("word", ["false", "no", "0"])
def test_quiet_false_words_print(tmp_path, capsys, word):
    assert main(["probe", "probe=sharpness", "d=8", "m=40", "samples=10",
                 f"quiet={word}"]) == 0
    assert '"kappa_hat"' in capsys.readouterr().out


@pytest.mark.parametrize("args,message", [
    (["probe", "probe=sharpness", "d=8", "m=40", "quiet=maybe"], "not a boolean: 'maybe'"),
    (["solve", "d=8", "m=40", "kind=foo"], "unknown ensemble kind 'foo'"),
    (["solve", "d=8", "m=40", "seeds="], "solve requires at least one seed"),
    (["landscape", "xbar=1,2,3", "out=g.csv"], "expected two comma-separated numbers"),
    (["probe", "probe=sharpness", "d=8", "m=40", "samples=0", "out=p.json"],
     "samples must be at least 1, got 0"),
    (["probe", "probe=concentration", "d=8", "m=40", "samples=-3", "out=p.json"],
     "samples must be at least 1, got -3"),
    (["probe", "probe=weak_convexity", "d=2", "m=20", "samples=0", "out=p.json"],
     "samples must be at least 1, got 0"),
    (["probe", "probe=weak_convexity", "d=2", "m=20", "radius=0", "out=p.json"],
     "radius must be finite and positive, got 0.0"),
    (["probe", "probe=weak_convexity", "d=2", "m=20", "radius=-1", "out=p.json"],
     "radius must be finite and positive, got -1.0"),
    (["probe", "probe=weak_convexity", "d=2", "m=20", "radius=nan", "out=p.json"],
     "radius must be finite and positive, got nan"),
    (["probe", "probe=weak_convexity", "d=2", "m=20", "radius=inf", "out=p.json"],
     "radius must be finite and positive, got inf"),
    (["landscape", "xbar=1,1", "half_width=nan", "grid_n=5", "out=g.csv"],
     "half_width must be finite and positive, got nan"),
    (["landscape", "xbar=1,1", "half_width=inf", "grid_n=5", "out=g.csv"],
     "half_width must be finite and positive, got inf"),
    (["landscape", "xbar=1,1", "half_width=0", "grid_n=5", "out=g.csv"],
     "half_width must be finite and positive, got 0.0"),
    (["solve", "d=8", "m=40", "max_iters=-1"], "max_iters must be at least 0, got -1"),
    (["certify", "d=8", "m=40", "seeds=", "out=c.json"], "certify requires at least one seed"),
    (["certify", "d=8", "m=40", "seeds=0", "max_iters=1", "threshold=nan", "out=c.json"],
     "threshold must be at least 0, got nan"),
    (["certify", "d=8", "m=40", "seeds=0", "max_iters=1", "threshold=-1", "out=c.json"],
     "threshold must be at least 0, got -1.0"),
    (["landscape", "xbar=nan,1", "grid_n=5", "out=g.csv"], "xbar must be finite, got [nan, 1.0]"),
    (["landscape", "xbar=inf,1", "grid_n=5", "out=g.csv"], "xbar must be finite, got [inf, 1.0]"),
])
def test_bad_settings_are_usage_errors(tmp_path, capsys, monkeypatch, args, message):
    monkeypatch.chdir(tmp_path)
    assert main(args) == 1
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_each_command_prints_its_line(tmp_path, capsys):
    def printed(*args):
        assert main([*args, "quiet=false"]) == 0
        return capsys.readouterr().out

    out = printed("solve", "d=10", "m=40", "seeds=3", "max_iters=5", f"out_dir={tmp_path}")
    assert out.startswith("seed 3: status=max_iters iters=5 final_rel_dist=")
    out = printed("landscape", "xbar=1,0", "grid_n=5", f"out={tmp_path/'g.csv'}")
    assert out.startswith(f"landscape grid 5x5 -> {tmp_path/'g.csv'} (min grad_norm ")
    out = printed("certify", "d=15", "m=33", "seeds=0", "max_iters=5")
    assert out.startswith("candidate 0: verdict=")
    out = printed("probe", "probe=concentration", "d=8", "m=40", "samples=5")
    assert json.loads(out)["probe"] == "concentration"
    src = tmp_path / "in.pgm"
    netpbm.write_image(src, np.linspace(0, 255, 64, dtype=np.uint8).reshape(8, 8))
    out = printed("image", f"input={src}", f"output={tmp_path/'o.pgm'}", "k=3", "seed=2")
    assert out.startswith(f"image {src}: status=")
    assert out.rstrip().endswith("exact=1.0000")


def test_the_documentation_shows_every_command():
    assert {line.split()[1] for line in documented_command_lines()} == set(cli._COMMANDS)


@pytest.mark.parametrize("line", documented_command_lines())
def test_documented_command_lines_parse(line):
    # Parses the example's command and settings without running it.
    cli._load_config(cli._parser().parse_args(shlex.split(line)[1:]))
