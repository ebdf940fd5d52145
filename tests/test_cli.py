import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from robustpr import cli, harness, netpbm, solver, spectral
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


def test_the_solve_command_and_the_library_take_one_path(tmp_path):
    # The command's trace is solver.run's on the same problem and start,
    # record for record and bit for bit (repr round-trips every float).
    settings = {"d": "200", "m": "1600", "noise_p_fail": "0.15", "noise_scale": "10",
                "noise_seed": "100", "seeds": "0"}
    assert main(["solve", *(f"{k}={v}" for k, v in settings.items()),
                 f"out_dir={tmp_path}", "quiet=true"]) == 0
    problem = harness._problem_builder(harness.build_config("solve", settings))(0)
    trace = solver.run(problem, spectral.spectral_init(problem, 0).x0,
                       solver.SolverConfig(min_value=None, tol_dist=1e-10))
    rows = [line.split(",") for line in (tmp_path / "trace_seed0.csv").read_text().split()[1:]]
    assert [(int(k), *map(float, values)) for k, *values in rows] == [
        (r.k, r.f_value, r.rel_dist, r.subgrad_norm, r.step_length) for r in trace.records]
    (summary,) = json.loads((tmp_path / "summary.json").read_text())
    assert (summary["status"], summary["restarts"]) == (trace.status, trace.restarts)
    assert summary["final_rel_dist"] == trace.final_rel_dist


def test_a_zero_tol_dist_is_no_tol_dist(tmp_path):
    # 0 disables the distance stop, the vanish stop and so the climb: the run
    # is the q = 0.95 run that tol_dist=none takes, which recovers the signal
    # (a q = 0.85 run with no vanish test stalls short of it).
    traces = []
    for tol_dist in ("0", "none"):
        out = tmp_path / tol_dist
        assert main(["solve", "d=200", "m=1600", "noise_p_fail=0.3", "noise_scale=1e4",
                     "noise_seed=100", "seeds=0", f"tol_dist={tol_dist}", f"out_dir={out}",
                     "quiet=true"]) == 0
        traces.append((out / "trace_seed0.csv").read_bytes())
        (summary,) = json.loads((out / "summary.json").read_text())
        assert (summary["status"], summary["restarts"]) == ("max_iters", 0)
        assert summary["final_rel_dist"] <= 1e-9
    assert traces[0] == traces[1]


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


@pytest.mark.parametrize("args, bad", [
    (["solve", "d=8", "m=40", "out_dir={tmp}/file/runs"], "file/runs"),
    (["landscape", "xbar=1,1", "grid_n=5", "out={tmp}/missing/g.csv"], "missing/g.csv"),
    (["certify", "d=8", "m=40", "max_iters=5", "out={tmp}/missing/c.json"], "missing/c.json"),
    (["certify", "candidates={tmp}/nowhere.json", "truth={tmp}/nowhere.json", "m=10",
      "out={tmp}/missing/c.json"], "missing/c.json"),
    (["probe", "probe=sharpness", "d=8", "m=40", "samples=5", "out={tmp}/missing/p.json"],
     "missing/p.json"),
    (["image", "input={tmp}/in.pgm", "output={tmp}/missing/o.pgm", "k=3"], "missing/o.pgm"),
    # The summary's destination is checked too, so no picture is left without it.
    (["image", "input={tmp}/in.pgm", "output={tmp}/o.pgm", "out={tmp}/missing/s.json", "k=3"],
     "missing/s.json"),
], ids=["solve", "landscape", "certify-harvest", "certify-files", "probe", "image-output",
        "image-out"])
def test_an_unwritable_destination_fails_first_and_is_named(tmp_path, capsys, monkeypatch,
                                                            args, bad):
    def no_work(*args, **kwargs):
        raise AssertionError("work began before the destination was checked")

    (tmp_path / "file").write_text("")
    netpbm.write_image(tmp_path / "in.pgm", np.zeros((4, 4), np.uint8))
    before = sorted(tmp_path.iterdir())
    for module, name in ((harness, "gaussian_ensemble"), (harness, "hadamard_ensemble"),
                         (netpbm, "read_image"), (harness.landscape, "population_grid")):
        monkeypatch.setattr(module, name, no_work)
    assert main([arg.format(tmp=tmp_path) for arg in args] + ["quiet=true"]) == 2
    assert f"{tmp_path}/{bad}" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == before


def test_image_keeps_a_low_maxval(tmp_path):
    # A maxval-100 picture comes back with its header and its exact samples,
    # not rescaled to 255 or clamped at 255.
    img = np.linspace(0, 100, 64).astype(np.uint8).reshape(8, 8)
    src, out = tmp_path / "in.pgm", tmp_path / "out.pgm"
    src.write_bytes(b"P5\n8 8\n100\n" + img.tobytes())
    assert main(["image", f"input={src}", f"output={out}", "k=3", "seed=2", "quiet=true"]) == 0
    assert out.read_bytes() == src.read_bytes()
    assert json.loads((tmp_path / "out.pgm.json").read_text())["exact_pixel_fraction"] == 1.0


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


def test_probe_runs_on_a_sketch(tmp_path):
    out = tmp_path / "p.json"
    assert main(["probe", "probe=sharpness", "kind=hadamard", "l=64", "k=3", "samples=10",
                 f"out={out}", "quiet=true"]) == 0
    result = json.loads(out.read_text())
    assert (result["d"], result["m"]) == (64, 192)


def test_the_parser_is_built_once_and_outlives_a_usage_error(tmp_path, capsys):
    assert cli._parser() is cli._parser()
    assert main(["solve", "--no-such-flag"]) == 1
    assert main(["probe", "probe=weak_convexity", "d=6", "m=30", "quiet=true"]) == 0
    assert cli._parser() is cli._parser()


def test_image_command_end_to_end(tmp_path):
    img = np.linspace(0, 255, 64, dtype=np.uint8).reshape(8, 8)
    src = tmp_path / "in.pgm"
    netpbm.write_image(src, img)
    out = tmp_path / "out.pgm"
    code = main(["image", f"input={src}", f"output={out}", "k=3", "seed=2",
                 "quiet=true"])
    assert code == 0
    np.testing.assert_array_equal(netpbm.read_image(out)[0], img)


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


def test_certify_a_nan_candidate_is_a_numerical_failure(tmp_path, capsys):
    out = tmp_path / "c.json"
    args = _certify_files(tmp_path, [float("nan"), 1.0], [2.0, 0.0])
    assert main(["certify", *args, f"out={out}", "quiet=true"]) == 3
    assert "numerical failure: non-finite values in candidate 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_certify_a_non_finite_truth_is_a_numerical_failure_of_the_truth(tmp_path, capsys, bad):
    # The truth file holds NaN or Infinity; the candidate is finite.
    out = tmp_path / "c.json"
    args = _certify_files(tmp_path, [1.0, 1.0], [bad, 1.0])
    assert main(["certify", *args, f"out={out}", "quiet=true"]) == 3
    err = capsys.readouterr().err
    assert "numerical failure: non-finite values in truth" in err
    assert "candidate" not in err
    assert not out.exists()


def test_certify_rejects_a_candidate_whose_length_is_not_the_truths(tmp_path, capsys):
    out = tmp_path / "c.json"
    args = _certify_files(tmp_path, [1.0, 2.0, 3.0], [1.0, 1.0])
    assert main(["certify", *args, f"out={out}", "quiet=true"]) == 1
    err = capsys.readouterr().err
    assert "(3,)" in err and "(2,)" in err
    assert not out.exists()


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
    # The weak-convexity modulus is computed, so no ball radius is set.  Cases
    # are replaced in place or appended: each id carries the case's index.
    (["probe", "probe=weak_convexity", "d=2", "m=20", "radius=1", "out=p.json"],
     "unknown key 'radius' for command 'probe'"),
    (["probe", "probe=mystery", "d=2", "m=20", "out=p.json"], "unknown probe 'mystery'"),
    (["probe", "d=2", "m=20", "out=p.json"], "command 'probe' requires 'probe'"),
    (["landscape", "xbar=1,1", "grid_n=1", "out=g.csv"], "grid_n must be at least 2"),
    (["solve", "d=8", "m=40", "noise_p_fail=1"], "p_fail must lie in [0, 1), got 1.0"),
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
    # The seed converges, so no run is certified: the threshold is checked first.
    (["certify", "d=10", "m=80", "seeds=0", "threshold=nan", "out=c.json"],
     "threshold must be at least 0, got nan"),
    # The sampling probes need a sample count; the computed modulus takes none.
    (["probe", "probe=sharpness", "d=8", "m=40", "out=p.json"],
     "command 'probe' requires 'samples'"),
    (["probe", "probe=concentration", "d=8", "m=40", "out=p.json"],
     "command 'probe' requires 'samples'"),
    (["probe", "probe=weak_convexity", "d=2", "m=20", "samples=0", "out=p.json"],
     "probe 'weak_convexity' computes its modulus and takes no 'samples'"),
    (["probe", "probe=weak_convexity", "d=2", "m=20", "samples=200", "out=p.json"],
     "probe 'weak_convexity' computes its modulus and takes no 'samples'"),
    # A tolerance of 0 is off; a negative or NaN one is an error, not off.
    (["solve", "d=8", "m=40", "tol_dist=-1"], "tol_dist must be at least 0, got -1.0"),
    (["solve", "d=8", "m=40", "tol_dist=nan"], "tol_dist must be at least 0, got nan"),
    (["solve", "d=8", "m=40", "tol_value=-1"], "tol_value must be at least 0, got -1.0"),
    # The noise settings are checked on every solve, also at p_fail 0.
    (["solve", "d=10", "m=40", "seeds=0", "noise_kind=bogus"], "unknown noise kind 'bogus'"),
    (["solve", "d=10", "m=40", "seeds=0", "noise_scale=-1"],
     "noise scale must be nonnegative, got -1.0"),
    # A scale that is not finite is refused before the init runs.
    (["solve", "d=10", "m=40", "seeds=0", "noise_p_fail=0.2", "noise_scale=nan"],
     "noise scale must be finite, got nan"),
    (["solve", "d=10", "m=40", "seeds=0", "noise_p_fail=0.2", "noise_scale=inf"],
     "noise scale must be finite, got inf"),
    (["solve", "d=10", "m=40", "seeds=0", "noise_p_fail=0", "noise_scale=nan"],
     "noise scale must be finite, got nan"),
    (["solve", "d=10", "m=40", "seeds=0", "noise_p_fail=0", "noise_scale=inf"],
     "noise scale must be finite, got inf"),
    # A bad ensemble size is refused before a draw or out_dir, by its name.
    (["solve", "d=0", "m=10", "out_dir=runs"], "d must be positive, got 0"),
    (["solve", "d=-1", "m=5", "out_dir=runs"], "d must be positive, got -1"),
    (["solve", "kind=hadamard", "l=100", "k=3", "out_dir=runs"],
     "sketch length l must be a power of two, got 100"),
    (["solve", "kind=hadamard", "l=0", "k=3", "out_dir=runs"],
     "sketch length l must be a power of two, got 0"),
    (["solve", "kind=hadamard", "l=-4", "k=3", "out_dir=runs"],
     "sketch length l must be a power of two, got -4"),
    (["solve", "kind=hadamard", "l=64", "k=0", "out_dir=runs"], "k must be positive, got 0"),
    # 80 GB of rows, over the 2 GiB budget
    (["solve", "d=100000", "m=100000", "out_dir=runs"], "dense 100000x100000 rows need"),
    # k is checked before the picture is opened, so a missing one is no i/o error.
    (["image", "input=missing.pgm", "output=o.pgm", "k=0"], "k must be positive, got 0"),
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
    assert {line.split()[1] for line in documented_command_lines()} == set(cli._RUNNERS)


def test_help_lists_each_command_with_its_runners_summary(capsys):
    with pytest.raises(SystemExit) as done:
        main(["-h"])
    assert done.value.code == 0
    # argparse wraps long help lines; compare with the whitespace collapsed
    text = " ".join(capsys.readouterr().out.split())
    for name, runner in cli._RUNNERS.items():
        summary = runner.__doc__.partition("\n")[0]
        assert summary and f" {name} {summary}" in text


@pytest.mark.parametrize("line", documented_command_lines())
def test_documented_command_lines_parse(line):
    # Parses the example's command and settings without running it.
    cli._load_config(cli._parser().parse_args(shlex.split(line)[1:]))


def test_readme_quick_start_runs(capsys):
    (block,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    exec(compile(block, "README.md", "exec"), {})
    status, verdict = capsys.readouterr().out.splitlines()[::2]
    assert status.startswith("converged ") and verdict == "near_signal"
