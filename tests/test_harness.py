import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

import robustpr as rp
from robustpr import harness, landscape, netpbm


def gradient_image(w=16, h=16):
    col = np.linspace(10, 245, w).astype(np.uint8)
    return np.tile(col, (h, 1))


def run_image(src, out, quiet=True, **settings):
    """The image command from src to out with the given settings."""
    return harness.run_image_command(harness.ExperimentConfig(
        command="image", input=str(src), output=str(out), quiet=quiet, **settings))


# ---------------------------------------------------------------------------
# netpbm
# ---------------------------------------------------------------------------

def test_pgm_round_trip_is_byte_identical(tmp_path):
    path = tmp_path / "img.pgm"
    netpbm.write_image(path, gradient_image())
    first = path.read_bytes()
    again = netpbm.read_image(path)
    netpbm.write_image(path, again)
    assert path.read_bytes() == first


def test_ppm_round_trip(tmp_path):
    rgb = np.random.default_rng(0).integers(0, 256, size=(7, 5, 3)).astype(np.uint8)
    path = tmp_path / "img.ppm"
    netpbm.write_image(path, rgb)
    np.testing.assert_array_equal(netpbm.read_image(path), rgb)


def test_read_accepts_comments_and_whitespace(tmp_path):
    path = tmp_path / "c.pgm"
    raster = bytes(range(6))
    path.write_bytes(b"P5 # magic\n# a comment line\n 3\t2 # dims\n255\n" + raster)
    img = netpbm.read_image(path)
    assert img.shape == (2, 3)
    assert img.tobytes() == raster


def test_read_rejects_deep_images(tmp_path):
    path = tmp_path / "deep.pgm"
    path.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
    with pytest.raises(netpbm.ImageFormatError, match="bit depth"):
        netpbm.read_image(path)


def test_read_rejects_garbage(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P2\n2 2\n255\n0 0 0 0\n")
    with pytest.raises(netpbm.ImageFormatError):
        netpbm.read_image(path)
    path.write_bytes(b"P5\n4 4\n255\n\x00\x01")
    with pytest.raises(netpbm.ImageFormatError, match="raster"):
        netpbm.read_image(path)


# ---------------------------------------------------------------------------
# image buffer
# ---------------------------------------------------------------------------

def test_image_buffer_round_trip_gray():
    buf = harness.ImageBuffer.from_array(gradient_image(12, 7))
    assert buf.pad_len == 128  # next power of two above 84
    vec = buf.to_vector()
    assert vec.shape == (128,)
    assert np.all(vec[84:] == 0.0)
    np.testing.assert_array_equal(buf.from_vector(vec), buf.pixels)


def test_image_buffer_round_trip_rgb():
    rgb = np.random.default_rng(1).integers(0, 256, size=(4, 5, 3)).astype(np.uint8)
    buf = harness.ImageBuffer.from_array(rgb)
    assert buf.channels == 3
    assert buf.pad_len == 64
    np.testing.assert_array_equal(buf.from_vector(buf.to_vector()), rgb)


def test_image_buffer_clamps_and_rounds():
    buf = harness.ImageBuffer.from_array(np.zeros((1, 2), dtype=np.uint8))
    out = buf.from_vector(np.array([-3.2, 260.9]))
    np.testing.assert_array_equal(out, [[0, 255]])


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

def test_parse_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\n d = 20 \nm=80\nseeds=0,1,2  # inline\n\n")
    assert harness.parse_config_file(cfg) == {"d": "20", "m": "80", "seeds": "0,1,2"}


def test_parse_config_rejects_bad_lines(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("just a line\n")
    with pytest.raises(harness.ConfigError):
        harness.parse_config_file(cfg)


def test_build_config_unknown_key_is_an_error():
    with pytest.raises(harness.ConfigError, match="unknown key"):
        harness.build_config("solve", {"dd": "20"})
    with pytest.raises(harness.ConfigError, match="unknown key"):
        harness.build_config("landscape", {"d": "20"})


def test_build_config_coercion_and_types():
    cfg = harness.build_config("solve", {"d": "20", "m": "80", "seeds": "3,4",
                                         "tol_dist": "none", "max_iters": "7"})
    assert cfg.d == 20 and cfg.m == 80
    assert cfg.seeds == [3, 4]
    assert cfg.tol_dist is None
    assert cfg.max_iters == 7
    with pytest.raises(harness.ConfigError, match="bad value"):
        harness.build_config("solve", {"d": "twenty"})


# The settings each command accepts and every default, written out as data
# so that a change to the one declaration in ExperimentConfig shows here.
COMMAND_KEYS = {
    "solve": {"kind", "d", "m", "l", "k", "seeds", "min_value", "max_iters",
              "tol_value", "tol_dist", "noise_p_fail", "noise_scale",
              "noise_seed", "noise_kind", "out_dir", "quiet"},
    "landscape": {"xbar", "half_width", "grid_n", "out", "quiet"},
    "certify": {"candidates", "truth", "m", "threshold", "out", "kind", "d",
                "l", "k", "seeds", "min_value", "max_iters", "tol_value",
                "tol_dist", "quiet"},
    "image": {"input", "output", "k", "seed", "max_iters", "tol_value",
              "tol_dist", "min_value", "out", "quiet"},
    "probe": {"probe", "d", "m", "seed", "samples", "out", "quiet"},
}

DEFAULTS = {
    "kind": "gaussian", "d": None, "m": None, "l": None, "k": None, "seed": 0,
    "seeds": [0], "min_value": None, "max_iters": 2000, "tol_value": 0.0,
    "tol_dist": 1e-10, "noise_p_fail": 0.0, "noise_scale": 0.0, "noise_seed": 0,
    "noise_kind": "gaussian", "out_dir": ".", "out": None, "xbar": None,
    "half_width": 2.0, "grid_n": 201, "candidates": None, "truth": None,
    "threshold": 10.0, "input": None, "output": None, "probe": None,
    "samples": None, "quiet": False,
}

RAW_VALUES = {
    "kind": "hadamard", "d": "3", "m": "9", "l": "8", "k": "2", "seed": "4",
    "seeds": "1,2", "min_value": "0.5", "max_iters": "7", "tol_value": "1e-3",
    "tol_dist": "none", "noise_p_fail": "0.1", "noise_scale": "2",
    "noise_seed": "5", "noise_kind": "uniform", "out_dir": "runs", "out": "o.json",
    "xbar": "1,2", "half_width": "1.5", "grid_n": "11", "candidates": "c.json",
    "truth": "t.json", "threshold": "3", "input": "in.pgm", "output": "out.pgm",
    "probe": "sharpness", "samples": "10", "quiet": "yes",
}


def test_config_defaults_are_pinned():
    cfg = dataclasses.asdict(harness.ExperimentConfig(command="solve"))
    assert cfg.pop("command") == "solve"
    assert cfg == DEFAULTS
    assert set(RAW_VALUES) == set(DEFAULTS)
    # the list default is not shared between instances
    harness.ExperimentConfig(command="solve").seeds.append(1)
    assert harness.ExperimentConfig(command="solve").seeds == [0]


@pytest.mark.parametrize("command", sorted(COMMAND_KEYS))
def test_each_command_accepts_exactly_its_keys(command):
    for key, raw in RAW_VALUES.items():
        if key in COMMAND_KEYS[command]:
            cfg = harness.build_config(command, {key: raw})
            assert getattr(cfg, key) != DEFAULTS[key]
        else:
            with pytest.raises(harness.ConfigError, match="unknown key"):
                harness.build_config(command, {key: raw})


def test_build_config_unknown_command():
    with pytest.raises(harness.ConfigError, match="unknown command"):
        harness.build_config("frobnicate", {})


# ---------------------------------------------------------------------------
# solve experiment
# ---------------------------------------------------------------------------

def solve_cfg(tmp_path, **kw):
    base = {"command": "solve", "d": 20, "m": 80, "seeds": [0, 1],
            "max_iters": 300, "tol_dist": 1e-7, "out_dir": str(tmp_path),
            "quiet": True}
    base.update(kw)
    return harness.ExperimentConfig(**base)


def test_run_solve_experiment_outputs(tmp_path):
    summaries = harness.run_solve_experiment(solve_cfg(tmp_path))
    assert [s["seed"] for s in summaries] == [0, 1]
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert len(summary) == 2
    for entry, live in zip(summary, summaries):
        assert entry["status"] == live["status"]
        assert entry["final_rel_dist"] == live["final_rel_dist"]
    lines = (tmp_path / "trace_seed0.csv").read_text().strip().split("\n")
    assert lines[0] == harness.TRACE_HEADER
    for line in lines[1:]:
        k, f, rel, gn, step = line.split(",")
        if float(gn) > 0:
            assert float(step) == pytest.approx(float(f) / float(gn), rel=1e-12)


def test_run_solve_experiment_is_deterministic(tmp_path):
    a_dir = tmp_path / "a"
    b_dir = tmp_path / "b"
    harness.run_solve_experiment(solve_cfg(a_dir))
    harness.run_solve_experiment(solve_cfg(b_dir))
    assert (a_dir / "trace_seed0.csv").read_bytes() == (b_dir / "trace_seed0.csv").read_bytes()
    assert (a_dir / "trace_seed1.csv").read_bytes() == (b_dir / "trace_seed1.csv").read_bytes()
    sa = json.loads((a_dir / "summary.json").read_text())
    sb = json.loads((b_dir / "summary.json").read_text())
    for ea, eb in zip(sa, sb):
        for key in ("init_s", "solve_s", "wall_time_s"):
            ea.pop(key)
            eb.pop(key)
        assert ea == eb


def test_summary_times_each_stage(tmp_path):
    harness.run_solve_experiment(solve_cfg(tmp_path, seeds=[0]))
    (summary,) = json.loads((tmp_path / "summary.json").read_text())
    assert summary["init_s"] >= 0.0 and summary["solve_s"] >= 0.0
    assert summary["init_s"] + summary["solve_s"] == pytest.approx(summary["wall_time_s"],
                                                                   rel=1e-12, abs=1e-12)


def test_run_solve_experiment_zero_iteration_budget(tmp_path):
    cfg = solve_cfg(tmp_path, max_iters=0, seeds=[5])
    harness.run_solve_experiment(cfg)
    content = (tmp_path / "trace_seed5.csv").read_text()
    assert content == harness.TRACE_HEADER + "\n"
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary[0]["status"] == "max_iters"
    assert summary[0]["iterations"] == 0
    # With no step taken, the final distance is the start's.
    problem = harness._seeded_problem(cfg, 5)
    x0, xbar = rp.spectral_init(problem, 5).x0, problem.truth
    start = min(np.linalg.norm(x0 - xbar), np.linalg.norm(x0 + xbar)) / np.linalg.norm(xbar)
    assert summary[0]["final_rel_dist"] == start > 0.0


def _count_products(monkeypatch):
    """Count the forward and adjoint products of the init and of the solve."""
    from robustpr import objective, spectral
    counts = {"init": 0, "solve": 0}
    for stage, module in (("init", spectral), ("solve", objective)):
        for name in ("apply", "apply_adjoint"):
            def counted(ens, v, _real=getattr(module, name), _stage=stage):
                counts[_stage] += 1
                return _real(ens, v)
            monkeypatch.setattr(module, name, counted)
    return counts


@pytest.mark.parametrize("max_iters, status, ensemble", [
    (300, "converged", {}), (5, "max_iters", {}),
    (300, "converged", {"kind": "hadamard", "l": 64, "k": 3})],
    ids=["300-converged", "5-max_iters", "sketch"])
def test_summary_counts_the_matvecs_of_each_stage(tmp_path, monkeypatch, max_iters, status,
                                                  ensemble):
    counts = _count_products(monkeypatch)
    summary = harness.run_solve_experiment(
        solve_cfg(tmp_path, seeds=[0], max_iters=max_iters, **ensemble))[0]
    assert summary["status"] == status
    assert summary["init_matvecs"] == counts["init"] == 2 * (summary["init_iters"] + 1)
    assert summary["solve_matvecs"] == counts["solve"] == 2 * summary["iterations"]
    saved = json.loads((tmp_path / "summary.json").read_text())[0]
    assert (saved["init_matvecs"], saved["solve_matvecs"]) == (counts["init"], counts["solve"])


def test_zero_signal_init_counts_no_matvecs(tmp_path, monkeypatch):
    # b = 0 sends spectral_init down its zero start, which applies nothing.
    counts = _count_products(monkeypatch)
    src = tmp_path / "black.pgm"
    netpbm.write_image(src, np.zeros((8, 8), dtype=np.uint8))
    summary = run_image(src, tmp_path / "rec.pgm", k=2, seed=0)
    assert summary["init_matvecs"] == counts["init"] == 0
    assert summary["solve_matvecs"] == counts["solve"] == 2 * summary["iterations"] == 2


def test_run_solve_experiment_noise_setting(tmp_path):
    cfg = solve_cfg(tmp_path, seeds=[0], noise_p_fail=0.2, noise_scale=5.0,
                    max_iters=40, tol_dist=None)
    summaries = harness.run_solve_experiment(cfg)
    assert summaries[0]["status"] == "max_iters"


def test_corrupted_solve_takes_the_geometric_step_and_recovers(tmp_path):
    # Gross errors at scale 1e4 drive mean(b) below 0 for this seed: the run
    # needs the median init scale as well as the oracle-free step.
    cfg = solve_cfg(tmp_path, d=200, m=1600, seeds=[0], noise_p_fail=0.15,
                    noise_scale=1e4, noise_seed=100, max_iters=2000, tol_dist=1e-10)
    (summary,) = harness.run_solve_experiment(cfg)
    assert summary["step_rule"] == "geometric"
    assert summary["status"] == "converged"
    assert summary["final_rel_dist"] <= 1e-10
    # The first rung of the ladder, q = 0.85, recovers the signal.
    assert summary["restarts"] == 0
    assert summary["iterations"] <= 140
    assert json.loads((tmp_path / "summary.json").read_text())[0]["step_rule"] == "geometric"


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_corrupted_solve_recovers_with_thirty_percent_gross_errors(tmp_path, seed):
    # About 30% of the selected entries are negative here; kept in the
    # selection they put x0 at rel_dist 0.67-1.27 and seeds 1-2 stop far off.
    cfg = solve_cfg(tmp_path, d=200, m=1600, seeds=[seed], noise_p_fail=0.30,
                    noise_scale=1e4, noise_seed=100 + seed, max_iters=2000, tol_dist=1e-10)
    (summary,) = harness.run_solve_experiment(cfg)
    assert summary["final_rel_dist"] <= 1e-9
    # The q = 0.85 rung stops short, so the q = 0.95 rung recovers the signal.
    assert summary["restarts"] == 1
    assert summary["rate_estimate"] < 1.0


def test_corrupted_solve_without_tol_dist_runs_the_default_decay_and_recovers(tmp_path):
    # Without tol_dist no step vanishes, so the ladder cannot tell a stalled
    # q = 0.85 run from a recovery and runs q = 0.95 alone, as before.
    cfg = solve_cfg(tmp_path, d=200, m=1600, seeds=[0], noise_p_fail=0.30,
                    noise_scale=1e4, noise_seed=100, max_iters=600, tol_dist=None)
    (summary,) = harness.run_solve_experiment(cfg)
    assert (summary["status"], summary["iterations"], summary["restarts"]) == ("max_iters", 600, 0)
    assert summary["final_rel_dist"] <= 1e-9
    assert summary["rate_estimate"] < 1.0


def test_a_ladder_capped_in_its_second_rung_reports_its_restart_and_no_rate(tmp_path):
    # The first rung ends step_vanished after 140 iterates here; the second
    # gets the 30 left, too few records for the 50-step rate window.
    cfg = solve_cfg(tmp_path, d=200, m=1600, seeds=[0], noise_p_fail=0.30,
                    noise_scale=1e4, noise_seed=100, max_iters=170, tol_dist=1e-10)
    (summary,) = harness.run_solve_experiment(cfg)
    assert (summary["status"], summary["iterations"], summary["restarts"]) == ("max_iters", 170, 1)
    assert summary["solve_matvecs"] == 340
    assert summary["rate_estimate"] is None
    ks = [line.split(",")[0] for line in (tmp_path / "trace_seed0.csv").read_text().split()[1:]]
    assert ks == [str(k) for k in range(170)]


@pytest.mark.parametrize("noise, min_value", [({}, None), ({}, 0.0),
                                              ({"noise_p_fail": 0.2, "noise_scale": 5.0}, 0.0)])
def test_solve_takes_polyak_steps_on_noiseless_data_or_a_given_min_value(tmp_path, noise,
                                                                         min_value):
    cfg = solve_cfg(tmp_path, seeds=[0], min_value=min_value, max_iters=60, **noise)
    (summary,) = harness.run_solve_experiment(cfg)
    assert summary["step_rule"] == "polyak"
    assert summary["restarts"] == 0
    lines = (tmp_path / "trace_seed0.csv").read_text().strip().split("\n")[1:]
    assert len(lines) == summary["iterations"]
    for line in lines:
        k, f, rel, gn, step = line.split(",")
        assert float(step) == pytest.approx(float(f) / float(gn), rel=1e-12)


def test_run_solve_experiment_hadamard_kind(tmp_path):
    cfg = harness.ExperimentConfig(command="solve", kind="hadamard", l=64, k=4,
                                   seeds=[1], max_iters=500, tol_dist=1e-6,
                                   out_dir=str(tmp_path), quiet=True)
    summary = harness.run_solve_experiment(cfg)[0]
    assert summary["status"] == "converged"
    assert (tmp_path / "trace_seed1.csv").exists()


def test_non_finite_solve_fails_even_at_a_finite_iterate(tmp_path, monkeypatch):
    # b_0 = -inf makes mean(b) <= 0, so the init returns x0 = 0; there the
    # subgradient vanishes and the iterate stays finite while f = inf.
    real = harness.take_measurements

    def corrupted(ens, xbar, noise=None):
        problem = real(ens, xbar, noise)
        b = problem.b.copy()
        b[0] = -math.inf
        return rp.PhaseProblem(ensemble=ens, b=b, truth=problem.truth.copy())

    monkeypatch.setattr(harness, "take_measurements", corrupted)
    with pytest.raises(FloatingPointError, match="non-finite"):
        harness.run_solve_experiment(solve_cfg(tmp_path, seeds=[0]))


def test_run_solve_experiment_unwritable_dir(tmp_path):
    target = tmp_path / "file"
    target.write_text("x")  # makedirs() on a regular file raises
    with pytest.raises(OSError):
        harness.run_solve_experiment(solve_cfg(target / "sub"))


# ---------------------------------------------------------------------------
# landscape grid
# ---------------------------------------------------------------------------

def test_run_landscape_grid_small(tmp_path):
    out = tmp_path / "grid.csv"
    harness.run_landscape_grid(np.array([1.0, 1.0]), 1.0, 2, str(out))
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "x1,x2,f_pop,grad_norm"
    assert len(lines) == 5
    # the (-1,-1) and (1,1) corners are the minimizers: value 0, grad 0
    first = lines[1].split(",")
    assert float(first[2]) == pytest.approx(0.0, abs=1e-12)
    assert float(first[3]) == 0.0


def test_run_landscape_grid_nan_sentinel(tmp_path):
    out = tmp_path / "grid.csv"
    harness.run_landscape_grid(np.array([1.0, 1.0]), 2.0, 5, str(out))
    rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
    for x1, x2, _, gn in rows:
        if x1 == x2 and float(x1) != 0.0 and abs(abs(float(x1)) - 1.0) > 1e-9:
            assert gn == "nan"
        else:
            assert gn != "nan"


def per_cell_bytes(axis, f, g):
    """The landscape CSV from four _fmt calls per cell."""
    lines = ["x1,x2,f_pop,grad_norm"]
    for i in range(axis.shape[0]):
        for j in range(axis.shape[0]):
            lines.append(",".join([harness._fmt(axis[i]), harness._fmt(axis[j]),
                                   harness._fmt(f[i, j]), harness._fmt(g[i, j])]))
    return ("\n".join(lines) + "\n").encode("utf-8")


@pytest.mark.parametrize("xbar, nan_cells", [
    ((1.0, 1.0), True), ((1.41, 0.0), True), ((0.3, -1.7), False), ((1.0, 0.0), True)])
def test_run_landscape_grid_writes_the_bytes_of_the_per_cell_loop(tmp_path, xbar, nan_cells):
    out = tmp_path / "g.csv"
    axis, f, g = harness.run_landscape_grid(np.array(xbar), 2.0, 41, str(out))
    # the xbar line crosses grid cells other than the origin only for the first kind
    assert np.isnan(g).any() == nan_cells
    assert out.read_bytes() == per_cell_bytes(axis, f, g)


@pytest.mark.parametrize("grid_n", [2, 17, 401])
def test_run_landscape_grid_streams_the_bytes_of_the_whole_grid(tmp_path, grid_n):
    # 17 rows leave a partial last block; 401 is the benchmark's grid.
    out = tmp_path / "g.csv"
    xbar = np.array([-1.24, -0.68])
    axis, f, g = harness.run_landscape_grid(xbar, 2.0, grid_n, str(out))
    whole_f, whole_g = landscape.population_grid(xbar, *np.meshgrid(axis, axis, indexing="ij"))
    np.testing.assert_array_equal(f, whole_f)
    np.testing.assert_array_equal(g, whole_g)
    assert out.read_bytes() == per_cell_bytes(axis, whole_f, whole_g)


def test_run_landscape_grid_holds_only_a_block_of_text(tmp_path):
    # The CSV is 10 MB at 401^2 and the returned f and g take 2.6 MB.
    tracemalloc.start()
    try:
        harness.run_landscape_grid(np.array([1.0, 1.0]), 2.0, 401, str(tmp_path / "g.csv"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "g.csv").stat().st_size > 10_000_000
    assert peak <= 8_000_000


def test_run_landscape_grid_error_mid_stream_keeps_the_old_file(tmp_path, monkeypatch):
    out = tmp_path / "g.csv"
    out.write_bytes(b"old contents\n")
    calls = []
    real = landscape.population_grid

    def fail_on_third_block(*args):
        calls.append(None)
        if len(calls) == 3:
            raise RuntimeError("injected")
        return real(*args)

    monkeypatch.setattr(landscape, "population_grid", fail_on_third_block)
    with pytest.raises(RuntimeError, match="injected"):
        harness.run_landscape_grid(np.array([1.0, 1.0]), 2.0, 401, str(out))
    assert len(calls) == 3
    assert out.read_bytes() == b"old contents\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.csv"]


def test_run_landscape_grid_rejects_tiny_grid(tmp_path):
    with pytest.raises(harness.ConfigError):
        harness.run_landscape_grid(np.array([1.0, 1.0]), 1.0, 1, str(tmp_path / "g.csv"))


# ---------------------------------------------------------------------------
# image pipeline
# ---------------------------------------------------------------------------

def test_image_pipeline_recovers_gradient_image(tmp_path):
    src = tmp_path / "in.pgm"
    netpbm.write_image(src, gradient_image(16, 16))
    out = tmp_path / "out.pgm"
    summary = run_image(src, out, k=3, seed=7)
    assert summary["rel_dist"] <= 1e-5
    assert summary["exact_pixel_fraction"] >= 0.99
    recovered = netpbm.read_image(out)
    assert recovered.shape == (16, 16)
    assert json.loads((tmp_path / "out.pgm.json").read_text())["k"] == 3


def test_image_pipeline_reports_the_polyak_rule(tmp_path):
    src = tmp_path / "in.pgm"
    netpbm.write_image(src, gradient_image(8, 8))
    summary = run_image(src, tmp_path / "out.pgm", k=2, seed=1)
    assert (summary["step_rule"], summary["restarts"]) == ("polyak", 0)
    saved = json.loads((tmp_path / "out.pgm.json").read_text())
    assert (saved["step_rule"], saved["restarts"]) == ("polyak", 0)


def test_image_pipeline_all_black_image(tmp_path, capsys):
    # A zero signal has no relative distance, as in solve: null, printed as None.
    src = tmp_path / "black.pgm"
    netpbm.write_image(src, np.zeros((8, 8), dtype=np.uint8))
    out = tmp_path / "rec.pgm"
    summary = run_image(src, out, quiet=False, k=2, seed=0)
    assert summary["status"] == "zero_subgradient"
    assert summary["iterations"] == 1
    assert summary["rel_dist"] is None
    assert json.loads((tmp_path / "rec.pgm.json").read_text())["rel_dist"] is None
    assert " rel_dist=None exact=1.0000" in capsys.readouterr().out
    np.testing.assert_array_equal(netpbm.read_image(out), np.zeros((8, 8), np.uint8))


def test_capped_image_run_reports_the_relative_distance_of_its_last_iterate(tmp_path):
    # The 64x64 image of demos/image_recovery.py, stopped after 20 Polyak steps.
    yy, xx = np.mgrid[0:64, 0:64]
    img = (255 * np.hypot(xx - 32, yy - 32) / 45.0).clip(0, 255)
    img[12:24, 40:56] = 240
    src = tmp_path / "in.pgm"
    netpbm.write_image(src, img.astype(np.uint8))
    summary = run_image(src, tmp_path / "out.pgm", k=3, seed=7, max_iters=20)
    assert summary["status"] == "max_iters" and summary["iterations"] == 20
    assert summary["rel_dist"] == pytest.approx(2.230e-3, abs=5e-6)


def test_image_pipeline_flips_a_solve_that_ends_at_minus_the_signal(tmp_path, monkeypatch):
    # A negated start leads the solve to -xbar; the sign rule must undo it.
    from robustpr import solver, spectral
    real_init, real_run = spectral.spectral_init, solver.run
    alignments = []

    def negated_init(problem, cfg):
        report = real_init(problem, cfg)
        return dataclasses.replace(report, x0=-report.x0)

    def recording_run(problem, x0, cfg):
        trace = real_run(problem, x0, cfg)
        alignments.append(float(trace.final_x @ problem.truth))
        return trace

    monkeypatch.setattr(spectral, "spectral_init", negated_init)
    monkeypatch.setattr(solver, "run", recording_run)
    yy, xx = np.mgrid[0:16, 0:16]
    img = (255 * np.hypot(xx - 8, yy - 8) / 12.0).clip(0, 255).astype(np.uint8)
    src, out = tmp_path / "in.pgm", tmp_path / "out.pgm"
    netpbm.write_image(src, img)
    summary = run_image(src, out, k=3, seed=1)
    assert len(alignments) == 1 and alignments[0] < 0.0
    assert summary["exact_pixel_fraction"] == 1.0
    np.testing.assert_array_equal(netpbm.read_image(out), img)


def test_image_pipeline_pads_non_power_of_two(tmp_path):
    img = gradient_image(12, 7)  # 84 samples -> padded to 128
    src = tmp_path / "np2.pgm"
    netpbm.write_image(src, img)
    out = tmp_path / "rec.pgm"
    summary = run_image(src, out, k=3, seed=1)
    assert summary["pad_len"] == 128
    np.testing.assert_array_equal(netpbm.read_image(out), img)


def test_image_pipeline_takes_solver_settings(tmp_path):
    src = tmp_path / "in.pgm"
    netpbm.write_image(src, gradient_image(8, 8))
    summary = run_image(src, tmp_path / "out.pgm", k=3, seed=7, max_iters=1)
    assert summary["iterations"] == 1
    assert summary["status"] == "max_iters"


def test_image_pipeline_rejects_keys_image_does_not_take(tmp_path):
    src = tmp_path / "in.pgm"
    netpbm.write_image(src, gradient_image(8, 8))
    with pytest.raises(harness.ConfigError, match="unknown key 'd'"):
        harness.build_config("image", {"input": str(src), "output": str(tmp_path / "out.pgm"),
                                       "k": "3", "seed": "7", "d": "3"})


def test_image_pipeline_rgb(tmp_path):
    rgb = np.random.default_rng(3).integers(0, 256, size=(8, 8, 3)).astype(np.uint8)
    src = tmp_path / "in.ppm"
    netpbm.write_image(src, rgb)
    out = tmp_path / "out.ppm"
    summary = run_image(src, out, k=3, seed=5)
    assert summary["channels"] == 3
    assert summary["exact_pixel_fraction"] >= 0.99


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def test_run_certify_from_candidate_file(tmp_path):
    xbar = [1.0, 1.0]
    c = rp.critical_ratio()
    candidates = [xbar, [0.0, 0.0], [-c, c]]
    cand = tmp_path / "cand.json"
    cand.write_text(json.dumps(candidates))
    truth = tmp_path / "truth.json"
    truth.write_text(json.dumps(xbar))
    out = tmp_path / "certs.json"
    cfg = harness.build_config("certify", {
        "candidates": str(cand), "truth": str(truth), "m": "50", "out": str(out)})
    cfg.quiet = True
    results = harness.run_certify(cfg)
    assert [r["verdict"] for r in results] == [
        rp.NEAR_SIGNAL, rp.NEAR_ZERO, rp.NEAR_ORTHOGONAL_RING]
    assert json.loads(out.read_text()) == results


def test_run_certify_empty_candidates(tmp_path):
    cand = tmp_path / "cand.json"
    cand.write_text("[]")
    truth = tmp_path / "truth.json"
    truth.write_text("[1.0, 0.0]")
    out = tmp_path / "certs.json"
    cfg = harness.build_config("certify", {
        "candidates": str(cand), "truth": str(truth), "m": "10", "out": str(out)})
    cfg.quiet = True
    assert harness.run_certify(cfg) == []
    assert json.loads(out.read_text()) == []


def test_run_certify_harvests_capped_runs(tmp_path):
    cfg = harness.build_config("certify", {
        "d": "15", "m": "33", "seeds": "0,1", "max_iters": "5",
        "out": str(tmp_path / "c.json")})
    cfg.quiet = True
    results = harness.run_certify(cfg)
    assert len(results) == 2  # a 5-step budget cannot converge
    for r in results:
        assert r["restarts"] == 0  # certify solves noiseless data by Polyak's rule
        assert r["verdict"] in (rp.NEAR_SIGNAL, rp.NEAR_ZERO,
                                rp.NEAR_ORTHOGONAL_RING, rp.UNEXPLAINED)


@pytest.mark.parametrize("mode", ["file", "harvest"])
def test_run_certify_rejects_non_finite_scores_in_both_modes(tmp_path, monkeypatch, mode):
    def inf_scores(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs), block1_score=math.inf)

    real = landscape.certify_stationary
    monkeypatch.setattr(landscape, "certify_stationary", inf_scores)
    settings = {"d": "15", "m": "33", "seeds": "0", "max_iters": "5"}
    if mode == "file":
        (tmp_path / "cand.json").write_text("[[1.0, 2.0]]")
        (tmp_path / "truth.json").write_text("[1.0, 1.0]")
        settings = {"candidates": str(tmp_path / "cand.json"),
                    "truth": str(tmp_path / "truth.json"), "m": "33"}
    cfg = harness.build_config("certify", {**settings, "out": str(tmp_path / "c.json")})
    with pytest.raises(FloatingPointError, match="non-finite certificate scores"):
        harness.run_certify(cfg)
    assert not (tmp_path / "c.json").exists()


def test_certify_points_rejects_non_finite_scores():
    with pytest.raises(FloatingPointError):
        harness.certify_points([[1e308, 1e308]], [1.0, 1.0], 10)


def test_certify_points_rejects_an_overflowing_candidate_against_an_axis_signal():
    # <x, xbar> overflows, and the split multiplies the infinite coefficient
    # by xbar's zero entry; that must end as a numerical failure, not a warning.
    with pytest.raises(FloatingPointError):
        harness.certify_points([[1e308, 1e308]], [2.0, 0.0], 10)


# ---------------------------------------------------------------------------
# probe
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("probe,key", [
    ("sharpness", "kappa_hat"),
    ("weak_convexity", "rho_hat"),
    ("concentration", "max_deviation"),
])
def test_run_probe_kinds(tmp_path, probe, key):
    out = tmp_path / "probe.json"
    # Only the sampling probes take samples.
    samples = {} if probe == "weak_convexity" else {"samples": "20"}
    cfg = harness.build_config("probe", {
        "probe": probe, "d": "10", "m": "60", "seed": "1", **samples, "out": str(out)})
    cfg.quiet = True
    result = harness.run_probe(cfg)
    assert key in result
    assert json.loads(out.read_text())[key] == result[key]
    # Only the sampling probes report their samples.
    assert result.get("samples") == (None if probe == "weak_convexity" else 20)
    # The command reports what the library computes on the same problem.
    problem = harness._seeded_problem(cfg, 1)
    if probe == "weak_convexity":
        assert result[key] == rp.weak_convexity_modulus(problem)
    else:
        assert result[key] == getattr(rp.regularity_probe(problem.ensemble, 20, 1), key)


@pytest.mark.parametrize("settings,message", [
    ({"probe": "mystery"}, "unknown probe 'mystery'"),
    ({"probe": "sharpness"}, "command 'probe' requires 'samples'"),
    ({"probe": "concentration", "samples": "0"}, "samples must be at least 1, got 0"),
    ({"probe": "weak_convexity", "samples": "200"}, "takes no 'samples'"),
])
def test_run_probe_checks_its_settings_before_the_problem(monkeypatch, settings, message):
    def no_problem(cfg, seed):
        raise AssertionError("the problem was drawn before the settings were checked")

    monkeypatch.setattr(harness, "_seeded_problem", no_problem)
    cfg = harness.build_config("probe", {"d": "2000", "m": "40000", **settings})
    with pytest.raises(harness.ConfigError, match=message):
        harness.run_probe(cfg)


def test_run_probe_unknown_kind():
    cfg = harness.build_config("probe", {"d": "10", "m": "60"})
    cfg.probe = "mystery"
    with pytest.raises(harness.ConfigError):
        harness.run_probe(cfg)
