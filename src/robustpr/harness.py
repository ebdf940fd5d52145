"""Experiment orchestration and file I/O.

Runners behind the CLI subcommands: the simulated-data convergence study,
the planar landscape grid export, the Hadamard image-recovery pipeline,
stationary-point certification, and the regularity probes.  All file output
is atomic (temp file + rename), CSV uses '.' decimals and a fixed header,
and JSON summaries are flat sorted-key maps.  Given identical configuration
and seeds, all outputs are byte-identical across runs except for recorded
wall times.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import landscape, netpbm, objective, solver, spectral
from .measure import NoiseModel, check_sizes, gaussian_ensemble, hadamard_ensemble, rng_for
from .measure import measure as take_measurements

_TAG_SIGNAL = 40

TRACE_HEADER = "iter,f_value,rel_dist,subgrad_norm,step_length"

# Rows of the landscape grid evaluated and written at a time: about 0.4 MB of
# text at grid_n = 401.
_GRID_BLOCK_ROWS = 16


class ConfigError(Exception):
    """Invalid, missing, or unknown configuration."""


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

def _parse_bool(s):
    if s.lower() in ("1", "true", "yes"):
        return True
    if s.lower() in ("0", "false", "no"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_int_list(s):
    return [int(tok) for tok in s.split(",") if tok.strip() != ""]


def _parse_float_pair(s):
    parts = [float(tok) for tok in s.split(",")]
    if len(parts) != 2:
        raise ValueError(f"expected two comma-separated numbers, got {s!r}")
    return (parts[0], parts[1])


def _parse_opt_float(s):
    return None if s.lower() in ("none", "") else float(s)


# certify harvests solve runs; image recovers its signal with the same solver;
# probe reads constants of one seeded problem, drawn as solve draws it.
_PROBLEM = ("solve", "certify")
_SOLVER = ("solve", "certify", "image")
_ENSEMBLE = _PROBLEM + ("probe",)


def _setting(default, parse, commands):
    """A config field that carries its string parser and the commands accepting it."""
    meta = {"parse": parse, "commands": frozenset(commands)}
    if isinstance(default, list):
        return field(default_factory=lambda: list(default), metadata=meta)
    return field(default=default, metadata=meta)


@dataclass
class ExperimentConfig:
    command: str
    kind: str = _setting("gaussian", str, _ENSEMBLE)
    d: int | None = _setting(None, int, _ENSEMBLE)
    m: int | None = _setting(None, int, _ENSEMBLE)
    l: int | None = _setting(None, int, _ENSEMBLE)
    k: int | None = _setting(None, int, _SOLVER + ("probe",))
    seed: int = _setting(0, int, ("image", "probe"))
    seeds: list = _setting([0], _parse_int_list, _PROBLEM)
    # None: 0 for noiseless data, no oracle (the geometric step) for corrupted data
    min_value: float | None = _setting(None, _parse_opt_float, _SOLVER)
    max_iters: int = _setting(solver.DEFAULT_MAX_ITERS, int, _SOLVER)
    tol_value: float = _setting(0.0, float, _SOLVER)
    tol_dist: float | None = _setting(1e-10, _parse_opt_float, _SOLVER)
    noise_p_fail: float = _setting(0.0, float, ("solve",))
    noise_scale: float = _setting(0.0, float, ("solve",))
    noise_seed: int = _setting(0, int, ("solve",))
    noise_kind: str = _setting("gaussian", str, ("solve",))
    out_dir: str = _setting(".", str, ("solve",))
    out: str | None = _setting(None, str, ("landscape", "certify", "image", "probe"))
    xbar: tuple | None = _setting(None, _parse_float_pair, ("landscape",))
    half_width: float = _setting(2.0, float, ("landscape",))
    grid_n: int = _setting(201, int, ("landscape",))
    candidates: str | None = _setting(None, str, ("certify",))
    truth: str | None = _setting(None, str, ("certify",))
    threshold: float = _setting(landscape.DEFAULT_THRESHOLD, float, ("certify",))
    input: str | None = _setting(None, str, ("image",))
    output: str | None = _setting(None, str, ("image",))
    probe: str | None = _setting(None, str, ("probe",))
    samples: int | None = _setting(None, int, ("probe",))
    quiet: bool = _setting(False, _parse_bool,
                           ("solve", "landscape", "certify", "image", "probe"))


def parse_config_file(path):
    """Read key=value lines; '#' starts a comment, blank lines are skipped."""
    mapping = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, value = line.split("=", 1)
            mapping[key.strip()] = value.strip()
    return mapping


def build_config(command, mapping):
    """Coerce a raw string mapping into an ExperimentConfig for the command.

    An unknown command, or a key the command does not accept, is an error.
    """
    parsers = {f.name: f.metadata["parse"] for f in fields(ExperimentConfig)
               if command in f.metadata.get("commands", ())}
    if not parsers:
        raise ConfigError(f"unknown command {command!r}")
    for key in mapping:
        if key not in parsers:
            raise ConfigError(f"unknown key {key!r} for command {command!r}")
    values = {}
    for key, raw in mapping.items():
        try:
            values[key] = parsers[key](raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {raw!r} ({exc})") from exc
    return ExperimentConfig(command=command, **values)


def _require(cfg, *names):
    for name in names:
        if getattr(cfg, name) is None:
            raise ConfigError(f"command {cfg.command!r} requires {name!r}")


# ---------------------------------------------------------------------------
# Formatting and atomic output
# ---------------------------------------------------------------------------

def _fmt(x):
    if x is None:
        return "nan"
    return repr(float(x))


def _json_scalar(x):
    if isinstance(x, (float, np.floating)):
        x = float(x)
        return x if math.isfinite(x) else None
    return x


def write_json(path, obj):
    payload = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    netpbm.atomic_write_bytes(path, payload.encode("utf-8"))


def write_trace_csv(path, trace):
    lines = [TRACE_HEADER]
    for r in trace.records:
        lines.append(",".join([str(r.k), _fmt(r.f_value), _fmt(r.rel_dist),
                               _fmt(r.subgrad_norm), _fmt(r.step_length)]))
    netpbm.atomic_write_bytes(path, ("\n".join(lines) + "\n").encode("utf-8"))


def ensure_finite(name, arr):
    if not np.all(np.isfinite(arr)):
        raise FloatingPointError(f"non-finite values in {name}")


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

# The settings each ensemble kind is drawn from.
_ENSEMBLE_KEYS = {"gaussian": ("d", "m"), "hadamard": ("l", "k")}


def _problem_builder(cfg):
    """Check the settings of cfg's problem; return ``build(seed, signal=None)``.

    A problem composes three choices:

    * the ensemble: ``kind`` with d and m, or with l and k, drawn from the
      seed; a given signal is sketched with l = its length and k blocks;
    * the signal: the seed's standard normal, or the given vector (the
      image's padded pixels);
    * the noise: none at p_fail 0, else the model of the ``noise_*`` keys.

    An unknown kind, a missing or unread key, a bad size (``check_sizes``) and
    a bad noise setting are refused here, before anything is drawn.
    """
    noise = NoiseModel(p_fail=cfg.noise_p_fail, scale=cfg.noise_scale,
                       seed=cfg.noise_seed, kind=cfg.noise_kind)
    if cfg.command == "image":
        keys = ("k",)  # an image's sketch is as long as its padded pixels
    elif cfg.kind in _ENSEMBLE_KEYS:
        keys = _ENSEMBLE_KEYS[cfg.kind]
    else:
        raise ConfigError(f"unknown ensemble kind {cfg.kind!r}")
    _require(cfg, *keys)
    for name in ("d", "m", "l", "k"):
        if name not in keys and getattr(cfg, name) is not None:
            raise ConfigError(f"ensemble kind {cfg.kind!r} does not read {name!r}")
    check_sizes(**{name: getattr(cfg, name) for name in keys})

    def build(seed, signal=None):
        if signal is None:
            ens = (gaussian_ensemble(cfg.d, cfg.m, seed) if cfg.kind == "gaussian"
                   else hadamard_ensemble(cfg.l, cfg.k, seed))
            signal = rng_for(seed, _TAG_SIGNAL).standard_normal(ens.d)
        else:
            ens = hadamard_ensemble(len(signal), cfg.k, seed)
        return take_measurements(ens, signal, noise if noise.p_fail > 0.0 else None)

    return build


def _solver_config(cfg):
    """The solver settings, checked before anything is drawn, read or written.

    A given ``min_value`` selects the Polyak step; without one, noiseless
    data takes the Polyak step to 0 and corrupted data, whose minimum is
    unknown, the geometric step, which ``solver.run`` climbs through its
    decays.
    """
    min_value = 0.0 if cfg.min_value is None and cfg.noise_p_fail == 0.0 else cfg.min_value
    return solver.SolverConfig(min_value=min_value, max_iters=cfg.max_iters,
                               tol_value=cfg.tol_value, tol_dist=cfg.tol_dist)


def _init_and_solve(problem, solver_cfg, seed):
    """Timed spectral init plus solver run; non-finite values raise FloatingPointError.

    Returns the init report, the trace, and the summary entries every
    command reports: step rule, stop status, iterations, ladder
    restarts, init convergence, the matvecs (forward or adjoint products)
    and seconds of each stage, and wall time, their sum; the solver and the
    init report their own rule and products.
    """
    t0 = time.perf_counter()
    report = spectral.spectral_init(problem, seed)
    t1 = time.perf_counter()
    trace = solver.run(problem, report.x0, solver_cfg)
    t2 = time.perf_counter()
    if trace.status == solver.NON_FINITE:
        raise FloatingPointError("non-finite objective or subgradient in the solve")
    ensure_finite("final iterate", trace.final_x)
    entries = {
        "step_rule": trace.step_rule,
        "status": trace.status,
        "iterations": trace.iterations,
        "restarts": trace.restarts,
        "init_converged": report.converged,
        "init_iters": report.iters,
        "init_residual": _json_scalar(report.residual),
        "init_matvecs": report.matvecs,
        "solve_matvecs": trace.matvecs,
        "init_s": t1 - t0,
        "solve_s": t2 - t1,
        "wall_time_s": t2 - t0,
    }
    return report, trace, entries


def _run_one_seed(problem, solver_cfg, seed):
    report, trace, entries = _init_and_solve(problem, solver_cfg, seed)
    try:
        rate = solver.geometric_rate_estimate(trace, window=50)
    except ValueError:
        rate = None
    summary = {
        "seed": seed,
        "final_rel_dist": _json_scalar(trace.final_rel_dist),
        "rate_estimate": _json_scalar(rate),
        "init_selected": report.n_selected,
        **entries,
    }
    return problem, trace, summary


def _seeded_runs(cfg):
    """Check every setting; return the lazy (problem, trace, summary) of each seed."""
    if not cfg.seeds:
        raise ConfigError(f"{cfg.command} requires at least one seed")
    build, solver_cfg = _problem_builder(cfg), _solver_config(cfg)
    return (_run_one_seed(build(seed), solver_cfg, seed) for seed in cfg.seeds)


def run_solve_experiment(cfg):
    """Generate, initialize, and solve one problem per seed; write CSV + JSON.

    Per seed: the signal is standard normal in dimension d, measurements come
    from the configured ensemble, the start point from spectral
    initialization.  Each trace goes to ``trace_seed<seed>.csv`` in
    ``out_dir``; a ``summary.json`` collects final relative distance, rate
    estimate, status, and wall time per seed.  Every setting is checked
    before anything is drawn and before ``out_dir`` is made.
    """
    runs = _seeded_runs(cfg)
    os.makedirs(cfg.out_dir, exist_ok=True)
    summaries = []
    for _, trace, summary in runs:
        seed = summary["seed"]
        write_trace_csv(os.path.join(cfg.out_dir, f"trace_seed{seed}.csv"), trace)
        summaries.append(summary)
        if not cfg.quiet:
            print(f"seed {seed}: status={summary['status']} iters={summary['iterations']}"
                  f" final_rel_dist={summary['final_rel_dist']}")
    write_json(os.path.join(cfg.out_dir, "summary.json"), summaries)
    return summaries


# ---------------------------------------------------------------------------
# landscape
# ---------------------------------------------------------------------------

def run_landscape_grid(xbar, half_width, grid_n, out_path):
    """Export the planar population value and gradient norm on a square grid.

    Writes row-major CSV rows (x1, x2, f_pop, grad_norm); nonsmooth collinear
    cells carry a NaN gradient norm sentinel, while the origin and the exact
    minimizers report 0 (a subgradient of norm 0 exists there).  The grid is
    evaluated and written ``_GRID_BLOCK_ROWS`` rows at a time, so only the
    returned (axis, f, g) span the whole grid.
    """
    if grid_n < 2:
        raise ConfigError("grid_n must be at least 2")
    if not 0.0 < half_width < math.inf:
        raise ConfigError(f"half_width must be finite and positive, got {half_width}")
    xbar = np.asarray(xbar, dtype=np.float64)
    axis = np.linspace(-half_width, half_width, grid_n)
    f = np.empty((grid_n, grid_n))
    g = np.empty((grid_n, grid_n))
    # repr of a Python float is _fmt's text
    coords = [repr(v) for v in axis.tolist()]
    with netpbm.atomic_writer(out_path) as fh:
        fh.write(b"x1,x2,f_pop,grad_norm\n")
        for lo in range(0, grid_n, _GRID_BLOCK_ROWS):
            rows = slice(lo, lo + _GRID_BLOCK_ROWS)
            f[rows], g[rows] = landscape.population_grid(xbar, axis[rows, None], axis)
            fh.write("".join(
                f"{x1},{x2},{fv!r},{gv!r}\n"
                for x1, f_row, g_row in zip(coords[rows], f[rows].tolist(), g[rows].tolist())
                for x2, fv, gv in zip(coords, f_row, g_row)).encode("utf-8"))
    return axis, f, g


# ---------------------------------------------------------------------------
# image
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ImageBuffer:
    """An 8-bit image with samples in [0, maxval] and its padded channel-major vectorization."""

    width: int
    height: int
    channels: int
    pixels: np.ndarray
    pad_len: int
    maxval: int = 255

    @classmethod
    def from_array(cls, arr, maxval=255):
        arr = np.asarray(arr, dtype=np.uint8)
        if not (arr.ndim == 2 or (arr.ndim == 3 and arr.shape[2] == 3)):
            raise ValueError(f"unsupported image shape {arr.shape}")
        h, w, c = np.atleast_3d(arr).shape
        return cls(width=w, height=h, channels=c, pixels=arr,
                   pad_len=1 << (w * h * c - 1).bit_length(), maxval=maxval)

    @property
    def n_samples(self):
        return self.width * self.height * self.channels

    def to_vector(self):
        """Channel-major float vector, zero-padded to the next power of two."""
        planes = np.moveaxis(self.pixels.reshape(self.height, self.width, self.channels), 2, 0)
        out = np.zeros(self.pad_len)
        out[: self.n_samples] = planes.ravel()
        return out

    def from_vector(self, vec):
        """Clamp to [0, maxval], round, and reshape back to image layout."""
        flat = np.clip(np.asarray(vec, dtype=np.float64)[: self.n_samples], 0.0, self.maxval)
        planes = np.rint(flat).astype(np.uint8).reshape(self.channels, self.height, self.width)
        return np.moveaxis(planes, 0, 2).reshape(self.pixels.shape)


def run_image_command(cfg):
    """Recover an image from Hadamard-sketch magnitude measurements.

    Reads a P5/P6 image, vectorizes channel-major with zero padding to a
    power of two, measures with k Hadamard-sign blocks, runs spectral
    initialization plus the Polyak method, resolves the global sign ambiguity
    by choosing the sign with smaller negativity mass over the pixel region,
    clamps to [0, maxval], and writes the recovered image, with the input's
    maxval, plus a JSON summary.  The problem is the seed's sketch of the
    padded pixels; every setting and both destinations are checked before
    the image is read.
    """
    _require(cfg, "input", "output")
    build, solver_cfg = _problem_builder(cfg), _solver_config(cfg)
    summary_path = cfg.out or cfg.output + ".json"
    for path in (cfg.output, summary_path):
        netpbm.check_destination(path)
    buf = ImageBuffer.from_array(*netpbm.read_image(cfg.input))
    _, trace, entries = _init_and_solve(build(cfg.seed, buf.to_vector()), solver_cfg, cfg.seed)
    x = trace.final_x
    region = x[: buf.n_samples]
    if np.sum(np.maximum(0.0, -region)) > np.sum(np.maximum(0.0, region)):
        x = -x
    recovered = buf.from_vector(x)
    netpbm.write_image(cfg.output, recovered, buf.maxval)
    summary = {
        "width": buf.width,
        "height": buf.height,
        "channels": buf.channels,
        "pad_len": buf.pad_len,
        "k": cfg.k,
        "seed": cfg.seed,
        "rel_dist": _json_scalar(trace.final_rel_dist),
        "exact_pixel_fraction": float(np.mean(recovered == buf.pixels)),
        **entries,
    }
    write_json(summary_path, summary)
    if not cfg.quiet:
        rel = summary["rel_dist"]
        print(f"image {cfg.input}: status={trace.status} iters={trace.iterations}"
              f" rel_dist={rel if rel is None else format(rel, '.3g')}"
              f" exact={summary['exact_pixel_fraction']:.4f}")
    return summary


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def _certificate(name, x, xbar, m, threshold, **extra):
    """Candidate x's certificate entry; non-finite x or scores raise FloatingPointError."""
    ensure_finite(name, x)
    cert = landscape.certify_stationary(x, xbar, m, threshold=threshold)
    with np.errstate(over="ignore"):  # an overflowing norm fails just below
        nonzero = np.linalg.norm(x) > 0
    if nonzero and not all(
            math.isfinite(v) for v in (cert.block1_score, cert.block2_ratio_score,
                                       cert.block2_angle_score)):
        raise FloatingPointError(f"non-finite certificate scores for {name}")
    return {name: _json_scalar(value) for name, value in vars(cert).items()} | extra


def certify_points(points, xbar, m, threshold=landscape.DEFAULT_THRESHOLD):
    """Certificates for a list of candidate points against signal xbar.

    A non-finite xbar raises FloatingPointError before any candidate is scored.
    """
    xbar = np.asarray(xbar, dtype=np.float64)
    ensure_finite("truth", xbar)
    return [_certificate(f"candidate {idx}", np.asarray(point, dtype=np.float64), xbar, m,
                         threshold, index=idx)
            for idx, point in enumerate(points)]


def run_certify(cfg):
    """Certify candidates from a file, or harvest them from stagnated solves.

    File mode needs ``candidates`` (JSON list of vectors), ``truth`` (JSON
    vector), and ``m``.  Without a candidates file, the solve experiment runs
    per seed and the final iterates of runs that hit the iteration cap are
    certified against their own signals.  The threshold is checked first, so
    a bad one fails before any solve, also when no run is certified; every
    other setting and the ``out`` destination are checked before a file is
    read or a problem drawn.
    """
    landscape.check_threshold(cfg.threshold)
    if cfg.candidates is not None:
        _require(cfg, "truth", "m")
    runs = None if cfg.candidates is not None else _seeded_runs(cfg)
    if cfg.out is not None:
        netpbm.check_destination(cfg.out)
    if runs is None:
        with open(cfg.candidates, "r", encoding="utf-8") as fh:
            points = json.load(fh)
        with open(cfg.truth, "r", encoding="utf-8") as fh:
            xbar = json.load(fh)
        results = certify_points(points, xbar, cfg.m, threshold=cfg.threshold)
    else:
        results = [_certificate(
            f"the final iterate of seed {summary['seed']}", trace.final_x, problem.truth,
            problem.m, cfg.threshold, seed=summary["seed"],
            final_rel_dist=summary["final_rel_dist"], restarts=summary["restarts"])
            for problem, trace, summary in runs
            if trace.status == solver.MAX_ITERS]
    if cfg.out is not None:
        write_json(cfg.out, results)
    if not cfg.quiet:
        for r in results:
            print(f"candidate {r.get('index', r.get('seed'))}: verdict={r['verdict']}")
    return results


# ---------------------------------------------------------------------------
# probe
# ---------------------------------------------------------------------------

# The sampled probes, each reporting one field of objective.regularity_probe.
_PROBE_KEYS = {"sharpness": "kappa_hat", "concentration": "max_deviation"}


def run_probe(cfg):
    """Report one regularity constant of a seeded Gaussian or sketch problem as JSON.

    The ensemble is chosen as for ``solve`` (``kind``, with d and m or l and
    k), and the report gives the problem's d and m.  The sampled probes
    require ``samples`` and report it; the weak-convexity modulus is computed
    and refuses it.  Settings and the ``out`` destination are checked
    before the draw.
    """
    _require(cfg, "probe")
    build = _problem_builder(cfg)
    if cfg.probe == "weak_convexity":
        if cfg.samples is not None:
            raise ConfigError("probe 'weak_convexity' computes its modulus and takes no 'samples'")
    elif cfg.probe in _PROBE_KEYS:
        _require(cfg, "samples")
        objective.check_samples(cfg.samples)
    else:
        raise ConfigError(f"unknown probe {cfg.probe!r}")
    if cfg.out is not None:
        netpbm.check_destination(cfg.out)
    problem = build(cfg.seed)
    out = {"probe": cfg.probe, "d": problem.d, "m": problem.m, "seed": cfg.seed}
    if cfg.probe == "weak_convexity":
        out["rho_hat"] = objective.weak_convexity_modulus(problem)
    else:
        est = objective.regularity_probe(problem.ensemble, cfg.samples, cfg.seed)
        key = _PROBE_KEYS[cfg.probe]
        out.update({"samples": cfg.samples, key: getattr(est, key)})
    if cfg.out is not None:
        write_json(cfg.out, out)
    if not cfg.quiet:
        print(json.dumps(out, indent=2, sort_keys=True))
    return out


def run_landscape_command(cfg):
    """Export the planar population landscape grid as CSV."""
    _require(cfg, "xbar", "out")
    axis, f, g = run_landscape_grid(np.array(cfg.xbar), cfg.half_width,
                                    cfg.grid_n, cfg.out)
    if not cfg.quiet:
        finite = np.isfinite(g)
        print(f"landscape grid {cfg.grid_n}x{cfg.grid_n} -> {cfg.out}"
              f" (min grad_norm {np.min(g[finite]):.3g})")
    return axis, f, g
