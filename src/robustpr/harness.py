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
from .measure import NoiseModel, gaussian_ensemble, hadamard_ensemble, rng_for
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


# certify harvests solve runs; image recovers its signal with the same solver.
_PROBLEM = ("solve", "certify")
_SOLVER = ("solve", "certify", "image")


def _setting(default, parse, commands):
    """A config field that carries its string parser and the commands accepting it."""
    meta = {"parse": parse, "commands": frozenset(commands)}
    if isinstance(default, list):
        return field(default_factory=lambda: list(default), metadata=meta)
    return field(default=default, metadata=meta)


@dataclass
class ExperimentConfig:
    command: str
    kind: str = _setting("gaussian", str, _PROBLEM)
    d: int | None = _setting(None, int, _PROBLEM + ("probe",))
    m: int | None = _setting(None, int, _PROBLEM + ("probe",))
    l: int | None = _setting(None, int, _PROBLEM)
    k: int | None = _setting(None, int, _SOLVER)
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

def _seeded_problem(cfg, seed):
    """The seed's standard normal signal, measured as the config says."""
    # Checked on every solve, before any draw; data at p_fail 0 is measured
    # without a noise model.
    noise = NoiseModel(p_fail=cfg.noise_p_fail, scale=cfg.noise_scale,
                       seed=cfg.noise_seed, kind=cfg.noise_kind)
    if cfg.kind == "gaussian":
        _require(cfg, "d", "m")
        ens = gaussian_ensemble(cfg.d, cfg.m, seed)
    elif cfg.kind == "hadamard":
        _require(cfg, "l", "k")
        ens = hadamard_ensemble(cfg.l, cfg.k, seed)
    else:
        raise ConfigError(f"unknown ensemble kind {cfg.kind!r}")
    xbar = rng_for(seed, _TAG_SIGNAL).standard_normal(ens.d)
    return take_measurements(ens, xbar, noise if noise.p_fail > 0.0 else None)


def _init_and_solve(problem, cfg, seed):
    """Timed spectral init plus solver run; non-finite values raise FloatingPointError.

    A given ``min_value`` selects the Polyak step; without one, noiseless
    data takes the Polyak step to 0 and corrupted data, whose minimum is
    unknown, the geometric step, which ``solver.run`` climbs through its
    decays.  Returns the init report, the trace, and the summary entries
    every command reports: step rule, stop status, iterations, ladder
    restarts, init convergence, the matvecs (forward or adjoint products)
    and seconds of each stage, and wall time, their sum; the solver and the
    init report their own rule and products.
    """
    min_value = cfg.min_value
    if min_value is None and problem.noiseless:
        min_value = 0.0
    solver_cfg = solver.SolverConfig(min_value=min_value, max_iters=cfg.max_iters,
                                     tol_value=cfg.tol_value, tol_dist=cfg.tol_dist)
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


def _require_seeds(cfg):
    if not cfg.seeds:
        raise ConfigError(f"{cfg.command} requires at least one seed")


def _run_one_seed(cfg, seed):
    problem = _seeded_problem(cfg, seed)
    report, trace, entries = _init_and_solve(problem, cfg, seed)
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


def run_solve_experiment(cfg):
    """Generate, initialize, and solve one problem per seed; write CSV + JSON.

    Per seed: the signal is standard normal in dimension d, measurements come
    from the configured ensemble, the start point from spectral
    initialization.  Each trace goes to ``trace_seed<seed>.csv`` in
    ``out_dir``; a ``summary.json`` collects final relative distance, rate
    estimate, status, and wall time per seed.
    """
    _require_seeds(cfg)
    os.makedirs(cfg.out_dir, exist_ok=True)
    summaries = []
    for seed in cfg.seeds:
        _, trace, summary = _run_one_seed(cfg, seed)
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
    """An 8-bit image and its padded channel-major vectorization."""

    width: int
    height: int
    channels: int
    pixels: np.ndarray
    pad_len: int

    @classmethod
    def from_array(cls, arr):
        arr = np.asarray(arr, dtype=np.uint8)
        if not (arr.ndim == 2 or (arr.ndim == 3 and arr.shape[2] == 3)):
            raise ValueError(f"unsupported image shape {arr.shape}")
        h, w, c = np.atleast_3d(arr).shape
        return cls(width=w, height=h, channels=c, pixels=arr,
                   pad_len=1 << (w * h * c - 1).bit_length())

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
        """Clamp to [0, 255], round, and reshape back to image layout."""
        flat = np.clip(np.asarray(vec, dtype=np.float64)[: self.n_samples], 0.0, 255.0)
        planes = np.rint(flat).astype(np.uint8).reshape(self.channels, self.height, self.width)
        return np.moveaxis(planes, 0, 2).reshape(self.pixels.shape)


def run_image_command(cfg):
    """Recover an image from Hadamard-sketch magnitude measurements.

    Reads a P5/P6 image, vectorizes channel-major with zero padding to a
    power of two, measures with k Hadamard-sign blocks, runs spectral
    initialization plus the Polyak method, resolves the global sign ambiguity
    by choosing the sign with smaller negativity mass over the pixel region,
    clamps to [0, 255], and writes the recovered image plus a JSON summary.
    """
    _require(cfg, "input", "output", "k")
    buf = ImageBuffer.from_array(netpbm.read_image(cfg.input))
    ens = hadamard_ensemble(buf.pad_len, cfg.k, cfg.seed)
    problem = take_measurements(ens, buf.to_vector())
    _, trace, entries = _init_and_solve(problem, cfg, cfg.seed)
    x = trace.final_x
    region = x[: buf.n_samples]
    if np.sum(np.maximum(0.0, -region)) > np.sum(np.maximum(0.0, region)):
        x = -x
    recovered = buf.from_vector(x)
    netpbm.write_image(cfg.output, recovered)
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
    write_json(cfg.out or cfg.output + ".json", summary)
    if not cfg.quiet:
        rel = summary["rel_dist"]
        print(f"image {cfg.input}: status={trace.status} iters={trace.iterations}"
              f" rel_dist={rel if rel is None else format(rel, '.3g')}"
              f" exact={summary['exact_pixel_fraction']:.4f}")
    return summary


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def certificate_as_dict(cert, **extra):
    return {name: _json_scalar(value) for name, value in vars(cert).items()} | extra


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
    return certificate_as_dict(cert, **extra)


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
    a bad one fails before any solve, also when no run is certified.
    """
    landscape.check_threshold(cfg.threshold)
    if cfg.candidates is not None:
        _require(cfg, "truth", "m")
        with open(cfg.candidates, "r", encoding="utf-8") as fh:
            points = json.load(fh)
        with open(cfg.truth, "r", encoding="utf-8") as fh:
            xbar = json.load(fh)
        results = certify_points(points, xbar, cfg.m, threshold=cfg.threshold)
    else:
        _require_seeds(cfg)
        results = []
        for seed in cfg.seeds:
            problem, trace, summary = _run_one_seed(cfg, seed)
            if trace.status != solver.MAX_ITERS:
                continue
            results.append(_certificate(
                f"the final iterate of seed {seed}", trace.final_x, problem.truth, problem.m,
                cfg.threshold, seed=seed, final_rel_dist=_json_scalar(summary["final_rel_dist"]),
                restarts=summary["restarts"]))
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
    """Report one regularity constant of a seeded Gaussian problem as JSON.

    The sampled probes require ``samples`` and report it; the weak-convexity
    modulus is computed and refuses it.  Settings are checked before the draw.
    """
    _require(cfg, "probe", "d", "m")
    if cfg.probe == "weak_convexity":
        if cfg.samples is not None:
            raise ConfigError("probe 'weak_convexity' computes its modulus and takes no 'samples'")
    elif cfg.probe in _PROBE_KEYS:
        _require(cfg, "samples")
        if cfg.samples < 1:
            raise ConfigError(f"samples must be at least 1, got {cfg.samples}")
    else:
        raise ConfigError(f"unknown probe {cfg.probe!r}")
    problem = _seeded_problem(cfg, cfg.seed)
    out = {"probe": cfg.probe, "d": cfg.d, "m": cfg.m, "seed": cfg.seed}
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
