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


class NumericalError(Exception):
    """Non-finite values encountered in results."""


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
    max_iters: int = _setting(2000, int, _SOLVER)
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
    threshold: float = _setting(10.0, float, ("certify",))
    input: str | None = _setting(None, str, ("image",))
    output: str | None = _setting(None, str, ("image",))
    probe: str | None = _setting(None, str, ("probe",))
    samples: int = _setting(200, int, ("probe",))
    radius: float = _setting(1.0, float, ("probe",))
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


def _accepted_settings(command, keys):
    """Parsers of the command's settings; an unknown command or key is an error."""
    parsers = {f.name: f.metadata["parse"] for f in fields(ExperimentConfig)
               if command in f.metadata.get("commands", ())}
    if not parsers:
        raise ConfigError(f"unknown command {command!r}")
    for key in keys:
        if key not in parsers:
            raise ConfigError(f"unknown key {key!r} for command {command!r}")
    return parsers


def build_config(command, mapping):
    """Coerce a raw string mapping into an ExperimentConfig for the command."""
    parsers = _accepted_settings(command, mapping)
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
        raise NumericalError(f"non-finite values in {name}")


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def _seeded_problem(cfg, seed):
    """The seed's standard normal signal, measured as the config says."""
    if cfg.kind == "gaussian":
        _require(cfg, "d", "m")
        ens = gaussian_ensemble(cfg.d, cfg.m, seed)
    elif cfg.kind == "hadamard":
        _require(cfg, "l", "k")
        ens = hadamard_ensemble(cfg.l, cfg.k, seed)
    else:
        raise ConfigError(f"unknown ensemble kind {cfg.kind!r}")
    noise = None
    if cfg.noise_p_fail > 0.0:
        noise = NoiseModel(p_fail=cfg.noise_p_fail, scale=cfg.noise_scale,
                           seed=cfg.noise_seed, kind=cfg.noise_kind)
    xbar = rng_for(seed, _TAG_SIGNAL).standard_normal(ens.d)
    return take_measurements(ens, xbar, noise)


def _init_and_solve(problem, cfg, seed):
    """Timed spectral init plus solver run; non-finite values raise NumericalError.

    A given ``min_value`` selects the Polyak step; without one, noiseless
    data takes the Polyak step to 0 and corrupted data, whose minimum is
    unknown, the geometric step.  Returns the init report, the trace, and the
    summary entries every command reports: step rule, stop status,
    iterations, init convergence, the matvecs (forward or adjoint products) and
    seconds of each stage, and wall time, their sum.
    """
    min_value = cfg.min_value
    if min_value is None and problem.noiseless:
        min_value = 0.0
    t0 = time.perf_counter()
    report = spectral.spectral_init(problem, spectral.PowerConfig(seed=seed))
    t1 = time.perf_counter()
    trace = solver.run(problem, report.x0, solver.SolverConfig(
        min_value=min_value, max_iters=cfg.max_iters, tol_value=cfg.tol_value,
        tol_dist=cfg.tol_dist))
    t2 = time.perf_counter()
    if trace.status == solver.NON_FINITE:
        raise NumericalError("non-finite objective or subgradient in the solve")
    ensure_finite("final iterate", trace.final_x)
    # A Lanczos application and a solver step each take one forward and one
    # adjoint product.  init_iters leaves out the first application; the zero
    # start (r_hat = 0) applies nothing.
    applications = 0 if report.r_hat == 0.0 else report.power_iters + 1
    entries = {
        "step_rule": "geometric" if min_value is None else "polyak",
        "status": trace.status,
        "iterations": trace.iterations,
        "init_converged": report.converged,
        "init_iters": report.power_iters,
        "init_residual": _json_scalar(report.residual),
        "init_matvecs": 2 * applications,
        "solve_matvecs": 2 * trace.iterations,
        "init_s": t1 - t0,
        "solve_s": t2 - t1,
        "wall_time_s": t2 - t0,
    }
    return report, trace, entries


def _run_one_seed(cfg, seed):
    problem = _seeded_problem(cfg, seed)
    report, trace, entries = _init_and_solve(problem, cfg, seed)
    try:
        rate = solver.geometric_rate_estimate(trace, window=50)
    except ValueError:
        rate = None
    final_rel = trace.records[-1].rel_dist if trace.records else None
    summary = {
        "seed": seed,
        "final_rel_dist": _json_scalar(final_rel),
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
    if not cfg.seeds:
        raise ConfigError("solve requires at least one seed")
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
            g1, g2 = np.meshgrid(axis[rows], axis, indexing="ij")
            f[rows], g[rows] = landscape.population_grid(xbar, g1, g2)
            fh.write("".join(
                f"{x1},{x2},{fv!r},{gv!r}\n"
                for x1, f_row, g_row in zip(coords[rows], f[rows].tolist(), g[rows].tolist())
                for x2, fv, gv in zip(coords, f_row, g_row)).encode("utf-8"))
    return axis, f, g


# ---------------------------------------------------------------------------
# image
# ---------------------------------------------------------------------------

def _next_pow2(n):
    p = 1
    while p < n:
        p *= 2
    return p


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
        if arr.ndim == 2:
            h, w, c = arr.shape[0], arr.shape[1], 1
        elif arr.ndim == 3 and arr.shape[2] == 3:
            h, w, c = arr.shape[0], arr.shape[1], 3
        else:
            raise ValueError(f"unsupported image shape {arr.shape}")
        return cls(width=w, height=h, channels=c, pixels=arr,
                   pad_len=_next_pow2(w * h * c))

    @property
    def n_samples(self):
        return self.width * self.height * self.channels

    def to_vector(self):
        """Channel-major float vector, zero-padded to the next power of two."""
        if self.channels == 1:
            flat = self.pixels.astype(np.float64).ravel()
        else:
            flat = self.pixels.astype(np.float64).transpose(2, 0, 1).ravel()
        out = np.zeros(self.pad_len)
        out[: flat.shape[0]] = flat
        return out

    def from_vector(self, vec):
        """Clamp to [0, 255], round, and reshape back to image layout."""
        flat = np.clip(np.asarray(vec, dtype=np.float64)[: self.n_samples], 0.0, 255.0)
        flat = np.rint(flat).astype(np.uint8)
        if self.channels == 1:
            return flat.reshape(self.height, self.width)
        return flat.reshape(3, self.height, self.width).transpose(1, 2, 0)


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
    xbar = buf.to_vector()
    ens = hadamard_ensemble(buf.pad_len, cfg.k, cfg.seed)
    problem = take_measurements(ens, xbar)
    _, trace, entries = _init_and_solve(problem, cfg, cfg.seed)
    x = trace.final_x
    region = x[: buf.n_samples]
    if np.sum(np.maximum(0.0, -region)) > np.sum(np.maximum(0.0, region)):
        x = -x
    nb = np.linalg.norm(xbar)
    if nb > 0:
        rel = solver._rel_dist(x, xbar, nb)
    else:
        rel = 0.0 if np.linalg.norm(x) == 0 else math.inf
    recovered = buf.from_vector(x)
    netpbm.write_image(cfg.output, recovered)
    summary = {
        "width": buf.width,
        "height": buf.height,
        "channels": buf.channels,
        "pad_len": buf.pad_len,
        "k": cfg.k,
        "seed": cfg.seed,
        "rel_dist": _json_scalar(rel),
        "exact_pixel_fraction": float(np.mean(recovered == buf.pixels)),
        **entries,
    }
    write_json(cfg.out or cfg.output + ".json", summary)
    if not cfg.quiet:
        print(f"image {cfg.input}: status={trace.status} iters={trace.iterations}"
              f" rel_dist={rel:.3g} exact={summary['exact_pixel_fraction']:.4f}")
    return summary


def run_image_pipeline(input_path, output_path, k, seed, summary_path=None,
                       quiet=True, **settings):
    """``run_image_command`` with paths as arguments, other image settings as keywords."""
    _accepted_settings("image", settings)
    return run_image_command(ExperimentConfig(
        command="image", input=input_path, output=output_path, k=k, seed=seed,
        out=summary_path, quiet=quiet, **settings))


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def certificate_as_dict(cert, **extra):
    return {name: _json_scalar(value) for name, value in vars(cert).items()} | extra


def certify_points(points, xbar, m, threshold=10.0):
    """Certificates for a list of candidate points against signal xbar."""
    xbar = np.asarray(xbar, dtype=np.float64)
    results = []
    for idx, point in enumerate(points):
        x = np.asarray(point, dtype=np.float64)
        ensure_finite(f"candidate {idx}", x)
        cert = landscape.certify_stationary(x, xbar, xbar.shape[0], m,
                                            threshold=threshold)
        with np.errstate(over="ignore"):  # an overflowing norm fails just below
            nonzero = np.linalg.norm(x) > 0
        if nonzero and not all(
                math.isfinite(v) for v in (cert.block1_score, cert.block2_ratio_score,
                                           cert.block2_angle_score)):
            raise NumericalError(f"non-finite certificate scores for candidate {idx}")
        results.append(certificate_as_dict(cert, index=idx))
    return results


def run_certify(cfg):
    """Certify candidates from a file, or harvest them from stagnated solves.

    File mode needs ``candidates`` (JSON list of vectors), ``truth`` (JSON
    vector), and ``m``.  Without a candidates file, the solve experiment runs
    per seed and the final iterates of runs that hit the iteration cap are
    certified against their own signals.
    """
    if cfg.candidates is not None:
        _require(cfg, "truth", "m")
        with open(cfg.candidates, "r", encoding="utf-8") as fh:
            points = json.load(fh)
        with open(cfg.truth, "r", encoding="utf-8") as fh:
            xbar = json.load(fh)
        results = certify_points(points, xbar, cfg.m, threshold=cfg.threshold)
    else:
        results = []
        for seed in cfg.seeds:
            problem, trace, summary = _run_one_seed(cfg, seed)
            if trace.status != solver.MAX_ITERS:
                continue
            cert = landscape.certify_stationary(trace.final_x, problem.truth,
                                                problem.d, problem.m,
                                                threshold=cfg.threshold)
            results.append(certificate_as_dict(
                cert, seed=seed, final_rel_dist=_json_scalar(summary["final_rel_dist"])))
    if cfg.out is not None:
        write_json(cfg.out, results)
    if not cfg.quiet:
        for r in results:
            print(f"candidate {r.get('index', r.get('seed'))}: verdict={r['verdict']}")
    return results


# ---------------------------------------------------------------------------
# probe
# ---------------------------------------------------------------------------

def run_probe(cfg):
    """Run one regularity probe on a seeded Gaussian problem and report JSON."""
    _require(cfg, "probe", "d", "m")
    problem = _seeded_problem(cfg, cfg.seed)
    out = {"probe": cfg.probe, "d": cfg.d, "m": cfg.m, "seed": cfg.seed,
           "samples": cfg.samples}
    if cfg.probe == "sharpness":
        est = objective.sharpness_probe(problem, cfg.samples, cfg.seed)
        out["kappa_hat"] = _json_scalar(est.kappa_hat)
    elif cfg.probe == "weak_convexity":
        est = objective.weak_convexity_probe(problem, cfg.samples, cfg.radius, cfg.seed)
        out["rho_hat"] = _json_scalar(est.rho_hat)
    elif cfg.probe == "concentration":
        out["max_deviation"] = objective.concentration_probe(
            problem.ensemble, cfg.samples, cfg.seed)
    else:
        raise ConfigError(f"unknown probe {cfg.probe!r}")
    if cfg.out is not None:
        write_json(cfg.out, out)
    if not cfg.quiet:
        print(json.dumps(out, indent=2, sort_keys=True))
    return out


def run_landscape_command(cfg):
    _require(cfg, "xbar", "out")
    axis, f, g = run_landscape_grid(np.array(cfg.xbar), cfg.half_width,
                                    cfg.grid_n, cfg.out)
    if not cfg.quiet:
        finite = np.isfinite(g)
        print(f"landscape grid {cfg.grid_n}x{cfg.grid_n} -> {cfg.out}"
              f" (min grad_norm {np.min(g[finite]):.3g})")
    return axis, f, g
