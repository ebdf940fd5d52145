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
from dataclasses import dataclass, field

import numpy as np

from . import landscape, netpbm, objective, solver, spectral
from .measure import NoiseModel, gaussian_ensemble, hadamard_ensemble, rng_for
from .measure import measure as take_measurements

_TAG_SIGNAL = 40

TRACE_HEADER = "iter,f_value,rel_dist,subgrad_norm,step_length"


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


_SCHEMA = {
    "kind": str,
    "d": int,
    "m": int,
    "l": int,
    "k": int,
    "seed": int,
    "seeds": _parse_int_list,
    "min_value": float,
    "max_iters": int,
    "tol_value": float,
    "tol_dist": _parse_opt_float,
    "noise_p_fail": float,
    "noise_scale": float,
    "noise_seed": int,
    "noise_kind": str,
    "out_dir": str,
    "out": str,
    "xbar": _parse_float_pair,
    "half_width": float,
    "grid_n": int,
    "candidates": str,
    "truth": str,
    "threshold": float,
    "input": str,
    "output": str,
    "probe": str,
    "samples": int,
    "radius": float,
    "quiet": _parse_bool,
}

_COMMAND_KEYS = {
    "solve": {"kind", "d", "m", "l", "k", "seeds", "min_value", "max_iters",
              "tol_value", "tol_dist", "noise_p_fail", "noise_scale",
              "noise_seed", "noise_kind", "out_dir", "quiet"},
    "landscape": {"xbar", "half_width", "grid_n", "out", "quiet"},
    "certify": {"candidates", "truth", "m", "threshold", "out", "kind", "d",
                "l", "k", "seeds", "min_value", "max_iters", "tol_value",
                "tol_dist", "quiet"},
    "image": {"input", "output", "k", "seed", "max_iters", "tol_value",
              "tol_dist", "min_value", "out", "quiet"},
    "probe": {"probe", "d", "m", "seed", "samples", "radius", "out", "quiet"},
}


@dataclass
class ExperimentConfig:
    command: str
    kind: str = "gaussian"
    d: int | None = None
    m: int | None = None
    l: int | None = None
    k: int | None = None
    seed: int = 0
    seeds: list = field(default_factory=lambda: [0])
    min_value: float = 0.0
    max_iters: int = 2000
    tol_value: float = 0.0
    tol_dist: float | None = 1e-10
    noise_p_fail: float = 0.0
    noise_scale: float = 0.0
    noise_seed: int = 0
    noise_kind: str = "gaussian"
    out_dir: str = "."
    out: str | None = None
    xbar: tuple | None = None
    half_width: float = 2.0
    grid_n: int = 201
    candidates: str | None = None
    truth: str | None = None
    threshold: float = 10.0
    input: str | None = None
    output: str | None = None
    probe: str | None = None
    samples: int = 200
    radius: float = 1.0
    quiet: bool = False


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
    """Coerce a raw string mapping into an ExperimentConfig for the command."""
    allowed = _COMMAND_KEYS.get(command)
    if allowed is None:
        raise ConfigError(f"unknown command {command!r}")
    cfg = ExperimentConfig(command=command)
    for key, raw in mapping.items():
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} for command {command!r}")
        try:
            value = _SCHEMA[key](raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {raw!r} ({exc})") from exc
        setattr(cfg, key, value)
    return cfg


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

def _build_ensemble(cfg, seed):
    if cfg.kind == "gaussian":
        _require(cfg, "d", "m")
        return gaussian_ensemble(cfg.d, cfg.m, seed)
    if cfg.kind == "hadamard":
        _require(cfg, "l", "k")
        return hadamard_ensemble(cfg.l, cfg.k, seed)
    raise ConfigError(f"unknown ensemble kind {cfg.kind!r}")


def _noise_model(cfg):
    if cfg.noise_p_fail <= 0.0:
        return None
    return NoiseModel(p_fail=cfg.noise_p_fail, scale=cfg.noise_scale,
                      seed=cfg.noise_seed, kind=cfg.noise_kind)


def _solver_config(cfg):
    return solver.SolverConfig(min_value=cfg.min_value, max_iters=cfg.max_iters,
                               tol_value=cfg.tol_value, tol_dist=cfg.tol_dist)


def _init_fields(report):
    """Summary entries that tell whether the spectral init hit its cap."""
    return {"init_converged": report.converged, "init_iters": report.power_iters,
            "init_residual": _json_scalar(report.residual)}


def _run_one_seed(cfg, seed):
    ens = _build_ensemble(cfg, seed)
    xbar = rng_for(seed, _TAG_SIGNAL).standard_normal(ens.d)
    problem = take_measurements(ens, xbar, _noise_model(cfg))
    t0 = time.perf_counter()
    report = spectral.spectral_init(problem, spectral.PowerConfig(seed=seed))
    trace = solver.run(problem, report.x0, _solver_config(cfg))
    wall = time.perf_counter() - t0
    try:
        rate = solver.geometric_rate_estimate(trace, window=50)
    except ValueError:
        rate = None
    final_rel = trace.records[-1].rel_dist if trace.records else None
    summary = {
        "seed": seed,
        "status": trace.status,
        "iterations": trace.iterations,
        "final_rel_dist": _json_scalar(final_rel),
        "rate_estimate": _json_scalar(rate),
        "init_selected": report.n_selected,
        **_init_fields(report),
        "wall_time_s": wall,
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
        ensure_finite("final iterate", trace.final_x)
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
    minimizers report 0 (a subgradient of norm 0 exists there).
    """
    if grid_n < 2:
        raise ConfigError("grid_n must be at least 2")
    xbar = np.asarray(xbar, dtype=np.float64)
    axis = np.linspace(-half_width, half_width, grid_n)
    g1, g2 = np.meshgrid(axis, axis, indexing="ij")
    f, g = landscape.population_grid(xbar, g1, g2)
    lines = ["x1,x2,f_pop,grad_norm"]
    for i in range(grid_n):
        for j in range(grid_n):
            lines.append(",".join([_fmt(axis[i]), _fmt(axis[j]),
                                   _fmt(f[i, j]), _fmt(g[i, j])]))
    netpbm.atomic_write_bytes(out_path, ("\n".join(lines) + "\n").encode("utf-8"))
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


def run_image_pipeline(input_path, output_path, k, seed, max_iters=2000,
                       tol_dist=1e-10, tol_value=0.0, min_value=0.0,
                       summary_path=None, quiet=True):
    """Recover an image from Hadamard-sketch magnitude measurements.

    Reads a P5/P6 image, vectorizes channel-major with zero padding to a
    power of two, measures with k Hadamard-sign blocks, runs spectral
    initialization plus the Polyak method, resolves the global sign ambiguity
    by choosing the sign with smaller negativity mass over the pixel region,
    clamps to [0, 255], and writes the recovered image plus a JSON summary.
    """
    buf = ImageBuffer.from_array(netpbm.read_image(input_path))
    xbar = buf.to_vector()
    ens = hadamard_ensemble(buf.pad_len, k, seed)
    problem = take_measurements(ens, xbar)
    t0 = time.perf_counter()
    report = spectral.spectral_init(problem, spectral.PowerConfig(seed=seed))
    trace = solver.run(problem, report.x0,
                       solver.SolverConfig(min_value=min_value, max_iters=max_iters,
                                           tol_value=tol_value, tol_dist=tol_dist))
    wall = time.perf_counter() - t0
    x = trace.final_x
    ensure_finite("recovered vector", x)

    region = x[: buf.n_samples]
    if np.sum(np.maximum(0.0, -region)) > np.sum(np.maximum(0.0, region)):
        x = -x
    nb = np.linalg.norm(xbar)
    if nb > 0:
        rel = min(np.linalg.norm(x - xbar), np.linalg.norm(x + xbar)) / nb
    else:
        rel = 0.0 if np.linalg.norm(x) == 0 else math.inf
    recovered = buf.from_vector(x)
    netpbm.write_image(output_path, recovered)
    summary = {
        "width": buf.width,
        "height": buf.height,
        "channels": buf.channels,
        "pad_len": buf.pad_len,
        "k": k,
        "seed": seed,
        "status": trace.status,
        "iterations": trace.iterations,
        "rel_dist": _json_scalar(rel),
        "exact_pixel_fraction": float(np.mean(recovered == buf.pixels)),
        **_init_fields(report),
        "wall_time_s": wall,
    }
    write_json(summary_path or output_path + ".json", summary)
    if not quiet:
        print(f"image {input_path}: status={trace.status} iters={trace.iterations}"
              f" rel_dist={rel:.3g} exact={summary['exact_pixel_fraction']:.4f}")
    return summary


def run_image_command(cfg):
    _require(cfg, "input", "output", "k")
    return run_image_pipeline(cfg.input, cfg.output, cfg.k, cfg.seed,
                              max_iters=cfg.max_iters, tol_dist=cfg.tol_dist,
                              tol_value=cfg.tol_value, min_value=cfg.min_value,
                              summary_path=cfg.out, quiet=cfg.quiet)


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def certificate_as_dict(cert, **extra):
    out = {
        "block1_score": _json_scalar(cert.block1_score),
        "block2_ratio_score": _json_scalar(cert.block2_ratio_score),
        "block2_angle_score": _json_scalar(cert.block2_angle_score),
        "scale": _json_scalar(cert.scale),
        "verdict": cert.verdict,
    }
    out.update(extra)
    return out


def certify_points(points, xbar, m, threshold=10.0):
    """Certificates for a list of candidate points against signal xbar."""
    xbar = np.asarray(xbar, dtype=np.float64)
    results = []
    for idx, point in enumerate(points):
        x = np.asarray(point, dtype=np.float64)
        ensure_finite(f"candidate {idx}", x)
        cert = landscape.certify_stationary(x, xbar, xbar.shape[0], m,
                                            threshold=threshold)
        if np.linalg.norm(x) > 0 and not all(
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
    ens = gaussian_ensemble(cfg.d, cfg.m, cfg.seed)
    xbar = rng_for(cfg.seed, _TAG_SIGNAL).standard_normal(cfg.d)
    problem = take_measurements(ens, xbar)
    out = {"probe": cfg.probe, "d": cfg.d, "m": cfg.m, "seed": cfg.seed,
           "samples": cfg.samples}
    if cfg.probe == "sharpness":
        est = objective.sharpness_probe(problem, cfg.samples, cfg.seed)
        out["kappa_hat"] = _json_scalar(est.kappa_hat)
    elif cfg.probe == "weak_convexity":
        est = objective.weak_convexity_probe(problem, cfg.samples, cfg.radius, cfg.seed)
        out["rho_hat"] = _json_scalar(est.rho_hat)
    elif cfg.probe == "concentration":
        out["max_deviation"] = objective.concentration_probe(ens, cfg.samples, cfg.seed)
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
