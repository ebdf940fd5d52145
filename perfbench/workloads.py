"""The benchmark's workloads: inputs made from the seed, CLI calls, output checks.

Each problem is one user action: a ``robustpr.cli.main`` call (plus, for
``landscape_audit``, one ``graph_closeness_audit`` call).  A workload
function writes the problem's inputs and returns a ``Problem``: its ``run``
is what the benchmark times, its ``check`` reads the outputs afterwards.  Ensemble,
signal and measurements are built inside the timed call, so work moved into
problem construction still counts.

The checks reuse the acceptance thresholds of the test suite and never
loosen them.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import robustpr
import robustpr.cli

# Criterion 6 and 8 thresholds.
DENSE_REL_DIST_MAX = 1e-8
IMAGE_REL_DIST_MAX = 1e-5
IMAGE_EXACT_PIXELS_MIN = 0.99
# Without a min-value oracle the corrupted solve stalls near 3e-3 today; the
# check guards against divergence, not against the known stall.
CORRUPTED_REL_DIST_MAX = 2e-2
# Criterion 4: five gradient-norm minima below this value on the 401^2 grid.
GRID_MIN_VALUE = 1e-2
# Criterion 11: at least this many audit pairs.
AUDIT_PAIRS_MIN = 3
# Ratio |x| / |xbar| of the orthogonal ring of stationary points.
CRITICAL_RATIO = robustpr.critical_ratio()

GRID_HALF_WIDTH = 2.0
GRID_N = 401
# Signals with |xbar| = sqrt(2) whose coordinates are grid nodes (p^2 + q^2 =
# 20000 in units of the 0.01 cell): the minimizers +-xbar are kinks, which
# the grid can resolve only when they sit on a node.
LATTICE_SIGNALS = [(p / 100, q / 100) for p in range(-200, 201) for q in range(-200, 201)
                   if p * p + q * q == 20000]


@dataclass
class Problem:
    run: Callable[[], object]
    check: Callable[[object], "Outcome"]


@dataclass
class Outcome:
    ok: bool
    solver_statuses: list
    detail: str = ""


def problem_seed(workload, seed, index):
    """31-bit seed of problem ``index`` in run ``seed`` of ``workload``."""
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "little") >> 1


def cli(argv):
    # Looked up at call time so a traced run goes through the wrapper.
    return robustpr.cli.main(argv)


def _read_summary(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _fresh(path):
    if os.path.exists(path):
        os.remove(path)
    return path


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def _solve_problem(work, pseed, extra, accept):
    summary = _fresh(os.path.join(work, "summary.json"))
    _fresh(os.path.join(work, f"trace_seed{pseed}.csv"))
    argv = ["solve", f"seeds={pseed}", f"out_dir={work}", "quiet=true"] + extra

    def check(rc):
        if rc != 0:
            return Outcome(False, [], f"exit code {rc}")
        (s,) = _read_summary(summary)
        if not os.path.exists(os.path.join(work, f"trace_seed{pseed}.csv")):
            return Outcome(False, [s["status"]], "trace CSV missing")
        return Outcome(accept(s), [s["status"]],
                       f"status={s['status']} final_rel_dist={s['final_rel_dist']}")

    return Problem(run=lambda: cli(argv), check=check)


def dense_recover(work, pseed):
    return _solve_problem(
        work, pseed, ["kind=gaussian", "d=400", "m=1480", "tol_dist=1e-10"],
        lambda s: s["status"] == "converged"
        and s["final_rel_dist"] is not None and s["final_rel_dist"] <= DENSE_REL_DIST_MAX)


def corrupted_solve(work, pseed):
    noise_seed = problem_seed("noise", pseed, 0)
    return _solve_problem(
        work, pseed, ["kind=gaussian", "d=200", "m=1600", "noise_p_fail=0.15",
                      "noise_scale=10", f"noise_seed={noise_seed}", "max_iters=2000"],
        lambda s: s["final_rel_dist"] is not None
        and math.isfinite(s["final_rel_dist"]) and s["final_rel_dist"] <= CORRUPTED_REL_DIST_MAX)


# ---------------------------------------------------------------------------
# image
# ---------------------------------------------------------------------------

def synthetic_image(pseed, size=64):
    """Nonnegative 8-bit test image: a ramp, three soft blobs and pixel noise."""
    rng = np.random.default_rng(pseed)
    y, x = np.mgrid[0:size, 0:size] / (size - 1.0)
    slope = rng.uniform(0.0, 120.0, 2)
    img = slope[0] * x + slope[1] * y
    for _ in range(3):
        cx, cy = rng.uniform(0.0, 1.0, 2)
        width = rng.uniform(0.05, 0.3)
        img += rng.uniform(-60.0, 100.0) * np.exp(
            -((x - cx) ** 2 + (y - cy) ** 2) / (2.0 * width * width))
    img += rng.uniform(0.0, 8.0, img.shape)
    return np.clip(np.rint(img), 0, 255).astype(np.uint8)


def _pgm_bytes(pixels):
    h, w = pixels.shape
    return b"P5\n%d %d\n255\n" % (w, h) + pixels.tobytes()


def sketch_image(work, pseed):
    pixels = synthetic_image(pseed)
    src = os.path.join(work, "in.pgm")
    with open(src, "wb") as fh:
        fh.write(_pgm_bytes(pixels))
    dst = _fresh(os.path.join(work, "out.pgm"))
    summary = _fresh(os.path.join(work, "out.json"))
    argv = ["image", f"input={src}", f"output={dst}", "k=3", f"seed={pseed}",
            f"out={summary}", "quiet=true"]

    def check(rc):
        if rc != 0:
            return Outcome(False, [], f"exit code {rc}")
        s = _read_summary(summary)
        with open(dst, "rb") as fh:
            data = fh.read()
        header = _pgm_bytes(pixels)[:-pixels.size]
        if not data.startswith(header) or len(data) != len(header) + pixels.size:
            return Outcome(False, [s["status"]], "output PGM malformed")
        got = np.frombuffer(data, dtype=np.uint8, offset=len(header)).reshape(pixels.shape)
        exact = float(np.mean(got == pixels))
        ok = (s["rel_dist"] is not None and s["rel_dist"] <= IMAGE_REL_DIST_MAX
              and exact >= IMAGE_EXACT_PIXELS_MIN
              and s["exact_pixel_fraction"] >= IMAGE_EXACT_PIXELS_MIN)
        return Outcome(ok, [s["status"]], f"rel_dist={s['rel_dist']} exact={exact}")

    return Problem(run=lambda: cli(argv), check=check)


# ---------------------------------------------------------------------------
# landscape
# ---------------------------------------------------------------------------

def grid_minima(values, max_value):
    """Interior cells no larger than their 8 neighbours, NaN as +inf.

    Adjacent cells of exactly equal value are reported once.  This is the
    benchmark's own check, kept apart from the library's finder.
    """
    g = np.where(np.isfinite(values), values, np.inf)
    rows, cols = g.shape
    centre = g[1:-1, 1:-1]
    neighbours = np.full(centre.shape, np.inf)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di or dj:
                neighbours = np.minimum(neighbours, g[1 + di:rows - 1 + di, 1 + dj:cols - 1 + dj])
    hits = np.argwhere((centre <= neighbours) & (centre <= max_value) & np.isfinite(centre)) + 1
    out = []
    for i, j in hits:
        if not any(abs(i - pi) <= 1 and abs(j - pj) <= 1 and g[pi, pj] == g[i, j]
                   for pi, pj in out):
            out.append((int(i), int(j)))
    return out


def landscape_audit(work, pseed):
    rng = np.random.default_rng(pseed)
    grid_xbar = LATTICE_SIGNALS[int(rng.integers(len(LATTICE_SIGNALS)))]
    angle = rng.uniform(0.0, 2.0 * math.pi)
    audit_xbar = np.array([math.cos(angle), math.sin(angle)])
    audit_seed = int(rng.integers(2**31))
    csv = _fresh(os.path.join(work, "grid.csv"))
    argv = ["landscape", f"xbar={grid_xbar[0]!r},{grid_xbar[1]!r}",
            f"half_width={GRID_HALF_WIDTH!r}", f"grid_n={GRID_N}", f"out={csv}", "quiet=true"]

    def run():
        rc = cli(argv)
        problem = robustpr.measure(robustpr.gaussian_ensemble(2, 5000, audit_seed), audit_xbar)
        # Criterion 11's set-up; the audit signal has unit norm.
        pairs = robustpr.graph_closeness_audit(problem, 1.6, 161, max_subgrad_norm=0.2)
        return rc, pairs

    def check(result):
        rc, pairs = result
        if rc != 0:
            return Outcome(False, [], f"exit code {rc}")
        table = np.loadtxt(csv, delimiter=",", skiprows=1)
        axis = np.linspace(-GRID_HALF_WIDTH, GRID_HALF_WIDTH, GRID_N)
        g1, g2 = np.meshgrid(axis, axis, indexing="ij")
        if (table.shape != (GRID_N * GRID_N, 4) or not np.array_equal(table[:, 0], g1.ravel())
                or not np.array_equal(table[:, 1], g2.ravel())):
            return Outcome(False, [], "grid CSV malformed")
        minima = grid_minima(table[:, 3].reshape(GRID_N, GRID_N), GRID_MIN_VALUE)
        xbar = np.array(grid_xbar)
        ring = CRITICAL_RATIO * np.array([-xbar[1], xbar[0]])
        targets = [np.zeros(2), xbar, -xbar, ring, -ring]
        cell = axis[1] - axis[0]
        near = all(min(np.max(np.abs(np.array([axis[i], axis[j]]) - t)) for t in targets) <= cell
                   for i, j in minima)
        # Criterion 11's pair count and pairing bound.  Its 0.05 |xbar|
        # gradient bound is not checked: it holds on the criterion's instance
        # but not on every seeded one (a grid minimum just under the 0.2 |xbar|
        # cut-off can pair with a population gradient norm above 0.1 |xbar|).
        audit_ok = (len(pairs) >= AUDIT_PAIRS_MIN
                    and all(p.dist <= p.radius + 1e-12 for p in pairs))
        return Outcome(len(minima) == 5 and near and audit_ok, [],
                       f"grid minima={len(minima)} audit pairs={len(pairs)}")

    return Problem(run=run, check=check)


WORKLOADS = {
    "dense_recover": dense_recover,
    "corrupted_solve": corrupted_solve,
    "sketch_image": sketch_image,
    "landscape_audit": landscape_audit,
}

# Rough seconds per problem on a 2-core box; sizes the fixed problem count of
# a traced run so its counts repeat exactly.
NOMINAL_PROBLEM_S = {
    "dense_recover": 0.7,
    "corrupted_solve": 0.9,
    "sketch_image": 2.1,
    "landscape_audit": 2.7,
}
