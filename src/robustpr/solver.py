"""Subgradient method with two step rules, trace recording and rate estimation.

Given the minimal value of the objective, the step from x is Polyak's:

    x_next = x - (f(x) - min_value) / |zeta|^2 * zeta,   zeta a subgradient,

which needs no step-size tuning.  For noiseless phase retrieval the minimum
is 0.  Corrupted problems have an unknown positive minimum; with
``min_value=None`` the step is geometrically decaying instead (Davis,
Drusvyatskiy, MacPhee & Paquette, arXiv:1803.02461):

    x_next = x - lam * q^j * zeta / |zeta|,   lam = 0.1 |x0|,

which converges linearly on sharp, weakly convex objectives started within a
constant relative distance of the signal.  The decay q trades speed for
reach, so ``run`` climbs ``GEOMETRIC_DECAYS``: it runs at q = 0.85 and,
only when those steps vanish short of the signal, reruns from the same start
at q = 0.95, with j counting the steps of the current rung.  Easy data then
takes about a third of the q = 0.95 steps, and a hard problem ends on the
q = 0.95 run itself.

Both rules share one loop, which stops on a value tolerance, a
relative-distance tolerance (when the signal is known), geometric steps
whose remaining travel lam q^j / (1 - q) is at most ``tol_dist * |x|``
(status ``step_vanished``), a vanishing subgradient, a value or subgradient
norm that is not finite (status ``non_finite``, recorded for that iterate),
or the iteration cap; tolerances set to 0 / None are disabled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import objective

CONVERGED = "converged"
MAX_ITERS = "max_iters"
ZERO_SUBGRADIENT = "zero_subgradient"
NON_FINITE = "non_finite"
STEP_VANISHED = "step_vanished"

# The geometric rule's first step is GEOMETRIC_SCALE * |x0| long, and each
# step is the rung's decay times the one before; run tries the decays in
# turn, fastest first.
GEOMETRIC_SCALE = 0.1
GEOMETRIC_DECAYS = (0.85, 0.95)

# The iteration cap when none is given.
DEFAULT_MAX_ITERS = 2000


@dataclass(frozen=True)
class SolverConfig:
    """``min_value`` selects the step rule: Polyak given a number, geometric given None."""

    min_value: float | None = 0.0
    max_iters: int = DEFAULT_MAX_ITERS
    tol_value: float = 0.0
    tol_dist: float | None = None

    def __post_init__(self):
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be at least 0, got {self.max_iters}")
        for name in ("tol_value", "tol_dist"):
            tol = getattr(self, name)
            if tol is not None and not tol >= 0.0:
                raise ValueError(f"{name} must be at least 0, got {tol}")


@dataclass(frozen=True)
class PolyakStep:
    """One evaluated step; ``next_x`` is None if zeta = 0 or f or |zeta| is not finite.

    ``length`` is the norm of the attempted step: (f - min_value) / |zeta|
    for Polyak's rule (NaN unless |zeta| > 0), the given length otherwise.
    """

    next_x: np.ndarray | None
    f_value: float
    subgrad_norm: float
    length: float


@dataclass(frozen=True)
class TraceRecord:
    k: int
    f_value: float
    subgrad_norm: float
    step_length: float
    rel_dist: float | None = None


@dataclass
class SolveTrace:
    """A run's records, last iterate and its distance, stop status and step rule (see ``run``).

    ``restarts`` counts the rungs after the first, and the final rung's
    records start at ``records[final_rung_start]``.
    """

    records: list[TraceRecord] = field(default_factory=list)
    final_x: np.ndarray | None = None
    status: str = MAX_ITERS
    step_rule: str = "polyak"
    final_rel_dist: float | None = None
    restarts: int = 0
    final_rung_start: int = 0

    @property
    def iterations(self):
        return len(self.records)

    @property
    def matvecs(self):
        """Forward and adjoint products: one of each per evaluated iterate."""
        return 2 * self.iterations


def polyak_step(problem, x, min_value=0.0, length=None):
    """Evaluate f and a subgradient zeta at x and take one subgradient step.

    The step is Polyak's, (f - min_value) / |zeta|^2 * zeta, or, when
    ``length`` is given, the step of that length along -zeta / |zeta|.
    """
    x = np.asarray(x, dtype=np.float64)
    f, zeta = objective.value_and_subgradient(problem, x)
    gn = _norm(zeta)
    polyak = length is None
    if polyak:
        length = (f - min_value) / gn if gn > 0 else math.nan
    if gn == 0.0 or not (math.isfinite(f) and math.isfinite(gn)):
        return PolyakStep(next_x=None, f_value=f, subgrad_norm=gn, length=length)
    coef = (f - min_value) / gn**2 if polyak else length / gn
    # x - coef * zeta, built in zeta's storage
    zeta *= coef
    return PolyakStep(next_x=np.subtract(x, zeta, out=zeta), f_value=f, subgrad_norm=gn,
                      length=length)


def _norm(v):
    """np.linalg.norm of a contiguous float vector, sqrt(v . v), without its Python wrapper."""
    return math.sqrt(v.dot(v))


def _rel_dist(x, xbar, nb):
    """min(|x - xbar|, |x + xbar|) / nb, None unless nb = |xbar| > 0; both in one buffer."""
    if not nb > 0:
        return None
    t = np.subtract(x, xbar)
    minus = _norm(t)
    return min(minus, _norm(np.add(x, xbar, out=t))) / nb


def run(problem, x0, cfg):
    """Iterate subgradient steps from x0 until a stopping rule fires.

    The step rule is Polyak's when ``cfg.min_value`` is a number and the
    geometric one when it is None (``step_rule`` ``polyak`` or ``geometric``).
    The geometric rule runs the rungs of ``GEOMETRIC_DECAYS`` in turn, each
    from x0; a rung ends ``step_vanished`` once lam * q^j / (1 - q) is at
    most tol_dist * |x|, and only such a rung, with iterations left under
    ``cfg.max_iters`` (the cap on all rungs together), is followed by the
    next.  A run that cannot vanish short of the signal is one rung at the
    last decay: a Polyak run, ``tol_dist`` None or 0, or x0 = 0 (lam = 0).

    One trace record is written per evaluated iterate, with ``k`` counting on
    across rungs; its ``step_length`` is the step's ``PolyakStep.length``, and
    ``rel_dist``, min(|x-xbar|, |x+xbar|) / |xbar|, is present only when the
    problem stores a nonzero signal.  ``final_x`` is the iterate the last
    record describes (x0 when there is none), and ``final_rel_dist`` its
    relative distance by the same rule.
    """
    x0 = np.asarray(x0, dtype=np.float64).copy()
    if x0.shape != (problem.d,):
        raise ValueError(f"x0 has shape {x0.shape}, expected ({problem.d},)")
    xbar = problem.truth
    nb = np.linalg.norm(xbar) if xbar is not None else 0.0
    geometric = cfg.min_value is None
    tol_dist = cfg.tol_dist or 0.0  # None and 0 both switch the distance stops off
    lam = GEOMETRIC_SCALE * float(np.linalg.norm(x0)) if geometric else 0.0
    vanishes = geometric and tol_dist > 0.0
    decays = GEOMETRIC_DECAYS if vanishes and lam > 0.0 else GEOMETRIC_DECAYS[-1:]
    trace = SolveTrace(final_x=x0, step_rule="geometric" if geometric else "polyak")
    for restarts, q in enumerate(decays):
        x, start = x0, trace.iterations
        trace.restarts, trace.final_rung_start = restarts, start
        for k in range(start, cfg.max_iters):
            trace.final_x = x
            if geometric:
                step = polyak_step(problem, x, length=lam * q**(k - start))
            else:
                step = polyak_step(problem, x, cfg.min_value)
            rel = _rel_dist(x, xbar, nb)
            trace.records.append(
                TraceRecord(k=k, f_value=step.f_value, subgrad_norm=step.subgrad_norm,
                            step_length=step.length, rel_dist=rel)
            )
            if not (math.isfinite(step.f_value) and math.isfinite(step.subgrad_norm)):
                trace.status = NON_FINITE
                break
            if cfg.tol_value > 0.0 and step.f_value <= cfg.tol_value:
                trace.status = CONVERGED
                break
            if tol_dist > 0.0 and rel is not None and rel <= tol_dist:
                trace.status = CONVERGED
                break
            if vanishes and step.length / (1.0 - q) <= tol_dist * _norm(x):
                trace.status = STEP_VANISHED
                break
            if step.next_x is None:
                trace.status = ZERO_SUBGRADIENT
                break
            x = step.next_x
        else:
            trace.status = MAX_ITERS
        if trace.status != STEP_VANISHED or trace.iterations == cfg.max_iters:
            break
    trace.final_rel_dist = _rel_dist(trace.final_x, xbar, nb)
    return trace


def geometric_rate_estimate(trace, window=50):
    """Per-step geometric contraction factor of rel_dist over the final window.

    Returns exp of the mean log-ratio of consecutive relative distances, i.e.
    the window-average rate; values below 1 indicate linear convergence.
    Requires at least window + 1 trailing records with positive rel_dist in
    the trace's final rung, so the window never spans a restart.
    """
    if window < 1:
        raise ValueError("window must be at least 1")
    rels = [r.rel_dist for r in trace.records[trace.final_rung_start:]]
    if len(rels) < window + 1:
        raise ValueError(f"trace has {len(rels)} records, need {window + 1}")
    tail = rels[-(window + 1):]
    if any(r is None or r <= 0.0 for r in tail):
        raise ValueError("rate estimate needs positive rel_dist over the whole window")
    logs = [math.log(tail[i + 1] / tail[i]) for i in range(window)]
    return math.exp(sum(logs) / window)
