"""Subgradient method with two step rules, trace recording and rate estimation.

Given the minimal value of the objective, the step from x is Polyak's:

    x_next = x - (f(x) - min_value) / |zeta|^2 * zeta,   zeta a subgradient,

which needs no step-size tuning.  For noiseless phase retrieval the minimum
is 0.  Corrupted problems have an unknown positive minimum; with
``min_value=None`` the step is geometrically decaying instead (Davis,
Drusvyatskiy, MacPhee & Paquette, arXiv:1803.02461):

    x_next = x - lam * q^k * zeta / |zeta|,   lam = 0.1 |x0|,  q = 0.95,

which converges linearly on sharp, weakly convex objectives started within a
constant relative distance of the signal.  Both rules share one loop, which
stops on a value tolerance, a relative-distance tolerance (when the signal is
known), geometric steps whose remaining travel lam q^k / (1 - q) is at most
``tol_dist * |x|`` (status ``step_vanished``), a vanishing subgradient, a
value or subgradient norm that is not finite (status ``non_finite``, recorded
for that iterate), or the iteration cap; tolerances set to 0 / None are
disabled.
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
# step is GEOMETRIC_DECAY times the one before.
GEOMETRIC_SCALE = 0.1
GEOMETRIC_DECAY = 0.95


@dataclass(frozen=True)
class SolverConfig:
    """``min_value`` selects the step rule: Polyak given a number, geometric given None."""

    min_value: float | None = 0.0
    max_iters: int = 2000
    tol_value: float = 0.0
    tol_dist: float | None = None

    def __post_init__(self):
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be at least 0, got {self.max_iters}")


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
    records: list[TraceRecord] = field(default_factory=list)
    final_x: np.ndarray | None = None
    status: str = MAX_ITERS

    @property
    def iterations(self):
        return len(self.records)


def polyak_step(problem, x, min_value=0.0, length=None):
    """Evaluate f and a subgradient zeta at x and take one subgradient step.

    The step is Polyak's, (f - min_value) / |zeta|^2 * zeta, or, when
    ``length`` is given, the step of that length along -zeta / |zeta|.
    """
    x = np.asarray(x, dtype=np.float64)
    f, zeta = objective.value_and_subgradient(problem, x)
    gn = float(np.linalg.norm(zeta))
    polyak = length is None
    if polyak:
        length = (f - min_value) / gn if gn > 0 else math.nan
    if gn == 0.0 or not (math.isfinite(f) and math.isfinite(gn)):
        return PolyakStep(next_x=None, f_value=f, subgrad_norm=gn, length=length)
    coef = (f - min_value) / gn**2 if polyak else length / gn
    return PolyakStep(next_x=x - coef * zeta, f_value=f, subgrad_norm=gn, length=length)


def _rel_dist(x, xbar, nb):
    return min(np.linalg.norm(x - xbar), np.linalg.norm(x + xbar)) / nb


def run(problem, x0, cfg):
    """Iterate subgradient steps from x0 until a stopping rule fires.

    The step rule is Polyak's when ``cfg.min_value`` is a number and the
    geometric one when it is None; only the geometric rule stops with
    ``step_vanished``, once all its remaining steps together,
    lam * q^k / (1 - q), are no longer than tol_dist * |x|: the iterate can
    then move no further than the distance tolerance (at x0 = 0 that is the
    first iterate).  One trace record is written per evaluated iterate; its
    ``step_length`` is the step's ``PolyakStep.length``, lam * q^k for the
    geometric rule.  ``rel_dist`` is min(|x-xbar|, |x+xbar|) / |xbar| and is
    present only when the problem stores the signal.  ``final_x`` is the
    iterate the last record describes (x0 when there is no record).
    """
    x = np.asarray(x0, dtype=np.float64).copy()
    if x.shape != (problem.d,):
        raise ValueError(f"x0 has shape {x.shape}, expected ({problem.d},)")
    xbar = problem.truth
    nb = np.linalg.norm(xbar) if xbar is not None else 0.0
    geometric = cfg.min_value is None
    lam = GEOMETRIC_SCALE * float(np.linalg.norm(x)) if geometric else 0.0
    trace = SolveTrace(final_x=x)
    for k in range(cfg.max_iters):
        trace.final_x = x
        if geometric:
            step = polyak_step(problem, x, length=lam * GEOMETRIC_DECAY**k)
        else:
            step = polyak_step(problem, x, cfg.min_value)
        rel = _rel_dist(x, xbar, nb) if xbar is not None and nb > 0 else None
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
        if cfg.tol_dist is not None and rel is not None and rel <= cfg.tol_dist:
            trace.status = CONVERGED
            break
        if (geometric and cfg.tol_dist is not None
                and step.length / (1.0 - GEOMETRIC_DECAY) <= cfg.tol_dist * np.linalg.norm(x)):
            trace.status = STEP_VANISHED
            break
        if step.next_x is None:
            trace.status = ZERO_SUBGRADIENT
            break
        x = step.next_x
    else:
        trace.status = MAX_ITERS
    return trace


def geometric_rate_estimate(trace, window=50):
    """Per-step geometric contraction factor of rel_dist over the final window.

    Returns exp of the mean log-ratio of consecutive relative distances, i.e.
    the window-average rate; values below 1 indicate linear convergence.
    Requires at least window + 1 trailing records with positive rel_dist.
    """
    if window < 1:
        raise ValueError("window must be at least 1")
    rels = [r.rel_dist for r in trace.records]
    if len(rels) < window + 1:
        raise ValueError(f"trace has {len(rels)} records, need {window + 1}")
    tail = rels[-(window + 1):]
    if any(r is None or r <= 0.0 for r in tail):
        raise ValueError("rate estimate needs positive rel_dist over the whole window")
    logs = [math.log(tail[i + 1] / tail[i]) for i in range(window)]
    return math.exp(sum(logs) / window)
