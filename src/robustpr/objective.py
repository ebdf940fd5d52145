"""The robust phase retrieval objective and empirical regularity probes.

The objective is the mean absolute residual

    f(x) = (1/m) sum_i |<a_i, x>^2 - b_i|,

whose chain-rule subgradient is (2/m) A^T (s * Ax) with s_i the sign of the
i-th residual and sign(0) := 0.  The probes estimate the weak-convexity
modulus, the sharpness slope, and the deviation of the empirical absolute
product (1/m) sum_i |<a_i,v><a_i,w>| from its Gaussian mean.  Probe results
are empirical extremes over finite seeded samples: statistical evidence, not
certificates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measure import DENSE_GAUSSIAN, apply, apply_adjoint, rng_for

# Above this many measurements, accumulate residuals with exact (compensated)
# summation so traces reproduce across platforms.
_FSUM_THRESHOLD = 100_000

_TAG_WEAK_CONVEXITY = 10
_TAG_SHARPNESS = 11
_TAG_CONCENTRATION = 12


@dataclass(frozen=True)
class RegularityEstimate:
    """Empirical regularity constants from a seeded probe."""

    rho_hat: float = 0.0
    kappa_hat: float = 0.0
    samples: int = 0
    seed: int = 0


def _residuals(problem, x):
    ax = apply(problem.ensemble, x)
    return ax, ax * ax - problem.b


def _mean_abs(r):
    r = np.abs(r)
    if r.size > _FSUM_THRESHOLD:
        return math.fsum(r) / r.size
    return float(np.mean(r))


def _chain_rule(problem, ax, r):
    return (2.0 / problem.m) * apply_adjoint(problem.ensemble, np.sign(r) * ax)


def value_and_subgradient(problem, x):
    """Value and subgradient at x from a single forward product A x."""
    ax, r = _residuals(problem, x)
    return _mean_abs(r), _chain_rule(problem, ax, r)


def value(problem, x):
    """Mean absolute residual of x on the problem."""
    return _mean_abs(_residuals(problem, x)[1])


def subgradient(problem, x):
    """Chain-rule subgradient (2/m) A^T (sign(residual) * Ax), sign(0) = 0."""
    return _chain_rule(problem, *_residuals(problem, x))


def _require_truth(problem):
    if problem.truth is None:
        raise ValueError("probe requires a problem with a known signal")
    return problem.truth


def _ball_point(rng, center, radius):
    # Uniform draw from the ball of the given radius around center.
    d = center.shape[0]
    u = rng.standard_normal(d)
    u /= np.linalg.norm(u)
    return center + radius * rng.random() ** (1.0 / d) * u


def weak_convexity_probe(problem, n_triples, radius, seed):
    """Largest observed violation of the subgradient lower bound.

    Samples pairs (x, y) uniformly from the ball of radius ``radius * |xbar|``
    around the signal (``radius`` absolute when the signal is zero) and
    returns the empirical weak-convexity modulus

        rho_hat = max(0, max over pairs of 2 (f(x) + <zeta_x, y-x> - f(y)) / |y-x|^2).
    """
    xbar = _require_truth(problem)
    nb = np.linalg.norm(xbar)
    r = radius * nb if nb > 0 else radius
    rng = rng_for(seed, _TAG_WEAK_CONVEXITY)
    worst = 0.0
    used = 0
    for _ in range(n_triples):
        x = _ball_point(rng, xbar, r)
        y = _ball_point(rng, xbar, r)
        gap2 = float((y - x) @ (y - x))
        if gap2 == 0.0:
            continue
        fx, zeta = value_and_subgradient(problem, x)
        viol = 2.0 * (fx + zeta @ (y - x) - value(problem, y)) / gap2
        worst = max(worst, viol)
        used += 1
    return RegularityEstimate(rho_hat=worst, samples=used, seed=int(seed))


def sharpness_probe(problem, n_points, seed):
    """Smallest observed slope f(x) / (|x - xbar| |x + xbar|) over seeded samples.

    Half the samples are local perturbations of +-xbar (radius uniform below
    |xbar|), half are global Gaussian directions rescaled to norm up to
    3 |xbar|.  Points indistinguishable from +-xbar are skipped.
    """
    xbar = _require_truth(problem)
    if not problem.noiseless:
        raise ValueError("sharpness probe requires noiseless measurements")
    nb = np.linalg.norm(xbar)
    rng = rng_for(seed, _TAG_SHARPNESS)
    best = math.inf
    used = 0
    for i in range(n_points):
        if i % 2 == 0:
            sign = 1.0 if rng.random() < 0.5 else -1.0
            u = rng.standard_normal(xbar.shape[0])
            u /= np.linalg.norm(u)
            x = sign * xbar + (rng.random() * max(nb, 1.0)) * u
        else:
            g = rng.standard_normal(xbar.shape[0])
            x = g * (3.0 * max(nb, 1.0) * rng.random() / np.linalg.norm(g))
        denom = np.linalg.norm(x - xbar) * np.linalg.norm(x + xbar)
        if denom <= 1e-14 * max(nb * nb, 1.0):
            continue
        best = min(best, value(problem, x) / denom)
        used += 1
    return RegularityEstimate(kappa_hat=best, samples=used, seed=int(seed))


def gaussian_abs_product_mean(t):
    """E |Z1 Z2| for standard bivariate normals with correlation t."""
    t = np.clip(t, -1.0, 1.0)
    return (2.0 / np.pi) * (np.sqrt(1.0 - t * t) + t * np.arcsin(t))


def concentration_probe(ensemble, n_pairs, seed):
    """Worst deviation of (1/m) sum_i |<a_i,v><a_i,w>| from its Gaussian mean.

    Draws ``n_pairs`` pairs of random unit vectors and returns the maximum
    absolute gap between the empirical average and E|<a,v><a,w>|.
    """
    if ensemble.kind != DENSE_GAUSSIAN:
        raise ValueError("concentration probe is defined for dense Gaussian ensembles")
    rng = rng_for(seed, _TAG_CONCENTRATION)
    rows = ensemble.rows
    worst = 0.0
    for _ in range(n_pairs):
        v = rng.standard_normal(ensemble.d)
        v /= np.linalg.norm(v)
        w = rng.standard_normal(ensemble.d)
        w /= np.linalg.norm(w)
        emp = float(np.mean(np.abs((rows @ v) * (rows @ w))))
        worst = max(worst, abs(emp - gaussian_abs_product_mean(float(v @ w))))
    return worst
