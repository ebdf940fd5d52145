"""The robust phase retrieval objective and empirical regularity probes.

The objective is the mean absolute residual

    f(x) = (1/m) sum_i |<a_i, x>^2 - b_i|,

whose chain-rule subgradient is (2/m) A^T (s * Ax) with s_i the sign of the
i-th residual and sign(0) := 0; ``value`` and ``value_and_subgradient`` take
one x or an (N, d) block of points, one per row.  The weak-convexity modulus
has a closed form (see ``weak_convexity_modulus``).  The probes estimate the
sharpness slope and the deviation of the empirical absolute product
(1/m) sum_i |<a_i,v><a_i,w>| from its Gaussian mean.  Probe results are
empirical extremes over finite seeded samples, at least one: statistical
evidence, not certificates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measure import DENSE_GAUSSIAN, apply, apply_adjoint, densify, rng_for

_TAG_SHARPNESS = 11
_TAG_CONCENTRATION = 12


@dataclass(frozen=True)
class RegularityEstimate:
    """The sharpness probe's smallest observed slope and the samples it used."""

    kappa_hat: float
    samples: int


def _residuals(problem, x):
    ax = apply(problem.ensemble, x)
    return ax, ax * ax - problem.b


def _mean_abs(r):
    f = np.mean(np.abs(r), axis=-1)
    return f if f.ndim else float(f)


def value_and_subgradient(problem, x):
    """Value and subgradient at x from a single forward product A x."""
    ax, r = _residuals(problem, x)
    return _mean_abs(r), (2.0 / problem.m) * apply_adjoint(problem.ensemble, np.sign(r) * ax)


def value(problem, x):
    """Mean absolute residual of x on the problem."""
    return _mean_abs(_residuals(problem, x)[1])


def weak_convexity_modulus(problem):
    """The weak-convexity modulus rho = (2/m) lambda_max(sum over b_i > 0 of a_i a_i^T).

    For b_i > 0, |<a_i,x>^2 - b_i| + <a_i,x>^2 = max(2 <a_i,x>^2 - b_i, b_i)
    is convex, and for b_i <= 0 the term is convex already, so
    f + (rho/2) |x|^2 is convex.  When every b_i > 0 no smaller rho works:
    near 0, f(x) = mean(b) - |Ax|^2 / m.  Without a positive b_i, rho is 0.
    The rows are made dense, so the cost is O(m d^2).
    """
    rows = densify(problem.ensemble)[problem.b > 0]
    return 2.0 * float(np.linalg.eigvalsh(rows.T @ rows)[-1]) / problem.m


def _require_samples(n):
    if n < 1:
        raise ValueError(f"samples must be at least 1, got {n}")


def sharpness_probe(problem, n_points, seed):
    """Smallest observed slope f(x) / (|x - xbar| |x + xbar|) over seeded samples.

    Half the samples are local perturbations of +-xbar (radius uniform below
    |xbar|), half are global Gaussian directions rescaled to norm up to
    3 |xbar|.  Points indistinguishable from +-xbar are skipped.  ``n_points``
    must be at least 1.
    """
    _require_samples(n_points)
    xbar = problem.truth
    if xbar is None:
        raise ValueError("probe requires a problem with a known signal")
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
    return RegularityEstimate(kappa_hat=best, samples=used)


def gaussian_abs_product_mean(t):
    """E |Z1 Z2| for standard bivariate normals with correlation t."""
    t = np.clip(t, -1.0, 1.0)
    return (2.0 / np.pi) * (np.sqrt(1.0 - t * t) + t * np.arcsin(t))


def concentration_probe(ensemble, n_pairs, seed):
    """Worst deviation of (1/m) sum_i |<a_i,v><a_i,w>| from its Gaussian mean.

    Draws ``n_pairs`` pairs of random unit vectors and returns the maximum
    absolute gap between the empirical average and E|<a,v><a,w>|.  ``n_pairs``
    must be at least 1.
    """
    _require_samples(n_pairs)
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
