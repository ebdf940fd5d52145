"""The robust phase retrieval objective and its regularity constants.

The objective is the mean absolute residual

    f(x) = (1/m) sum_i |<a_i, x>^2 - b_i|,

whose chain-rule subgradient is (2/m) A^T (s * Ax) with s_i the sign of the
i-th residual and sign(0) := 0; ``value`` and ``value_and_subgradient`` take
one x or an (N, d) block of points, one per row.  The weak-convexity modulus
has a closed form, computed matrix-free (``weak_convexity_modulus``).  On
noiseless data <a,x>^2 - <a,xbar>^2 = <a,x-xbar><a,x+xbar>, so the sharpness
ratio f(x) / (|x - xbar| |x + xbar|) is g(u, v) = (1/m) sum_i |<a_i,u><a_i,v>|
at the unit vectors u, v along x -+ xbar; ``regularity_probe`` samples g at
seeded unit pairs on any ensemble.  Its results are empirical extremes over
finite samples: statistical evidence, not certificates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measure import apply, apply_adjoint, rng_for, squared_frobenius_norm
from .spectral import min_eigenvector

_TAG_PAIRS = 13
# Bound on the entries of one block's (2 * pairs, m) product array (8 MB), so
# that the sample count never sizes an allocation.
_BLOCK_ENTRIES = 1 << 20


@dataclass(frozen=True)
class RegularityEstimate:
    """The smallest g(u, v) over the probe's pairs, and its largest gap from sigma^2 E|Z1 Z2|."""

    kappa_hat: float
    max_deviation: float


def _residuals(problem, x):
    """A x and the residuals (A x)^2 - b, the latter built in one new array."""
    ax = apply(problem.ensemble, x)
    r = np.multiply(ax, ax)
    r -= problem.b
    return ax, r


def _mean_abs(r):
    """mean(|r|) along the last axis; overwrites r.

    np.add.reduce is the pairwise sum np.mean runs, without its Python
    wrapper, and the division by the length is np.mean's, so the value is
    np.mean(np.abs(r), axis=-1) bit for bit.
    """
    f = np.add.reduce(np.abs(r, out=r), axis=-1) / r.shape[-1]
    return f if f.ndim else float(f)


def value_and_subgradient(problem, x):
    """Value and subgradient at x from a single forward product A x.

    Besides the two products, a step allocates two m-length arrays, the
    residual and the sign-weighted product, and scales the adjoint in place.
    """
    ax, r = _residuals(problem, x)
    weighted = np.sign(r)
    weighted *= ax
    f = _mean_abs(r)
    g = apply_adjoint(problem.ensemble, weighted)
    g *= 2.0 / problem.m
    return f, g


def value(problem, x):
    """Mean absolute residual of x on the problem."""
    return _mean_abs(_residuals(problem, x)[1])


def weak_convexity_modulus(problem):
    """The weak-convexity modulus rho = (2/m) lambda_max(sum over b_i > 0 of a_i a_i^T).

    For b_i > 0, |<a_i,x>^2 - b_i| + <a_i,x>^2 = max(2 <a_i,x>^2 - b_i, b_i)
    is convex, and for b_i <= 0 the term is convex already, so
    f + (rho/2) |x|^2 is convex.  When every b_i > 0 no smaller rho works:
    near 0, f(x) = mean(b) - |Ax|^2 / m.  Without a positive b_i, rho is 0.
    lambda_max is minus the smallest eigenvalue of v -> -A^T (1[b > 0] A v),
    found by ``min_eigenvector`` through the ensemble's products, so no rows
    are materialized.
    """
    ens = problem.ensemble
    mask = (problem.b > 0).astype(np.float64)

    def op(v):
        return -apply_adjoint(ens, mask * apply(ens, v))

    lam = min_eigenvector(op, problem.d).eigenvalue_estimate
    # The operator is negative semidefinite; max turns an empty selection's -0.0 into 0.0.
    return max(0.0, -2.0 * lam / problem.m)


def gaussian_abs_product_mean(t):
    """E |Z1 Z2| for standard bivariate normals with correlation t."""
    t = np.clip(t, -1.0, 1.0)
    return (2.0 / np.pi) * (np.sqrt(1.0 - t * t) + t * np.arcsin(t))


def _abs_product_means(ensemble, pairs):
    """g(u, v) = (1/m) sum_i |<a_i,u><a_i,v>| for each (u, v) = pairs[j] of an (N, 2, d) block."""
    prod = apply(ensemble, pairs.reshape(-1, ensemble.d)).reshape(-1, 2, ensemble.m)
    g = prod[:, 0] * prod[:, 1]
    return np.mean(np.abs(g, out=g), axis=-1)


def check_samples(samples, name="samples"):
    """Raise unless a sampled estimate (this probe, a Monte Carlo mean) draws at least once."""
    if samples < 1:
        raise ValueError(f"{name} must be at least 1, got {samples}")


def regularity_probe(ensemble, samples, seed):
    """Smallest g(u, v) and its largest deviation from the Gaussian mean over seeded unit pairs.

    ``kappa_hat`` estimates the sharpness constant, whose Gaussian value is
    (2/pi) sigma^2.  ``max_deviation`` compares g with
    sigma^2 ``gaussian_abs_product_mean(<u, v>)``, sigma^2 = |A|_F^2 / (m d)
    being the rows' mean square entry: 1/l on a sketch, 1 + O((m d)^(-1/2))
    on Gaussian rows.  The ``samples`` (at least 1) pairs of uniform unit
    vectors come pair after pair from one seeded stream, so a larger
    ``samples`` extends the same sequence, and are evaluated in blocks of
    bounded size through the ensemble's forward product.
    """
    check_samples(samples)
    m, d = ensemble.m, ensemble.d
    sigma2 = squared_frobenius_norm(ensemble) / (m * d)
    block = max(1, _BLOCK_ENTRIES // (2 * max(m, d)))
    rng = rng_for(seed, _TAG_PAIRS)
    kappa, worst = math.inf, 0.0
    for start in range(0, samples, block):
        n = min(block, samples - start)
        pairs = rng.standard_normal((n, 2, d))
        pairs /= np.linalg.norm(pairs, axis=2, keepdims=True)
        g = _abs_product_means(ensemble, pairs)
        t = np.sum(pairs[:, 0] * pairs[:, 1], axis=1)
        dev = np.abs(g - sigma2 * gaussian_abs_product_mean(t))
        kappa = min(kappa, float(g.min()))
        worst = max(worst, float(dev.max()))
    return RegularityEstimate(kappa_hat=kappa, max_deviation=worst)
