"""Spectral initialization via restarted Lanczos.

The initial point is r_hat * w_hat.  The per-row scale r^2 is the mean
measurement (for corrupted data, the median measurement over the
chi-squared(1) median, which a minority of gross errors cannot move far), and
w_hat is the unit eigenvector of the smallest eigenvalue of

    X_init = sum over selected i of a_i a_i^T,

selection keeping indices with 0 <= b_i <= r^2 / 2 (small measurements, so
the selected rows are nearly orthogonal to the signal and its direction shows
up in the bottom of the spectrum; a negative entry is no squared magnitude,
so it is certainly corrupted and stays out).  The selection reads r^2 in
per-row units; the output is rescaled from the rows, r_hat^2 =
r^2 * m * d / |A|_F^2, which is |xbar|^2 exactly for a noiseless sketch
(unit rows) and r^2 up to O(1/sqrt(m d)) for Gaussian rows.  X_init is
applied matrix-free as A^T (mask * (A v)), so sketch ensembles never
materialize rows.  The smallest eigenpair comes from a Lanczos iteration with
full reorthogonalization on a fixed-size Krylov basis, restarted from the
bottom Ritz vector.  The start needs only a direction, so the init stops as
soon as the Davis-Kahan bound sin(angle) <= |residual| / gap certifies that
direction to _ANGLE_TOL, the gap read from the two lowest Ritz values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measure import apply, apply_adjoint, rng_for, squared_frobenius_norm

_TAG_POWER_START = 20
# Krylov basis size per Lanczos cycle.
_KRYLOV_DIM = 20
# A projected off-diagonal at or below this fraction of lam_top marks an
# invariant subspace.  Scaling by the operator (not by the current alpha)
# keeps rounding-level remainders of a degenerate operator out of the basis.
_BREAKDOWN = 1e-10
# Median of the chi-squared distribution with one degree of freedom: for
# Gaussian rows median(b) / _CHI2_1_MEDIAN estimates |xbar|^2.
_CHI2_1_MEDIAN = 0.4549364231195728
# The init stops once |op w - theta_1 w| <= _ANGLE_TOL * (theta_2 - theta_1):
# the subgradient method needs a start within a constant relative distance
# of +-xbar, not an eigenvector to rounding.
_ANGLE_TOL = 0.01


@dataclass(frozen=True)
class PowerConfig:
    max_iters: int = 5000
    tol: float = 1e-8
    seed: int = 0


@dataclass(frozen=True)
class EigenResult:
    w: np.ndarray
    eigenvalue_estimate: float
    iters: int
    residual: float
    converged: bool


@dataclass(frozen=True)
class InitReport:
    x0: np.ndarray
    r_hat: float
    n_selected: int
    power_iters: int
    residual: float
    converged: bool


def _check_finite(v):
    if not np.all(np.isfinite(v)):
        raise FloatingPointError("operator produced non-finite values")
    return v


def min_eigenvector(op, d, cfg=PowerConfig(), angle_tol=None):
    """Smallest eigenpair of a symmetric operator given as a callable.

    The operator may be indefinite: the eigenvalue found is the algebraically
    smallest, negative or not.

    Restarted Lanczos from a seeded random unit vector: each cycle builds an
    orthonormal Krylov basis of at most ``_KRYLOV_DIM`` vectors, takes the
    bottom Ritz pair of the projected tridiagonal matrix, and applies ``op``
    to the Ritz vector once more for its true residual |op w - (w' op w) w|.
    The next cycle restarts from that vector until the residual falls below
    tol * (1 + lam_top), lam_top being the largest |alpha| or beta of the
    projected matrices so far (a lower bound on the largest eigenvalue
    magnitude), or until a basis closes on an invariant subspace, which a
    restart would rebuild.
    With ``angle_tol`` set, it also stops once the residual falls below
    angle_tol * (theta_2 - theta_1), the gap between the two lowest Ritz
    values of the last cycle: by Davis-Kahan the angle between w and the
    bottom eigenvector is then about angle_tol or less (theta_2 bounds the
    second eigenvalue from above, so the gap is an estimate, not a bound).
    ``converged`` reports that the last residual met the stop in force: the
    tol rule alone by default, either rule with ``angle_tol``.
    ``iters`` counts the ``op`` applications after the first and is capped by
    ``cfg.max_iters``.  The sign is normalized so the largest-magnitude
    coordinate is nonnegative.
    """
    rng = rng_for(cfg.seed, _TAG_POWER_START)
    w = rng.standard_normal(d)
    w /= np.linalg.norm(w)

    dim = min(_KRYLOV_DIM, d)
    basis = np.empty((dim, d))
    alpha = np.empty(dim)
    beta = np.empty(dim)
    opw = _check_finite(op(w))
    lam = float(w @ opw)
    residual = float(np.linalg.norm(opw - lam * w))
    top = max(abs(lam), residual)
    gap = 0.0

    def stop():
        return residual <= max(cfg.tol * (1.0 + top), (angle_tol or 0.0) * gap)

    iters = 0
    while not stop():
        n = min(dim, cfg.max_iters - iters)
        if n < 2:
            break
        basis[0] = w
        u = opw
        for j in range(n):
            if j > 0:
                u = _check_finite(op(basis[j]))
                iters += 1
            alpha[j] = basis[j] @ u
            # Full reorthogonalization: two classical Gram-Schmidt passes
            # against the whole basis also remove the alpha and beta terms.
            q = basis[: j + 1]
            u = u - q.T @ (q @ u)
            u -= q.T @ (q @ u)
            beta[j] = np.linalg.norm(u)
            top = max(top, abs(alpha[j]), beta[j])
            invariant = beta[j] <= _BREAKDOWN * top
            if invariant or j + 1 == n:
                break
            basis[j + 1] = u / beta[j]
        k = j + 1
        # eigh reads only the lower triangle of the tridiagonal matrix.
        theta, s = np.linalg.eigh(np.diag(alpha[:k]) + np.diag(beta[: k - 1], -1))
        gap = float(theta[1] - theta[0]) if k > 1 else 0.0
        w = s[:, 0] @ basis[:k]
        w /= np.linalg.norm(w)
        opw = _check_finite(op(w))
        iters += 1
        lam = float(w @ opw)
        residual = float(np.linalg.norm(opw - lam * w))
        if invariant:
            # A restart would rebuild the same invariant subspace.
            break
    converged = bool(stop())

    i = int(np.argmax(np.abs(w)))
    if w[i] < 0:
        w = -w
    return EigenResult(w=w, eigenvalue_estimate=lam, iters=iters, residual=residual,
                       converged=converged)


def selection_mask(b, r2=None):
    """0/1 mask of the indices entering X_init.

    Uses the rule 0 <= b_i <= r2 / 2, r2 defaulting to mean(b): a negative
    entry is no squared magnitude, so it is certainly corrupted.  If that
    selects nothing (possible for degenerate b with all entries equal), falls
    back to the ceil(m/2) smallest entries so the operator stays nonzero.
    """
    b = np.asarray(b, dtype=np.float64)
    m = b.shape[0]
    mask = (b >= 0.0) & (b <= 0.5 * (b.mean() if r2 is None else r2))
    if not mask.any():
        mask = np.zeros(m, dtype=bool)
        mask[np.argsort(b, kind="stable")[: math.ceil(m / 2)]] = True
    return mask.astype(np.float64)


def _median(b):
    """Median of b, NaN when b holds a NaN, as np.median gives it.

    np.median imports numpy.ma on first use, about 2 MB of resident memory
    for one order statistic of a vector.
    """
    if np.isnan(b).any():
        return math.nan
    n = b.shape[0]
    part = np.partition(b, [(n - 1) // 2, n // 2])
    return float(0.5 * (part[(n - 1) // 2] + part[n // 2]))


def spectral_init(problem, cfg=PowerConfig()):
    """Initial point r_hat * w_hat for the subgradient method.

    The per-row scale r^2 is mean(b) for noiseless problems and median(b) /
    median of chi-squared(1) for corrupted ones; it sets the selection, and
    r_hat^2 = r^2 * m * d / |A|_F^2 the length of the start.  w_hat stops at
    the ``_ANGLE_TOL`` angle certificate (or at ``cfg.tol``, whichever comes
    first).  Degenerate measurements (r^2 <= 0, e.g. the zero signal) or rows
    (|A|_F = 0) return the zero vector with n_selected = m, residual 0 and
    converged set; an r^2 that is not finite gives a non-finite start with
    converged unset.
    """
    b = problem.b
    m, d = problem.m, problem.d
    ens = problem.ensemble
    r2 = float(b.mean()) if problem.noiseless else _median(b) / _CHI2_1_MEDIAN
    fro2 = 0.0 if r2 <= 0.0 else squared_frobenius_norm(ens)
    if fro2 == 0.0:
        return InitReport(x0=np.zeros(d), r_hat=0.0, n_selected=m,
                          power_iters=0, residual=0.0, converged=True)
    mask = selection_mask(b, r2)

    def op(v):
        return apply_adjoint(ens, mask * apply(ens, v))

    eig = min_eigenvector(op, d, cfg, angle_tol=_ANGLE_TOL)
    r_hat = math.sqrt(r2 * m * d / fro2)
    return InitReport(x0=r_hat * eig.w, r_hat=r_hat,
                      n_selected=int(mask.sum()), power_iters=eig.iters,
                      residual=eig.residual, converged=eig.converged and math.isfinite(r2))
