"""Spectral initialization via restarted Lanczos.

The initial point is r_hat * w_hat, where r_hat^2 is the mean measurement and
w_hat is the unit eigenvector of the smallest eigenvalue of

    X_init = sum over selected i of a_i a_i^T,

selection keeping indices with b_i <= r_hat^2 / 2 (small measurements, so the
selected rows are nearly orthogonal to the signal and its direction shows up
in the bottom of the spectrum).  X_init is applied matrix-free as
A^T (mask * (A v)), so sketch ensembles never materialize rows.  The smallest
eigenpair comes from a Lanczos iteration with full reorthogonalization on a
fixed-size Krylov basis, restarted from the bottom Ritz vector until its
true residual is small; no shift or bound on the top eigenvalue is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measure import apply, apply_adjoint, rng_for

_TAG_POWER_START = 20
# Krylov basis size per Lanczos cycle.
_KRYLOV_DIM = 20
# A projected off-diagonal at or below this fraction of lam_top marks an
# invariant subspace.  Scaling by the operator (not by the current alpha)
# keeps rounding-level remainders of a degenerate operator out of the basis.
_BREAKDOWN = 1e-10


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


def min_eigenvector(op, d, cfg=PowerConfig()):
    """Smallest eigenpair of a symmetric PSD operator given as a callable.

    Restarted Lanczos from a seeded random unit vector: each cycle builds an
    orthonormal Krylov basis of at most ``_KRYLOV_DIM`` vectors, takes the
    bottom Ritz pair of the projected tridiagonal matrix, and applies ``op``
    to the Ritz vector once more for its true residual |op w - (w' op w) w|.
    The next cycle restarts from that vector until the residual falls below
    tol * (1 + lam_top), lam_top being the largest |alpha| or beta of the
    projected matrices so far (a lower bound on the top eigenvalue), or until
    a basis closes on an invariant subspace, which a restart would rebuild.
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
    iters = 0
    while residual > cfg.tol * (1.0 + top):
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
        _, s = np.linalg.eigh(np.diag(alpha[:k]) + np.diag(beta[: k - 1], -1))
        w = s[:, 0] @ basis[:k]
        w /= np.linalg.norm(w)
        opw = _check_finite(op(w))
        iters += 1
        lam = float(w @ opw)
        residual = float(np.linalg.norm(opw - lam * w))
        if invariant:
            # A restart would rebuild the same invariant subspace.
            break
    converged = bool(residual <= cfg.tol * (1.0 + top))

    i = int(np.argmax(np.abs(w)))
    if w[i] < 0:
        w = -w
    return EigenResult(w=w, eigenvalue_estimate=lam, iters=iters, residual=residual,
                       converged=converged)


def selection_mask(b):
    """0/1 mask of the indices entering X_init.

    Uses the rule b_i <= mean(b) / 2; if that selects nothing (possible for
    degenerate b with all entries equal), falls back to the ceil(m/2) smallest
    entries so the operator stays nonzero.
    """
    b = np.asarray(b, dtype=np.float64)
    m = b.shape[0]
    mask = b <= 0.5 * b.mean()
    if not mask.any():
        mask = np.zeros(m, dtype=bool)
        mask[np.argsort(b, kind="stable")[: math.ceil(m / 2)]] = True
    return mask.astype(np.float64)


def spectral_init(problem, cfg=PowerConfig()):
    """Initial point r_hat * w_hat for the subgradient method.

    Degenerate measurements (mean b <= 0, e.g. the zero signal) return the
    zero vector with n_selected = m, residual 0 and converged set.
    """
    b = problem.b
    m = problem.m
    r2 = float(b.mean())
    if r2 <= 0.0:
        return InitReport(x0=np.zeros(problem.d), r_hat=0.0, n_selected=m,
                          power_iters=0, residual=0.0, converged=True)
    mask = selection_mask(b)
    ens = problem.ensemble

    def op(v):
        return apply_adjoint(ens, mask * apply(ens, v))

    eig = min_eigenvector(op, problem.d, cfg)
    return InitReport(x0=math.sqrt(r2) * eig.w, r_hat=math.sqrt(r2),
                      n_selected=int(mask.sum()), power_iters=eig.iters,
                      residual=eig.residual, converged=eig.converged)
