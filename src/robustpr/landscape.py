"""Closed-form population landscape of robust phase retrieval.

For Gaussian measurements, the population objective

    F(x) = E_a |<a, x>^2 - <a, xbar>^2|

depends on x only through the two extreme eigenvalues (y1, y2) of the
rank-two matrix X = x x^T - xbar xbar^T, via the norm

    zeta(y1, y2) = E |v1 y1 + v2 y2|,   v1, v2 i.i.d. chi-squared(1),

which has the closed form implemented below.  This module provides the
rank-two eigen decomposition, zeta and its partial derivatives, the
population objective and gradient, the critical ring radius c solving
c/(1+c^2) + arctan(c) = pi/4, Monte Carlo cross-checks for all closed forms,
and the dimensionless scores that test whether a candidate point sits near
the stationary set {0, +-xbar} union {x perp xbar, |x| = c |xbar|}.

Stationary points of the subsampled objective concentrate near that set at
rate (d/m)^(1/4); ``certify_stationary`` reports how far a candidate is from
each piece in those units, and ``graph_closeness_audit`` pairs empirical
stationary points with nearby small-gradient points of the population
objective.  The audit evaluates f_S on its planar grids by a sorted sweep per
grid row.  Row i sits at x1[i] with nondecreasing nodes x2[i, :] (a 1-D x2
serves every row), so a refinement round's 10 zooms are one grid of 90 rows.
Along a row each residual changes sign at no more than two roots, so one sort
of the k roots inside the row's node range gives f_S and its subgradient at
every node, at O(m + k log k + n) for a row of n nodes.  The roots before the
range enter one product, and those past it none; on the 9-node zoom rows k is
under 1% of the 2m roots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measure import NoiseModel, corruption, densify, rng_for
from .objective import weak_convexity_probe

NEAR_SIGNAL = "near_signal"
NEAR_ZERO = "near_zero"
NEAR_ORTHOGONAL_RING = "near_orthogonal_ring"
UNEXPLAINED = "unexplained"

# Relative threshold on the orthogonal component below which x is treated as
# collinear with xbar; the rank-two reduction is ill-conditioned past it.
COLLINEAR_TOL = 1e-10

_TAG_MC_POPULATION = 30
_TAG_MC_SPECTRAL = 31
_TAG_MC_CORRUPT_MASK = 32
_TAG_MC_CORRUPT_XI = 33

# rho_hat's weak-convexity probe (triples, seed) and the nodes per side of a ball.
_PROBE_TRIPLES = 100
_PROBE_SEED = 0
_BALL_RESOLUTION = 41


class NonsmoothPointError(Exception):
    """The population objective is not differentiable at the requested point."""


@dataclass(frozen=True)
class RankTwoSpectrum:
    """Extreme eigenpairs of x x^T - xbar xbar^T.

    Eigenvectors are present only for nonzero eigenvalues.  ``collinear``
    marks x parallel to xbar, or so nearly that an eigenvalue rounds to 0
    (at most one nonzero eigenvalue): the kinks of the population objective.
    ``degenerate`` marks x in {+-xbar}, where the matrix vanishes.
    """

    lambda_max: float
    lambda_min: float
    e_max: np.ndarray | None
    e_min: np.ndarray | None
    collinear: bool
    degenerate: bool


@dataclass(frozen=True)
class MCEstimate:
    mean: float
    std_err: float


@dataclass(frozen=True)
class LandscapeCertificate:
    """Dimensionless closeness scores of a candidate stationary point.

    ``block1_score`` vanishes near {0, +-xbar}; the two block2 scores vanish
    on the orthogonal ring.  ``scale`` = (d/m)^(1/4) is the rate at which
    scores of true empirical stationary points shrink; the verdict picks the
    block with the smallest score/scale, or ``unexplained`` when every
    normalized score exceeds the threshold.
    """

    block1_score: float
    block2_ratio_score: float
    block2_angle_score: float
    scale: float
    verdict: str


@dataclass(frozen=True)
class AuditPair:
    """A grid-stationary point of the empirical objective and its population partner."""

    x_s: np.ndarray
    x_p_near: np.ndarray
    subgrad_norm: float
    pop_grad_norm: float
    dist: float
    radius: float


def _rank_two_eig(alpha, nv, nb2):
    """Eigenpairs of X restricted to span(xbar, v), elementwise in its inputs.

    Here x = alpha xbar + v with v perp xbar, nv = |v| and nb2 = |xbar|^2.
    Returns (lambda_1, lambda_d, trace, a, b): (a, b) is the unit eigenvector
    of lambda_1 in the orthonormal pair (xbar/nb, v/nv), (-b, a) that of lambda_d.
    """
    # The restriction is [[(alpha^2 - 1) nb^2, alpha nb nv], [alpha nb nv, nv^2]].
    m00 = (alpha * alpha - 1.0) * nb2
    m01 = alpha * math.sqrt(nb2) * nv
    m11 = nv * nv
    tr = m00 + m11
    disc = np.hypot(m00 - m11, 2.0 * m01)
    lam1 = 0.5 * (tr + disc)
    lamd = 0.5 * (tr - disc)
    # Stable branch: the longer of two candidate eigenvectors; the other can cancel.
    a_first, b_first = m01, lam1 - m00
    a_alt, b_alt = lam1 - m11, m01
    use_alt = np.hypot(a_alt, b_alt) > np.hypot(a_first, b_first)
    a = np.where(use_alt, a_alt, a_first)
    b = np.where(use_alt, b_alt, b_first)
    norm = np.hypot(a, b)
    with np.errstate(invalid="ignore", divide="ignore"):
        a = np.where(norm > 0, a / norm, 1.0)
        b = np.where(norm > 0, b / norm, 0.0)
    return lam1, lamd, tr, a, b


def _kink(nv, nx2, lam1, lamd):
    """x collinear with xbar, or so nearly that an eigenvalue rounds to 0 or past it."""
    return (nv <= COLLINEAR_TOL * np.sqrt(nx2)) | (lam1 <= 0.0) | (lamd >= 0.0)


def _split(x, xbar):
    """x = alpha xbar + v with v perp xbar, for one point: (alpha, v, |v|, |x|^2, |xbar|^2)."""
    x = np.asarray(x, dtype=np.float64)
    xbar = np.asarray(xbar, dtype=np.float64)
    nb2 = float(xbar @ xbar)
    if nb2 == 0.0:
        raise ValueError("xbar must be nonzero")
    alpha = float(x @ xbar) / nb2
    v = x - alpha * xbar
    return alpha, v, float(np.linalg.norm(v)), float(x @ x), nb2


def rank_two_spectrum(x, xbar):
    """Closed-form extreme eigenpairs of X = x x^T - xbar xbar^T.

    Decomposes x = alpha xbar + v with v perp xbar and solves the symmetric
    2x2 eigenproblem on span(xbar, v); when the orthogonal part is
    negligible the single nonzero eigenvalue is |x|^2 - |xbar|^2.
    """
    alpha, v, nv, nx2, nb2 = _split(x, xbar)
    u = np.asarray(xbar, dtype=np.float64) / math.sqrt(nb2)
    if nv <= COLLINEAR_TOL * math.sqrt(nx2):
        # nx2 and nb2 come from the same dot-product path, so x = +-xbar
        # lands on s == 0 exactly
        s = nx2 - nb2
        if s == 0.0:
            return RankTwoSpectrum(0.0, 0.0, None, None, collinear=True, degenerate=True)
        if s > 0.0:
            return RankTwoSpectrum(s, 0.0, u, None, collinear=True, degenerate=False)
        return RankTwoSpectrum(0.0, s, None, u, collinear=True, degenerate=False)

    lam1, lamd, _, a, b = _rank_two_eig(alpha, nv, nb2)
    w = v / nv
    return RankTwoSpectrum(float(lam1), float(lamd),
                           a * u + b * w if lam1 > 0.0 else None,
                           -b * u + a * w if lamd < 0.0 else None,
                           collinear=bool(_kink(nv, nx2, lam1, lamd)), degenerate=False)


def _zeta_interior(y1, y2, t):
    # t = y1 + y2, passed in so callers choose how the trace is rounded
    return (4.0 / math.pi) * (t * np.arctan(np.sqrt(-y1 / y2))
                              + np.sqrt(np.maximum(-y1 * y2, 0.0))) - t


def zeta(y1, y2):
    """E |v1 y1 + v2 y2| for i.i.d. chi-squared(1) weights, y1 >= 0 >= y2.

    Interior closed form:
        (4/pi) [ (y1+y2) arctan(sqrt(-y1/y2)) + sqrt(-y1 y2) ] - (y1+y2),
    with continuous boundary values zeta(y1, 0) = y1 and zeta(0, y2) = -y2.
    """
    if y1 < 0.0 or y2 > 0.0:
        raise ValueError(f"need y1 >= 0 >= y2, got ({y1}, {y2})")
    if y2 == 0.0:
        return float(y1)
    if y1 == 0.0:
        return float(-y2)
    return float(_zeta_interior(y1, y2, y1 + y2))


def _zeta_d1(y1, y2):
    # Simplified from the quotient form; equals the partial of zeta in y1.
    return (4.0 / math.pi) * (np.sqrt(np.maximum(-y1 * y2, 0.0)) / (y1 - y2)
                              + np.arctan(np.sqrt(-y1 / y2))) - 1.0


def zeta_grad(y1, y2):
    """Partial derivatives of zeta on the strict interior y1 > 0 > y2.

    The y2-partial uses the exchange symmetry zeta(y1, y2) = zeta(-y2, -y1)
    of the underlying expectation, so a single formula is the source of
    truth.  Boundary points are kinks: requesting them raises
    NonsmoothPointError.
    """
    if y1 <= 0.0 or y2 >= 0.0:
        raise NonsmoothPointError(f"zeta is not differentiable at ({y1}, {y2})")
    return float(_zeta_d1(y1, y2)), float(-_zeta_d1(-y2, -y1))


def _population_kernel(alpha, nv, nx2, nb2):
    """F and its gradient at x = alpha xbar + v (v perp xbar, nv = |v|), elementwise.

    Returns (kink, F, g1, gd, a, b).  At a ``_kink`` point F =
    | |x|^2 - |xbar|^2 | and no gradient exists.  Elsewhere grad F =
    g1 e_max + gd e_min, where x = (xc, nv), e_max = (a, b) and e_min = (-b, a)
    in the orthonormal basis (xbar/|xbar|, v/nv).
    """
    lam1, lamd, tr, a, b = _rank_two_eig(alpha, nv, nb2)
    kink = _kink(nv, nx2, lam1, lamd)
    with np.errstate(invalid="ignore", divide="ignore"):
        f = np.where(kink, np.abs(nx2 - nb2), _zeta_interior(lam1, lamd, tr))
        xc = alpha * math.sqrt(nb2)
        # the chain rule of population_gradient in these coordinates
        g1 = 2.0 * _zeta_d1(lam1, lamd) * (a * xc + b * nv)
        gd = 2.0 * -_zeta_d1(-lamd, -lam1) * (-b * xc + a * nv)
    return kink, f, g1, gd, a, b


def population_value(x, xbar):
    """Population objective E |<a,x>^2 - <a,xbar>^2| via the rank-two spectrum."""
    alpha, _, nv, nx2, nb2 = _split(x, xbar)
    return float(_population_kernel(alpha, nv, nx2, nb2)[1])


def population_gradient(x, xbar):
    """Gradient of the population objective where it is differentiable.

    Chain rule through the simple extreme eigenvalues:

        grad = 2 [d1 <e_max, x> e_max + d2 <e_min, x> e_min],

    the factor 2 coming from the differential of x -> x x^T.  At x = 0 the
    gradient is the zero vector; all other collinear points (including
    +-xbar) are kinks and raise NonsmoothPointError.
    """
    alpha, v, nv, nx2, nb2 = _split(x, xbar)
    if nx2 == 0.0:
        return np.zeros(v.shape[0])
    kink, _, g1, gd, a, b = _population_kernel(alpha, nv, nx2, nb2)
    if kink:
        raise NonsmoothPointError("population objective is nonsmooth at collinear points")
    u = np.asarray(xbar, dtype=np.float64) / math.sqrt(nb2)
    return (g1 * a - gd * b) * u + (g1 * b + gd * a) * (v / nv)


def omega(c):
    """Left side c/(1+c^2) + arctan(c) of the ring-radius equation."""
    return c / (1.0 + c * c) + math.atan(c)


def _bisect_omega(target, hi=2.0):
    # omega is strictly increasing on [0, inf) with omega(0) = 0 < target, so
    # plain bisection from 0 is unconditionally convergent and reproducible.
    lo = 0.0
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if omega(mid) - target <= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# The ring radius c, solved once.
_C = _bisect_omega(math.pi / 4.0, hi=1.0)


def critical_ratio():
    """Radius of the extraneous stationary ring, relative to |xbar|.

    The unique root c (about 0.4416) of c/(1+c^2) + arctan(c) = pi/4; points
    x perp xbar with |x| = c |xbar| are exactly the stationary points of the
    population objective outside {0, +-xbar}.
    """
    return _C


def ratio_band(eps):
    """Ring radii (c1, c2) bracketing where |d1| <= eps along rays y1 = c^2 (-y2).

    Solves omega(c1) = (pi/4)(1 - eps) and omega(c2) = (pi/4)(1 + eps); the
    band width obeys c2 - c1 <= 5 pi eps for eps < 1/2.
    """
    if not 0.0 <= eps < 0.5:
        raise ValueError(f"eps must lie in [0, 1/2), got {eps}")
    c1 = _bisect_omega(math.pi / 4.0 * (1.0 - eps))
    c2 = _bisect_omega(math.pi / 4.0 * (1.0 + eps))
    return c1, c2


def _stationary_geometry(x, xbar):
    """alpha, |xbar|, and the distances from x to 0, xbar, -xbar and the ring.

    alpha is x's coefficient along xbar.  The signal distances are taken from
    x -+ xbar directly: forming them from the split loses accuracy next to +-xbar.
    """
    alpha, _, nv, nx2, nb2 = _split(x, xbar)
    x = np.asarray(x, dtype=np.float64)
    xbar = np.asarray(xbar, dtype=np.float64)
    nb = math.sqrt(nb2)
    return (alpha, nb, math.sqrt(nx2), float(np.linalg.norm(x - xbar)),
            float(np.linalg.norm(x + xbar)), math.hypot(alpha * nb, nv - _C * nb))


def stationary_set_distance(x, xbar):
    """Distance from x to {0} U {+-xbar} U {x perp xbar : |x| = c |xbar|}."""
    return min(_stationary_geometry(x, xbar)[2:])


def _mc_mean(samples):
    n = samples.shape[0]
    se = float(samples.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return MCEstimate(mean=float(samples.mean()), std_err=se)


def mc_population_value(x, xbar, n, seed):
    """Monte Carlo estimate of E_a |<a,x>^2 - <a,xbar>^2| over Gaussian a."""
    if n < 1:
        raise ValueError("n must be positive")
    x = np.asarray(x, dtype=np.float64)
    xbar = np.asarray(xbar, dtype=np.float64)
    rng = rng_for(seed, _TAG_MC_POPULATION)
    a = rng.standard_normal((int(n), x.shape[0]))
    return _mc_mean(np.abs((a @ x) ** 2 - (a @ xbar) ** 2))


def _chi2_pair(n, seed):
    rng = rng_for(seed, _TAG_MC_SPECTRAL)
    v1 = rng.standard_normal(int(n)) ** 2
    v2 = rng.standard_normal(int(n)) ** 2
    return v1, v2


def mc_spectral_value(lambda1, lambda_d, n, seed):
    """Monte Carlo estimate of E |v1 lambda1 + v2 lambda_d|, v_i chi-squared(1)."""
    if n < 1:
        raise ValueError("n must be positive")
    v1, v2 = _chi2_pair(n, seed)
    return _mc_mean(np.abs(v1 * lambda1 + v2 * lambda_d))


def mc_corrupted_population_value(x, xbar, p_fail, scale, n, seed, kind="gaussian"):
    """Monte Carlo value of the population objective under sparse corruption.

    Samples |v1 l1 + v2 ld - delta xi| with (l1, ld) the rank-two eigenvalues,
    delta Bernoulli(p_fail), and xi drawn at the given scale.  The chi-squared
    pair uses the same stream as ``mc_spectral_value``, so p_fail = 0
    reproduces that estimate exactly.
    """
    noise = NoiseModel(p_fail=p_fail, scale=scale, seed=seed, kind=kind)
    if n < 1:
        raise ValueError("n must be positive")
    spec = rank_two_spectrum(x, xbar)
    v1, v2 = _chi2_pair(n, seed)
    core = v1 * spec.lambda_max + v2 * spec.lambda_min
    errors = corruption(noise, int(n), rng_for(seed, _TAG_MC_CORRUPT_MASK),
                        rng_for(seed, _TAG_MC_CORRUPT_XI))
    return _mc_mean(np.abs(core - errors))


def certify_stationary(x, xbar, d, m, threshold=10.0):
    """Score a candidate point against the stationary-set geometry.

    Stationary points of the subsampled objective satisfy (up to constants)

        block1_score <= (d/m)^(1/4)      near {0, +-xbar}, or
        both block2 scores <= (d/m)^(1/4)  near the orthogonal ring,

    so each score is reported in units of scale = (d/m)^(1/4).  The verdict
    picks the better-explained block (block1 splits into near_zero /
    near_signal by which point is closer); it is ``unexplained`` when every
    normalized score exceeds ``threshold``, which must be >= 0 (a NaN would
    turn that verdict off).  The constants hidden in the bound are not
    quantified, so treat scores as evidence, not a test.
    ``d`` must be the dimension of ``x``: the scale, and so the verdict,
    depends on it.
    """
    if d != len(x):
        raise ValueError(f"d = {d} does not match the candidate's dimension {len(x)}")
    if m < 1:
        raise ValueError("m must be positive")
    if not threshold >= 0.0:
        raise ValueError(f"threshold must be at least 0, got {threshold}")
    scale = (d / m) ** 0.25
    with np.errstate(over="ignore", invalid="ignore"):
        # overflow for absurd candidates surfaces as inf or NaN scores (inf
        # alpha times a zero entry of xbar); callers that serialize
        # certificates treat that as a numerical failure
        alpha, nb, nx, dminus, dplus, _ = _stationary_geometry(x, xbar)
    # scale each factor by |xbar| on its own: |xbar|^3 can leave the float range
    block1 = (nx / nb) * (dminus / nb) * (dplus / nb)
    if nx == 0.0:
        return LandscapeCertificate(block1_score=block1, block2_ratio_score=math.inf,
                                    block2_angle_score=math.inf, scale=scale,
                                    verdict=NEAR_ZERO)
    ratio = abs(nx / nb - _C) / (1.0 + nb / nx)
    angle = abs(alpha)
    n1 = block1 / scale
    n2 = max(ratio, angle) / scale
    if min(n1, n2) > threshold:
        verdict = UNEXPLAINED
    elif n1 <= n2:
        verdict = NEAR_ZERO if nx < min(dminus, dplus) else NEAR_SIGNAL
    else:
        verdict = NEAR_ORTHOGONAL_RING
    return LandscapeCertificate(block1_score=block1, block2_ratio_score=ratio,
                                block2_angle_score=angle, scale=scale, verdict=verdict)


# ---------------------------------------------------------------------------
# Vectorized planar evaluation (grids in d = 2)
# ---------------------------------------------------------------------------

def population_grid(xbar, x1, x2):
    """Population value and gradient norm on a planar grid (vectorized).

    ``x1`` and ``x2`` are broadcastable coordinate arrays; returns (F, G) of
    the same shape.  G is NaN at nonsmooth collinear cells, 0 at the origin
    and at cells that coincide with the minimizers +-xbar (where 0 is a
    subgradient), and the smooth-gradient norm elsewhere.  Matches the
    pointwise ``population_value`` / ``population_gradient`` on smooth cells.
    """
    xbar = np.asarray(xbar, dtype=np.float64)
    if xbar.shape != (2,):
        raise ValueError("population_grid expects a planar signal")
    if not np.all(np.isfinite(xbar)):
        raise ValueError(f"xbar must be finite, got {xbar.tolist()}")
    nb2 = float(xbar @ xbar)
    if nb2 == 0.0:
        raise ValueError("xbar must be nonzero")
    nb = math.sqrt(nb2)
    x1 = np.asarray(x1, dtype=np.float64)
    x2 = np.asarray(x2, dtype=np.float64)

    alpha = (x1 * xbar[0] + x2 * xbar[1]) / nb2
    nv = np.hypot(x1 - alpha * xbar[0], x2 - alpha * xbar[1])
    nx = np.hypot(x1, x2)
    kink, f, g1, gd, _, _ = _population_kernel(alpha, nv, nx * nx, nb2)
    # G is 0 at the origin and at the exact minimizers, where 0 is a
    # subgradient; elsewhere the hypot of the orthonormal eigenbasis coefficients.
    zero = (nx == 0.0) | (kink & (np.abs(nx - nb) <= 1e-9 * nb))
    return f, np.where(zero, 0.0, np.where(kink, np.nan, np.hypot(g1, gd)))


def grid_local_minima(values, max_value=math.inf):
    """Indices (i, j) of interior cells no larger than all 8 neighbors.

    NaN cells are treated as +inf (they never qualify and never block a
    neighbor).  Cells on the border are not eligible.  Adjacent cells with
    exactly equal values are reported once.
    """
    g = np.where(np.isfinite(values), values, math.inf)
    rows, cols = g.shape
    inner = g[1:-1, 1:-1]
    window_min = inner
    for di, dj in np.ndindex(3, 3):
        window_min = np.minimum(window_min, g[di:rows - 2 + di, dj:cols - 2 + dj])
    minima = (inner <= window_min) & np.isfinite(inner) & ~(inner > max_value)
    # Adjacent minima are equal (each is <= the other).  One next to a reported
    # minimum is skipped; in row-major order only 4 neighbours precede a cell.
    reported = set()
    for i, j in (np.argwhere(minima) + 1).tolist():
        if not any((i + di, j + dj) in reported
                   for di, dj in ((-1, -1), (-1, 0), (-1, 1), (0, -1))):
            reported.add((i, j))
    return sorted(reported)


def _planar_sweep(problem, x1, x2):
    """f_S and its subgradient at the nodes (x1[i], x2[i, j]), shapes (n1, n2) and (n1, n2, 2).

    Row i of the grid sits at x1[i] and its nodes are x2[i, :], each row's
    nondecreasing; a 1-D ``x2`` gives every row the same nodes.  Along a row
    x = (x1[i], t) the residual (a_i1 x1 + a_i2 t)^2 - b_i changes sign only
    at its roots t = (-a_i1 x1 +- sqrt(b_i)) / a_i2.  For a fixed sign
    pattern s, f_S(x) = x^T M_s x - beta_s and zeta = 2 M_s x with
    M_s = (1/m) sum s_i a_i a_i^T and beta_s = (1/m) sum s_i b_i.  So each row
    takes running sums of the sign steps of a_i1^2, a_i1 a_i2, a_i2^2 and b_i
    in root order and reads them at every node of the row.  A root below the
    row's first node steps every node alike and is folded into the row's
    start in one product, and a root above its last node steps none, so only
    the roots in the row's node range are sorted: O(m + k log k + n2) per row
    for k such roots, in place of n2 m residuals.  A measurement with
    a_i2 = 0 or b_i < 0 keeps one sign along the row.
    """
    a = problem.ensemble.rows
    if a is None:
        a = densify(problem.ensemble)
    b = problem.b
    x1 = np.asarray(x1, dtype=np.float64)
    x2 = np.asarray(x2, dtype=np.float64)
    x2 = np.broadcast_to(x2, (x1.shape[0], x2.shape[-1]))
    weights = np.column_stack([a[:, 0] * a[:, 0], a[:, 0] * a[:, 1], a[:, 1] * a[:, 1], b])
    swept = (a[:, 1] != 0.0) & (b >= 0.0)
    a1_s, a2_s, root_b = a[swept, 0], a[swept, 1], np.sqrt(b[swept])
    a1_k, b_k, weights_k = a[~swept, 0], b[~swept], weights[~swept]
    # Below its lower root a swept residual is positive; its sign steps by -2
    # there and by +2 at the upper root.
    weights_s = np.compress(swept, weights, axis=0)
    start = weights_s.sum(axis=0)
    steps = np.concatenate([-2.0 * weights_s, 2.0 * weights_s])
    cuts = np.zeros(2 * x2.shape[1] + 1, dtype=np.intp)
    sums = np.empty(x2.shape + (4,))
    for i, (row, nodes) in enumerate(zip(x1, x2)):
        u = a1_s * row
        r1 = (-u - root_b) / a2_s
        r2 = (-u + root_b) / a2_s
        roots = np.concatenate([np.minimum(r1, r2), np.maximum(r1, r2)])
        # A root below nodes[0] adds its full step at every node; one on
        # nodes[0] or nodes[-1] counts half its step at that node, so it is sorted.
        below = roots < nodes[0]
        inside = np.flatnonzero(~below & (roots <= nodes[-1]))
        order = inside[np.argsort(roots[inside])]
        roots = roots[order]
        # The steps in root order, and a zero row that every cut can index.
        ordered = np.zeros((order.shape[0] + 1, 4))
        np.take(steps, order, axis=0, out=ordered[:-1])
        # The counts of roots below and up to each node; a root on a node
        # takes half its step there, the residual's sign(0) = 0.
        cuts[1::2] = np.searchsorted(roots, nodes, side="left")
        cuts[2::2] = np.searchsorted(roots, nodes, side="right")
        # Running sums at the cuts from the stretches between them; reduceat
        # reads an empty stretch as its first row, which must count 0.
        stretch = np.add.reduceat(ordered, cuts, axis=0)[:-1]
        stretch[cuts[:-1] == cuts[1:]] = 0.0
        running = np.cumsum(stretch, axis=0)
        u_k = a1_k * row
        sums[i] = (start + below @ steps + np.sign(u_k * u_k - b_k) @ weights_k
                   + 0.5 * (running[0::2] + running[1::2]))
    s11, s12, s22, s_b = np.moveaxis(sums, -1, 0) / problem.m
    p1 = x1[:, None]
    z1 = s11 * p1 + s12 * x2
    z2 = s12 * p1 + s22 * x2
    return p1 * z1 + x2 * z2 - s_b, 2.0 * np.stack([z1, z2], axis=-1)


def _deviation_ratio(xbar, x1, x2, f_emp):
    """|f_S - F| / (|x-xbar| |x+xbar|) at the nodes (x1[i], x2[i, j]), 0 where that product vanishes."""
    p1 = x1[:, None]
    f_pop, _ = population_grid(xbar, p1, x2)
    denom = (np.sqrt((p1 - xbar[0]) ** 2 + (x2 - xbar[1]) ** 2)
             * np.sqrt((p1 + xbar[0]) ** 2 + (x2 + xbar[1]) ** 2))
    ok = denom > 1e-12 * float(xbar @ xbar)
    return np.where(ok, np.abs(f_emp - f_pop) / np.where(ok, denom, 1.0), 0.0)


def _deviation_ratio_max(problem, axis, f_emp):
    """Estimate sup |f_S - F| / (|x-xbar| |x+xbar|) over the square grid axis x axis.

    A plain grid max has a negative bias for a sup, so the top cells are
    refined with two rounds of local sub-grids.  A round zooms on the 10 top
    nodes of the grid before it with a 9 x 9 sub-grid each, the first spanning
    +-1 cell and the second a quarter of that; its 90 rows are swept at once.
    """
    xbar = problem.truth
    x1, x2 = axis, axis
    ratio = _deviation_ratio(xbar, x1, x2, f_emp)
    best = float(ratio.max())
    span = float(axis[1] - axis[0])
    for _ in range(2):
        i, j = np.unravel_index(np.argsort(ratio, axis=None)[-10:], ratio.shape)
        c1, c2 = x1[i], np.broadcast_to(x2, ratio.shape)[i, j]
        offs = np.linspace(-span, span, 9)
        # Row r of the round is row r % 9 of the zoom on node r // 9.
        x1 = (c1[:, None] + offs).ravel()
        x2 = np.repeat(c2[:, None] + offs, 9, axis=0)
        ratio = _deviation_ratio(xbar, x1, x2, _planar_sweep(problem, x1, x2)[0])
        best = max(best, float(ratio.max()))
        span /= 4.0
    return best


def graph_closeness_audit(problem, grid_half_width, grid_n, *, max_subgrad_norm=math.inf):
    """Pair grid-stationary points of f_S with nearby near-critical points of F.

    Scans a planar grid of half-width ``grid_half_width`` around the origin,
    finds interior local minima of the empirical subgradient norm (optionally
    only those below ``max_subgrad_norm``), then searches a ball around each
    for the point minimizing the population gradient norm.  The ball radius

        sqrt(4 dhat / (rho_hat + 2 dhat)) * sqrt(|x - xbar| |x + xbar|)

    uses dhat, the largest observed ratio |f_S - F| / (|x-xbar| |x+xbar|)
    over the grid, and rho_hat from the weak-convexity probe; both are
    empirical stand-ins for the uniform constants in the comparison bound, so
    the output is an audit, not a proof.  f_S and its subgradient come from a
    sorted sweep per grid row (``_planar_sweep``), called once on the main
    grid and once on each of the two rounds of zooms that refine dhat, so the
    grid costs at most O(n m log m + n^2) for n = ``grid_n``, not n^2 m residuals.

    Besides the smooth ball sub-grid, the exact stationary set of F (the
    origin, the minimizers +-xbar, and the two ring points) competes as
    candidate partners with subdifferential distance 0: the kinks at +-xbar
    carry a zero subgradient that no smooth-gradient sample can see.
    """
    if problem.d != 2:
        raise ValueError("graph closeness audit is restricted to planar problems")
    if problem.truth is None:
        raise ValueError("audit requires a problem with a known signal")
    if grid_n < 3:
        raise ValueError("grid_n must be at least 3")
    xbar = problem.truth
    axis = np.linspace(-grid_half_width, grid_half_width, grid_n)
    f_emp, zeta = _planar_sweep(problem, axis, axis)
    sub_norm = np.hypot(zeta[..., 0], zeta[..., 1])
    dhat = _deviation_ratio_max(problem, axis, f_emp)
    rho_hat = weak_convexity_probe(problem, _PROBE_TRIPLES, 1.0, _PROBE_SEED).rho_hat
    shrink = math.sqrt(4.0 * dhat / (rho_hat + 2.0 * dhat)) if dhat > 0 else 0.0

    nb = float(np.linalg.norm(xbar))
    perp = np.array([-xbar[1], xbar[0]]) / nb
    exact_stationary = [np.zeros(2), np.array(xbar), -np.array(xbar),
                        _C * nb * perp, -_C * nb * perp]

    pairs = []
    for i, j in grid_local_minima(sub_norm, max_value=max_subgrad_norm):
        x_s = np.array([axis[i], axis[j]])
        radius = shrink * math.sqrt(np.linalg.norm(x_s - xbar)
                                    * np.linalg.norm(x_s + xbar))
        # At radius 0 every ball node is x_s itself.
        loc = np.linspace(-radius, radius, _BALL_RESOLUTION)
        l1, l2 = x_s[0] + loc, x_s[1] + loc
        _, gnorm = population_grid(xbar, l1[:, None], l2)
        inside = np.hypot(l1[:, None] - x_s[0], l2 - x_s[1]) <= radius
        gnorm = np.where(inside & np.isfinite(gnorm), gnorm, np.nan)
        best_x, best_g = None, math.inf
        if not np.isnan(gnorm).all():
            bi, bj = np.unravel_index(np.nanargmin(gnorm), gnorm.shape)
            best_x = np.array([l1[bi], l2[bj]])
            best_g = float(gnorm[bi, bj])
        for point in exact_stationary:
            if np.linalg.norm(point - x_s) <= radius and best_g > 0.0:
                best_x, best_g = point, 0.0
        if best_x is None:
            continue
        pairs.append(AuditPair(
            x_s=x_s, x_p_near=best_x,
            subgrad_norm=float(sub_norm[i, j]),
            pop_grad_norm=best_g,
            dist=float(np.linalg.norm(best_x - x_s)),
            radius=radius,
        ))
    return pairs
