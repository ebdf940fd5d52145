"""Measurement ensembles for real phase retrieval.

An ensemble holds one array, from which it reads its kind and sizes.  Two
kinds are supported:

* dense Gaussian: an explicit m x d matrix with i.i.d. standard normal rows,
  stored column-major by ``gaussian_ensemble`` so that the forward product
  A x and the adjoint A^T y run at about the same speed (a caller's
  row-major matrix is used as given),
* Hadamard-sign sketch: k blocks H S_j, where H is the symmetric normalized
  (1/sqrt(l)-scaled Sylvester) Hadamard matrix and S_j are random +-1
  diagonals.  The sketch is never materialized; forward and adjoint products
  run through a blocked fast Walsh-Hadamard transform: ceil(log_16(l))
  passes of small dense matmuls with the Sylvester H_16, O(16 l log_16 l)
  flops.  The 1/sqrt(l) scale lives in the first pass's matrix (its
  power-of-two part) and, when log2(l) is odd, in one in-place division by
  sqrt(2); it allocates nothing and changes no bit.

All randomness flows through counter-based Philox generators keyed by
``SeedSequence([seed, tag])``, so every constructor and sampler is a pure
function of its arguments.  Ensembles are immutable after construction (the
backing arrays are marked read-only) and safe to share across threads.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

DENSE_GAUSSIAN = "dense_gaussian"
HADAMARD_SKETCH = "hadamard_sketch"

# Default cap on dense ensemble storage: refuse to allocate, don't thrash.
DENSE_BUDGET_BYTES = 2 * 1024**3

# Bytes of rows drawn per block while filling a column-major dense ensemble.
_FILL_BYTES = 256 * 1024

# Stream tags keep draws for different purposes out of each other's way.
_TAG_ROWS = 0
_TAG_SIGNS = 1
_TAG_NOISE_MASK = 2
_TAG_NOISE_VALUES = 3


class CapacityError(Exception):
    """Requested dense ensemble exceeds the configured memory budget."""


def rng_for(seed, tag):
    """Counter-based generator for stream ``tag`` of experiment ``seed``."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([int(seed), int(tag)])))


def check_sizes(d=None, m=None, l=None, k=None, max_bytes=DENSE_BUDGET_BYTES):
    """Refuse a bad ensemble size by its name; a size given as None is not checked.

    Dense rows need d, m >= 1 and their 8 m d bytes within ``max_bytes``; a
    sketch needs a power-of-two length l and k >= 1 blocks.
    """
    for name, n in (("d", d), ("m", m), ("k", k)):
        if n is not None and n < 1:
            raise ValueError(f"{name} must be positive, got {n}")
    if l is not None and (l < 1 or l & (l - 1)):
        raise ValueError(f"sketch length l must be a power of two, got {l}")
    if d is not None and m is not None and 8 * int(m) * int(d) > max_bytes:
        raise CapacityError(f"dense {m}x{d} rows need {8 * int(m) * int(d)} bytes > {max_bytes}")


@dataclass(frozen=True)
class MeasurementEnsemble:
    """Rows a_i of the measurement map, dense or implicit.

    Exactly one nonempty array is given.  ``rows``, an m x d matrix, makes a
    ``DENSE_GAUSSIAN`` ensemble; ``sign_diagonals``, the k +-1 diagonals as
    a (k, l) array with l a power of two, makes a ``HADAMARD_SKETCH`` with
    d = l and m = k * l.  ``kind``, ``d`` and ``m`` are read from that array
    once, here.
    """

    rows: np.ndarray | None = None
    sign_diagonals: np.ndarray | None = None
    kind: str = field(init=False)
    d: int = field(init=False)
    m: int = field(init=False)

    def __post_init__(self):
        if (self.rows is None) == (self.sign_diagonals is None):
            raise ValueError("give exactly one of rows and sign_diagonals")
        array = self.rows if self.sign_diagonals is None else self.sign_diagonals
        if array.ndim != 2:
            raise ValueError(f"expected a nonempty 2-D array, got shape {array.shape}")
        if self.sign_diagonals is None:
            kind, (m, d) = DENSE_GAUSSIAN, array.shape
            check_sizes(d=d, m=m, max_bytes=math.inf)
        else:
            k, d = array.shape
            kind, m = HADAMARD_SKETCH, k * d
            check_sizes(l=d, k=k)
        array.setflags(write=False)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "m", m)


@dataclass(frozen=True)
class NoiseModel:
    """Sparse gross corruption of the measurements.

    Each entry is corrupted independently with probability ``p_fail``; the
    additive error is drawn from the distribution named by ``kind`` at scale
    ``scale`` ("gaussian": centered normal with that standard deviation,
    "uniform": uniform on [-scale, scale]).  Corrupted entries may go
    negative; they are deliberately not clamped.
    """

    p_fail: float
    scale: float
    seed: int
    kind: str = "gaussian"

    def __post_init__(self):
        if not 0.0 <= self.p_fail < 1.0:
            raise ValueError(f"p_fail must lie in [0, 1), got {self.p_fail}")
        if not math.isfinite(self.scale):
            raise ValueError(f"noise scale must be finite, got {self.scale}")
        if self.scale < 0.0:
            raise ValueError(f"noise scale must be nonnegative, got {self.scale}")
        if self.kind not in ("gaussian", "uniform"):
            raise ValueError(f"unknown noise kind {self.kind!r}")


@dataclass(frozen=True)
class PhaseProblem:
    """Measurement operator, squared-magnitude measurements b, and metadata.

    ``b`` must have shape (m,) and ``truth``, when given, shape (d,): an array
    of any other shape would broadcast silently in the objective and the
    distance reports.
    """

    ensemble: MeasurementEnsemble
    b: np.ndarray
    truth: np.ndarray | None = None
    noise: NoiseModel | None = None

    def __post_init__(self):
        self.b.setflags(write=False)
        if self.truth is not None:
            self.truth.setflags(write=False)
        if self.b.shape != (self.ensemble.m,):
            raise ValueError(f"b has shape {self.b.shape}, expected (m,) = ({self.ensemble.m},)")
        if self.truth is not None and self.truth.shape != (self.ensemble.d,):
            raise ValueError(
                f"truth has shape {self.truth.shape}, expected (d,) = ({self.ensemble.d},)"
            )

    @property
    def d(self):
        return self.ensemble.d

    @property
    def m(self):
        return self.ensemble.m

    @property
    def noiseless(self):
        return self.noise is None or self.noise.p_fail == 0.0


def gaussian_ensemble(d, m, seed, max_bytes=DENSE_BUDGET_BYTES):
    """Dense ensemble with i.i.d. N(0,1) entries, deterministic in (d, m, seed).

    The entries are those of ``rng_for(seed, 0).standard_normal((m, d))``, bit
    for bit, but the m x d rows are stored column-major (Fortran order).  On
    a row-major matrix the adjoint rows.T @ y is the slow gemv direction: at
    d = 400, m = 1480 on 2 OpenBLAS threads (2-core x86, medians of 10
    interleaved rounds) it took 171 us against 91 us for the forward product,
    and 86 against 100 us column-major.  The rows are
    drawn in row blocks of about ``_FILL_BYTES`` through one small buffer, so
    no second m x d array is made.
    """
    check_sizes(d=d, m=m, max_bytes=max_bytes)
    rng = rng_for(seed, _TAG_ROWS)
    rows = np.empty((d, m)).T
    buf = np.empty((min(m, max(1, _FILL_BYTES // (8 * d))), d))
    for start in range(0, m, len(buf)):
        block = buf[:m - start]
        rng.standard_normal(out=block)
        rows[start:start + len(block)] = block
    return MeasurementEnsemble(rows=rows)


def hadamard_ensemble(l, k, seed):
    """Sketch [H S_1 ... H S_k]^T with k i.i.d. uniform +-1 diagonals of length l."""
    check_sizes(l=l, k=k)
    signs = 2.0 * rng_for(seed, _TAG_SIGNS).integers(0, 2, size=(k, l)).astype(np.float64) - 1.0
    return MeasurementEnsemble(sign_diagonals=signs)


# Radix of the blocked transform and the unnormalized Sylvester H_16, the
# Kronecker power of [[1, 1], [1, -1]].  Its leading r x r block is H_r for
# every power of two r <= 16, so one matrix serves every pass.  A pass of
# radix r costs 2r flops per element, so radix 16 does 8 log2(l) flops per
# element against radix 64's 21 log2(l), in 1.5 times the passes.  On a
# 3 x l block (2-core x86, OpenBLAS, 1 thread, median of 21 alternating
# rounds, both with the scale folded into the first pass) it took 34 us
# against 59 at l = 4096 and 2.2 ms against 2.7 at l = 65536.
_RADIX = 16
_H_RADIX = functools.reduce(np.kron, [np.array([[1.0, 1.0], [1.0, -1.0]])] * 4)
_H_RADIX.setflags(write=False)


@functools.lru_cache(maxsize=None)
def _passes(l):
    """The passes of the transform of length l > 1; read-only, cached per length.

    Returns the first pass's H_r, scaled by 2^-floor(log2(l) / 2), the
    (H_r, (-1, r, s)) view of every later pass, and whether log2(l) is odd.
    """
    e = l.bit_length() - 1
    scaled = _H_RADIX * 2.0**-(e // 2)
    scaled.setflags(write=False)
    r = min(_RADIX, l)
    first, s, rest = scaled[:r, :r], r, []
    while s < l:
        r = min(_RADIX, l // s)
        rest.append((_H_RADIX[:r, :r], (-1, r, s)))
        s *= r
    return first, tuple(rest), bool(e % 2)


def _fwht_last_axis(a):
    """Normalized Walsh-Hadamard transform along the last axis, in blocked passes.

    H_l is a Kronecker product of Sylvester factors of at most 16 rows.  A
    pass views the axis as (l / (r s), r, s) and applies H_r to its middle
    axis as one matmul; s grows by r per pass, with r = 16 while l / s >= 16
    and then one remainder pass with r = l / s.  The passes of a length are
    worked out once (``_passes``).

    The 1/sqrt(l) scale allocates nothing and, at an even e = log2(l), makes
    no sweep of its own: the first pass's H_r carries 2^-floor(e/2), and
    only an odd e leaves a division by sqrt(2), in place on the last pass's
    result.  Scaling by a power of two is exact and commutes with rounding,
    and fl(sqrt(2^(2a+1))) = 2^a fl(sqrt(2)), so every output is bit for bit
    the passes followed by / sqrt(l), unless an intermediate is subnormal.
    The result is always a new array, also at l = 1, where no pass runs.
    """
    l = a.shape[-1]
    if l == 1:
        return np.array(a, dtype=np.float64)
    first, rest, odd = _passes(l)
    # H is symmetric, so the first pass is one gemm over all rows.
    out = np.asarray(a, dtype=np.float64).reshape(-1, len(first)) @ first
    for h, shape in rest:
        out = np.matmul(h, out.reshape(shape))
    if odd:
        out /= math.sqrt(2.0)
    return out.reshape(a.shape)


def fwht(v):
    """Apply the symmetric normalized Hadamard matrix to a vector.

    The matrix is the Sylvester construction scaled by 1/sqrt(l); it is its
    own inverse and adjoint.  Runs in O(l log l).
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected a vector, got shape {v.shape}")
    check_sizes(l=v.shape[0])
    return _fwht_last_axis(v)


def apply(ensemble, x):
    """Forward product A x, the inner products <a_i, x>; an (N, d) block of points gives (N, m)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim > 2 or x.shape[-1:] != (ensemble.d,):
        raise ValueError(f"x has shape {x.shape}, expected ({ensemble.d},) or (N, {ensemble.d})")
    if ensemble.kind == DENSE_GAUSSIAN:
        # For a single point this is rows @ x, the same arithmetic as a gemv.
        return (ensemble.rows @ x.T).T
    # Block j of the sketch output is H (S_j x).
    out = _fwht_last_axis(ensemble.sign_diagonals * x[..., None, :])
    return out.reshape(*x.shape[:-1], ensemble.m)


def apply_adjoint(ensemble, y):
    """Adjoint product A^T y; an (N, m) block gives (N, d)."""
    y = np.asarray(y, dtype=np.float64)
    if y.ndim > 2 or y.shape[-1:] != (ensemble.m,):
        raise ValueError(f"y has shape {y.shape}, expected ({ensemble.m},) or (N, {ensemble.m})")
    if ensemble.kind == DENSE_GAUSSIAN:
        return (ensemble.rows.T @ y.T).T
    # (H S_j)^T = S_j H, so accumulate S_j (H y_j) over blocks.
    k = ensemble.sign_diagonals.shape[0]
    blocks = _fwht_last_axis(y.reshape(*y.shape[:-1], k, ensemble.d))
    return np.einsum("kl,...kl->...l", ensemble.sign_diagonals, blocks)


def squared_frobenius_norm(ensemble):
    """|A|_F^2, the sum of the squared row norms: m for a sketch, whose blocks H S_j are orthogonal."""
    if ensemble.kind == DENSE_GAUSSIAN:
        # Summed in storage order: np.vdot would copy column-major rows.
        flat = ensemble.rows.ravel(order="K")
        return float(np.dot(flat, flat))
    return float(ensemble.m)


def densify(ensemble):
    """Materialize the rows of any ensemble as an m x d array (small sizes only)."""
    return np.array(apply(ensemble, np.eye(ensemble.d)).T, order="C")


def corruption(noise, n, mask_rng, value_rng):
    """Additive errors mask * xi of n entries; all zero, drawing no xi, if the mask is empty."""
    mask = mask_rng.random(n) < noise.p_fail
    if not mask.any():
        return np.zeros(n)
    # a standard variate times the scale, so no scale makes the draw overflow
    if noise.kind == "gaussian":
        xi = value_rng.standard_normal(n)
    else:
        xi = value_rng.uniform(-1.0, 1.0, size=n)
    return mask * (noise.scale * xi)


def measure(ensemble, xbar, noise=None):
    """Generate the phase retrieval problem with b_i = <a_i, xbar>^2.

    When ``noise`` is given, each entry is independently corrupted with
    probability ``noise.p_fail`` by an additive error drawn at scale
    ``noise.scale``; the Bernoulli mask and error values use separate seeded
    streams, so ``p_fail == 0`` reproduces the noiseless b exactly.
    """
    xbar = np.asarray(xbar, dtype=np.float64)
    if xbar.shape != (ensemble.d,):
        raise ValueError(f"xbar has shape {xbar.shape}, expected ({ensemble.d},)")
    b = apply(ensemble, xbar) ** 2
    if noise is not None:
        b = b + corruption(noise, ensemble.m, rng_for(noise.seed, _TAG_NOISE_MASK),
                           rng_for(noise.seed, _TAG_NOISE_VALUES))
    return PhaseProblem(ensemble=ensemble, b=b, truth=xbar.copy(), noise=noise)
