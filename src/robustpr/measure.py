"""Measurement ensembles for real phase retrieval.

Two ensemble kinds are supported:

* dense Gaussian: an explicit m x d matrix with i.i.d. standard normal rows,
* Hadamard-sign sketch: k blocks H S_j, where H is the symmetric normalized
  (1/sqrt(l)-scaled Sylvester) Hadamard matrix and S_j are random +-1
  diagonals.  The sketch is never materialized; forward and adjoint products
  run through the fast Walsh-Hadamard transform in O(l log l).

All randomness flows through counter-based Philox generators keyed by
``SeedSequence([seed, tag])``, so every constructor and sampler is a pure
function of its arguments.  Ensembles are immutable after construction (the
backing arrays are marked read-only) and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DENSE_GAUSSIAN = "dense_gaussian"
HADAMARD_SKETCH = "hadamard_sketch"

# Default cap on dense ensemble storage: refuse to allocate, don't thrash.
DENSE_BUDGET_BYTES = 2 * 1024**3

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


def _is_power_of_two(n):
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class MeasurementEnsemble:
    """Rows a_i of the measurement map, dense or implicit.

    For ``DENSE_GAUSSIAN``, ``rows`` holds the m x d matrix.  For
    ``HADAMARD_SKETCH``, ``sign_diagonals`` holds the k +-1 diagonals as a
    (k, l) array and d = l, m = k * l.
    """

    kind: str
    d: int
    m: int
    seed: int
    rows: np.ndarray | None = None
    sign_diagonals: np.ndarray | None = None

    def __post_init__(self):
        if self.rows is not None:
            self.rows.setflags(write=False)
        if self.sign_diagonals is not None:
            self.sign_diagonals.setflags(write=False)


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
        if self.scale < 0.0:
            raise ValueError(f"noise scale must be nonnegative, got {self.scale}")
        if self.kind not in ("gaussian", "uniform"):
            raise ValueError(f"unknown noise kind {self.kind!r}")


@dataclass(frozen=True)
class PhaseProblem:
    """Measurement operator, squared-magnitude measurements b, and metadata."""

    ensemble: MeasurementEnsemble
    b: np.ndarray
    truth: np.ndarray | None = None
    noise: NoiseModel | None = None

    def __post_init__(self):
        self.b.setflags(write=False)
        if self.truth is not None:
            self.truth.setflags(write=False)
        if len(self.b) != self.ensemble.m:
            raise ValueError(f"b has length {len(self.b)}, expected m={self.ensemble.m}")

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
    """Dense ensemble with i.i.d. N(0,1) entries, deterministic in (d, m, seed)."""
    if d < 1 or m < 1:
        raise ValueError(f"d and m must be positive, got d={d}, m={m}")
    nbytes = 8 * int(m) * int(d)
    if nbytes > max_bytes:
        raise CapacityError(
            f"dense {m}x{d} ensemble needs {nbytes} bytes, budget is {max_bytes}"
        )
    rows = rng_for(seed, _TAG_ROWS).standard_normal((m, d))
    return MeasurementEnsemble(kind=DENSE_GAUSSIAN, d=d, m=m, seed=int(seed), rows=rows)


def hadamard_ensemble(l, k, seed):
    """Sketch [H S_1 ... H S_k]^T with k i.i.d. uniform +-1 diagonals of length l."""
    if not _is_power_of_two(l):
        raise ValueError(f"l must be a power of two, got {l}")
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    signs = 2.0 * rng_for(seed, _TAG_SIGNS).integers(0, 2, size=(k, l)).astype(np.float64) - 1.0
    return MeasurementEnsemble(
        kind=HADAMARD_SKETCH, d=l, m=k * l, seed=int(seed), sign_diagonals=signs
    )


def _fwht_last_axis(a):
    """Normalized Walsh-Hadamard transform along the last axis (batched butterfly)."""
    l = a.shape[-1]
    lead = a.shape[:-1]
    out = np.array(a, dtype=np.float64)
    h = 1
    while h < l:
        out = out.reshape(lead + (l // (2 * h), 2, h))
        top = out[..., 0, :] + out[..., 1, :]
        bot = out[..., 0, :] - out[..., 1, :]
        out = np.stack((top, bot), axis=-2)
        h *= 2
    return out.reshape(lead + (l,)) / math.sqrt(l)


def fwht(v):
    """Apply the symmetric normalized Hadamard matrix to a vector.

    The matrix is the Sylvester construction scaled by 1/sqrt(l); it is its
    own inverse and adjoint.  Runs in O(l log l).
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected a vector, got shape {v.shape}")
    if not _is_power_of_two(v.shape[0]):
        raise ValueError(f"length must be a power of two, got {v.shape[0]}")
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


def densify(ensemble):
    """Materialize the rows of any ensemble as an m x d array (small sizes only)."""
    return np.array(apply(ensemble, np.eye(ensemble.d)).T, order="C")


def corruption(noise, n, mask_rng, value_rng):
    """Additive errors mask * xi of n entries; all zero, drawing no xi, if the mask is empty."""
    mask = mask_rng.random(n) < noise.p_fail
    if not mask.any():
        return np.zeros(n)
    if noise.kind == "gaussian":
        xi = noise.scale * value_rng.standard_normal(n)
    else:
        xi = value_rng.uniform(-noise.scale, noise.scale, size=n)
    return mask * xi


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
