"""Robust (l1) real phase retrieval: solver and landscape toolkit.

Recovers a signal xbar (up to global sign) from magnitude-squared linear
measurements b_i = <a_i, xbar>^2 by the subgradient method (Polyak steps,
or geometrically decaying ones when the minimal value is unknown) on

    f(x) = (1/m) sum_i |<a_i, x>^2 - b_i|

with spectral initialization, and exposes the closed-form population
landscape of the same objective under Gaussian measurements: its value,
gradient, critical stationary ring of relative radius ~0.4416, and
certification scores for empirical stationary points.

``robustpr.measure`` is the problem generator ``measure.measure``, re-exported
here; the name hides the submodule of the same name, so
``from robustpr import measure`` and ``import robustpr.measure as m`` both
give the function.  Reach the module itself by
``from robustpr.measure import ...`` or
``importlib.import_module("robustpr.measure")``.
"""

from .measure import (
    DENSE_GAUSSIAN,
    HADAMARD_SKETCH,
    CapacityError,
    MeasurementEnsemble,
    NoiseModel,
    PhaseProblem,
    apply,
    apply_adjoint,
    densify,
    fwht,
    gaussian_ensemble,
    hadamard_ensemble,
    measure,
    rng_for,
)
from .objective import (
    RegularityEstimate,
    gaussian_abs_product_mean,
    regularity_probe,
    value,
    value_and_subgradient,
    weak_convexity_modulus,
)
from .solver import (
    CONVERGED,
    MAX_ITERS,
    NON_FINITE,
    STEP_VANISHED,
    ZERO_SUBGRADIENT,
    PolyakStep,
    SolveTrace,
    SolverConfig,
    TraceRecord,
    geometric_rate_estimate,
    polyak_step,
    run,
)
from .spectral import (
    EigenResult,
    InitReport,
    min_eigenvector,
    spectral_init,
)
from .landscape import (
    NEAR_ORTHOGONAL_RING,
    NEAR_SIGNAL,
    NEAR_ZERO,
    UNEXPLAINED,
    AuditPair,
    LandscapeCertificate,
    MCEstimate,
    NonsmoothPointError,
    RankTwoSpectrum,
    certify_stationary,
    critical_ratio,
    graph_closeness_audit,
    grid_local_minima,
    mc_corrupted_population_value,
    mc_population_value,
    mc_spectral_value,
    omega,
    population_grid,
    population_gradient,
    population_value,
    rank_two_spectrum,
    ratio_band,
    stationary_set_distance,
    zeta,
    zeta_grad,
)

__version__ = "0.1.0"
