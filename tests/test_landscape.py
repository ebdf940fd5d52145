import math

import numpy as np
import pytest

import robustpr as rp
from robustpr import landscape
from robustpr.objective import value_and_subgradient

C_RING = 0.4416


def chi2_mc_oracle(y1, y2, n=10**6, seed=0):
    """Independent chi-squared Monte Carlo for E|v1 y1 + v2 y2|."""
    rng = np.random.default_rng(seed)
    s = np.abs(rng.standard_normal(n) ** 2 * y1 + rng.standard_normal(n) ** 2 * y2)
    return s.mean(), s.std(ddof=1) / math.sqrt(n)


# ---------------------------------------------------------------------------
# rank-two spectrum
# ---------------------------------------------------------------------------

def test_rank_two_orthogonal_case():
    xbar = np.array([0.0, 2.0, 0.0])
    x = np.array([1.5, 0.0, 0.0])
    spec = rp.rank_two_spectrum(x, xbar)
    assert spec.lambda_max == pytest.approx(1.5**2)
    assert spec.lambda_min == pytest.approx(-4.0)
    np.testing.assert_allclose(np.abs(spec.e_max), np.abs(x / 1.5), atol=1e-12)
    np.testing.assert_allclose(np.abs(spec.e_min), np.abs(xbar / 2.0), atol=1e-12)
    assert not spec.collinear


def test_rank_two_collinear_case():
    xbar = np.array([1.0, 0.0])
    spec = rp.rank_two_spectrum(2.0 * xbar, xbar)
    assert spec.collinear and not spec.degenerate
    assert spec.lambda_max == pytest.approx(3.0)
    assert spec.lambda_min == 0.0
    assert spec.e_min is None


def test_rank_two_degenerate_case():
    xbar = np.array([0.3, -1.2, 0.4])
    spec = rp.rank_two_spectrum(xbar, xbar)
    assert spec.degenerate and spec.collinear
    assert spec.lambda_max == 0.0 and spec.lambda_min == 0.0
    negspec = rp.rank_two_spectrum(-xbar, xbar)
    assert negspec.degenerate


def test_rank_two_zero_x():
    xbar = np.array([3.0, 4.0])
    spec = rp.rank_two_spectrum(np.zeros(2), xbar)
    assert spec.collinear
    assert spec.lambda_max == 0.0
    assert spec.lambda_min == pytest.approx(-25.0)


def test_rank_two_rejects_zero_signal():
    with pytest.raises(ValueError):
        rp.rank_two_spectrum(np.ones(2), np.zeros(2))


@pytest.mark.parametrize("d", [2, 5, 20])
def test_rank_two_matches_dense_eigensolver(d):
    rng = np.random.default_rng(d)
    for _ in range(200):
        x = rng.standard_normal(d)
        xbar = rng.standard_normal(d)
        spec = rp.rank_two_spectrum(x, xbar)
        dense = np.outer(x, x) - np.outer(xbar, xbar)
        eigs = np.linalg.eigvalsh(dense)
        scale = max(abs(eigs[0]), abs(eigs[-1]))
        assert abs(spec.lambda_max - eigs[-1]) <= 1e-9 * scale
        assert abs(spec.lambda_min - eigs[0]) <= 1e-9 * scale
        # eigenvector residuals and orthogonality
        bound = 1e-8 * (x @ x + xbar @ xbar)
        assert np.linalg.norm(dense @ spec.e_max - spec.lambda_max * spec.e_max) <= bound
        assert np.linalg.norm(dense @ spec.e_min - spec.lambda_min * spec.e_min) <= bound
        assert abs(spec.e_max @ spec.e_min) <= 1e-10


def test_rank_two_trace_and_determinant_identities():
    rng = np.random.default_rng(77)
    for _ in range(200):
        x = rng.standard_normal(6)
        xbar = rng.standard_normal(6)
        spec = rp.rank_two_spectrum(x, xbar)
        tr = x @ x - xbar @ xbar
        det = (x @ xbar) ** 2 - (x @ x) * (xbar @ xbar)
        assert spec.lambda_max + spec.lambda_min == pytest.approx(tr, rel=1e-9, abs=1e-12)
        assert spec.lambda_max * spec.lambda_min == pytest.approx(det, rel=1e-9, abs=1e-12)
        assert spec.lambda_max >= 0.0 >= spec.lambda_min


# ---------------------------------------------------------------------------
# zeta and its gradient
# ---------------------------------------------------------------------------

def test_zeta_symmetric_point():
    assert rp.zeta(1.0, -1.0) == pytest.approx(4.0 / math.pi, rel=1e-14)


def test_zeta_boundary_conventions():
    for t in (0.0, 0.5, 3.0):
        assert rp.zeta(t, 0.0) == pytest.approx(t)
        assert rp.zeta(0.0, -t) == pytest.approx(t)
    assert rp.zeta(0.0, 0.0) == 0.0


def test_zeta_domain_check():
    with pytest.raises(ValueError):
        rp.zeta(-1.0, -1.0)
    with pytest.raises(ValueError):
        rp.zeta(1.0, 1.0)


def test_zeta_is_continuous_at_the_boundary():
    assert rp.zeta(2.0, -1e-13) == pytest.approx(2.0, abs=1e-5)
    assert rp.zeta(1e-13, -2.0) == pytest.approx(2.0, abs=1e-5)


def test_zeta_matches_chi_squared_monte_carlo():
    for i, (y1, y2) in enumerate([(1.0, -1.0), (0.2, -3.0), (7.0, -0.4)]):
        mean, se = chi2_mc_oracle(y1, y2, seed=i)
        assert abs(rp.zeta(y1, y2) - mean) <= 3.0 * se


def test_zeta_grad_symmetric_point():
    d1, d2 = rp.zeta_grad(1.0, -1.0)
    assert d1 == pytest.approx(2.0 / math.pi, rel=1e-12)
    assert d2 == pytest.approx(-2.0 / math.pi, rel=1e-12)


def test_zeta_grad_vanishes_on_critical_ray():
    c = rp.critical_ratio()
    for t in (0.1, 1.0, 42.0):
        d1, _ = rp.zeta_grad(c * c * t, -t)
        assert abs(d1) <= 1e-10


def test_zeta_grad_boundary_is_an_error():
    with pytest.raises(rp.NonsmoothPointError):
        rp.zeta_grad(1.0, 0.0)
    with pytest.raises(rp.NonsmoothPointError):
        rp.zeta_grad(0.0, -1.0)


def test_zeta_grad_matches_finite_differences():
    h = 1e-6
    for y1 in (0.3, 1.0, 4.0):
        for y2 in (-0.7, -2.0, -9.0):
            d1, d2 = rp.zeta_grad(y1, y2)
            fd1 = (rp.zeta(y1 + h, y2) - rp.zeta(y1 - h, y2)) / (2 * h)
            fd2 = (rp.zeta(y1, y2 + h) - rp.zeta(y1, y2 - h)) / (2 * h)
            assert d1 == pytest.approx(fd1, rel=1e-6, abs=1e-9)
            assert d2 == pytest.approx(fd2, rel=1e-6, abs=1e-9)


# ---------------------------------------------------------------------------
# population objective
# ---------------------------------------------------------------------------

def test_population_value_special_points():
    xbar = np.array([1.0, -2.0, 2.0])
    assert rp.population_value(xbar, xbar) == 0.0
    assert rp.population_value(-xbar, xbar) == 0.0
    assert rp.population_value(np.zeros(3), xbar) == pytest.approx(9.0)


def test_population_value_matches_gaussian_monte_carlo():
    xbar = np.array([1.0, 1.0])
    x = np.array([1.0, 0.0])
    rng = np.random.default_rng(11)
    a = rng.standard_normal((10**6, 2))
    s = np.abs((a @ x) ** 2 - (a @ xbar) ** 2)
    se = s.std(ddof=1) / 1000.0
    assert abs(rp.population_value(x, xbar) - s.mean()) <= 3 * se


def test_population_value_homogeneity():
    rng = np.random.default_rng(12)
    for _ in range(20):
        x = rng.standard_normal(4)
        xbar = rng.standard_normal(4)
        t = float(rng.random() * 3 + 0.1)
        assert rp.population_value(t * x, t * xbar) == pytest.approx(
            t * t * rp.population_value(x, xbar), rel=1e-10)


def test_population_gradient_zero_at_origin():
    np.testing.assert_array_equal(
        rp.population_gradient(np.zeros(3), np.array([1.0, 2.0, 2.0])), np.zeros(3))


@pytest.mark.parametrize("d", [2, 5, 20])
def test_population_gradient_vanishes_on_ring(d):
    rng = np.random.default_rng(d)
    xbar = rng.standard_normal(d)
    nb = np.linalg.norm(xbar)
    c = rp.critical_ratio()
    for _ in range(10):
        u = rng.standard_normal(d)
        u -= (u @ xbar) / nb**2 * xbar
        x = c * nb * u / np.linalg.norm(u)
        g = rp.population_gradient(x, xbar)
        assert np.linalg.norm(g) <= 1e-9 * nb


def test_population_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    for _ in range(50):
        x = rng.standard_normal(5)
        xbar = rng.standard_normal(5)
        g = rp.population_gradient(x, xbar)
        h = 1e-6 * np.linalg.norm(x)
        fd = np.zeros(5)
        for i in range(5):
            e = np.zeros(5)
            e[i] = h
            fd[i] = (rp.population_value(x + e, xbar)
                     - rp.population_value(x - e, xbar)) / (2 * h)
        assert np.linalg.norm(g - fd) <= 1e-6 * (1.0 + np.linalg.norm(fd))


def test_population_gradient_flags_nonsmooth_points():
    xbar = np.array([1.0, 1.0])
    with pytest.raises(rp.NonsmoothPointError):
        rp.population_gradient(0.5 * xbar, xbar)
    with pytest.raises(rp.NonsmoothPointError):
        rp.population_gradient(xbar, xbar)
    with pytest.raises(rp.NonsmoothPointError):
        rp.population_gradient(-xbar, xbar)


def test_population_functions_match_the_rank_two_spectrum_path():
    # Oracle: zeta and zeta_grad at the eigenpairs of rank_two_spectrum, with
    # the gradient projected on e_max and e_min.
    rng = np.random.default_rng(11)
    for d in range(2, 8):
        for _ in range(20):
            xbar = rng.standard_normal(d)
            x = rng.standard_normal(d) * rng.uniform(0.1, 2.0)
            spec = rp.rank_two_spectrum(x, xbar)
            assert rp.population_value(x, xbar) == pytest.approx(
                rp.zeta(spec.lambda_max, spec.lambda_min), rel=1e-13)
            d1, d2 = rp.zeta_grad(spec.lambda_max, spec.lambda_min)
            oracle = 2.0 * (d1 * (spec.e_max @ x) * spec.e_max
                            + d2 * (spec.e_min @ x) * spec.e_min)
            np.testing.assert_allclose(rp.population_gradient(x, xbar), oracle,
                                       rtol=1e-12, atol=1e-13 * np.linalg.norm(oracle))


def test_nearly_collinear_points_agree_on_grid_and_pointwise():
    # Off the collinear line by 3e-10 to 1e-8 of |x|, an eigenvalue of the
    # restriction rounds to 0 or past it: F is | |x|^2 - |xbar|^2 | there, and
    # the grid reports NaN exactly where the pointwise gradient raises.
    xbar = np.array([1.0, 0.0])
    for t in (0.5, 2.0, -1.5):
        for rel in (3e-10, 1e-9, 3e-9, 1e-8):
            x = np.array([t, rel * abs(t)])
            f_grid, g_grid = rp.population_grid(xbar, x[0], x[1])
            assert f_grid == rp.population_value(x, xbar)
            assert f_grid == pytest.approx(abs(t * t - 1.0), rel=1e-14)
            try:
                g = np.linalg.norm(rp.population_gradient(x, xbar))
            except rp.NonsmoothPointError:
                assert np.isnan(g_grid)
            else:
                assert g_grid == pytest.approx(g, rel=1e-12)


def test_rank_two_spectrum_flags_the_kinks_of_the_population_kernel():
    # 6e-10 of |x| off the xbar line, lambda_min rounds to exactly 0: a kink,
    # so the spectrum is collinear and the zero eigenvalue has no eigenvector.
    xbar = np.array([1.0, 0.0])
    spec = rp.rank_two_spectrum(np.array([2.0, 6e-10]), xbar)
    assert spec.collinear and not spec.degenerate
    assert spec.lambda_min == 0.0 and spec.e_min is None
    assert spec.lambda_max == pytest.approx(3.0, rel=1e-15)
    np.testing.assert_allclose(spec.e_max, [1.0, 4e-10], rtol=1e-6)
    # Across the band the flag is exactly the pointwise gradient's kink test.
    for t in (0.5, 2.0, -1.5):
        for rel in (1e-11, 3e-10, 1e-9, 3e-9, 1e-8, 1e-6):
            x = np.array([t, rel * abs(t)])
            spec = rp.rank_two_spectrum(x, xbar)
            try:
                rp.population_gradient(x, xbar)
            except rp.NonsmoothPointError:
                kink = True
            else:
                kink = False
            assert spec.collinear == kink
            assert (spec.e_max is None) == (spec.lambda_max == 0.0)
            assert (spec.e_min is None) == (spec.lambda_min == 0.0)


def test_ring_is_the_only_radial_stationary_point_in_the_orthogonal_space():
    xbar = np.array([2.0, 0.0, 0.0])
    u = np.array([0.0, 1.0, 0.0])
    c = rp.critical_ratio()
    nb = np.linalg.norm(xbar)
    assert np.linalg.norm(rp.population_gradient(c * nb * u, xbar)) <= 1e-9 * nb
    for t in (0.5 * c * nb, 1.5 * c * nb):
        assert np.linalg.norm(rp.population_gradient(t * u, xbar)) > 1e-3 * nb


# ---------------------------------------------------------------------------
# critical ratio and band
# ---------------------------------------------------------------------------

def test_critical_ratio_value():
    assert abs(rp.critical_ratio() - 0.4416) <= 5e-4


def test_critical_ratio_solves_equation():
    assert abs(rp.omega(rp.critical_ratio()) - math.pi / 4.0) <= 1e-11


def test_omega_monotone_spot_check():
    assert rp.omega(0.2) < rp.omega(0.4) < rp.omega(0.6)


def test_ratio_band_degenerate_eps():
    c1, c2 = rp.ratio_band(0.0)
    c = rp.critical_ratio()
    assert c1 == pytest.approx(c, abs=1e-10)
    assert c2 == pytest.approx(c, abs=1e-10)


@pytest.mark.parametrize("eps", [0.01, 0.05, 0.1, 0.2, 0.4])
def test_ratio_band_width_bound(eps):
    c1, c2 = rp.ratio_band(eps)
    assert c1 <= rp.critical_ratio() <= c2
    assert c2 - c1 <= 5.0 * math.pi * eps


def test_ratio_band_wide_eps():
    c1, c2 = rp.ratio_band(0.4)
    assert 0.0 < c1 < 0.4416 < c2 < 1.0
    _, c2_widest = rp.ratio_band(0.49)
    assert c2_widest <= 0.83


def test_ratio_band_domain():
    with pytest.raises(ValueError):
        rp.ratio_band(0.5)
    with pytest.raises(ValueError):
        rp.ratio_band(-0.01)


# ---------------------------------------------------------------------------
# stationary set distance
# ---------------------------------------------------------------------------

def test_stationary_set_distance_zero_on_the_set():
    xbar = np.array([1.0, 1.0])
    c = rp.critical_ratio()
    assert rp.stationary_set_distance(xbar, xbar) == 0.0
    assert rp.stationary_set_distance(-xbar, xbar) == 0.0
    assert rp.stationary_set_distance(np.zeros(2), xbar) == 0.0
    ring = c * np.array([-1.0, 1.0])
    assert rp.stationary_set_distance(ring, xbar) <= 1e-12


def test_stationary_set_distance_axis_formula():
    xbar = np.array([0.0, 1.0])
    c = rp.critical_ratio()
    for t in (0.1, 0.4416, 0.9, 2.0):
        x = np.array([t, 0.0])
        expected = min(t, abs(t - c), math.hypot(t, 1.0))
        assert rp.stationary_set_distance(x, xbar) == pytest.approx(expected, rel=1e-12)


def test_stationary_set_distance_on_the_signal_axis():
    xbar = np.array([0.0, 1.0])
    c = rp.critical_ratio()
    # at 2*xbar the orthogonal part vanishes; ring distance is hypot(2, c)
    x = 2.0 * xbar
    expected = min(2.0, 1.0, 3.0, math.hypot(2.0, c))
    assert rp.stationary_set_distance(x, xbar) == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# Monte Carlo estimators
# ---------------------------------------------------------------------------

def test_mc_population_value_exact_zero_at_truth():
    xbar = np.array([1.0, -1.0, 0.5])
    est = rp.mc_population_value(xbar, xbar, 1000, seed=0)
    assert est.mean == 0.0 and est.std_err == 0.0


def test_mc_population_value_at_origin():
    xbar = np.array([1.0, 2.0])
    est = rp.mc_population_value(np.zeros(2), xbar, 10**6, seed=1)
    assert abs(est.mean - 5.0) <= 3.0 * est.std_err


def test_mc_population_value_agrees_with_closed_form():
    rng = np.random.default_rng(4)
    for i in range(5):
        x = rng.standard_normal(7)
        xbar = rng.standard_normal(7)
        est = rp.mc_population_value(x, xbar, 200_000, seed=i)
        assert abs(est.mean - rp.population_value(x, xbar)) <= 3.0 * est.std_err


def test_mc_spectral_value_known_means():
    est = rp.mc_spectral_value(0.0, -1.0, 10**6, seed=2)
    assert abs(est.mean - 1.0) <= 3.0 * est.std_err
    est = rp.mc_spectral_value(1.0, -1.0, 10**6, seed=3)
    assert abs(est.mean - 4.0 / math.pi) <= 3.0 * est.std_err


def test_mc_spectral_value_agrees_with_zeta_on_grid():
    for i, y1 in enumerate((0.1, 1.0, 5.0)):
        for j, y2 in enumerate((-0.2, -1.0, -8.0)):
            est = rp.mc_spectral_value(y1, y2, 200_000, seed=10 * i + j)
            assert abs(est.mean - rp.zeta(y1, y2)) <= 3.0 * est.std_err


def test_mc_corrupted_matches_clean_stream_when_p_fail_zero():
    xbar = np.array([1.0, 0.5])
    x = np.array([0.2, -0.4])
    spec = rp.rank_two_spectrum(x, xbar)
    clean = rp.mc_spectral_value(spec.lambda_max, spec.lambda_min, 50_000, seed=5)
    corrupted = rp.mc_corrupted_population_value(x, xbar, 0.0, 2.0, 50_000, seed=5)
    assert corrupted.mean == clean.mean
    assert corrupted.std_err == clean.std_err


def test_mc_corrupted_half_normal_mean_at_truth():
    xbar = np.array([1.0, 2.0, -1.0])
    s = 1.7
    est = rp.mc_corrupted_population_value(xbar, xbar, 0.5, s, 10**6, seed=6)
    expected = 0.5 * s * math.sqrt(2.0 / math.pi)
    assert abs(est.mean - expected) <= 3.0 * est.std_err


def test_mc_corrupted_uniform_noise_mean_at_truth():
    xbar = np.array([1.0, 2.0])
    s = 3.0
    est = rp.mc_corrupted_population_value(xbar, xbar, 0.25, s, 10**6, seed=7,
                                           kind="uniform")
    assert abs(est.mean - 0.25 * s / 2.0) <= 3.0 * est.std_err


def test_mc_corrupted_p_fail_zero_ignores_the_scale():
    xbar = np.array([1.0, 0.5])
    x = np.array([0.2, -0.4])
    spec = rp.rank_two_spectrum(x, xbar)
    clean = rp.mc_spectral_value(spec.lambda_max, spec.lambda_min, 20_000, seed=5)
    corrupted = rp.mc_corrupted_population_value(x, xbar, 0.0, math.inf, 20_000, seed=5)
    assert (corrupted.mean, corrupted.std_err) == (clean.mean, clean.std_err)


def test_mc_corrupted_rejects_a_negative_scale():
    xbar = np.array([1.0, 1.0])
    with pytest.raises(ValueError):
        rp.mc_corrupted_population_value(xbar, xbar, 0.1, -1.0, 10, seed=0)


def test_mc_domain_checks():
    xbar = np.array([1.0, 1.0])
    with pytest.raises(ValueError):
        rp.mc_population_value(xbar, xbar, 0, seed=0)
    with pytest.raises(ValueError):
        rp.mc_corrupted_population_value(xbar, xbar, 1.0, 1.0, 10, seed=0)
    with pytest.raises(ValueError):
        rp.mc_corrupted_population_value(xbar, xbar, 0.1, 1.0, 10, seed=0, kind="levy")


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------

def test_certify_signal_point():
    xbar = np.array([1.0, 2.0])
    cert = rp.certify_stationary(xbar, xbar, 2, 50)
    assert cert.block1_score == 0.0
    assert cert.verdict == rp.NEAR_SIGNAL


def test_certify_ring_point():
    xbar = np.array([1.0, 1.0])
    c = rp.critical_ratio()
    cert = rp.certify_stationary(c * np.array([-1.0, 1.0]), xbar, 2, 50)
    assert cert.block2_ratio_score <= 1e-12
    assert cert.block2_angle_score <= 1e-12
    assert cert.verdict == rp.NEAR_ORTHOGONAL_RING


def test_certify_zero_point():
    xbar = np.array([1.0, 1.0])
    cert = rp.certify_stationary(np.zeros(2), xbar, 2, 50)
    assert cert.verdict == rp.NEAR_ZERO
    assert cert.block1_score == 0.0
    assert math.isinf(cert.block2_ratio_score)


def test_certify_far_collinear_point_is_unexplained_at_strict_threshold():
    xbar = np.array([1.0, 1.0])
    cert = rp.certify_stationary(3.0 * xbar, xbar, 2, 2, threshold=1.0)
    assert cert.scale == 1.0
    for score in (cert.block1_score, cert.block2_ratio_score, cert.block2_angle_score):
        assert score > cert.scale
    assert cert.verdict == rp.UNEXPLAINED


def test_certify_rejects_a_zero_signal_and_no_measurements():
    with pytest.raises(ValueError, match="xbar must be nonzero"):
        rp.certify_stationary(np.ones(2), np.zeros(2), 2, 50)
    with pytest.raises(ValueError, match="m must be positive"):
        rp.certify_stationary(np.ones(2), np.ones(2), 2, 0)


@pytest.mark.parametrize("threshold", [math.nan, -1.0])
def test_certify_rejects_a_threshold_that_is_not_at_least_zero(threshold):
    # A NaN threshold used to turn the unexplained verdict off.
    x, xbar = np.array([10.0, 0, 0, 0, 0]), np.array([1.0, 0, 0, 0, 0])
    assert rp.certify_stationary(x, xbar, 5, 30, threshold=10.0).verdict == rp.UNEXPLAINED
    assert rp.certify_stationary(x, xbar, 5, 30, threshold=0.0).verdict == rp.UNEXPLAINED
    with pytest.raises(ValueError, match="threshold must be at least 0"):
        rp.certify_stationary(x, xbar, 5, 30, threshold=threshold)


def test_certify_rejects_a_dimension_that_is_not_the_candidates():
    xbar = np.array([1.0, 1.0])
    with pytest.raises(ValueError, match="does not match"):
        rp.certify_stationary(xbar, xbar, 3, 50)
    assert rp.certify_stationary(xbar, xbar, 2, 50).verdict == rp.NEAR_SIGNAL


def test_certify_scale_decreases_with_m():
    xbar = np.array([1.0, 1.0])
    scales = [rp.certify_stationary(xbar, xbar, 2, m).scale for m in (2, 20, 200)]
    assert scales[0] > scales[1] > scales[2]


# ---------------------------------------------------------------------------
# planar grids and the audit
# ---------------------------------------------------------------------------

def test_population_grid_matches_pointwise_functions():
    xbar = np.array([1.0, 1.0])
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((100, 2)) * 2.0
    f_grid, g_grid = rp.population_grid(xbar, pts[:, 0], pts[:, 1])
    for idx in range(100):
        x = pts[idx]
        assert f_grid[idx] == pytest.approx(rp.population_value(x, xbar),
                                            rel=1e-12, abs=1e-12)
        g = np.linalg.norm(rp.population_gradient(x, xbar))
        assert g_grid[idx] == pytest.approx(g, rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("xbar", [[math.nan, 1.0], [math.inf, 1.0], [1.0, -math.inf]])
def test_population_grid_rejects_a_non_finite_signal(xbar):
    with pytest.raises(ValueError, match="xbar must be finite"):
        rp.population_grid(xbar, np.zeros((1, 1)), np.zeros(1))


def test_population_grid_nan_exactly_on_nonsmooth_collinear_cells():
    xbar = np.array([1.0, 1.0])
    axis = np.linspace(-2.0, 2.0, 201)
    g1, g2 = np.meshgrid(axis, axis, indexing="ij")
    _, g = rp.population_grid(xbar, g1, g2)
    nan_mask = np.isnan(g)
    diag = np.isclose(g1, g2)
    # NaN only on the collinear diagonal, minus the origin and the minimizers
    assert np.all(diag[nan_mask])
    assert int(nan_mask.sum()) == 201 - 3
    i0 = 100  # axis value 0.0
    assert g[i0, i0] == 0.0
    i1 = np.argmin(np.abs(axis - 1.0))
    assert g[i1, i1] == 0.0


def test_population_grid_five_local_minima():
    xbar = np.array([1.0, 1.0])
    axis = np.linspace(-2.0, 2.0, 201)
    g1, g2 = np.meshgrid(axis, axis, indexing="ij")
    _, g = rp.population_grid(xbar, g1, g2)
    mins = rp.grid_local_minima(g, max_value=1e-2)
    locs = sorted((round(axis[i], 2), round(axis[j], 2)) for i, j in mins)
    assert locs == [(-1.0, -1.0), (-0.44, 0.44), (0.0, 0.0), (0.44, -0.44), (1.0, 1.0)]


def test_grid_local_minima_on_synthetic_surface():
    g = np.full((5, 5), 9.0)
    g[2, 2] = 1.0
    g[1, 3] = np.nan
    assert rp.grid_local_minima(g) == [(2, 2)]
    assert rp.grid_local_minima(g, max_value=0.5) == []


def brute_force_local_minima(values, max_value=math.inf):
    # Cell-by-cell scan in row-major order, kept as the oracle.
    g = np.where(np.isfinite(values), values, math.inf)
    rows, cols = g.shape
    out = []
    for i in range(1, rows - 1):
        for j in range(1, cols - 1):
            v = g[i, j]
            if v > max_value or not math.isfinite(v):
                continue
            if v <= g[i - 1:i + 2, j - 1:j + 2].min():
                if any(abs(i - pi) <= 1 and abs(j - pj) <= 1 and g[pi, pj] == v
                       for pi, pj in out):
                    continue
                out.append((i, j))
    return out


@pytest.mark.parametrize("seed", range(12))
def test_grid_local_minima_matches_brute_force_with_ties_and_nans(seed):
    rng = np.random.default_rng(seed)
    shape = tuple(rng.integers(1, 12, size=2))
    g = rng.integers(0, 4, size=shape).astype(float)
    g[rng.random(shape) < 0.15] = np.nan
    for max_value in (math.inf, 1.0):
        found = rp.grid_local_minima(g, max_value=max_value)
        assert found == brute_force_local_minima(g, max_value=max_value)
        assert all(type(i) is int and type(j) is int for i, j in found)


def planar_problem(m, seed=0):
    ens = rp.gaussian_ensemble(2, m, seed=seed)
    xbar = np.array([1.0, 1.0]) / math.sqrt(2.0)
    return rp.measure(ens, xbar)


def test_graph_closeness_audit_finds_population_partners():
    problem = planar_problem(2000, seed=1)
    pairs = rp.graph_closeness_audit(problem, 1.6, 61)
    assert pairs
    nb = np.linalg.norm(problem.truth)
    c = rp.critical_ratio()
    targets = np.array([[0.0, 0.0], problem.truth, -problem.truth,
                        c * nb * np.array([-1.0, 1.0]) / math.sqrt(2.0),
                        -c * nb * np.array([-1.0, 1.0]) / math.sqrt(2.0)])
    for pair in pairs:
        assert pair.dist <= pair.radius + 1e-12
        d_set = min(np.linalg.norm(pair.x_s - t) for t in targets)
        assert d_set <= 0.15


def test_graph_closeness_audit_threshold_can_empty_the_list():
    # even grid count keeps the exact origin (a true zero of the subgradient)
    # off the grid, so a tiny threshold filters everything
    problem = planar_problem(500, seed=2)
    assert rp.graph_closeness_audit(problem, 1.6, 30, max_subgrad_norm=1e-12) == []


def test_graph_closeness_audit_handles_severe_undersampling():
    problem = planar_problem(5, seed=3)
    pairs = rp.graph_closeness_audit(problem, 1.6, 31)
    for pair in pairs:
        assert math.isfinite(pair.pop_grad_norm)


def test_graph_closeness_audit_input_checks():
    problem = planar_problem(50, seed=4)
    with pytest.raises(ValueError):
        rp.graph_closeness_audit(problem, 1.6, 2)
    not_planar = rp.measure(rp.gaussian_ensemble(3, 30, seed=0),
                            np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        rp.graph_closeness_audit(not_planar, 1.6, 31)


def test_graph_closeness_audit_pairs_the_signal_at_radius_zero():
    # +-xbar lie on grid nodes, where |x - xbar| |x + xbar| = 0 makes the ball
    # a single point; the kink there is an exact stationary point of F
    problem = rp.measure(rp.gaussian_ensemble(2, 2000, seed=1), np.array([1.0, 0.0]))
    pairs = rp.graph_closeness_audit(problem, 2.0, 41)
    at_signal = [p for p in pairs if abs(p.x_s[0]) == 1.0 and p.x_s[1] == 0.0]
    assert len(at_signal) == 2
    for pair in at_signal:
        assert pair.radius == 0.0
        assert pair.dist == 0.0
        assert pair.pop_grad_norm == 0.0
        assert np.array_equal(pair.x_p_near, pair.x_s)


# ---------------------------------------------------------------------------
# the audit's sorted sweep against direct evaluation of f_S
# ---------------------------------------------------------------------------

def grid_blocks(problem, x1, x2):
    """The nodes (x1[i], x2[i, j]), row-major, in blocks of at most 10^6 residuals."""
    g1, g2 = np.broadcast_arrays(np.asarray(x1)[:, None], x2)
    pts = np.column_stack([g1.ravel(), g2.ravel()])
    step = max(1, 10**6 // problem.m)
    return g1.shape, [pts[k:k + step] for k in range(0, len(pts), step)]


def direct_grid(problem, x1, x2):
    """f_S and its subgradient at the nodes (x1[i], x2[i, j]) from value_and_subgradient on blocks."""
    shape, blocks = grid_blocks(problem, x1, x2)
    f, zeta = map(np.concatenate, zip(*(value_and_subgradient(problem, block)
                                        for block in blocks)))
    return f.reshape(shape), zeta.reshape(shape + (2,))


def sign_free_slack(problem, x1, x2):
    """(2/m) sum |<a_i,x>| |a_i| over the residuals within rounding of 0, per node.

    There the evaluated sign is set by rounding, and any sign gives a
    subgradient of a point within rounding of the node, so two evaluations
    may differ by this much.  Returns the slack and the count of such residuals.
    """
    shape, blocks = grid_blocks(problem, x1, x2)
    rows = rp.densify(problem.ensemble)
    norms = np.linalg.norm(rows, axis=1)
    slack, undecided = [], 0
    for block in blocks:
        ax = rp.apply(problem.ensemble, block)
        # <a,x>^2 - b rounds to within a few eps of this size, wherever the
        # roots are computed from
        size = (np.abs(block[:, :1] * rows[:, 0]) + np.abs(block[:, 1:] * rows[:, 1])
                + np.sqrt(np.abs(problem.b))) ** 2
        near_zero = np.abs(ax * ax - problem.b) <= 16.0 * np.finfo(float).eps * size
        slack.append((2.0 / problem.m) * (np.abs(ax) * near_zero) @ norms)
        undecided += int(near_zero.sum())
    return np.concatenate(slack).reshape(shape), undecided


def ensemble_with_rows(rows):
    rows = np.array(rows, dtype=np.float64)
    return rp.MeasurementEnsemble(kind=rp.DENSE_GAUSSIAN, d=2, m=rows.shape[0], seed=0,
                                  rows=rows)


NODE_AXIS = np.linspace(-2.0, 2.0, 41)   # holds (1, 0) and (-1, 0) as nodes
SWEEP_CASES = {
    "gaussian_m1": lambda: planar_problem(1, seed=5),
    "gaussian_m5": lambda: planar_problem(5, seed=6),
    "gaussian_m500": lambda: planar_problem(500, seed=7),
    "gaussian_m5000": lambda: planar_problem(5000, seed=8),
    "corrupted_scale10": lambda: rp.measure(
        rp.gaussian_ensemble(2, 2000, seed=9), np.array([0.6, -0.8]),
        rp.NoiseModel(p_fail=0.2, scale=10.0, seed=1)),
    "corrupted_scale1e4": lambda: rp.measure(
        rp.gaussian_ensemble(2, 2000, seed=9), np.array([0.6, -0.8]),
        rp.NoiseModel(p_fail=0.2, scale=1e4, seed=2)),
    "row_without_x2": lambda: rp.measure(
        ensemble_with_rows([[1.3, 0.0], [0.0, -0.7], [0.4, 1.1], [-2.0, 0.5]]),
        np.array([0.6, -0.8])),
    "hadamard_l2": lambda: rp.measure(rp.hadamard_ensemble(2, 64, seed=3),
                                      np.array([0.83, -0.57])),
    "signal_on_node": lambda: rp.measure(rp.gaussian_ensemble(2, 2000, seed=1),
                                         np.array([1.0, 0.0])),
    "corrupted_signal_on_node": lambda: rp.measure(
        rp.gaussian_ensemble(2, 2000, seed=1), np.array([1.0, 0.0]),
        rp.NoiseModel(p_fail=0.2, scale=10.0, seed=3)),
}


@pytest.mark.parametrize("case", sorted(SWEEP_CASES))
def test_planar_sweep_matches_value_and_subgradient(case):
    problem = SWEEP_CASES[case]()
    if case.endswith("on_node"):
        x1 = x2 = NODE_AXIS
    else:
        x1, x2 = np.linspace(-1.6, 1.6, 41), np.linspace(-1.3, 1.7, 37)
    # A measurement without real roots must not reach the root formula.
    with np.errstate(all="raise"):
        f, zeta = landscape._planar_sweep(problem, x1, x2)
    f_direct, zeta_direct = direct_grid(problem, x1, x2)
    assert f.shape == f_direct.shape and zeta.shape == zeta_direct.shape
    assert np.all(np.abs(f - f_direct) <= 1e-12 * (1.0 + np.abs(f_direct)))
    slack, undecided = sign_free_slack(problem, x1, x2)
    assert np.all(np.linalg.norm(zeta - zeta_direct, axis=-1) <= 1e-12 + slack)
    if case.startswith("corrupted"):
        assert (problem.b < 0.0).any()
    # +-xbar on a node, or a sketch node on the line x1 + x2 = xbar1 + xbar2,
    # puts residuals within rounding of 0.
    if case.endswith("on_node") or case == "hadamard_l2":
        assert undecided > 0


AUDIT_CASES = {
    # criterion 11's instance and the instances of the audit tests above
    "criterion_11": (lambda: planar_problem(5000, seed=0), 1.6, 161, 0.2),
    "m2000": (lambda: planar_problem(2000, seed=1), 1.6, 61, math.inf),
    "m500": (lambda: planar_problem(500, seed=2), 1.6, 30, math.inf),
    "m5": (lambda: planar_problem(5, seed=3), 1.6, 31, math.inf),
    "m50": (lambda: planar_problem(50, seed=4), 1.6, 31, math.inf),
    "signal_on_node": (lambda: rp.measure(rp.gaussian_ensemble(2, 2000, seed=1),
                                          np.array([1.0, 0.0])), 2.0, 41, math.inf),
}


@pytest.mark.parametrize("case", sorted(AUDIT_CASES))
def test_audit_pairs_match_direct_evaluation(case, monkeypatch):
    make, half_width, grid_n, cut = AUDIT_CASES[case]
    problem = make()
    cut *= float(np.linalg.norm(problem.truth))
    swept = rp.graph_closeness_audit(problem, half_width, grid_n, max_subgrad_norm=cut)
    monkeypatch.setattr(landscape, "_planar_sweep", direct_grid)
    direct = rp.graph_closeness_audit(problem, half_width, grid_n, max_subgrad_norm=cut)
    assert swept and len(swept) == len(direct)
    direct_points = [tuple(pair.x_s) for pair in direct]
    matched = []
    for pair in swept:
        if tuple(pair.x_s) in direct_points:
            sign = 1.0
        else:
            # f_S(-x) = f_S(x), so x and -x tie in subgradient norm; the two
            # evaluations round the tie apart and may report either point.
            sign = -1.0
        k = direct_points.index(tuple(sign * pair.x_s))
        matched.append(k)
        twin = direct[k]
        assert pair.subgrad_norm == pytest.approx(twin.subgrad_norm, rel=1e-12, abs=1e-12)
        # dhat, and so the ball radius, moves in the last bits with f_S's rounding.
        assert pair.radius == pytest.approx(twin.radius, rel=1e-11, abs=1e-15)
        np.testing.assert_allclose(pair.x_p_near, sign * twin.x_p_near, rtol=0.0, atol=1e-12)
    assert sorted(matched) == list(range(len(direct)))


# ---------------------------------------------------------------------------
# the in-range sweep against a sweep that sorts every root
# ---------------------------------------------------------------------------

def full_sort_sweep(problem, x1, x2):
    """f_S and its subgradient at the nodes (x1[i], x2[i, j]), sorting all roots of every row.

    The reference for ``_planar_sweep``: every root, inside the row's node
    range or not, enters one sort and one running sum.
    """
    a = rp.densify(problem.ensemble)
    b = problem.b
    x1 = np.asarray(x1, dtype=np.float64)
    x2 = np.broadcast_to(np.asarray(x2, dtype=np.float64), (x1.shape[0], np.shape(x2)[-1]))
    weights = np.column_stack([a[:, 0] * a[:, 0], a[:, 0] * a[:, 1], a[:, 1] * a[:, 1], b])
    swept = (a[:, 1] != 0.0) & (b >= 0.0)
    a1_s, a2_s, root_b = a[swept, 0], a[swept, 1], np.sqrt(b[swept])
    a1_k, b_k, weights_k = a[~swept, 0], b[~swept], weights[~swept]
    start = weights[swept].sum(axis=0)
    steps = np.concatenate([-2.0 * weights[swept], 2.0 * weights[swept]])
    sums = np.empty(x2.shape + (4,))
    for i, (row, nodes) in enumerate(zip(x1, x2)):
        r1 = (-a1_s * row - root_b) / a2_s
        r2 = (-a1_s * row + root_b) / a2_s
        roots = np.concatenate([np.minimum(r1, r2), np.maximum(r1, r2)])
        order = np.argsort(roots)
        roots = roots[order]
        running = np.vstack([np.zeros(4), np.cumsum(steps[order], axis=0)])
        # Roots below a node step it fully, roots on it by half.
        below = running[np.searchsorted(roots, nodes, side="left")]
        upto = running[np.searchsorted(roots, nodes, side="right")]
        u_k = a1_k * row
        sums[i] = (start + np.sign(u_k * u_k - b_k) @ weights_k + 0.5 * (below + upto))
    s11, s12, s22, s_b = np.moveaxis(sums, -1, 0) / problem.m
    p1 = x1[:, None]
    z1 = s11 * p1 + s12 * x2
    z2 = s12 * p1 + s22 * x2
    return p1 * z1 + x2 * z2 - s_b, 2.0 * np.stack([z1, z2], axis=-1)


def problem_with(rows, b):
    return rp.PhaseProblem(ensemble=ensemble_with_rows(rows), b=np.array(b, dtype=np.float64))


# x2 = (-1, -0.5, 0, 0.5, 1) exactly.  A row (0, c) has the roots +-sqrt(b)/c
# on every grid row; (1, 1) has -x1 +- sqrt(b), exact at x1 in {-0.5, 0, 0.5}.
EDGE_AXIS = np.linspace(-1.0, 1.0, 5)
EDGE_ROWS = np.array([-0.5, 0.0, 0.5])
EDGE_CASES = {
    # roots at -+2 and -+3: one below x2[0] and one above x2[-1]
    "below_and_above": (problem_with([[0.0, 1.0], [0.0, 2.0], [0.0, -1.0]], [4.0, 36.0, 9.0]),
                        EDGE_ROWS, EDGE_AXIS),
    # roots at -+1: on x2[0] and on x2[-1]
    "on_both_ends": (problem_with([[0.0, 1.0], [0.0, -2.0]], [1.0, 4.0]),
                     EDGE_ROWS, EDGE_AXIS),
    # roots at -+0.5 and at -x1 +- 0.5: on interior nodes, on the ends and past them
    "on_interior_nodes": (problem_with([[0.0, 1.0], [1.0, 1.0], [0.0, 4.0]],
                                       [0.25, 0.25, 4.0]), EDGE_ROWS, EDGE_AXIS),
    # every kind at once, with a kept row (a_i2 = 0) and a corrupted one (b < 0)
    "mixed": (problem_with([[0.0, 1.0], [0.0, 1.0], [1.0, 1.0], [0.0, 2.0], [1.5, 0.0],
                            [0.7, -0.3]], [1.0, 4.0, 0.25, 1.0, 2.25, -1.0]),
              EDGE_ROWS, EDGE_AXIS),
    # all roots (-+2, -+3) outside the row's range: the sub-grid holds no root
    "no_root_in_range": (problem_with([[0.0, 1.0], [0.0, 1.0]], [4.0, 9.0]),
                         EDGE_ROWS, EDGE_AXIS),
    "gaussian_subgrid_without_roots": (planar_problem(5, seed=3), np.linspace(-0.01, 0.01, 9),
                                       np.linspace(3.0, 3.02, 9)),
    # a single node: the range is one point, so a root counts only if it sits on it
    "single_node_on_root": (problem_with([[0.0, 1.0], [0.0, 1.0]], [1.0, 4.0]),
                            EDGE_ROWS, np.array([1.0])),
    "single_node_gaussian": (planar_problem(500, seed=7), np.linspace(-1.6, 1.6, 9),
                             np.array([0.3])),
}


@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_planar_sweep_matches_full_sort_and_direct_at_range_edges(case):
    problem, x1, x2 = EDGE_CASES[case]
    with np.errstate(all="raise"):
        f, zeta = landscape._planar_sweep(problem, x1, x2)
    f_full, zeta_full = full_sort_sweep(problem, x1, x2)
    np.testing.assert_allclose(f, f_full, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(zeta, zeta_full, rtol=1e-12, atol=1e-12)
    f_direct, zeta_direct = direct_grid(problem, x1, x2)
    np.testing.assert_allclose(f, f_direct, rtol=1e-12, atol=1e-12)
    slack, _ = sign_free_slack(problem, x1, x2)
    assert np.all(np.linalg.norm(zeta - zeta_direct, axis=-1) <= 1e-12 + slack)


def test_mixed_edge_case_puts_roots_on_nodes_and_past_both_ends():
    problem = EDGE_CASES["mixed"][0]
    roots = set()
    for row in EDGE_ROWS:
        for (a1, a2), bi in zip(rp.densify(problem.ensemble), problem.b):
            if a2 != 0.0 and bi >= 0.0:
                roots |= {(-a1 * row - math.sqrt(bi)) / a2, (-a1 * row + math.sqrt(bi)) / a2}
    lo, hi = EDGE_AXIS[0], EDGE_AXIS[-1]
    assert {lo, -0.5, 0.0, 0.5, hi} <= roots
    assert min(roots) < lo and max(roots) > hi
    assert all(r in EDGE_AXIS for r in roots if lo <= r <= hi)


def test_gaussian_subgrid_case_holds_no_root():
    problem, x1, x2 = EDGE_CASES["gaussian_subgrid_without_roots"]
    a = rp.densify(problem.ensemble)
    r = np.sqrt(problem.b)
    roots = np.concatenate([(-a[:, 0] * x - s * r) / a[:, 1] for x in x1 for s in (-1, 1)])
    assert not ((roots >= x2[0]) & (roots <= x2[-1])).any()


@pytest.mark.parametrize("case", ["criterion_11", "m2000", "signal_on_node"])
def test_audit_pairs_match_the_full_sort_sweep(case, monkeypatch):
    make, half_width, grid_n, cut = AUDIT_CASES[case]
    problem = make()
    cut *= float(np.linalg.norm(problem.truth))
    swept = rp.graph_closeness_audit(problem, half_width, grid_n, max_subgrad_norm=cut)
    monkeypatch.setattr(landscape, "_planar_sweep", full_sort_sweep)
    full = rp.graph_closeness_audit(problem, half_width, grid_n, max_subgrad_norm=cut)
    assert swept and len(swept) == len(full)
    for pair, twin in zip(swept, full):
        np.testing.assert_array_equal(pair.x_s, twin.x_s)
        np.testing.assert_allclose(pair.x_p_near, twin.x_p_near, rtol=0.0, atol=1e-12)
        for name in ("subgrad_norm", "pop_grad_norm", "dist", "radius"):
            assert abs(getattr(pair, name) - getattr(twin, name)) <= 1e-12


# ---------------------------------------------------------------------------
# one grid of stacked rows against one sweep per row
# ---------------------------------------------------------------------------

STACKED_CASES = dict(EDGE_CASES, gaussian_m5000=(planar_problem(5000, seed=8),
                                                 np.linspace(-1.6, 1.6, 41),
                                                 np.linspace(-1.3, 1.7, 37)))


@pytest.mark.parametrize("case", sorted(STACKED_CASES))
def test_stacked_rows_sweep_as_one_sweep_per_row(case):
    problem, x1, x2 = STACKED_CASES[case]
    shared = np.tile(x2, (x1.shape[0], 1))
    # Shifts by multiples of 0.5 keep the edge cases' nodes on their roots' lattice.
    own = x2 + 0.5 * (np.arange(x1.shape[0]) % 3)[:, None]
    for nodes in (shared, own):
        with np.errstate(all="raise"):
            f, zeta = landscape._planar_sweep(problem, x1, nodes)
            rows = [landscape._planar_sweep(problem, x1[i:i + 1], nodes[i])
                    for i in range(x1.shape[0])]
        np.testing.assert_array_equal(f, np.concatenate([row[0] for row in rows]))
        np.testing.assert_array_equal(zeta, np.concatenate([row[1] for row in rows]))
    f_1d, zeta_1d = landscape._planar_sweep(problem, x1, x2)
    f_shared, zeta_shared = landscape._planar_sweep(problem, x1, shared)
    np.testing.assert_array_equal(f_1d, f_shared)
    np.testing.assert_array_equal(zeta_1d, zeta_shared)
    # The oracles read the rows' own nodes too.
    f_full, zeta_full = full_sort_sweep(problem, x1, own)
    np.testing.assert_allclose(f, f_full, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(zeta, zeta_full, rtol=1e-12, atol=1e-12)
    f_direct, zeta_direct = direct_grid(problem, x1, own)
    assert np.all(np.abs(f - f_direct) <= 1e-12 * (1.0 + np.abs(f_direct)))
    slack, _ = sign_free_slack(problem, x1, own)
    assert np.all(np.linalg.norm(zeta - zeta_direct, axis=-1) <= 1e-12 + slack)


def test_one_audit_sweeps_the_main_grid_and_each_refinement_round_once(monkeypatch):
    shapes = []
    real = landscape._planar_sweep

    def counted(problem, x1, x2):
        f, zeta = real(problem, x1, x2)
        shapes.append(f.shape)
        return f, zeta

    monkeypatch.setattr(landscape, "_planar_sweep", counted)
    make, half_width, grid_n, cut = AUDIT_CASES["criterion_11"]
    assert rp.graph_closeness_audit(make(), half_width, grid_n, max_subgrad_norm=cut)
    # 10 zooms of 9 x 9 nodes per round, stacked as 90 rows
    assert shapes == [(161, 161), (90, 9), (90, 9)]


def zoomed_ratio_max(problem, axis, f_emp):
    """dhat refined with one sweep per zoom, the nodes listed point by point."""
    xbar = problem.truth

    def points(u, v):
        return np.column_stack([g.ravel() for g in np.broadcast_arrays(u[:, None], v)])

    def ratio(pts, f):
        f_pop, _ = rp.population_grid(xbar, pts[:, 0], pts[:, 1])
        denom = np.linalg.norm(pts - xbar, axis=1) * np.linalg.norm(pts + xbar, axis=1)
        ok = denom > 1e-12 * float(xbar @ xbar)
        return np.where(ok, np.abs(f - f_pop) / np.where(ok, denom, 1.0), 0.0)

    pts = points(axis, axis)
    r = ratio(pts, f_emp.ravel())
    best, span = float(r.max()), float(axis[1] - axis[0])
    for _ in range(2):
        offs = np.linspace(-span, span, 9)
        zooms = [(c[0] + offs, c[1] + offs) for c in pts[np.argsort(r)[-10:]]]
        pts = np.concatenate([points(u, v) for u, v in zooms])
        r = ratio(pts, np.concatenate([landscape._planar_sweep(problem, u, v)[0].ravel()
                                       for u, v in zooms]))
        best = max(best, float(r.max()))
        span /= 4.0
    return best


@pytest.mark.parametrize("case", sorted(AUDIT_CASES))
def test_stacked_refinement_rounds_match_one_sweep_per_zoom(case):
    make, half_width, grid_n, _ = AUDIT_CASES[case]
    problem = make()
    axis = np.linspace(-half_width, half_width, grid_n)
    f_emp = landscape._planar_sweep(problem, axis, axis)[0]
    assert landscape._deviation_ratio_max(problem, axis, f_emp) == zoomed_ratio_max(
        problem, axis, f_emp)
