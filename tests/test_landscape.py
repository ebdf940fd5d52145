import math

import numpy as np
import pytest

import robustpr as rp

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
