import math

import numpy as np
import pytest

import robustpr as rp


def single_row_problem(a, b, truth=None):
    ens = rp.MeasurementEnsemble(kind=rp.DENSE_GAUSSIAN, d=len(a), m=1, seed=0,
                                 rows=np.array([a], dtype=float))
    return rp.PhaseProblem(ensemble=ens, b=np.array([b], dtype=float),
                           truth=None if truth is None else np.array(truth, dtype=float))


def seeded_problem(d, m, seed):
    ens = rp.gaussian_ensemble(d, m, seed=seed)
    xbar = rp.rng_for(seed, 99).standard_normal(d)
    return rp.measure(ens, xbar)


def test_value_hand_case():
    p = single_row_problem([1.0], 1.0)
    assert rp.value(p, np.array([2.0])) == pytest.approx(3.0)


def test_value_vanishes_at_truth_and_its_negation():
    p = seeded_problem(6, 30, seed=0)
    assert rp.value(p, p.truth) == 0.0
    assert rp.value(p, -p.truth) == 0.0


def test_value_dimension_mismatch():
    p = seeded_problem(6, 30, seed=0)
    with pytest.raises(ValueError):
        rp.value(p, np.ones(7))


def test_subgradient_hand_case():
    p = single_row_problem([1.0], 1.0)
    # f(x) = |x^2 - 1|; at x = 2 the subgradient is 2 * 2 * sign(3) = 4
    np.testing.assert_allclose(rp.subgradient(p, np.array([2.0])), [4.0])


def test_subgradient_zero_at_origin_and_at_truth():
    p = seeded_problem(5, 25, seed=1)
    np.testing.assert_array_equal(rp.subgradient(p, np.zeros(5)), np.zeros(5))
    # residuals vanish at the truth; sign(0) = 0 makes exact solutions fixed points
    np.testing.assert_array_equal(rp.subgradient(p, p.truth), np.zeros(5))


def test_symmetry_is_exact():
    p = seeded_problem(7, 40, seed=2)
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.standard_normal(7)
        assert rp.value(p, x) == rp.value(p, -x)
        np.testing.assert_array_equal(rp.subgradient(p, -x), -rp.subgradient(p, x))


def test_value_scaling_is_quadratic():
    ens = rp.gaussian_ensemble(6, 40, seed=4)
    xbar = rp.rng_for(4, 99).standard_normal(6)
    x = rp.rng_for(4, 98).standard_normal(6)
    t = 1.7
    base = rp.measure(ens, xbar)
    scaled = rp.measure(ens, t * xbar)
    assert rp.value(scaled, t * x) == pytest.approx(t**2 * rp.value(base, x), rel=1e-12)


def test_lipschitz_product_bound():
    p = seeded_problem(8, 60, seed=5)
    rows = p.ensemble.rows
    rng = np.random.default_rng(6)
    for _ in range(100):
        x = rng.standard_normal(8)
        y = rng.standard_normal(8)
        nd, ns = np.linalg.norm(x - y), np.linalg.norm(x + y)
        v = (x - y) / nd
        w = (x + y) / ns
        lip = np.mean(np.abs((rows @ v) * (rows @ w)))
        gap = abs(rp.value(p, x) - rp.value(p, y))
        assert gap <= lip * nd * ns * (1.0 + 1e-12) + 1e-12


def test_subgradient_lower_model_with_probed_modulus():
    p = seeded_problem(20, 400, seed=0)
    rho = rp.weak_convexity_probe(p, 400, 1.0, seed=0).rho_hat + 1e-9
    nb = np.linalg.norm(p.truth)
    rng = np.random.default_rng(7)
    for _ in range(200):
        u = rng.standard_normal(20)
        u *= nb * rng.random() ** (1 / 20) / np.linalg.norm(u)
        x = p.truth + u
        u = rng.standard_normal(20)
        u *= nb * rng.random() ** (1 / 20) / np.linalg.norm(u)
        y = p.truth + u
        zeta = rp.subgradient(p, x)
        lower = rp.value(p, x) + zeta @ (y - x) - 0.5 * rho * np.sum((y - x) ** 2)
        assert rp.value(p, y) >= lower - 1e-9


def test_weak_convexity_probe_is_zero_on_convex_instance():
    # b = 0 turns the objective into the mean of squares, which is convex
    ens = rp.gaussian_ensemble(5, 40, seed=3)
    p = rp.measure(ens, np.zeros(5))
    est = rp.weak_convexity_probe(p, 200, 1.0, seed=4)
    assert 0.0 <= est.rho_hat <= 1e-9
    assert est.samples == 200


def test_weak_convexity_probe_detects_known_curvature():
    # f(x) = |x^2 - 1| is concave between its roots with curvature -2
    p = single_row_problem([1.0], 1.0, truth=[1.0])
    est = rp.weak_convexity_probe(p, 500, 1.0, seed=0)
    assert est.rho_hat == pytest.approx(2.0, abs=1e-6)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_weak_convexity_probe_bounded_by_population_modulus(seed):
    p = seeded_problem(20, 400, seed=seed)
    est = rp.weak_convexity_probe(p, 200, 1.0, seed=seed)
    assert est.rho_hat <= 16.0


def test_weak_convexity_probe_empty_and_missing_truth():
    p = seeded_problem(4, 16, seed=8)
    est = rp.weak_convexity_probe(p, 0, 1.0, seed=0)
    assert est.rho_hat == 0.0 and est.samples == 0
    bare = rp.PhaseProblem(ensemble=p.ensemble, b=p.b.copy())
    with pytest.raises(ValueError):
        rp.weak_convexity_probe(bare, 10, 1.0, seed=0)


def test_sharpness_probe_exact_in_one_dimension():
    # f(x) = |x^2 - 1| = |x-1| |x+1| exactly, so every sample has slope 1
    p = single_row_problem([1.0], 1.0, truth=[1.0])
    est = rp.sharpness_probe(p, 50, seed=0)
    assert est.kappa_hat == pytest.approx(1.0, rel=1e-9)
    assert est.samples == 50


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sharpness_probe_meets_gaussian_slope_bound(seed):
    p = seeded_problem(50, 500, seed=seed)
    est = rp.sharpness_probe(p, 200, seed=seed)
    # half * 0.365 * 0.25: stated lower bound on the sharpness slope of the
    # standard Gaussian design
    assert est.kappa_hat >= 0.045625


def test_sharpness_probe_empty_min_is_infinite():
    p = seeded_problem(4, 16, seed=8)
    est = rp.sharpness_probe(p, 0, seed=0)
    assert est.kappa_hat == math.inf and est.samples == 0


def test_sharpness_probe_requires_noiseless():
    ens = rp.gaussian_ensemble(4, 30, seed=9)
    xbar = rp.rng_for(9, 99).standard_normal(4)
    noisy = rp.measure(ens, xbar, rp.NoiseModel(p_fail=0.3, scale=1.0, seed=1))
    with pytest.raises(ValueError):
        rp.sharpness_probe(noisy, 10, seed=0)


def test_gaussian_abs_product_mean_known_values():
    assert rp.gaussian_abs_product_mean(1.0) == pytest.approx(1.0)
    assert rp.gaussian_abs_product_mean(-1.0) == pytest.approx(1.0)
    assert rp.gaussian_abs_product_mean(0.0) == pytest.approx(2.0 / math.pi)


def test_gaussian_abs_product_mean_matches_monte_carlo():
    rng = np.random.default_rng(0)
    for t in (0.0, 0.3, 0.8):
        z1 = rng.standard_normal(10**6)
        z2 = t * z1 + math.sqrt(1 - t * t) * rng.standard_normal(10**6)
        s = np.abs(z1 * z2)
        se = s.std(ddof=1) / 1000.0
        assert abs(s.mean() - rp.gaussian_abs_product_mean(t)) <= 3 * se


def test_concentration_probe_decays_with_m():
    d = 50
    devs = []
    for m in (10**3, 10**4, 10**5):
        ens = rp.gaussian_ensemble(d, m, seed=123)
        dev = rp.concentration_probe(ens, 100, seed=7)
        # envelope measured on this implementation; the theory fixes only the
        # sqrt(d/m) decay, not the constant
        assert dev <= 0.6 * (math.sqrt(d / m) + d / m)
        devs.append(dev)
    assert devs[0] > devs[1] > devs[2]


def test_concentration_probe_rejects_sketch_ensembles():
    with pytest.raises(ValueError):
        rp.concentration_probe(rp.hadamard_ensemble(8, 2, seed=0), 5, seed=0)


def test_probes_are_reproducible_given_seed():
    p = seeded_problem(8, 50, seed=4)
    assert (rp.sharpness_probe(p, 30, seed=5)
            == rp.sharpness_probe(p, 30, seed=5))
    assert (rp.weak_convexity_probe(p, 30, 1.0, seed=5)
            == rp.weak_convexity_probe(p, 30, 1.0, seed=5))
    assert (rp.concentration_probe(p.ensemble, 10, seed=5)
            == rp.concentration_probe(p.ensemble, 10, seed=5))


def test_value_and_subgradient_equals_separate_calls_exactly():
    dense = seeded_problem(12, 60, seed=4)
    ens = rp.hadamard_ensemble(16, 3, seed=4)
    sketch = rp.measure(ens, rp.rng_for(4, 99).standard_normal(16))
    rng = np.random.default_rng(4)
    for p in (dense, sketch):
        for x in (rng.standard_normal(p.d), p.truth, np.zeros(p.d)):
            f, zeta = rp.value_and_subgradient(p, x)
            assert f == rp.value(p, x)
            assert np.array_equal(zeta, rp.subgradient(p, x))
