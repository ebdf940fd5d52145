import math

import numpy as np
import pytest

import robustpr as rp
from robustpr import objective
from robustpr.measure import squared_frobenius_norm


def single_row_problem(a, b, truth=None):
    ens = rp.MeasurementEnsemble(rows=np.array([a], dtype=float))
    return rp.PhaseProblem(ensemble=ens, b=np.array([b], dtype=float),
                           truth=None if truth is None else np.array(truth, dtype=float))


def seeded_problem(d, m, seed):
    ens = rp.gaussian_ensemble(d, m, seed=seed)
    xbar = rp.rng_for(seed, 99).standard_normal(d)
    return rp.measure(ens, xbar)


def subgradient(problem, x):
    return rp.value_and_subgradient(problem, x)[1]


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
    np.testing.assert_allclose(subgradient(p, np.array([2.0])), [4.0])


def test_subgradient_zero_at_origin_and_at_truth():
    p = seeded_problem(5, 25, seed=1)
    np.testing.assert_array_equal(subgradient(p, np.zeros(5)), np.zeros(5))
    # residuals vanish at the truth; sign(0) = 0 makes exact solutions fixed points
    np.testing.assert_array_equal(subgradient(p, p.truth), np.zeros(5))


def test_symmetry_is_exact():
    p = seeded_problem(7, 40, seed=2)
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.standard_normal(7)
        assert rp.value(p, x) == rp.value(p, -x)
        np.testing.assert_array_equal(subgradient(p, -x), -subgradient(p, x))


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
    rho = rp.weak_convexity_modulus(p) + 1e-9
    nb = np.linalg.norm(p.truth)
    rng = np.random.default_rng(7)
    for _ in range(200):
        u = rng.standard_normal(20)
        u *= nb * rng.random() ** (1 / 20) / np.linalg.norm(u)
        x = p.truth + u
        u = rng.standard_normal(20)
        u *= nb * rng.random() ** (1 / 20) / np.linalg.norm(u)
        y = p.truth + u
        zeta = subgradient(p, x)
        lower = rp.value(p, x) + zeta @ (y - x) - 0.5 * rho * np.sum((y - x) ** 2)
        assert rp.value(p, y) >= lower - 1e-9


def test_weak_convexity_probe_is_zero_on_convex_instance():
    # b = 0 turns the objective into the mean of squares, which is convex
    ens = rp.gaussian_ensemble(5, 40, seed=3)
    p = rp.measure(ens, np.zeros(5))
    assert rp.weak_convexity_modulus(p) == 0.0


def test_weak_convexity_probe_detects_known_curvature():
    # f(x) = |x^2 - 1| is concave between its roots with curvature -2
    p = single_row_problem([1.0], 1.0, truth=[1.0])
    assert rp.weak_convexity_modulus(p) == 2.0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_weak_convexity_probe_bounded_by_population_modulus(seed):
    p = seeded_problem(20, 400, seed=seed)
    assert rp.weak_convexity_modulus(p) <= 16.0


def test_weak_convexity_probe_empty_and_missing_truth():
    # The modulus needs no signal, and with no b_i > 0 it selects no row.
    p = seeded_problem(4, 16, seed=8)
    bare = rp.PhaseProblem(ensemble=p.ensemble, b=p.b.copy())
    assert rp.weak_convexity_modulus(bare) == rp.weak_convexity_modulus(p) > 0.0
    negative = rp.PhaseProblem(ensemble=p.ensemble, b=-p.b)
    rho = rp.weak_convexity_modulus(negative)
    # +0.0, never -0.0, so a reported rho_hat never prints "-0.0"
    assert rho == 0.0 and math.copysign(1.0, rho) == 1.0


def test_weak_convexity_modulus_of_a_noiseless_sketch_is_two_over_l():
    # A^T A = k I and m = k l, so with every b_i > 0 the modulus is 2 / l.
    p = rp.measure(rp.hadamard_ensemble(64, 3, seed=0), rp.rng_for(0, 99).standard_normal(64))
    assert (p.b > 0.0).all()
    assert rp.weak_convexity_modulus(p) == pytest.approx(2.0 / 64, rel=1e-12)


WEAK_CONVEXITY_CASES = {
    "d2_m8": lambda: seeded_problem(2, 8, seed=0),
    "d5_m20": lambda: seeded_problem(5, 20, seed=2),
    # two negative b_i, whose rows the modulus leaves out
    "d3_m12_corrupted": lambda: rp.measure(
        rp.gaussian_ensemble(3, 12, seed=1), rp.rng_for(1, 99).standard_normal(3),
        rp.NoiseModel(p_fail=0.3, scale=1.0, seed=1)),
}


@pytest.mark.parametrize("case", sorted(WEAK_CONVEXITY_CASES))
def test_no_pair_violates_the_lower_model_by_more_than_the_modulus(case):
    p = WEAK_CONVEXITY_CASES[case]()
    rho = rp.weak_convexity_modulus(p)
    # Pairs x, x + h at scales from 1e-3 |xbar| (x) and 1e-2 |xbar| (h) to
    # twice |xbar|; the concave pieces of f sit near the origin.
    n, d = 20000, p.d
    rng = np.random.default_rng(11)
    nb = np.linalg.norm(p.truth)
    x = rng.standard_normal((n, d)) * nb * 10.0 ** rng.uniform(-3.0, 0.3, (n, 1))
    h = rng.standard_normal((n, d)) * nb * 10.0 ** rng.uniform(-2.0, 0.3, (n, 1))
    fx, zeta = rp.value_and_subgradient(p, x)
    violation = 2.0 * (fx + np.sum(zeta * h, axis=1) - rp.value(p, x + h)) / np.sum(h * h, axis=1)
    assert violation.max() <= rho + 1e-9
    if p.noiseless:
        # every b_i > 0, so the modulus is the least one and the pairs come near it
        assert violation.max() >= 0.9 * rho


def test_weak_convexity_modulus_is_attained_at_the_origin():
    # Near 0 each |<a_i,x>^2 - b_i| with b_i > 0 is b_i - <a_i,x>^2, so a step
    # along the top eigenvector v of the selected Gram matrix falls by
    # rho / 2 * t^2, and zeta(0) = 0.
    p = seeded_problem(5, 20, seed=2)
    rows = rp.densify(p.ensemble)[p.b > 0]
    v = np.linalg.eigh(rows.T @ rows)[1][:, -1]
    t = 1e-3
    assert (p.b > 0).all() and ((t * rows @ v) ** 2 < p.b).all()
    zero = np.zeros(5)
    fx, zeta = rp.value_and_subgradient(p, zero)
    violation = 2.0 * (fx + zeta @ (t * v) - rp.value(p, t * v)) / t**2
    assert violation == pytest.approx(rp.weak_convexity_modulus(p), rel=1e-6)


def eigvalsh_modulus(p):
    """Reference rho = (2/m) lambda_max of the selected rows' Gram matrix, on dense rows."""
    rows = rp.densify(p.ensemble)[p.b > 0]
    return 2.0 * float(np.linalg.eigvalsh(rows.T @ rows)[-1]) / p.m if len(rows) else 0.0


def corrupted_sketch():
    p = rp.measure(rp.hadamard_ensemble(64, 3, seed=0), rp.rng_for(0, 99).standard_normal(64),
                   rp.NoiseModel(p_fail=0.3, scale=1.0, seed=1))
    assert (p.b <= 0.0).any() and (p.b > 0.0).any()
    return p


MODULUS_CASES = {
    **WEAK_CONVEXITY_CASES,
    "d1_m1": lambda: single_row_problem([1.0], 1.0, truth=[1.0]),
    "d4_m16": lambda: seeded_problem(4, 16, seed=8),
    "d20_m400": lambda: seeded_problem(20, 400, seed=1),
    "d50_m500": lambda: seeded_problem(50, 500, seed=0),
    # the planar audit's size
    "d2_m5000": lambda: seeded_problem(2, 5000, seed=1),
    "sketch_l64": lambda: rp.measure(rp.hadamard_ensemble(64, 3, seed=0),
                                     rp.rng_for(0, 99).standard_normal(64)),
    "sketch_l64_corrupted": corrupted_sketch,
}


@pytest.mark.parametrize("case", sorted(MODULUS_CASES))
def test_weak_convexity_modulus_matches_eigvalsh_on_dense_rows(case):
    p = MODULUS_CASES[case]()
    assert rp.weak_convexity_modulus(p) == pytest.approx(eigvalsh_modulus(p), rel=1e-12)


def test_sharpness_probe_exact_in_one_dimension():
    # f(x) = |x^2 - 1| = |x-1| |x+1| exactly, so every sample has slope 1
    p = single_row_problem([1.0], 1.0, truth=[1.0])
    est = rp.regularity_probe(p.ensemble, 50, seed=0)
    assert est.kappa_hat == pytest.approx(1.0, rel=1e-9)
    # u, v = +-1, so t = +-1 and the Gaussian mean is 1 as well
    assert est.max_deviation == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sharpness_probe_meets_gaussian_slope_bound(seed):
    ens = rp.gaussian_ensemble(50, 500, seed=seed)
    est = rp.regularity_probe(ens, 200, seed=seed)
    # half * 0.365 * 0.25: stated lower bound on the sharpness slope of the
    # standard Gaussian design
    assert est.kappa_hat >= 0.045625


def test_sharpness_probe_empty_min_is_infinite():
    # No samples would leave the minimum at inf, so none is an error.
    p = seeded_problem(4, 16, seed=8)
    with pytest.raises(ValueError, match="samples must be at least 1, got 0"):
        rp.regularity_probe(p.ensemble, 0, seed=0)


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


def unit_pairs(rng, n, d, t=None):
    """n pairs (u, v) of unit vectors in an (n, 2, d) block; with t, <u, v> = t."""
    u = rng.standard_normal((n, d))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    w = rng.standard_normal((n, d))
    if t is not None:
        w -= np.sum(w * u, axis=1, keepdims=True) * u
        w /= np.linalg.norm(w, axis=1, keepdims=True)
        w = t * u + math.sqrt(1.0 - t * t) * w
    return np.stack([u, w / np.linalg.norm(w, axis=1, keepdims=True)], axis=1)


PROBE_ENSEMBLES = {
    "dense": lambda seed: rp.gaussian_ensemble(50, 2000, seed=seed),
    "sketch": lambda seed: rp.hadamard_ensemble(256, 2, seed=seed),
}


@pytest.mark.parametrize("kind", sorted(PROBE_ENSEMBLES))
def test_probe_average_is_the_sharpness_ratio(kind):
    # <a,x>^2 - <a,xbar>^2 = <a,x-xbar><a,x+xbar>, so on noiseless data
    # f(x) = g(u, v) |x - xbar| |x + xbar| at the unit vectors along x -+ xbar.
    ens = PROBE_ENSEMBLES[kind](4)
    rng = np.random.default_rng(5)
    xbar = rng.standard_normal(ens.d)
    p = rp.measure(ens, xbar)
    x = xbar * rng.uniform(-2.0, 2.0, (20, 1)) + rng.standard_normal((20, ens.d))
    minus, plus = x - xbar, x + xbar
    nm = np.linalg.norm(minus, axis=1)
    npl = np.linalg.norm(plus, axis=1)
    pairs = np.stack([minus / nm[:, None], plus / npl[:, None]], axis=1)
    g = objective._abs_product_means(ens, pairs)
    np.testing.assert_allclose(g * nm * npl, rp.value(p, x), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("kind", sorted(PROBE_ENSEMBLES))
@pytest.mark.parametrize("t", [0.0, 0.5, 0.9])
def test_probe_average_has_the_scaled_gaussian_mean(kind, t):
    # Over random pairs at correlation t, g averages to sigma^2 E|Z1 Z2|, with
    # sigma^2 the rows' mean square entry (1/l on a sketch).  Measured: within
    # 1.7e-3 relative at 2000 pairs, seeds 0-3.
    ens = PROBE_ENSEMBLES[kind](1)
    sigma2 = squared_frobenius_norm(ens) / (ens.m * ens.d)
    g = objective._abs_product_means(ens, unit_pairs(np.random.default_rng(1), 2000, ens.d, t))
    assert g.mean() == pytest.approx(sigma2 * rp.gaussian_abs_product_mean(t), rel=5e-3)


def test_probe_on_a_sketch_reads_two_over_pi_over_l():
    est = rp.regularity_probe(rp.hadamard_ensemble(1024, 3, seed=0), 200, seed=0)
    assert est.kappa_hat <= (2.0 / math.pi) / 1024
    assert est.kappa_hat >= 0.9 * (2.0 / math.pi) / 1024
    assert est.max_deviation <= 0.05 * (2.0 / math.pi) / 1024


def test_probe_blocks_do_not_grow_with_samples(monkeypatch):
    ens = rp.hadamard_ensemble(256, 2, seed=3)
    whole = rp.regularity_probe(ens, 300, seed=2)
    rows = []

    def recording_apply(ensemble, x):
        rows.append(x.shape[0])
        return rp.apply(ensemble, x)

    monkeypatch.setattr(objective, "apply", recording_apply)
    monkeypatch.setattr(objective, "_BLOCK_ENTRIES", 40 * ens.m)
    # Pair after pair from one stream: the blocking does not change the pairs.
    assert rp.regularity_probe(ens, 300, seed=2) == whole
    assert rows == [40] * 15
    # A longer run extends the same pairs.
    assert rp.regularity_probe(ens, 600, seed=2).kappa_hat <= whole.kappa_hat


def test_concentration_probe_decays_with_m():
    d = 50
    devs = []
    for m in (10**3, 10**4, 10**5):
        ens = rp.gaussian_ensemble(d, m, seed=123)
        dev = rp.regularity_probe(ens, 100, seed=7).max_deviation
        # envelope measured on this implementation; the theory fixes only the
        # sqrt(d/m) decay, not the constant
        assert dev <= 0.6 * (math.sqrt(d / m) + d / m)
        devs.append(dev)
    assert devs[0] > devs[1] > devs[2]


def test_concentration_probe_rejects_no_samples():
    with pytest.raises(ValueError, match="samples must be at least 1, got -3"):
        rp.regularity_probe(rp.hadamard_ensemble(8, 2, seed=0), -3, seed=0)


def test_probes_are_reproducible_given_seed():
    for ens in (rp.gaussian_ensemble(8, 50, seed=4), rp.hadamard_ensemble(16, 2, seed=4)):
        assert rp.regularity_probe(ens, 30, seed=5) == rp.regularity_probe(ens, 30, seed=5)
        assert rp.regularity_probe(ens, 30, seed=5) != rp.regularity_probe(ens, 30, seed=6)


def test_value_and_subgradient_equals_separate_calls_exactly():
    dense = seeded_problem(12, 60, seed=4)
    ens = rp.hadamard_ensemble(16, 3, seed=4)
    sketch = rp.measure(ens, rp.rng_for(4, 99).standard_normal(16))
    rng = np.random.default_rng(4)
    for p in (dense, sketch):
        for x in (rng.standard_normal(p.d), p.truth, np.zeros(p.d)):
            assert rp.value_and_subgradient(p, x)[0] == rp.value(p, x)


def test_objective_on_a_block_equals_per_point_results():
    dense = seeded_problem(12, 60, seed=5)
    ens = rp.hadamard_ensemble(16, 3, seed=5)
    sketch = rp.measure(ens, rp.rng_for(5, 99).standard_normal(16))
    rng = np.random.default_rng(5)
    for p, exact in ((dense, False), (sketch, True)):
        xs = np.vstack([rng.standard_normal((5, p.d)), np.zeros(p.d)])
        fs, zetas = rp.value_and_subgradient(p, xs)
        assert fs.shape == (6,) and zetas.shape == (6, p.d)
        assert np.array_equal(fs, rp.value(p, xs))
        for x, f, zeta in zip(xs, fs, zetas):
            if exact:
                assert f == rp.value(p, x)
                assert np.array_equal(zeta, subgradient(p, x))
            else:
                assert f == pytest.approx(rp.value(p, x), rel=1e-12, abs=0)
                np.testing.assert_allclose(zeta, subgradient(p, x), rtol=1e-12, atol=0)


def guard_problems():
    """The same kind of problem on C-order dense rows, column-major dense rows and a sketch."""
    fortran = seeded_problem(24, 150, seed=8)
    c_rows = rp.MeasurementEnsemble(rows=np.ascontiguousarray(fortran.ensemble.rows))
    sketch = rp.hadamard_ensemble(32, 3, seed=8)
    return {
        "c_rows": rp.measure(c_rows, fortran.truth),
        "fortran_rows": fortran,
        "sketch": rp.measure(sketch, rp.rng_for(8, 99).standard_normal(32)),
    }


@pytest.mark.parametrize("name", ["c_rows", "fortran_rows", "sketch"])
def test_value_and_subgradient_are_the_reference_formulas_bit_for_bit(name):
    # The reference is the plain formula, np.mean of |r| and (2/m) A^T(sign(r) Ax);
    # the objective builds it in place and sums with np.add.reduce, and must
    # not move a bit, at one point or on an (N, d) block.
    p = guard_problems()[name]
    ens = p.ensemble
    rng = np.random.default_rng(9)
    points = [rng.standard_normal(p.d), p.truth, np.zeros(p.d), rng.standard_normal((5, p.d))]
    for x in points:
        ax = rp.apply(ens, x)
        r = ax * ax - p.b
        f_ref = np.mean(np.abs(r), axis=-1)
        g_ref = (2.0 / p.m) * rp.apply_adjoint(ens, np.sign(r) * ax)
        f, g = rp.value_and_subgradient(p, x)
        assert np.array_equal(f, f_ref)
        assert np.array_equal(g, g_ref)
        assert np.array_equal(rp.value(p, x), f_ref)
        if x.ndim == 1:
            assert type(f) is float and f == f_ref
