import json
import math

import numpy as np
import pytest

import robustpr as rp
from robustpr import harness, spectral


def matvec(mat):
    return lambda v: mat @ v


def test_min_eigenvector_diagonal_two_by_two():
    res = rp.min_eigenvector(matvec(np.diag([2.0, 5.0])), 2, rp.PowerConfig(seed=0))
    assert res.converged
    assert res.eigenvalue_estimate == pytest.approx(2.0, abs=1e-6)
    # sign normalization reports +e1
    np.testing.assert_allclose(res.w, [1.0, 0.0], atol=1e-5)
    assert res.w[np.argmax(np.abs(res.w))] > 0


def test_min_eigenvector_identity_converges_immediately():
    res = rp.min_eigenvector(matvec(np.eye(4)), 4, rp.PowerConfig(seed=1))
    assert res.converged
    assert res.iters <= 1
    assert res.eigenvalue_estimate == pytest.approx(1.0, rel=1e-12)
    assert np.linalg.norm(res.w) == pytest.approx(1.0, rel=1e-12)


def test_min_eigenvector_singular_diagonal():
    res = rp.min_eigenvector(matvec(np.diag([0.0, 1.0, 3.0])), 3, rp.PowerConfig(seed=2))
    assert res.converged
    assert abs(res.eigenvalue_estimate) <= 1e-6
    np.testing.assert_allclose(res.w, [1.0, 0.0, 0.0], atol=1e-5)


def test_min_eigenvector_stops_at_invariant_subspace_below_rounding_tol():
    # The basis spans the whole space, so no restart can lower the rounding-level
    # residual below an unattainable tol; the cap must not be spent on retries.
    res = rp.min_eigenvector(matvec(np.diag(np.arange(1.0, 11.0))), 10,
                             rp.PowerConfig(tol=1e-17, seed=1))
    assert not res.converged
    assert res.iters <= 20
    assert res.eigenvalue_estimate == pytest.approx(1.0, rel=1e-12)
    assert abs(res.w[0]) == pytest.approx(1.0, rel=1e-12)


def test_min_eigenvector_residual_obeys_scaled_tolerance():
    rng = np.random.default_rng(5)
    g = rng.standard_normal((30, 30))
    mat = g @ g.T  # PSD
    cfg = rp.PowerConfig(max_iters=20000, tol=1e-9, seed=3)
    res = rp.min_eigenvector(matvec(mat), 30, cfg)
    assert res.converged
    lam_max = float(np.linalg.eigvalsh(mat)[-1])
    recomputed = np.linalg.norm(mat @ res.w - res.eigenvalue_estimate * res.w)
    assert recomputed <= cfg.tol * (1.0 + lam_max)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_min_eigenvector_finds_a_negative_bottom_of_an_indefinite_operator(seed):
    diag = np.linspace(-3.0, 5.0, 60)
    diag[30] = -4.0
    res = rp.min_eigenvector(matvec(np.diag(diag)), 60, rp.PowerConfig(seed=seed))
    assert res.converged
    assert res.iters == 40
    assert res.eigenvalue_estimate == pytest.approx(-4.0, abs=1e-12)
    assert abs(res.w[30]) == pytest.approx(1.0, abs=1e-12)


def test_min_eigenvector_rejects_non_finite_operator():
    def bad(v):
        return np.full_like(v, np.nan)

    with pytest.raises(FloatingPointError):
        rp.min_eigenvector(bad, 3, rp.PowerConfig(seed=0))


def test_spectral_init_hand_case():
    ens = rp.MeasurementEnsemble(kind=rp.DENSE_GAUSSIAN, d=2, m=2, seed=0,
                                 rows=np.eye(2))
    problem = rp.measure(ens, np.array([1.0, 0.0]))
    report = rp.spectral_init(problem, rp.PowerConfig(seed=3))
    # b = (1, 0), mean 1/2, selection keeps only the zero measurement, so the
    # selected operator is diag(0, 1) and the bottom eigenvector is +-e1; the
    # rows have |A|_F^2 = 2, so r_hat^2 = (1/2) * m * d / 2 = 1 = |xbar|^2
    assert report.n_selected == 1
    assert report.r_hat == pytest.approx(1.0)
    assert abs(abs(report.x0[0]) - 1.0) < 1e-7
    assert abs(report.x0[1]) < 1e-7


def test_spectral_init_norm_matches_mean_measurement():
    problem = rp.measure(rp.gaussian_ensemble(40, 200, seed=7),
                         rp.rng_for(7, 99).standard_normal(40))
    report = rp.spectral_init(problem, rp.PowerConfig(seed=7))
    assert np.linalg.norm(report.x0) == pytest.approx(report.r_hat, rel=1e-10)
    fro2 = np.sum(problem.ensemble.rows**2)
    assert report.r_hat == pytest.approx(math.sqrt(problem.b.mean() * 200 * 40 / fro2),
                                         rel=1e-12)
    assert 0 <= report.n_selected <= problem.m


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sketch_init_scale_is_the_signal_norm(seed):
    # Unit rows: mean(b) = |xbar|^2 / d, which r_hat^2 = mean(b) * m * d / m undoes.
    xbar = rp.rng_for(seed, 40).standard_normal(4096)
    problem = rp.measure(rp.hadamard_ensemble(4096, 3, seed=seed), xbar)
    report = rp.spectral_init(problem, rp.PowerConfig(seed=seed))
    assert report.converged
    assert report.r_hat == pytest.approx(np.linalg.norm(xbar), rel=1e-12)


def test_spectral_init_scale_is_robust_to_gross_corruption():
    # The solve command's signal for seed 0 (stream tag 40).  Gross errors at
    # scale 1e4 in 15% of the entries drive mean(b) below 0, where a mean
    # scale would return x0 = 0; the median scale lands near |xbar|.
    scipy_stats = pytest.importorskip("scipy.stats")
    assert spectral._CHI2_1_MEDIAN == pytest.approx(scipy_stats.chi2.median(1), rel=1e-14)
    xbar = rp.rng_for(0, 40).standard_normal(200)
    problem = rp.measure(rp.gaussian_ensemble(200, 1600, seed=0), xbar,
                         rp.NoiseModel(p_fail=0.15, scale=1e4, seed=100))
    assert problem.b.mean() < 0
    report = rp.spectral_init(problem, rp.PowerConfig(seed=0))
    r2 = float(np.median(problem.b)) / spectral._CHI2_1_MEDIAN
    rows = problem.ensemble.rows
    assert report.converged
    assert report.r_hat == math.sqrt(r2 * 1600 * 200 / float(np.vdot(rows, rows)))
    assert report.r_hat == pytest.approx(np.linalg.norm(xbar), rel=0.15)
    # negative entries are certainly corrupted and stay out of the selection
    assert report.n_selected == np.count_nonzero((problem.b >= 0) & (problem.b <= r2 / 2))
    rel = min(np.linalg.norm(report.x0 - xbar),
              np.linalg.norm(report.x0 + xbar)) / np.linalg.norm(xbar)
    assert rel <= 0.5


@pytest.mark.parametrize("m", [1, 2, 5, 1600, 1601])
def test_median_matches_numpy(m):
    b = rp.rng_for(m, 7).standard_normal(m)
    b[: m // 3] = b[0]  # ties
    assert spectral._median(b) == float(np.median(b))
    b[m // 2] = math.inf
    assert spectral._median(b) == float(np.median(b))
    b[m - 1] = math.nan
    assert math.isnan(spectral._median(b))


def test_spectral_init_quality_at_fixed_seed():
    ens = rp.gaussian_ensemble(100, 800, seed=12345)
    xbar = rp.rng_for(12345, 99).standard_normal(100)
    problem = rp.measure(ens, xbar)
    report = rp.spectral_init(problem, rp.PowerConfig(seed=12345))
    rel = min(np.linalg.norm(report.x0 - xbar),
              np.linalg.norm(report.x0 + xbar)) / np.linalg.norm(xbar)
    assert rel <= 0.7


def test_spectral_init_all_zero_measurements():
    ens = rp.gaussian_ensemble(4, 10, seed=0)
    problem = rp.measure(ens, np.zeros(4))
    report = rp.spectral_init(problem)
    np.testing.assert_array_equal(report.x0, np.zeros(4))
    assert report.n_selected == problem.m
    assert report.residual == 0.0
    assert report.power_iters == report.matvecs == 0


def test_spectral_init_zero_rows_give_the_zero_start():
    # |A|_F = 0 leaves no length to read r_hat from, whatever b holds.
    ens = rp.MeasurementEnsemble(kind=rp.DENSE_GAUSSIAN, d=3, m=6, seed=0,
                                 rows=np.zeros((6, 3)))
    report = rp.spectral_init(rp.PhaseProblem(ensemble=ens, b=np.ones(6)))
    np.testing.assert_array_equal(report.x0, np.zeros(3))
    assert (report.r_hat, report.n_selected, report.power_iters, report.matvecs) == (0.0, 6, 0, 0)


def test_selection_fallback_for_constant_measurements():
    # nothing satisfies b_i <= mean/2, so the ceil(m/2) smallest are kept
    mask = spectral.selection_mask(np.full(5, 2.0))
    assert mask.sum() == 3
    mask = spectral.selection_mask(np.full(4, 1.0))
    assert mask.sum() == 2


def test_spectral_init_matrix_free_matches_densified():
    for l in (8, 32, 64):
        ens = rp.hadamard_ensemble(l, 2, seed=l)
        xbar = rp.rng_for(l, 99).standard_normal(l)
        problem = rp.measure(ens, xbar)
        dense = rp.MeasurementEnsemble(kind=rp.DENSE_GAUSSIAN, d=l, m=ens.m,
                                       seed=ens.seed, rows=rp.densify(ens))
        dense_problem = rp.PhaseProblem(ensemble=dense, b=problem.b.copy(),
                                        truth=xbar)
        cfg = rp.PowerConfig(seed=5)
        a = rp.spectral_init(problem, cfg).x0
        b = rp.spectral_init(dense_problem, cfg).x0
        assert min(np.linalg.norm(a - b), np.linalg.norm(a + b)) <= 1e-8


def test_spectral_init_sign_flip_insensitive():
    ens = rp.gaussian_ensemble(20, 120, seed=9)
    xbar = rp.rng_for(9, 99).standard_normal(20)
    cfg = rp.PowerConfig(seed=9)
    a = rp.spectral_init(rp.measure(ens, xbar), cfg).x0
    b = rp.spectral_init(rp.measure(ens, -xbar), cfg).x0
    np.testing.assert_array_equal(a, b)


def bench_shaped_problem(seed=0):
    # The shape of the dense recovery benchmark and criterion 6: d=400, m=1480.
    ens = rp.gaussian_ensemble(400, 1480, seed=seed)
    return rp.measure(ens, rp.rng_for(seed, 99).standard_normal(400))


@pytest.mark.parametrize("d", [30, 100, 200])
def test_min_eigenvector_matches_eigh_oracle(d):
    rng = np.random.default_rng(d)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    # PSD spectrum with the bottom eigenvalue 0.5 below the rest of [1, 100]
    lams = np.concatenate(([0.5], np.sort(rng.uniform(1.0, 100.0, d - 1))))
    mat = (q * lams) @ q.T
    mat = 0.5 * (mat + mat.T)
    res = rp.min_eigenvector(matvec(mat), d, rp.PowerConfig(seed=d))
    evals, evecs = np.linalg.eigh(mat)
    assert res.converged
    assert res.eigenvalue_estimate == pytest.approx(evals[0], abs=1e-8 * evals[-1])
    assert abs(res.w @ evecs[:, 0]) == pytest.approx(1.0, abs=1e-10)


def test_capped_init_is_reported(tmp_path, monkeypatch):
    problem = bench_shaped_problem()
    cfg = rp.PowerConfig(max_iters=5, seed=0)
    mask = spectral.selection_mask(problem.b)
    ens = problem.ensemble

    def op(v):
        return rp.apply_adjoint(ens, mask * rp.apply(ens, v))

    eig = rp.min_eigenvector(op, problem.d, cfg)
    assert not eig.converged
    assert eig.iters <= 5
    report = rp.spectral_init(problem, cfg)
    assert not report.converged
    assert report.power_iters == eig.iters

    real = spectral.PowerConfig
    monkeypatch.setattr(spectral, "PowerConfig",
                        lambda seed=0: real(max_iters=5, seed=seed))
    cfg = harness.ExperimentConfig(command="solve", d=400, m=1480, seeds=[0],
                                   max_iters=1, out_dir=str(tmp_path), quiet=True)
    harness.run_solve_experiment(cfg)
    (entry,) = json.loads((tmp_path / "summary.json").read_text())
    assert entry["init_converged"] is False
    assert entry["init_iters"] <= 5
    assert entry["init_residual"] > 0.0


def test_spectral_init_operator_applications_at_benchmark_shape(monkeypatch):
    calls = []
    real_apply = spectral.apply

    def counting_apply(ens, v):
        calls.append(1)
        return real_apply(ens, v)

    monkeypatch.setattr(spectral, "apply", counting_apply)
    report = rp.spectral_init(bench_shaped_problem(), rp.PowerConfig(seed=0))
    assert report.converged
    assert len(calls) == report.power_iters + 1
    assert report.matvecs == 2 * len(calls)
    assert len(calls) <= 120


@pytest.mark.parametrize("d, m", [(100, 300), (200, 500)])
def test_init_direction_matches_eigh_oracle(d, m):
    # The angle stop leaves the start's alignment with xbar where the exact
    # bottom eigenvector of the explicit X_init puts it; a fixed residual
    # tolerance of 1e-2 moves it by up to 0.3 on these seeds.
    for seed in range(6):
        ens = rp.gaussian_ensemble(d, m, seed=seed)
        xbar = rp.rng_for(seed, 99).standard_normal(d)
        problem = rp.measure(ens, xbar)
        mask = spectral.selection_mask(problem.b)
        w_eigh = np.linalg.eigh((ens.rows.T * mask) @ ens.rows)[1][:, 0]
        x0 = rp.spectral_init(problem, rp.PowerConfig(seed=seed)).x0
        u = xbar / np.linalg.norm(xbar)
        assert abs(abs(x0 @ u) / np.linalg.norm(x0) - abs(w_eigh @ u)) <= 0.02


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_spectral_init_non_finite_measurement_is_not_converged(bad):
    problem = rp.measure(rp.gaussian_ensemble(6, 40, seed=2),
                         rp.rng_for(2, 99).standard_normal(6))
    b = problem.b.copy()
    b[3] = bad
    report = rp.spectral_init(rp.PhaseProblem(ensemble=problem.ensemble, b=b),
                              rp.PowerConfig(seed=2))
    assert report.converged is False
    assert not np.all(np.isfinite(report.x0))
