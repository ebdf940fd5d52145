"""Acceptance suite: one test per release criterion.

Each test enforces its stated tolerance and runtime budget and prints a
one-line PASS summary (visible with ``pytest -s``).  Criteria 6 and 10 share
the same convergence study through a module-scoped fixture.
"""

import math
import time

import numpy as np
import pytest

import robustpr as rp
from robustpr import harness, netpbm

D_STUDY = 200
STUDY_SEEDS = range(10)


def report(num, text):
    print(f"PASS criterion {num:>2}: {text}")


def seeded_problem(d, m, seed):
    ens = rp.gaussian_ensemble(d, m, seed=seed)
    xbar = rp.rng_for(seed, 99).standard_normal(d)
    return rp.measure(ens, xbar)


@pytest.fixture(scope="module")
def convergence_study():
    """Ten seeded runs at m = 3.7 d and m = 2.2 d with spectral starts."""
    study = {}
    for ratio in (3.7, 2.2):
        m = int(round(ratio * D_STUDY))
        runs = []
        for seed in STUDY_SEEDS:
            problem = seeded_problem(D_STUDY, m, seed)
            start = rp.spectral_init(problem, seed=seed)
            trace = rp.run(problem, start.x0,
                           rp.SolverConfig(max_iters=2000, tol_dist=1e-10))
            runs.append((problem, trace))
        study[ratio] = runs
    return study


def test_criterion_01_critical_ratio():
    c = rp.critical_ratio()
    assert abs(c - 0.4416) <= 5e-4
    elapsed = min(_timed(rp.critical_ratio) for _ in range(5))
    assert elapsed < 1e-3
    report(1, f"critical ratio {c:.6f} within 5e-4 of 0.4416 "
              f"({elapsed * 1e6:.0f} us/call)")


def _timed(fn, *args):
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def test_criterion_02_closed_forms_match_monte_carlo():
    t0 = time.perf_counter()
    worst_sigma = 0.0
    for i, y1 in enumerate(np.logspace(math.log10(0.1), 1.0, 5)):
        for j, y2 in enumerate(-np.logspace(math.log10(0.1), 1.0, 5)):
            est = rp.mc_spectral_value(float(y1), float(y2), 10**6, seed=100 + 5 * i + j)
            gap = abs(est.mean - rp.zeta(float(y1), float(y2)))
            assert gap <= 3.0 * est.std_err
            worst_sigma = max(worst_sigma, gap / est.std_err)
    rng = np.random.default_rng(2025)
    for k in range(20):
        x = rng.standard_normal(7)
        xbar = rng.standard_normal(7)
        est = rp.mc_population_value(x, xbar, 10**6, seed=400 + k)
        gap = abs(est.mean - rp.population_value(x, xbar))
        assert gap <= 3.0 * est.std_err
        worst_sigma = max(worst_sigma, gap / est.std_err)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(2, f"closed forms within 3 standard errors of Monte Carlo "
              f"(worst {worst_sigma:.2f} sigma, {elapsed:.1f} s)")


def test_criterion_03_gradient_oracle():
    rng = np.random.default_rng(2)
    worst = 0.0
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
        rel = np.linalg.norm(g - fd) / (1.0 + np.linalg.norm(fd))
        worst = max(worst, rel)
        assert rel <= 1e-6
    c = rp.critical_ratio()
    for d in (2, 5, 20):
        local = np.random.default_rng(d)
        xbar = local.standard_normal(d)
        nb = np.linalg.norm(xbar)
        for _ in range(10):
            u = local.standard_normal(d)
            u -= (u @ xbar) / nb**2 * xbar
            x = c * nb * u / np.linalg.norm(u)
            assert np.linalg.norm(rp.population_gradient(x, xbar)) <= 1e-9 * nb
    report(3, f"gradient matches finite differences (worst rel {worst:.2e}) "
              f"and vanishes on the ring in d = 2, 5, 20")


def test_criterion_04_landscape_grid_five_minima(tmp_path):
    t0 = time.perf_counter()
    axis, _, g = harness.run_landscape_grid(np.array([1.0, 1.0]), 2.0, 401,
                                            str(tmp_path / "grid.csv"))
    minima = rp.grid_local_minima(g, max_value=1e-2)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    assert len(minima) == 5
    c = rp.critical_ratio()
    targets = [(0.0, 0.0), (1.0, 1.0), (-1.0, -1.0), (-c, c), (c, -c)]
    cell = axis[1] - axis[0]
    for i, j in minima:
        best = min(max(abs(axis[i] - t1), abs(axis[j] - t2)) for t1, t2 in targets)
        assert best <= cell
    report(4, f"401x401 grid has exactly 5 gradient minima below 1e-2, each "
              f"within one cell of the stationary set ({elapsed:.1f} s)")


def test_criterion_05_band_bound():
    eps_set = (0.01, 0.05, 0.1, 0.2, 0.4, 0.49)
    t0 = time.perf_counter()
    widths = [rp.ratio_band(e) for e in eps_set]
    elapsed = time.perf_counter() - t0
    for eps, (c1, c2) in zip(eps_set, widths):
        assert c2 - c1 <= 5.0 * math.pi * eps
        assert c1 <= rp.critical_ratio() <= c2
    assert elapsed < 1e-3
    report(5, f"band widths below 5*pi*eps for eps in {eps_set} "
              f"({elapsed * 1e6:.0f} us)")


def test_criterion_06_desk_scale_convergence(convergence_study):
    t0 = time.perf_counter()
    good = 0
    for _, trace in convergence_study[3.7]:
        rels = [r.rel_dist for r in trace.records]
        if min(rels) <= 1e-5 and rp.geometric_rate_estimate(trace, 50) < 1.0:
            good += 1
    stagnant = 0
    for _, trace in convergence_study[2.2]:
        rels = [r.rel_dist for r in trace.records]
        if min(rels) > 1e-2:
            stagnant += 1
    elapsed = time.perf_counter() - t0
    assert good >= 9
    assert stagnant >= 3
    report(6, f"m=3.7d: {good}/10 runs reach 1e-5 with linear rate; "
              f"m=2.2d: {stagnant}/10 stagnate above 1e-2")


def test_criterion_07_fwht_correctness():
    t0 = time.perf_counter()
    for p in range(0, 15):
        l = 2**p
        v = np.random.default_rng(p).standard_normal(l)
        w = rp.fwht(v)
        assert np.max(np.abs(rp.fwht(w) - v)) <= 1e-12 * np.max(np.abs(v))
        assert abs(np.linalg.norm(w) - np.linalg.norm(v)) <= 1e-12 * np.linalg.norm(v)
    for l in (2, 8, 64):
        ens = rp.hadamard_ensemble(l, 3, seed=l)
        rows = rp.densify(ens)
        rng = np.random.default_rng(l)
        for _ in range(10):
            x = rng.standard_normal(l)
            assert np.max(np.abs(rp.apply(ens, x) - rows @ x)) <= 1e-8
            y = rng.standard_normal(ens.m)
            assert np.max(np.abs(rp.apply_adjoint(ens, y) - rows.T @ y)) <= 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(7, f"transform involution and isometry hold to 1e-12 up to l = 2^14; "
              f"matrix-free pipeline matches dense rows ({elapsed:.1f} s)")


def test_criterion_08_image_pipeline(tmp_path):
    img = np.add.outer(np.linspace(0, 127, 64), np.linspace(0, 128, 64)).astype(np.uint8)
    src = tmp_path / "in.pgm"
    netpbm.write_image(src, img)
    t0 = time.perf_counter()
    summary = harness.run_image_command(harness.ExperimentConfig(
        command="image", input=str(src), output=str(tmp_path / "out.pgm"), k=3, seed=11,
        quiet=True))
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    assert summary["rel_dist"] <= 1e-5
    assert summary["exact_pixel_fraction"] >= 0.99
    report(8, f"64x64 image recovered to rel_dist {summary['rel_dist']:.1e} with "
              f"{summary['exact_pixel_fraction']:.1%} exact pixels ({elapsed:.1f} s)")


def test_criterion_09_regularity_probes():
    t0 = time.perf_counter()
    kappas, rhos = [], []
    for seed in (0, 1, 2):
        problem = seeded_problem(50, 500, seed)
        kappas.append(rp.sharpness_probe(problem, 200, seed=seed).kappa_hat)
        rhos.append(rp.weak_convexity_modulus(problem))
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    assert all(k >= 0.045625 for k in kappas)
    assert all(r <= 16.0 for r in rhos)
    report(9, f"kappa_hat >= 0.045625 (min {min(kappas):.4f}) and rho <= 16 "
              f"(max {max(rhos):.4f}) at 3 seeds ({elapsed:.1f} s)")


def _refine_subgradient_minimum(problem, x0, seed, rounds=70, proposals=60,
                                restarts=3):
    """Derivative-free local minimization of the empirical subgradient norm."""
    nb = np.linalg.norm(problem.truth)
    best_x, best_gn = x0.copy(), np.linalg.norm(rp.value_and_subgradient(problem, x0)[1])
    for r in range(restarts):
        x = x0.copy()
        gn_x = np.linalg.norm(rp.value_and_subgradient(problem, x)[1])
        rng = np.random.default_rng(seed * 101 + r)
        for t in range(rounds):
            radius = 0.2 * (0.87**t) * nb
            for cand in x[None, :] + radius * rng.standard_normal((proposals, x.shape[0])):
                gn = np.linalg.norm(rp.value_and_subgradient(problem, cand)[1])
                if gn < gn_x:
                    gn_x, x = gn, cand.copy()
        if gn_x < best_gn:
            best_gn, best_x = gn_x, x
    return best_x


def test_criterion_10_certification_behavior(convergence_study):
    t0 = time.perf_counter()
    # stagnation endpoints from the undersampled study
    certs = []
    for problem, trace in convergence_study[2.2]:
        rels = [r.rel_dist for r in trace.records]
        if min(rels) > 1e-2:
            certs.append(rp.certify_stationary(trace.final_x, problem.truth, problem.m))
    assert certs, "no stagnating runs harvested"
    explained = [c for c in certs if c.verdict != rp.UNEXPLAINED]
    assert len(explained) >= math.ceil(2 * len(certs) / 3)
    ring_zero = [c for c in explained
                 if c.verdict in (rp.NEAR_ZERO, rp.NEAR_ORTHOGONAL_RING)]
    assert len(ring_zero) >= len(explained) - len(ring_zero)

    # empirical stationary points near the ring tighten as sampling grows
    d = 10
    c = rp.critical_ratio()
    decreasing_all = []
    for seed in (0, 1, 2):
        max_block2 = []
        for ratio in (3, 10, 30):
            problem = seeded_problem(d, ratio * d, seed)
            xbar = problem.truth
            nb = np.linalg.norm(xbar)
            u = rp.rng_for(seed, 98).standard_normal(d)
            u -= (u @ xbar) / nb**2 * xbar
            ring = c * nb * u / np.linalg.norm(u)
            x = _refine_subgradient_minimum(problem, ring, seed=seed)
            cert = rp.certify_stationary(x, xbar, problem.m)
            max_block2.append(max(cert.block2_ratio_score, cert.block2_angle_score))
        # net decrease across the sweep plus a monotone adjacent window
        assert max_block2[2] < max_block2[0]
        assert max_block2[1] <= max_block2[0] or max_block2[2] <= max_block2[1]
        decreasing_all.append(max_block2[0] / max_block2[2])
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report(10, f"{len(explained)}/{len(certs)} stagnation points explained "
               f"(ring/zero dominate); ring block scores shrink {min(decreasing_all):.1f}x+ "
               f"from m/d=3 to 30 ({elapsed:.1f} s)")


def test_criterion_11_graph_closeness_audit():
    t0 = time.perf_counter()
    ens = rp.gaussian_ensemble(2, 5000, seed=0)
    xbar = np.array([1.0, 1.0]) / math.sqrt(2.0)
    problem = rp.measure(ens, xbar)
    nb = np.linalg.norm(xbar)
    pairs = rp.graph_closeness_audit(problem, 1.6, 161, max_subgrad_norm=0.2 * nb)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    assert len(pairs) >= 3
    for pair in pairs:
        assert pair.pop_grad_norm <= 0.05 * nb
        assert pair.dist <= pair.radius + 1e-12
    report(11, f"all {len(pairs)} near-stationary grid points pair with "
               f"population gradient norms <= 0.05 |xbar| inside the computed "
               f"radius ({elapsed:.1f} s)")
