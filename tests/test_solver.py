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


def test_polyak_step_hand_case():
    p = single_row_problem([1.0], 1.0)
    step = rp.polyak_step(p, np.array([2.0]), min_value=0.0)
    assert step.f_value == pytest.approx(3.0)
    assert step.subgrad_norm == pytest.approx(4.0)
    np.testing.assert_allclose(step.next_x, [2.0 - (3.0 / 16.0) * 4.0])


def test_polyak_step_on_absolute_value_composite():
    # b = 0 makes f(x) = x^2; from x = 1: f = 1, zeta = 2, next = 1/2
    p = single_row_problem([1.0], 0.0)
    step = rp.polyak_step(p, np.array([1.0]), min_value=0.0)
    np.testing.assert_allclose(step.next_x, [0.5])


def test_polyak_step_zero_subgradient_at_truth():
    p = seeded_problem(5, 20, seed=0)
    step = rp.polyak_step(p, p.truth, min_value=0.0)
    assert step.next_x is None
    assert step.f_value == 0.0
    assert step.subgrad_norm == 0.0


def test_polyak_step_fixed_point_at_min_value():
    # f(x) = min_value forces a zero-length step even with nonzero subgradient
    p = single_row_problem([1.0], 1.0)
    step = rp.polyak_step(p, np.array([2.0]), min_value=3.0)
    np.testing.assert_array_equal(step.next_x, [2.0])


def test_run_zero_subgradient_at_start():
    p = seeded_problem(5, 20, seed=0)
    trace = rp.run(p, p.truth, rp.SolverConfig(max_iters=10))
    assert trace.status == rp.ZERO_SUBGRADIENT
    assert trace.iterations == 1
    assert trace.records[0].k == 0
    assert math.isnan(trace.records[0].step_length)
    np.testing.assert_array_equal(trace.final_x, p.truth)


def test_run_value_tolerance_wins_over_zero_subgradient():
    p = seeded_problem(5, 20, seed=0)
    trace = rp.run(p, p.truth, rp.SolverConfig(max_iters=10, tol_value=1e-12))
    assert trace.status == rp.CONVERGED


def test_run_max_iters_zero_returns_start():
    p = seeded_problem(5, 20, seed=0)
    x0 = np.ones(5)
    trace = rp.run(p, x0, rp.SolverConfig(max_iters=0))
    assert trace.status == rp.MAX_ITERS
    assert trace.records == []
    np.testing.assert_array_equal(trace.final_x, x0)


def test_capped_run_returns_the_iterate_its_last_record_describes():
    p = seeded_problem(15, 33, seed=0)
    trace = rp.run(p, np.ones(15), rp.SolverConfig(max_iters=5))
    assert trace.status == rp.MAX_ITERS
    last = trace.records[-1]
    assert rp.value(p, trace.final_x) == last.f_value
    nb = np.linalg.norm(p.truth)
    rel = min(np.linalg.norm(trace.final_x - p.truth),
              np.linalg.norm(trace.final_x + p.truth)) / nb
    assert rel == last.rel_dist


def test_run_converges_from_spectral_init():
    p = seeded_problem(100, 300, seed=0)
    report = rp.spectral_init(p, rp.PowerConfig(seed=0))
    trace = rp.run(p, report.x0, rp.SolverConfig(max_iters=2000, tol_dist=1e-5))
    assert trace.status == rp.CONVERGED
    rels = [r.rel_dist for r in trace.records]
    assert rels[-1] <= 1e-5
    assert all(rels[i + 1] <= rels[i] for i in range(10, len(rels) - 1))


def test_run_records_satisfy_step_length_identity():
    p = seeded_problem(30, 120, seed=3)
    trace = rp.run(p, np.ones(30), rp.SolverConfig(max_iters=50))
    assert trace.iterations == 50
    for r in trace.records:
        if r.subgrad_norm > 0:
            assert r.step_length == pytest.approx(r.f_value / r.subgrad_norm, rel=1e-12)


@pytest.mark.parametrize("d", [20, 50, 100])
def test_tube_monotonicity_and_contraction(d):
    seed = 10 + d
    p = seeded_problem(d, 3 * d, seed=seed)
    xbar = p.truth
    u = rp.rng_for(seed, 98).standard_normal(d)
    x0 = xbar + 0.15 * np.linalg.norm(xbar) * u / np.linalg.norm(u)
    trace = rp.run(p, x0, rp.SolverConfig(max_iters=400, tol_dist=1e-12))
    rels = [r.rel_dist for r in trace.records]
    assert rels[0] <= 0.2
    assert all(rels[i + 1] <= rels[i] for i in range(len(rels) - 1))
    assert rp.geometric_rate_estimate(trace, window=50) < 1.0
    # no near-stationary iterate strictly inside the tube
    nb = np.linalg.norm(xbar)
    for r in trace.records:
        if 0.0 < r.rel_dist < 0.1:
            assert r.subgrad_norm >= 1e-6 * nb


def test_scale_equivariance_of_iterates():
    d, seed, t = 12, 6, 3.5
    ens = rp.gaussian_ensemble(d, 5 * d, seed=seed)
    xbar = rp.rng_for(seed, 99).standard_normal(d)
    x0 = rp.rng_for(seed, 98).standard_normal(d)
    base = rp.run(rp.measure(ens, xbar), x0, rp.SolverConfig(max_iters=25))
    scaled = rp.run(rp.measure(ens, t * xbar), t * x0, rp.SolverConfig(max_iters=25))
    np.testing.assert_allclose(scaled.final_x, t * base.final_x, rtol=1e-10)
    for rb, rs in zip(base.records, scaled.records):
        assert rs.f_value == pytest.approx(t**2 * rb.f_value, rel=1e-10)


def test_rate_estimate_on_constructed_sequences():
    def trace_from(rels):
        records = [rp.TraceRecord(k=i, f_value=1.0, subgrad_norm=1.0,
                                  step_length=1.0, rel_dist=r)
                   for i, r in enumerate(rels)]
        return rp.SolveTrace(records=records, final_x=np.zeros(1), status=rp.MAX_ITERS)

    halving = trace_from([2.0**-i for i in range(30)])
    assert rp.geometric_rate_estimate(halving, window=20) == pytest.approx(0.5, rel=1e-12)
    constant = trace_from([0.3] * 30)
    assert rp.geometric_rate_estimate(constant, window=20) == pytest.approx(1.0, rel=1e-12)


def test_rate_estimate_on_converged_run():
    p = seeded_problem(100, 300, seed=0)
    report = rp.spectral_init(p, rp.PowerConfig(seed=0))
    trace = rp.run(p, report.x0, rp.SolverConfig(max_iters=2000, tol_dist=1e-5))
    assert rp.geometric_rate_estimate(trace, window=50) < 0.999


def test_rate_estimate_rejects_bad_input():
    records = [rp.TraceRecord(k=i, f_value=1.0, subgrad_norm=1.0,
                              step_length=1.0, rel_dist=0.5)
               for i in range(10)]
    short = rp.SolveTrace(records=records, final_x=np.zeros(1), status=rp.MAX_ITERS)
    with pytest.raises(ValueError):
        rp.geometric_rate_estimate(short, window=50)
    none_dist = rp.SolveTrace(
        records=[rp.TraceRecord(k=i, f_value=1.0, subgrad_norm=1.0,
                                step_length=1.0, rel_dist=None) for i in range(60)],
        final_x=np.zeros(1), status=rp.MAX_ITERS)
    with pytest.raises(ValueError):
        rp.geometric_rate_estimate(none_dist, window=50)


def test_run_rejects_bad_start_shape():
    p = seeded_problem(5, 20, seed=0)
    with pytest.raises(ValueError):
        rp.run(p, np.ones(6), rp.SolverConfig(max_iters=5))


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_run_stops_on_non_finite_value(bad):
    p = seeded_problem(5, 20, seed=0)
    b = p.b.copy()
    b[3] = bad
    corrupted = rp.PhaseProblem(ensemble=p.ensemble, b=b, truth=p.truth.copy())
    x0 = np.ones(5)
    trace = rp.run(corrupted, x0, rp.SolverConfig(max_iters=50))
    assert rp.NON_FINITE == "non_finite"
    assert trace.status == rp.NON_FINITE
    assert trace.iterations == 1
    assert not math.isfinite(trace.records[0].f_value)
    np.testing.assert_array_equal(trace.final_x, x0)
    assert rp.polyak_step(corrupted, x0).next_x is None


# ---------------------------------------------------------------------------
# geometric step rule (min_value=None)
# ---------------------------------------------------------------------------

def corrupted_problem(p_fail, seed, truth=True, d=200, m=1600, scale=10.0):
    ens = rp.gaussian_ensemble(d, m, seed=seed)
    xbar = rp.rng_for(seed, 99).standard_normal(d)
    p = rp.measure(ens, xbar, rp.NoiseModel(p_fail=p_fail, scale=scale, seed=100 + seed))
    if truth:
        return p
    return rp.PhaseProblem(ensemble=ens, b=p.b.copy(), noise=p.noise)


@pytest.mark.parametrize("p_fail", [0.05, 0.15, 0.30])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_geometric_rule_recovers_corrupted_signal_without_the_oracle(p_fail, seed):
    p = corrupted_problem(p_fail, seed)
    start = rp.spectral_init(p, rp.PowerConfig(seed=seed))
    trace = rp.run(p, start.x0, rp.SolverConfig(min_value=None, tol_dist=1e-10))
    # The remaining travel outlasts the distance, so the run ends converged.
    assert trace.status == rp.CONVERGED
    assert trace.records[-1].rel_dist <= 1e-10
    assert trace.iterations <= 420
    lam = 0.1 * np.linalg.norm(start.x0)
    for r in trace.records:
        assert r.step_length == lam * 0.95**r.k


def test_geometric_rule_stops_when_the_step_vanishes_relative_to_x():
    # Without the signal, the run stops at the first k whose remaining travel
    # 0.1 |x0| 0.95^k / 0.05 is <= tol |x_k| (k = 283); started at xbar the
    # iterates keep |x| = |x0| to far better than the 0.7% between 2 0.95^k
    # and tol at the stopping k.
    tol = 1e-6
    full = corrupted_problem(0.15, 0)
    p = corrupted_problem(0.15, 0, truth=False)
    trace = rp.run(p, full.truth, rp.SolverConfig(min_value=None, tol_dist=tol))
    first = next(k for k in range(10_000) if 0.1 * 0.95**k / 0.05 <= tol)
    assert first == 283
    assert trace.status == rp.STEP_VANISHED == "step_vanished"
    assert trace.iterations == first + 1
    assert all(r.rel_dist is None for r in trace.records)
    nx = np.linalg.norm(trace.final_x)
    travel = [r.step_length / 0.05 for r in trace.records[-2:]]
    assert travel[1] <= tol * nx < travel[0]


@pytest.mark.parametrize("seed, iterations, step_below_tol", [
    (0, 403, False), (1, 406, True), (2, 413, True)])
def test_geometric_rule_reports_a_recovered_signal_as_converged(seed, iterations,
                                                                step_below_tol):
    # The solve command's problems at p_fail 0.30 and scale 1e4.  On seeds 1-2
    # the step falls below tol_dist |x| (k = 404) before rel_dist reaches
    # tol_dist; the remaining travel lam q^k / (1 - q) is 20 times that step,
    # so the run goes on and ends converged instead of step_vanished.
    d, tol = 200, 1e-10
    p = rp.measure(rp.gaussian_ensemble(d, 1600, seed), rp.rng_for(seed, 40).standard_normal(d),
                   rp.NoiseModel(p_fail=0.30, scale=1e4, seed=100 + seed))
    start = rp.spectral_init(p, rp.PowerConfig(seed=seed))
    trace = rp.run(p, start.x0, rp.SolverConfig(min_value=None, tol_dist=tol))
    assert trace.status == rp.CONVERGED
    assert trace.iterations == iterations
    assert trace.records[-1].rel_dist <= tol
    nb = np.linalg.norm(p.truth)
    assert any(r.step_length <= tol * nb for r in trace.records) == step_below_tol


def test_geometric_rule_without_tol_dist_never_reports_a_vanished_step():
    p = corrupted_problem(0.15, 0, truth=False, d=20, m=160)
    trace = rp.run(p, np.ones(20), rp.SolverConfig(min_value=None, max_iters=700,
                                                   tol_dist=None))
    assert trace.status == rp.MAX_ITERS
    assert trace.iterations == 700


@pytest.mark.parametrize("tol_dist, status", [(1e-10, rp.STEP_VANISHED),
                                              (None, rp.ZERO_SUBGRADIENT)])
def test_geometric_rule_stops_at_once_from_the_origin(tol_dist, status):
    # lam = 0.1 |x0| = 0, and the subgradient vanishes at 0 as well.
    p = corrupted_problem(0.15, 0, d=20, m=160)
    trace = rp.run(p, np.zeros(20), rp.SolverConfig(min_value=None, tol_dist=tol_dist))
    assert trace.status == status
    assert trace.iterations == 1
    (r,) = trace.records
    assert r.step_length == 0.0
    assert all(math.isfinite(v) for v in (r.f_value, r.subgrad_norm, r.rel_dist))
    np.testing.assert_array_equal(trace.final_x, np.zeros(20))


def test_explicit_min_value_on_corrupted_data_takes_polyak_steps():
    # Replays Polyak's x - (f - min_value) / |zeta|^2 zeta with the objective
    # alone: the run must take exactly these steps, bit for bit.
    p = corrupted_problem(0.15, 1, d=20, m=160)
    x = rp.spectral_init(p, rp.PowerConfig(seed=1)).x0
    trace = rp.run(p, x, rp.SolverConfig(min_value=0.0, max_iters=60, tol_dist=1e-10))
    assert trace.status == rp.MAX_ITERS
    for r in trace.records:
        f, zeta = rp.value_and_subgradient(p, x)
        gn = float(np.linalg.norm(zeta))
        assert (r.f_value, r.subgrad_norm, r.step_length) == (f, gn, f / gn)
        x = x - (f / gn**2) * zeta
