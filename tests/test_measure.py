import importlib
import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import hadamard as dense_hadamard

import robustpr as rp
from robustpr.measure import (_FILL_BYTES, _H_RADIX, _fwht_last_axis, check_sizes, corruption,
                              squared_frobenius_norm)

SQ2 = math.sqrt(2.0)


def test_gaussian_ensemble_shape_and_determinism():
    e1 = rp.gaussian_ensemble(3, 5, seed=7)
    e2 = rp.gaussian_ensemble(3, 5, seed=7)
    assert e1.rows.shape == (5, 3)
    assert np.array_equal(e1.rows, e2.rows)
    assert not np.array_equal(e1.rows, rp.gaussian_ensemble(3, 5, seed=8).rows)


@pytest.mark.parametrize("d, m", [(400, 1481), (3, 5)])
def test_gaussian_ensemble_is_one_draw_stored_column_major(d, m):
    # m is not a multiple of the fill block, so the last block is partial.
    assert m % (_FILL_BYTES // (8 * d)) != 0
    rows = rp.gaussian_ensemble(d, m, seed=11).rows
    assert np.array_equal(rows, rp.rng_for(11, 0).standard_normal((m, d)))
    assert rows.flags.f_contiguous and not rows.flags.writeable


def test_dense_ensemble_memory_is_one_matrix():
    # A column-major ensemble is filled through a small buffer, and its norm
    # is summed without a copy (np.vdot would copy both operands, 9.5 MB here).
    d, m = 400, 1480
    matrix_bytes = 8 * d * m
    tracemalloc.start()
    try:
        ens = rp.gaussian_ensemble(d, m, seed=3)
        _, peak = tracemalloc.get_traced_memory()
        assert peak < matrix_bytes + 2**20
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        squared_frobenius_norm(ens)
        _, peak = tracemalloc.get_traced_memory()
        assert peak - before < 2**20
    finally:
        tracemalloc.stop()


def test_a_row_major_ensemble_is_used_as_given():
    stored = rp.gaussian_ensemble(13, 29, seed=5)
    rows = np.ascontiguousarray(stored.rows)
    ens = rp.MeasurementEnsemble(rows=rows)
    assert ens.rows is rows and rows.flags.c_contiguous
    rng = np.random.default_rng(3)
    x, y = rng.standard_normal(13), rng.standard_normal(29)
    # the same entries in the other layout agree to rounding
    np.testing.assert_allclose(rp.apply(ens, x), rp.apply(stored, x), rtol=1e-12, atol=1e-13)
    np.testing.assert_allclose(rp.apply_adjoint(ens, y), rp.apply_adjoint(stored, y),
                               rtol=1e-12, atol=1e-13)
    assert squared_frobenius_norm(ens) == pytest.approx(squared_frobenius_norm(stored),
                                                        rel=1e-13)


def test_gaussian_ensemble_column_means_concentrate():
    e = rp.gaussian_ensemble(1000, 3000, seed=0)
    bound = 4.0 / math.sqrt(3000)
    for col in range(0, 1000, 100):
        assert abs(e.rows[:, col].mean()) < bound


def test_gaussian_ensemble_preconditions():
    with pytest.raises(ValueError):
        rp.gaussian_ensemble(0, 5, seed=1)
    with pytest.raises(ValueError):
        rp.gaussian_ensemble(5, 0, seed=1)


def test_gaussian_ensemble_capacity_budget():
    with pytest.raises(rp.CapacityError):
        rp.gaussian_ensemble(1000, 1000, seed=0, max_bytes=10_000)


@pytest.mark.parametrize("sizes, error, message", [
    ({"d": 0, "m": 10}, ValueError, "d must be positive, got 0"),
    ({"d": 5, "m": -1}, ValueError, "m must be positive, got -1"),
    ({"l": 64, "k": 0}, ValueError, "k must be positive, got 0"),
    ({"l": 100, "k": 3}, ValueError, "sketch length l must be a power of two, got 100"),
    ({"l": 0, "k": 3}, ValueError, "sketch length l must be a power of two, got 0"),
    ({"l": -4, "k": 3}, ValueError, "sketch length l must be a power of two, got -4"),
    ({"d": 100_000, "m": 100_000}, rp.CapacityError, "dense 100000x100000 rows need"),
])
def test_each_size_rule_names_its_setting_in_the_check_and_the_constructors(sizes, error,
                                                                           message):
    # One rule, read by the check and by the constructor that would draw.
    with pytest.raises(error, match=message):
        check_sizes(**sizes)
    draw = rp.gaussian_ensemble if "d" in sizes else rp.hadamard_ensemble
    with pytest.raises(error, match=message):
        draw(*sizes.values(), seed=0)


def test_check_sizes_skips_a_size_given_as_none():
    check_sizes()
    check_sizes(d=3)
    check_sizes(l=1, k=1)
    # given rows are already allocated, so only a draw is held to the budget
    check_sizes(d=1000, m=1000, max_bytes=math.inf)
    with pytest.raises(rp.CapacityError):
        check_sizes(d=1000, m=1000, max_bytes=10_000)


def test_hadamard_ensemble_shapes():
    e = rp.hadamard_ensemble(4, 2, seed=3)
    assert (e.m, e.d) == (8, 4)
    assert e.sign_diagonals.shape == (2, 4)
    assert set(np.unique(e.sign_diagonals)) <= {-1.0, 1.0}


def test_hadamard_ensemble_degenerate_size():
    e = rp.hadamard_ensemble(1, 1, seed=0)
    assert (e.m, e.d) == (1, 1)
    sign = e.sign_diagonals[0, 0]
    assert sign in (-1.0, 1.0)
    # H = [1], so applying the sketch is multiplication by the sign itself
    assert rp.apply(e, np.array([3.0]))[0] == pytest.approx(3.0 * sign)


def test_hadamard_ensemble_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        rp.hadamard_ensemble(6, 1, seed=0)
    with pytest.raises(ValueError):
        rp.hadamard_ensemble(4, 0, seed=0)


def test_fwht_basis_examples():
    np.testing.assert_allclose(rp.fwht([1.0, 0.0]), [1 / SQ2, 1 / SQ2], atol=1e-15)
    np.testing.assert_allclose(rp.fwht([1.0, 1.0]), [SQ2, 0.0], atol=1e-15)


def test_fwht_matches_dense_sylvester_matrix():
    for l in (1, 2, 4, 8, 32):
        h = dense_hadamard(l) / math.sqrt(l)
        rng = np.random.default_rng(l)
        v = rng.standard_normal(l)
        np.testing.assert_allclose(rp.fwht(v), h @ v, atol=1e-12)


def _dense_transform(v):
    # H_l / sqrt(l) @ v from scipy's Sylvester matrix, in int8 and row chunks to bound memory
    l = v.shape[0]
    h = dense_hadamard(l, dtype=np.int8)
    return np.concatenate([h[i:i + 512] @ v for i in range(0, l, 512)]) / math.sqrt(l)


@pytest.mark.parametrize("l", [16, 32, 64, 128, 256, 512, 4096, 8192])
def test_fwht_across_the_radix_matches_dense_sylvester_matrix(l):
    # 16, 256 and 4096 are one, two and three full radix-16 passes; 32, 64, 128, 512
    # and 8192 add a remainder pass of radix 2, 4, 8, 2 and 2.
    rng = np.random.default_rng(l)
    v = rng.standard_normal(l)
    np.testing.assert_allclose(rp.fwht(v), _dense_transform(v), atol=1e-12)
    # An (N, k, l) block, as the sketch products pass it, is transformed row by row.
    ens = rp.hadamard_ensemble(l, 3, seed=l)
    xs = rng.standard_normal((4, l))
    block = rp.apply(ens, xs).reshape(4, 3, l)
    for n in range(4):
        for j in range(3):
            np.testing.assert_allclose(block[n, j], rp.fwht(ens.sign_diagonals[j] * xs[n]),
                                       atol=1e-12)


@pytest.mark.parametrize("l, k", [(8, 1), (64, 3)])
def test_squared_frobenius_norm_matches_densified_rows(l, k):
    ens = rp.hadamard_ensemble(l, k, seed=l)
    rows = rp.densify(ens)
    # Each block H S_j is orthogonal, so its rows are unit vectors.
    assert squared_frobenius_norm(ens) == ens.m
    assert np.sum(rows**2) == pytest.approx(ens.m, rel=1e-13)
    dense = rp.gaussian_ensemble(l, 3 * l, seed=l)
    assert squared_frobenius_norm(dense) == pytest.approx(np.sum(dense.rows**2), rel=1e-13)


def _passes_then_divide(a):
    # Reference: the same radix-16 passes with the unscaled H_r, then one division
    # by sqrt(l), the scale applied as its own sweep.
    l = a.shape[-1]
    out = np.asarray(a, dtype=np.float64)
    s = 1
    while s < l:
        r = min(16, l // s)
        h = _H_RADIX[:r, :r]
        out = out.reshape(-1, r) @ h if s == 1 else np.matmul(h, out.reshape(-1, r, s))
        s *= r
    return out.reshape(a.shape) / math.sqrt(l)


@pytest.mark.parametrize("e", range(15))
def test_fwht_is_bit_for_bit_the_passes_then_the_division(e):
    # Odd and even e = log2(l): the scale is 2^-floor(e/2) in the first pass, times
    # one division by sqrt(2) when e is odd, and neither may move a bit.
    l = 2**e
    rng = np.random.default_rng(1000 + e)
    for a in (rng.standard_normal(l), rng.standard_normal((2, 3, l))):
        got = _fwht_last_axis(a)
        assert got.shape == a.shape
        assert np.array_equal(got, _passes_then_divide(a))
        # a new array, also at l = 1 where no pass runs
        assert not np.shares_memory(got, a)
    assert np.array_equal(rp.fwht(a[0, 0]), _passes_then_divide(a[0, 0]))


def test_fwht_involution_and_isometry():
    for p in range(0, 15):
        l = 2**p
        v = np.random.default_rng(p).standard_normal(l)
        w = rp.fwht(v)
        assert np.max(np.abs(rp.fwht(w) - v)) <= 1e-12 * np.max(np.abs(v))
        assert np.linalg.norm(w) == pytest.approx(np.linalg.norm(v), rel=1e-12)


def test_fwht_rejects_bad_length():
    with pytest.raises(ValueError):
        rp.fwht(np.ones(3))
    with pytest.raises(ValueError):
        rp.fwht(np.ones((4, 4)))


def test_ensemble_reads_its_kind_and_sizes_from_its_array():
    dense = rp.MeasurementEnsemble(rows=np.zeros((5, 3)))
    assert (dense.kind, dense.d, dense.m) == (rp.DENSE_GAUSSIAN, 3, 5)
    sketch = rp.MeasurementEnsemble(sign_diagonals=np.ones((3, 8)))
    assert (sketch.kind, sketch.d, sketch.m) == (rp.HADAMARD_SKETCH, 8, 24)
    # set once at construction, not recomputed on every product
    assert {"kind", "d", "m"} <= vars(sketch).keys()
    assert not sketch.sign_diagonals.flags.writeable
    with pytest.raises(TypeError):
        rp.MeasurementEnsemble(rows=np.eye(2), d=2)


@pytest.mark.parametrize("arrays, message", [
    ({}, "exactly one of rows and sign_diagonals"),
    ({"rows": np.eye(2), "sign_diagonals": np.ones((1, 2))},
     "exactly one of rows and sign_diagonals"),
    ({"rows": np.ones(3)}, "expected a nonempty 2-D array"),
    ({"sign_diagonals": np.ones((1, 2, 2))}, "expected a nonempty 2-D array"),
    # m = 0 made every objective value NaN; check_sizes names the empty size
    ({"rows": np.zeros((0, 3))}, "m must be positive, got 0"),
    ({"sign_diagonals": np.ones((0, 4))}, "k must be positive, got 0"),
    # l = 3 used to be accepted, and A^T A x was not x
    ({"sign_diagonals": np.ones((1, 3))}, "must be a power of two, got 3"),
])
def test_ensemble_rejects_a_malformed_construction(arrays, message):
    with pytest.raises(ValueError, match=message):
        rp.MeasurementEnsemble(**arrays)


def test_apply_identity_rows():
    ens = rp.MeasurementEnsemble(rows=np.eye(2))
    np.testing.assert_allclose(rp.apply(ens, np.array([3.0, -2.0])), [3.0, -2.0])
    np.testing.assert_allclose(rp.apply_adjoint(ens, np.array([3.0, -2.0])), [3.0, -2.0])


def test_apply_hadamard_hand_case():
    ens = rp.MeasurementEnsemble(sign_diagonals=np.array([[1.0, -1.0]]))
    # S x = (1, -1); H_2 (1,-1)/sqrt(2) = (0, sqrt(2))
    np.testing.assert_allclose(rp.apply(ens, np.array([1.0, 1.0])), [0.0, SQ2], atol=1e-15)


def test_apply_adjoint_hadamard_hand_case():
    ens = rp.MeasurementEnsemble(sign_diagonals=np.array([[1.0, 1.0]]))
    np.testing.assert_allclose(rp.apply_adjoint(ens, np.array([1.0, 0.0])),
                               [1 / SQ2, 1 / SQ2], atol=1e-15)


def test_apply_dimension_mismatch():
    ens = rp.gaussian_ensemble(3, 5, seed=0)
    with pytest.raises(ValueError):
        rp.apply(ens, np.ones(4))
    with pytest.raises(ValueError):
        rp.apply_adjoint(ens, np.ones(3))


@pytest.mark.parametrize("make", [
    lambda: rp.gaussian_ensemble(13, 29, seed=5),
    lambda: rp.hadamard_ensemble(16, 3, seed=5),
])
def test_adjoint_identity_many_triples(make):
    ens = make()
    rng = np.random.default_rng(42)
    for _ in range(100):
        x = rng.standard_normal(ens.d)
        y = rng.standard_normal(ens.m)
        lhs = rp.apply(ens, x) @ y
        rhs = x @ rp.apply_adjoint(ens, y)
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))


@pytest.mark.parametrize("l,k", [(2, 1), (8, 2), (64, 3), (128, 3)])
def test_hadamard_matrix_free_matches_densified(l, k):
    ens = rp.hadamard_ensemble(l, k, seed=11)
    rows = rp.densify(ens)
    assert rows.shape == (ens.m, ens.d)
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.standard_normal(l)
        np.testing.assert_allclose(rp.apply(ens, x), rows @ x, atol=1e-12)
        y = rng.standard_normal(ens.m)
        np.testing.assert_allclose(rp.apply_adjoint(ens, y), rows.T @ y, atol=1e-12)


def test_measure_zero_signal_gives_zero_measurements():
    ens = rp.gaussian_ensemble(4, 9, seed=2)
    problem = rp.measure(ens, np.zeros(4))
    assert np.all(problem.b == 0.0)


def test_measure_noiseless_objective_vanishes_at_truth():
    ens = rp.hadamard_ensemble(8, 2, seed=2)
    xbar = np.random.default_rng(3).standard_normal(8)
    problem = rp.measure(ens, xbar)
    assert rp.value(problem, xbar) == 0.0


def test_measure_zero_fail_probability_matches_noiseless():
    ens = rp.gaussian_ensemble(6, 20, seed=4)
    xbar = np.random.default_rng(5).standard_normal(6)
    clean = rp.measure(ens, xbar)
    noisy = rp.measure(ens, xbar, rp.NoiseModel(p_fail=0.0, scale=3.0, seed=9))
    np.testing.assert_array_equal(clean.b, noisy.b)


def test_measure_noise_is_seeded_and_sparse():
    ens = rp.gaussian_ensemble(6, 400, seed=4)
    xbar = np.random.default_rng(5).standard_normal(6)
    noise = rp.NoiseModel(p_fail=0.25, scale=2.0, seed=9)
    p1 = rp.measure(ens, xbar, noise)
    p2 = rp.measure(ens, xbar, noise)
    np.testing.assert_array_equal(p1.b, p2.b)
    clean = rp.measure(ens, xbar)
    frac = np.mean(p1.b != clean.b)
    assert 0.1 < frac < 0.4


@pytest.mark.parametrize("kind, big", [("gaussian", 1e300), ("uniform", 1e308)])
def test_corruption_scales_a_standard_draw(kind, big):
    # A scale near the float limit must not overflow inside the draw itself.
    def draw(scale):
        noise = rp.NoiseModel(p_fail=0.5, scale=scale, seed=0, kind=kind)
        return corruption(noise, 500, np.random.default_rng(1), np.random.default_rng(2))

    unit, huge = draw(1.0), draw(big)
    assert np.isfinite(huge).all()
    assert 100 < np.count_nonzero(unit) < 400
    np.testing.assert_array_equal(huge, big * unit)
    if kind == "uniform":
        assert np.abs(unit).max() <= 1.0


def test_measure_dimension_mismatch():
    ens = rp.gaussian_ensemble(4, 9, seed=2)
    with pytest.raises(ValueError):
        rp.measure(ens, np.zeros(5))


def test_problem_rejects_a_truth_of_the_wrong_shape():
    # A (1,) truth would broadcast: a start at xbar + 0.01 would report rel_dist 3.45.
    p = rp.measure(rp.gaussian_ensemble(5, 40, seed=0), np.ones(5))
    for truth in (np.array([1.0]), np.ones((5, 1)), np.float64(1.0)):
        with pytest.raises(ValueError, match=r"truth has shape .*, expected \(d,\) = \(5,\)"):
            rp.PhaseProblem(ensemble=p.ensemble, b=p.b.copy(), truth=truth)


def test_problem_rejects_measurements_that_are_not_a_vector_of_length_m():
    # A (40, 1) b would broadcast: the objective at xbar would be a length-40 vector.
    p = rp.measure(rp.gaussian_ensemble(5, 40, seed=0), np.ones(5))
    for b in (p.b.reshape(40, 1), p.b[:39].copy(), np.float64(1.0)):
        with pytest.raises(ValueError, match=r"b has shape .*, expected \(m,\) = \(40,\)"):
            rp.PhaseProblem(ensemble=p.ensemble, b=b)


def test_package_measure_is_the_function_and_the_module_is_reached_by_import():
    # robustpr.measure is the problem generator; the re-export hides the submodule of
    # the same name, which `from robustpr.measure import ...` and importlib still reach.
    module = importlib.import_module("robustpr.measure")
    assert rp.measure is module.measure
    assert callable(rp.measure) and not hasattr(rp.measure, "MeasurementEnsemble")
    assert module.MeasurementEnsemble is rp.MeasurementEnsemble
    from robustpr.measure import MeasurementEnsemble
    assert MeasurementEnsemble is rp.MeasurementEnsemble


def test_noise_model_validation():
    with pytest.raises(ValueError):
        rp.NoiseModel(p_fail=1.0, scale=1.0, seed=0)
    with pytest.raises(ValueError):
        rp.NoiseModel(p_fail=0.5, scale=-1.0, seed=0)
    for scale in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            rp.NoiseModel(p_fail=0.5, scale=scale, seed=0)
    with pytest.raises(ValueError):
        rp.NoiseModel(p_fail=0.5, scale=1.0, seed=0, kind="levy")


def test_ensembles_are_immutable():
    ens = rp.gaussian_ensemble(3, 5, seed=7)
    with pytest.raises(ValueError):
        ens.rows[0, 0] = 0.0


def test_full_64_bit_seeds_are_accepted():
    big = 2**64 - 1
    e1 = rp.gaussian_ensemble(3, 5, seed=big)
    e2 = rp.gaussian_ensemble(3, 5, seed=big)
    assert np.array_equal(e1.rows, e2.rows)
    assert rp.hadamard_ensemble(4, 1, seed=big).sign_diagonals.shape == (1, 4)


@pytest.mark.parametrize("make,exact", [
    (lambda: rp.gaussian_ensemble(13, 29, seed=5), False),
    (lambda: rp.hadamard_ensemble(16, 3, seed=5), True),
])
def test_apply_on_a_block_equals_per_point_products(make, exact):
    ens = make()
    rng = np.random.default_rng(7)
    xs = rng.standard_normal((6, ens.d))
    ys = rng.standard_normal((6, ens.m))
    fwd = rp.apply(ens, xs)
    adj = rp.apply_adjoint(ens, ys)
    assert fwd.shape == (6, ens.m) and adj.shape == (6, ens.d)
    for n in range(6):
        # a block is a gemm on dense rows, a gemv per point; the sketch is elementwise
        one_fwd, one_adj = rp.apply(ens, xs[n]), rp.apply_adjoint(ens, ys[n])
        if exact:
            assert np.array_equal(fwd[n], one_fwd) and np.array_equal(adj[n], one_adj)
        else:
            np.testing.assert_allclose(fwd[n], one_fwd, rtol=1e-12, atol=0)
            np.testing.assert_allclose(adj[n], one_adj, rtol=1e-12, atol=0)


def test_apply_rejects_bad_blocks():
    for ens in (rp.gaussian_ensemble(3, 5, seed=0), rp.hadamard_ensemble(4, 2, seed=0)):
        with pytest.raises(ValueError):
            rp.apply(ens, np.ones((2, 2, ens.d)))
        with pytest.raises(ValueError):
            rp.apply(ens, np.ones((2, ens.d + 1)))
        with pytest.raises(ValueError):
            rp.apply_adjoint(ens, np.ones((2, 2, ens.m)))
        with pytest.raises(ValueError):
            rp.apply_adjoint(ens, np.ones((2, ens.m - 1)))


def test_densify_sketch_columns_are_unit_vector_products():
    ens = rp.hadamard_ensemble(8, 3, seed=4)
    rows = rp.densify(ens)
    assert rows.flags.writeable and rows.flags.c_contiguous
    for j, e_j in enumerate(np.eye(ens.d)):
        assert np.array_equal(rows[:, j], rp.apply(ens, e_j))
