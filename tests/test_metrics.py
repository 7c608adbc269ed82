import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from copkern import cli
from copkern._accel import _levy_check, levy_distance
from copkern.archimedean import archimedean_copula
from copkern.core import (
    cdf_lattice,
    checkerboard_approx,
    checkerboard_copula,
    checkerboard_measures,
    make_m,
    make_pi,
    make_w,
    sup_distance,
    transpose,
)
from copkern.estimation import (
    cfg_estimator,
    convexify_pickands,
    empirical_kendall,
    pseudo_obs,
    reconstruct_generator,
)
from copkern.extreme_value import (
    ev_copula,
    ev_measures,
    make_marshall_olkin,
    make_piecewise_linear_pickands,
    paper_pwl_knots,
    transpose_pickands,
)
from copkern.fixtures import shift_copula, strip_copula, strip_index
from copkern.metrics import (
    QuadratureSpec,
    _column_defect,
    checked_kernel_grid,
    d1,
    d1_grids,
    d1_to_grid,
    d2_squared,
    d_inf,
    d_inf_to_lattice,
    d_infty_metric,
    disintegration_defect,
    golden_xs,
    kernel_grid,
    measures,
    midpoints,
    partial_distance,
    pi_measures,
    r_identity_residual,
    r_measure,
    wcc_grid,
    wcc_profile,
    zeta1,
)
from copkern.registry import make_copula, registered_examples
from copkern.sampling import RngSpec, SampleSet, sample

Q = QuadratureSpec(m=512)


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(m=4)


@pytest.mark.parametrize("m", [256.5, 256.0, np.float64(256)], ids=["256.5", "256.0", "f64"])
def test_quadrature_spec_rejects_a_non_integer_m(m):
    with pytest.raises(ValueError, match="m must be an integer"):
        QuadratureSpec(m=m)
    assert QuadratureSpec(m=np.int64(256)).m == 256


@pytest.mark.parametrize("call, msg", [
    (lambda c: golden_xs(2.5), "golden abscissa count must be an integer, got 2.5"),
    (lambda c: golden_xs(-3), "golden abscissa count must be >= 1, got -3"),
    (lambda c: disintegration_defect(c, m=2.5), "resolution m must be an integer, got 2.5"),
    (lambda c: disintegration_defect(c, m=0), "disintegration resolution m must be >= 1, got 0"),
    (lambda c: wcc_grid(c, y_grid=1), "wcc resolution y_grid must be >= 2, got 1"),
    (lambda c: wcc_profile(c, make_pi(), y_grid=1), "y_grid must be >= 2, got 1"),
], ids=["golden-float", "golden-negative", "defect-float-m", "defect-zero-m", "wcc-grid-1",
        "wcc-profile-1"])
def test_integer_arguments_are_checked_where_they_enter(call, msg):
    # unchecked, m = 2.5 read a defect of 0.303 on gumbel:3 and y_grid = 1 a
    # WCC distance of 0 between gumbel:3 and Pi
    with pytest.raises(ValueError, match=msg):
        call(make_copula("gumbel:3"))


def test_d1_m_pi_is_one_third():
    # int int |1{x<=y} - y| dx dy = int 2y(1-y) dy = 1/3
    assert d1(make_m(), make_pi(), Q) == pytest.approx(1.0 / 3.0, abs=2e-3)


def test_d2_m_pi_is_one_sixth():
    # int int (1{x<=y} - y)^2 dx dy = int y(1-y) dy = 1/6
    assert d2_squared(make_m(), make_pi(), Q) == pytest.approx(1.0 / 6.0, abs=1e-3)


def test_d_infty_m_pi_is_one_half():
    # sup_y int |1{x<=y} - y| dx = sup_y 2y(1-y) = 1/2
    assert d_infty_metric(make_m(), make_pi(), Q) == pytest.approx(0.5, abs=2e-3)


def test_d_inf_w_pi():
    # sup |max(x+y-1,0) - xy| = 1/4 at x = y = 1/2
    assert d_inf(make_w(), make_pi(), Q) == pytest.approx(0.25, abs=1e-12)


def test_zeta1_boundaries():
    assert zeta1(make_pi(), Q) == pytest.approx(0.0, abs=1e-12)
    assert zeta1(make_m(), Q) == pytest.approx(1.0, abs=6e-3)
    assert zeta1(make_w(), Q) == pytest.approx(1.0, abs=6e-3)


def test_r_boundaries():
    assert r_measure(make_pi(), Q) == pytest.approx(0.0, abs=1e-3)
    assert r_measure(make_m(), Q) == pytest.approx(1.0, abs=6e-3)


def test_zeta1_paper_values():
    assert zeta1(make_copula("gumbel:3"), Q) == pytest.approx(0.6910, abs=5e-3)
    assert zeta1(make_copula("galambos:3"), Q) == pytest.approx(0.7513, abs=5e-3)


@pytest.mark.parametrize("spec", registered_examples())
def test_r_internal_identity_consistency(spec):
    # r_measure raises if the grid's column defect exceeds 4/m
    v = r_measure(make_copula(spec), Q)
    # atomic kernels (M, W) carry a +3/m midpoint-rule bias at the top end
    assert -0.51 <= v <= 1.0 + 3.0 / Q.m + 1e-9


def test_r_measure_evaluates_one_kernel_grid():
    # the column-defect check runs on the same grid r is read from
    base = make_copula("gumbel:3")
    sizes = []

    def conditional(x):
        kernel = base.conditional(x)

        def counted_kernel(y):
            sizes.append(np.broadcast(np.asarray(x), np.asarray(y)).size)
            return kernel(y)

        return counted_kernel

    counted = replace(base, conditional=conditional)
    q = QuadratureSpec(m=64)
    assert r_measure(counted, q) == r_measure(base, q)
    assert sizes == [64 * 64]


@pytest.mark.parametrize("spec", registered_examples())
def test_pi_measures_equal_single_measures(spec):
    c = make_copula(spec)
    q = QuadratureSpec(m=128)
    assert pi_measures(c, q) == (d1(c, make_pi(), q), zeta1(c, q), r_measure(c, q))
    assert r_identity_residual(c, q) <= 1e-6


# (D1(C, Pi), zeta1, r) of the closed-form models
_CLOSED_FORMS = {"pi": (0.0, 0.0, 0.0), "m": (1.0 / 3.0, 1.0, 1.0), "w": (1.0 / 3.0, 1.0, 1.0)}
# registered families whose models carry no exact measures
_GRID_ONLY = ("clayton", "gumbel", "frank")


@pytest.mark.parametrize("spec", _CLOSED_FORMS)
@pytest.mark.parametrize("m", [64, 512])
def test_measures_of_the_closed_forms(spec, m):
    # the grid reads r(M) = r(W) = 1 + 3/m; the models carry the exact values
    c, q = make_copula(spec), QuadratureSpec(m=m)
    assert measures(c, q) == _CLOSED_FORMS[spec]
    assert np.max(np.abs(np.subtract(pi_measures(c, q), _CLOSED_FORMS[spec]))) <= 3.0 / m


@pytest.mark.parametrize("spec", registered_examples())
@pytest.mark.parametrize("m", [64, 512])
def test_measures_agree_with_the_grid(spec, m):
    c, q = make_copula(spec), QuadratureSpec(m=m)
    got, grid = np.array(measures(c, q)), np.array(pi_measures(c, q))
    assert (c.measures(q.m) is None) == (spec.split(":")[0] in _GRID_ONLY)
    if spec.split(":")[0] in _GRID_ONLY:
        assert got.tobytes() == grid.tobytes()
    else:
        assert np.max(np.abs(got - grid)) <= 4.0 / m


def test_checkerboard_model_carries_its_exact_measures():
    cb = checkerboard_approx(make_copula("clayton:2"), 16)
    assert measures(checkerboard_copula(cb), Q) == checkerboard_measures(cb)


def test_transposed_model_carries_the_transposed_measures():
    # the paper's piecewise-linear A is asymmetric, and so are its measures
    p = make_piecewise_linear_pickands(paper_pwl_knots())
    got = measures(transpose(ev_copula(p)), Q)
    assert got == ev_measures(transpose_pickands(p))
    assert got[2] != ev_measures(p)[2]


@pytest.mark.parametrize("alpha, beta", [(0.5, 0.7), (0.2, 0.9), (0.9, 0.3)])
@pytest.mark.parametrize("m", [512, 2048])
def test_r_measure_of_marshall_olkin_against_its_closed_form(alpha, beta, m):
    # K = (1 - alpha) x^-alpha y below the curve y = x^(alpha/beta) and
    # y^(1 - beta) above it, which integrates to this r
    want = ((2.0 * beta * (1.0 - alpha) ** 2 + 6.0 * alpha)
            / (3.0 * alpha + beta - 2.0 * alpha * beta) - 2.0)
    assert abs(r_measure(make_marshall_olkin(alpha, beta), QuadratureSpec(m=m)) - want) <= 1.0 / m


def _d1_to_pi_grid(c, q):
    return d1_to_grid(c, kernel_grid(make_pi(), q))


@pytest.mark.parametrize("spec,m", [
    ("gumbel:200", 256), ("gumbel:200", 512), ("clayton:200", 256), ("clayton:200", 512),
    ("frank:1000", 64), ("clayton:500", 64),
])
@pytest.mark.parametrize("measure", [r_measure, pi_measures, _d1_to_pi_grid])
def test_kernel_check_rejects_overflow_damaged_models(spec, m, measure):
    # these kernels overflow, so their x-means miss the disintegration identity
    c = make_copula(spec)
    with np.errstate(all="ignore"):
        with pytest.raises(ValueError) as info:
            measure(c, QuadratureSpec(m=m))
        defect = _column_defect(kernel_grid(c, QuadratureSpec(m=m)), midpoints(m))
    assert defect > 4.0 / m
    assert (f"the kernel of '{c.label}' does not disintegrate it at m = {m}: "
            f"column defect {defect:.3g} > 4/m") in str(info.value)


@pytest.mark.parametrize("measure", [checked_kernel_grid, r_measure, pi_measures,
                                     _d1_to_pi_grid])
def test_kernel_check_rejects_a_nan_kernel(nan_galambos, measure):
    # a NaN cell makes the column defect NaN, which fails the check
    with pytest.raises(ValueError, match="the kernel of 'ev\\[galambos:100\\]' does not "
                                         "disintegrate it at m = 64: column defect nan"):
        measure(make_copula("galambos:100"), QuadratureSpec(m=64))


def _bits(v):
    return np.float64(v).view(np.int64)


@pytest.mark.parametrize("spec", ["gumbel:3", "galambos:3", "marshall-olkin:0.5:0.7", "m"])
def test_in_place_reductions_match_the_allocating_forms(spec):
    # the references allocate |K1 - K2| or (K1 - K2)^2 beside the difference
    q = QuadratureSpec(m=300)
    c, pi = make_copula(spec), make_pi()
    K, P, y = kernel_grid(c, q), kernel_grid(pi, q), midpoints(q.m)
    assert _bits(d1_grids(K, P)) == _bits(np.mean(np.abs(K - P)))
    assert _bits(sup_distance(K, P)) == _bits(np.max(np.abs(K - P)))
    assert np.array_equal(K, kernel_grid(c, q)) and np.array_equal(P, kernel_grid(pi, q))
    assert _bits(d2_squared(c, pi, q)) == _bits(np.mean((K - P) ** 2))
    assert _bits(d_infty_metric(c, pi, q)) == _bits(np.max(np.mean(np.abs(K - P), axis=0)))
    d, z, r = pi_measures(c, q)
    assert _bits(d) == _bits(np.mean(np.abs(K - y)))
    assert _bits(r) == _bits(6.0 * float(np.mean(K ** 2)) - 2.0)
    residual = abs(6.0 * float(np.mean(K ** 2)) - 2.0 - 6.0 * float(np.mean((K - y) ** 2))
                   - (12.0 * float(np.mean(K * y)) - 6.0 * float(np.mean(y ** 2)) - 2.0))
    assert _bits(r_identity_residual(c, q)) == _bits(residual)


@pytest.mark.parametrize("spec", ["gumbel:3", "galambos:3"])
@pytest.mark.parametrize("m", [64, 512])
def test_d1_to_grid_is_d1_of_the_grids(spec, m):
    # one block (m <= 181) is bit-identical; 8 blocks add their sums in turn
    q = QuadratureSpec(m=m)
    c, limit = make_copula(spec), make_copula("clayton:2")
    got, expected = d1_to_grid(c, kernel_grid(limit, q)), d1(c, limit, q)
    if m == 64:
        assert _bits(got) == _bits(expected)
    assert got == pytest.approx(expected, rel=1e-15, abs=0.0)


def _peak_bytes(f):
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("spec", ["gumbel:3", "galambos:3"])
def test_block_reductions_hold_less_than_one_lattice(spec):
    # a block reduction's peak stays below that of building c's lattice alone
    c, other, q = make_copula(spec), make_copula("clayton:2"), QuadratureSpec(m=512)
    L, K = cdf_lattice(other, q.m), kernel_grid(other, q)
    lattice_peak = _peak_bytes(lambda: cdf_lattice(c, q.m))
    assert _peak_bytes(lambda: d_inf(c, other, q)) < lattice_peak
    assert _peak_bytes(lambda: d_inf_to_lattice(c, L)) < lattice_peak
    assert _peak_bytes(lambda: d1_to_grid(c, K)) < _peak_bytes(lambda: kernel_grid(c, q))


def _plugin_fit_models():
    # seeds fixed before the first run; the tied samples are integer-valued
    samples = {}
    for seed, spec in enumerate(("gumbel:3", "clayton:2", "galambos:3")):
        for n in (10, 50):
            samples[f"{spec}|n={n}"] = sample(make_copula(spec), n, RngSpec(seed=100 + seed))
    rng = np.random.default_rng(7)
    for n in (10, 50):
        x = rng.integers(0, 5, n).astype(float)
        samples[f"ties|n={n}"] = SampleSet(x=x, y=x + rng.integers(0, 3, n))
    for name, s in samples.items():
        p = pseudo_obs(s)
        yield f"arch {name}", archimedean_copula(reconstruct_generator(empirical_kendall(p)))
        yield f"ev {name}", ev_copula(convexify_pickands(cfg_estimator(p)))


def test_kernel_check_passes_plugin_fits_with_margin():
    worst = {}
    for name, model in _plugin_fit_models():
        for m in (32, 256):
            q = QuadratureSpec(m=m)
            pi_measures(model, q)
            worst[f"{name} m={m}"] = m * _column_defect(kernel_grid(model, q), midpoints(m))
    assert max(worst.values()) <= 2.5, max(worst.items(), key=lambda kv: kv[1])


def test_kernel_check_rejects_fast_shift_fixtures():
    # shift:n reads (2^(n-1) - 1/2)/m at every m: valid, but finer in x than m resolves
    r_measure(shift_copula(3), Q)
    with pytest.raises(ValueError, match="column defect"):
        r_measure(shift_copula(4), Q)
    assert d1(shift_copula(4), make_pi(), Q) == pytest.approx(1.0 / 3.0, abs=2e-3)


@pytest.mark.parametrize("spec", registered_examples())
def test_disintegration(spec):
    assert disintegration_defect(make_copula(spec)) <= 1e-3


def test_partial_distance_shift_family():
    # the shift family keeps D1(C_n, Pi) = 1/3 while the transpose converges
    pi = make_pi()
    assert d1(shift_copula(6), pi, Q) == pytest.approx(1.0 / 3.0, abs=2e-3)
    assert partial_distance(shift_copula(6), pi, Q) == pytest.approx(
        d1(shift_copula(6), pi, Q), abs=0.02
    )


def test_levy_distance_identical_zero():
    f = np.linspace(0, 1, 513)
    assert levy_distance(f, f) == 0.0


def test_levy_distance_point_mass_vs_uniform():
    # point mass at a vs Uniform(0,1): Levy distance = max(a, 1-a)/2
    y = np.linspace(0, 1, 2049)
    for a in (0.5, 0.3, 0.9):
        point = (y >= a).astype(float)
        assert levy_distance(point, y) == pytest.approx(max(a, 1 - a) / 2.0, abs=2e-3)


def test_levy_distance_two_point_masses():
    # point masses at a and b: Levy distance = |a-b|/... bounded by |a-b|
    y = np.linspace(0, 1, 2049)
    pa = (y >= 0.3).astype(float)
    pb = (y >= 0.5).astype(float)
    d = levy_distance(pa, pb)
    assert 0.05 <= d <= 0.2001


def _levy_scan(f, g):
    # the smallest shift k whose Levy condition holds, scanning k = 0, 1, ...:
    # F(y_j - eps) - eps <= G(y_j) <= F(y_j + eps) + eps at eps = k / (m - 1),
    # F read as 0 left of the grid and 1 right of it
    m = len(f)
    for k in range(m):
        eps = k / (m - 1)
        left = np.r_[np.zeros(k), f[:m - k]]
        right = np.r_[f[k:], np.ones(k)]
        if np.all(left - eps <= g + 1e-12) and np.all(g <= right + eps + 1e-12):
            return k / (m - 1)
    return 1.0


def _random_cdf_rows(rng, rows, m):
    kind = rng.integers(3)
    if kind == 0:                       # continuous
        return np.sort(rng.random((rows, m)), axis=1)
    if kind == 1:                       # flat pieces and jumps
        return np.sort(np.round(rng.random((rows, m)) * 4) / 4, axis=1)
    return (np.arange(m) >= rng.integers(0, m, (rows, 1))).astype(float)   # point masses


def test_levy_distance_rows_match_a_linear_scan():
    rng = np.random.default_rng(2024)
    for _ in range(150):
        m, rows = int(rng.integers(2, 81)), int(rng.integers(1, 6))
        f, g = _random_cdf_rows(rng, rows, m), _random_cdf_rows(rng, rows, m)
        got = levy_distance(f, g)
        want = np.array([_levy_scan(a, b) for a, b in zip(f, g)])
        assert got.shape == (rows,)
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), (m, got, want)
        one = levy_distance(f[0], g[0])
        assert type(one) is float and one == want[0]


def _levy_unbracketed(f, g):
    """The Levy shifts of a binary search over [0, m - 1] from a check at
    shift 0, with no sup-distance bracket: the oracle of the bracketed one."""
    rows_f, rows_g = np.atleast_2d(np.asarray(f, float), np.asarray(g, float))
    n, m = rows_f.shape
    padded = np.concatenate((np.zeros((n, m - 1)), rows_f, np.ones((n, m - 1))), axis=1)
    windows = np.lib.stride_tricks.sliding_window_view(padded, m, axis=1)
    lo = np.zeros(n, dtype=np.int64)
    hi = np.where(_levy_check(windows, rows_g, lo), 0, m - 1)
    while np.any(unsettled := hi - lo > 1):
        mid = (lo + hi) // 2
        ok = _levy_check(windows, rows_g, mid)
        hi = np.where(unsettled & ok, mid, hi)
        lo = np.where(unsettled & ~ok, mid, lo)
    return hi / (m - 1)


def _assert_levy_matches_the_unbracketed_search(f, g):
    got, want = np.atleast_1d(levy_distance(f, g)), _levy_unbracketed(f, g)
    assert np.array_equal(got.view(np.int64), want.view(np.int64)), (got, want)


@pytest.mark.parametrize("spec,N", [("clayton:2", 8), ("clayton:2", 32), ("galambos:3", 16),
                                    ("strip:5", 8), ("strip:5", 64)])
def test_levy_distance_of_checkerboard_wcc_grids_matches_a_linear_scan(spec, N):
    target = strip_copula(5) if spec == "strip:5" else make_copula(spec)
    board = checkerboard_copula(checkerboard_approx(target, N))
    K1, K2 = wcc_grid(board), wcc_grid(target)
    got = levy_distance(K1, K2)
    want = np.array([_levy_scan(a, b) for a, b in zip(K1, K2)])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    for f, g in ((K1, K2), (K2, K1), (K2, wcc_grid(make_pi()))):
        _assert_levy_matches_the_unbracketed_search(f, g)


@pytest.mark.parametrize("argv", [
    ["converge", "--copula", "clayton:3"],
    ["converge", "--copula", "galambos:3"],
    ["approximate", "--copula", "clayton:2"],
    ["approximate", "--copula", "strip:5"],
])
def test_levy_distance_on_the_command_tables_matches_the_unbracketed_search(
        argv, tmp_path, monkeypatch):
    # the tables that measure-sweep's converge and approximate commands reduce
    tables = []

    def recorded(f, g):
        tables.append((f, g))
        return levy_distance(f, g)

    monkeypatch.setattr(cli, "levy_distance", recorded)
    cli.main([*argv, "--out", str(tmp_path / "out.csv")])
    assert tables
    for f, g in tables:
        _assert_levy_matches_the_unbracketed_search(f, g)


@st.composite
def _cdf_table_pairs(draw):
    """Stacked nondecreasing tables in [0, 1] and a second stack, each row
    continuous, stepped, constant or equal to its partner."""
    m, rows = draw(st.integers(2, 40)), draw(st.integers(1, 4))
    unit = st.floats(0.0, 1.0, allow_nan=False)

    def row():
        kind = draw(st.sampled_from(["sorted", "steps", "zero", "one"]))
        if kind in ("zero", "one"):
            return np.full(m, 0.0 if kind == "zero" else 1.0)
        values = np.sort(draw(st.lists(unit, min_size=m, max_size=m)))
        return np.round(values * 3) / 3 if kind == "steps" else values

    f = np.array([row() for _ in range(rows)])
    g = np.array([f[r] if draw(st.booleans()) else row() for r in range(rows)])
    return f, g


@settings(max_examples=300, deadline=None)
@given(_cdf_table_pairs())
@example((np.ones((1, 9)), np.r_[np.zeros(8), 1.0][None, :]))         # shift m - 1
@example((np.linspace(0.0, 1.0, 9)[None, :], np.linspace(0.0, 1.0, 9)[None, :]))  # shift 0
@example((np.linspace(0.0, 1.0, 9)[None, :], np.linspace(0.0, 1.0 - 1e-13, 9)[None, :]))
def test_levy_distance_of_nondecreasing_tables_matches_the_unbracketed_search(fg):
    f, g = fg
    _assert_levy_matches_the_unbracketed_search(f, g)
    _assert_levy_matches_the_unbracketed_search(g, f)


def test_levy_distance_keeps_the_full_bracket_where_the_sup_bracket_fails():
    # G leaves [0, 1], so no shift passes: the bracket falls back to m - 1,
    # which is taken unchecked, as in the unbracketed search
    f = np.linspace(0.0, 1.0, 33)
    g = np.vstack([f, f + 2.0, np.full(33, np.nan)])
    assert np.array_equal(levy_distance(f[None, :].repeat(3, 0), g), [0.0, 1.0, 1.0])
    _assert_levy_matches_the_unbracketed_search(f[None, :].repeat(3, 0), g)
    # F dips, so the check fails at the sup bracket k = 1 (eps 0.25) and the
    # search runs over [0, m - 1]
    f, g = np.array([0.0, 0.5, 0.0, 0.0, 0.0]), np.array([0.0, 0.5, 0.1, 0.1, 0.1])
    assert levy_distance(f, g) == 0.5
    _assert_levy_matches_the_unbracketed_search(f, g)


def test_levy_distance_rejects_a_one_point_table():
    with pytest.raises(ValueError, match="at least 2 points"):
        levy_distance([0.5], [0.5])


@pytest.mark.parametrize("f_shape, g_shape", [((9,), (3, 9)), ((3, 9), (9,)), ((2, 9), (3, 9))])
def test_levy_distance_rejects_tables_of_different_shapes(f_shape, g_shape):
    y = np.linspace(0.0, 1.0, 9)
    with pytest.raises(ValueError, match=re.escape(f"one shape, got {f_shape} and {g_shape}")):
        levy_distance(np.broadcast_to(y, f_shape), np.broadcast_to(y, g_shape))


@pytest.mark.parametrize("shape", [(2, 3, 9), (1, 1, 1, 9)])
def test_levy_distance_rejects_tables_of_more_than_two_dimensions(shape):
    f = np.broadcast_to(np.linspace(0.0, 1.0, 9), shape)
    with pytest.raises(ValueError, match=re.escape(f"1-D or (rows, m) CDF tables, got "
                                                   f"{shape} and {shape}")):
        levy_distance(f, f)


def test_wcc_profile_self_is_zero():
    c = make_copula("clayton:2")
    prof = wcc_profile(c, c)
    assert prof.summary["max"] == 0.0


def test_wcc_profile_checkerboard_converges():
    c = make_copula("clayton:2")
    xs = golden_xs(25)
    maxima = []
    for n in range(3, 9):
        cb = checkerboard_copula(checkerboard_approx(c, 2 ** n))
        maxima.append(wcc_profile(cb, c, xs=xs).summary["max"])
    assert all(a >= b for a, b in zip(maxima, maxima[1:]))
    assert maxima[-1] < 0.05


def test_wcc_profile_strip_family_stays_large():
    # strip copulas: D1 to Pi vanishes but conditional laws stay degenerate
    pi = make_pi()
    g = (np.sqrt(5.0) - 1.0) / 2.0
    for n in (4, 10, 20):
        N, i = strip_index(n)
        c = strip_copula(n)
        assert d1(c, pi, Q) <= 2.0 ** -N + 1e-3
        xs = ((i - 1) + np.modf(np.arange(1, 26) * g)[0]) / 2 ** N
        assert wcc_profile(c, pi, xs=xs).summary["max"] > 0.4


def test_golden_xs_avoid_dyadics():
    xs = golden_xs(25)
    for denom in (2, 4, 8, 16, 32):
        assert np.min(np.abs(xs[:, None] - np.arange(denom + 1)[None, :] / denom)) > 1e-4
