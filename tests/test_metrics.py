from dataclasses import replace

import numpy as np
import pytest

from copkern._accel import levy_distance
from copkern.archimedean import archimedean_copula
from copkern.core import (
    checkerboard_approx,
    checkerboard_copula,
    make_m,
    make_pi,
    make_w,
)
from copkern.estimation import (
    cfg_estimator,
    convexify_pickands,
    empirical_kendall,
    pseudo_obs,
    reconstruct_generator,
)
from copkern.extreme_value import ev_copula
from copkern.fixtures import shift_copula, strip_copula, strip_index
from copkern.metrics import (
    QuadratureSpec,
    _column_defect,
    d1,
    d2_squared,
    d_inf,
    d_infty_metric,
    disintegration_defect,
    golden_xs,
    kernel_grid,
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


@pytest.mark.parametrize("spec,m", [
    ("gumbel:200", 256), ("gumbel:200", 512), ("clayton:200", 256), ("clayton:200", 512),
    ("frank:1000", 64), ("clayton:500", 64),
])
@pytest.mark.parametrize("measure", [r_measure, pi_measures])
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


@pytest.mark.parametrize("spec,N", [("clayton:2", 8), ("clayton:2", 32), ("galambos:3", 16),
                                    ("strip:5", 8)])
def test_levy_distance_of_checkerboard_wcc_grids_matches_a_linear_scan(spec, N):
    target = strip_copula(5) if spec == "strip:5" else make_copula(spec)
    board = checkerboard_copula(checkerboard_approx(target, N))
    K1, K2 = wcc_grid(board), wcc_grid(target)
    got = levy_distance(K1, K2)
    want = np.array([_levy_scan(a, b) for a, b in zip(K1, K2)])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_levy_distance_rejects_a_one_point_table():
    with pytest.raises(ValueError, match="at least 2 points"):
        levy_distance([0.5], [0.5])


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
