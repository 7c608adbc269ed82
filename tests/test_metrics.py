import numpy as np
import pytest

from copkern._accel import levy_distance
from copkern.core import (
    CopulaModel,
    checkerboard_approx,
    checkerboard_copula,
    make_m,
    make_pi,
    make_w,
)
from copkern.fixtures import shift_copula, strip_copula, strip_index
from copkern.metrics import (
    QuadratureSpec,
    d1,
    d2_squared,
    d_inf,
    d_infty_metric,
    disintegration_defect,
    golden_xs,
    partial_distance,
    pi_measures,
    r_identity_residual,
    r_measure,
    wcc_profile,
    zeta1,
)
from copkern.registry import make_copula, registered_examples

Q = QuadratureSpec(m=512)


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(m=4)
    with pytest.raises(ValueError):
        QuadratureSpec(rule="trapezoid")


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
    # r_measure raises if its two computation routes disagree beyond quadrature
    v = r_measure(make_copula(spec), Q)
    # atomic kernels (M, W) carry a +3/m midpoint-rule bias at the top end
    assert -0.51 <= v <= 1.0 + 3.0 / Q.m + 1e-9


def test_r_measure_evaluates_one_kernel_grid():
    # the identity guard runs on the same grid r is read from
    base = make_copula("gumbel:3")
    sizes = []

    def kernel_cdf(x, y):
        sizes.append(np.broadcast(np.asarray(x), np.asarray(y)).size)
        return base.kernel_cdf(x, y)

    counted = CopulaModel(cdf=base.cdf, kernel_cdf=kernel_cdf, label=base.label)
    q = QuadratureSpec(m=64)
    assert r_measure(counted, q) == r_measure(base, q)
    assert sizes == [64 * 64]


@pytest.mark.parametrize("spec", registered_examples())
def test_pi_measures_equal_single_measures(spec):
    c = make_copula(spec)
    q = QuadratureSpec(m=128)
    assert pi_measures(c, q) == (d1(c, make_pi(), q), zeta1(c, q), r_measure(c, q))
    assert r_identity_residual(c, q) <= 1e-6


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
