from dataclasses import replace

import numpy as np
import pytest

from copkern.archimedean import archimedean_copula, make_gumbel
from copkern.core import transpose
from copkern.extreme_value import (
    ev_copula,
    make_galambos,
    make_gumbel_pickands,
    make_piecewise_linear_pickands,
    max_stability_check,
    paper_pwl_knots,
    transpose_pickands,
)


def check_pickands_invariants(p, grid=401, tol=1e-9):
    t = np.linspace(0.0, 1.0, grid)
    a = p.a(t)
    assert abs(a[0] - 1.0) <= tol and abs(a[-1] - 1.0) <= tol
    assert np.all(a <= 1.0 + tol)
    assert np.all(a >= np.maximum(t, 1.0 - t) - tol)
    slopes = np.diff(a) / np.diff(t)
    assert np.min(np.diff(slopes)) >= -1e-6, "convex"
    d = p.dplus_a(t)
    assert np.all((d >= -1.0 - tol) & (d <= 1.0 + tol))
    assert np.min(np.diff(d)) >= -1e-9, "right derivative nondecreasing"


@pytest.mark.parametrize(
    "p",
    [
        make_galambos(3.0),
        make_galambos(0.5),
        make_gumbel_pickands(3.0),
        make_gumbel_pickands(1.0),
        make_piecewise_linear_pickands(paper_pwl_knots()),
    ],
    ids=["galambos3", "galambos05", "gumbel3", "gumbel1", "pwl"],
)
def test_pickands_invariants(p):
    check_pickands_invariants(p)


def test_galambos_midpoint_value():
    # A(1/2) = 1 - 2^{-1/theta}/2^... = 1 - (2*2^theta)^(-1/theta)
    p = make_galambos(3.0)
    assert p.a(0.5) == pytest.approx(1.0 - (2.0 * 2.0 ** 3) ** (-1.0 / 3.0), rel=1e-12)


def test_gumbel_pickands_midpoint_value():
    p = make_gumbel_pickands(3.0)
    assert p.a(0.5) == pytest.approx(2.0 ** (1.0 / 3.0 - 1.0), rel=1e-12)


@pytest.mark.parametrize(
    "knots,msg",
    [
        ([(0.1, 1.0), (1.0, 1.0)], "endpoint"),
        ([(0.0, 0.9), (1.0, 1.0)], "endpoint values"),
        ([(0.0, 1.0), (0.5, 0.4), (1.0, 1.0)], "lower bound"),
        ([(0.0, 1.0), (0.3, 0.8), (0.6, 0.9), (1.0, 1.0)], "convexity"),
        ([], "must cover"),
        ([(0.0, 1.0), (0.5, np.nan), (1.0, 1.0)], "must be finite"),
        ([(0.0, 1.0), (np.nan, 0.8), (1.0, 1.0)], "must be finite"),
        ([(0.0, 1.0), (0.5, 1.1), (1.0, 1.0)], "upper bound"),
        ([(0.0, 1.0), (0.5, 0.8), (0.5, 0.8), (1.0, 1.0)], "strictly increasing x"),
        # within the lower bound's 1e-12 of 1 - x, yet a slope of -1 - 5e-10
        ([(0.0, 1.0), (1e-3, 0.999 - 5e-13), (1.0, 1.0)], "slope bound"),
    ],
)
def test_pwl_validation_errors(knots, msg):
    with pytest.raises(ValueError, match=msg):
        make_piecewise_linear_pickands(knots)


def test_gumbel_is_both_archimedean_and_extreme_value():
    # the Gumbel family admits both representations; the CDFs must agree
    ar = archimedean_copula(make_gumbel(3.0))
    ev = ev_copula(make_gumbel_pickands(3.0))
    g = np.linspace(0.01, 0.99, 50)
    assert np.max(np.abs(ar.cdf(g[:, None], g[None, :])
                         - ev.cdf(g[:, None], g[None, :]))) <= 1e-12


def test_pickands_one_gives_independence():
    ev = ev_copula(make_gumbel_pickands(1.0))
    g = np.linspace(0, 1, 21)
    assert np.allclose(ev.cdf(g[:, None], g[None, :]), g[:, None] * g[None, :], atol=1e-12)


@pytest.mark.parametrize(
    "p",
    [make_galambos(3.0), make_gumbel_pickands(2.5),
     make_piecewise_linear_pickands(paper_pwl_knots())],
    ids=["galambos3", "gumbel25", "pwl"],
)
def test_ev_kernel_matches_difference_quotient(p):
    c = ev_copula(p)
    x = np.linspace(0.05, 0.95, 19)[:, None]
    y = np.linspace(0.05, 0.95, 19)[None, :]
    # oracle: dC/dx as a symmetric difference quotient of the CDF
    lo, hi = x - 1e-6, x + 1e-6
    Q = (c.cdf(hi, y) - c.cdf(lo, y)) / (hi - lo)
    K = np.asarray(c.kernel_cdf(x, y))
    assert np.max(np.abs(K - Q)) <= 1e-4


@pytest.mark.parametrize("n", [2, 5, 10])
def test_max_stability(n):
    c = ev_copula(make_galambos(3.0))
    assert max_stability_check(c, n) <= 1e-12


def test_non_ev_fails_max_stability():
    from copkern.archimedean import make_clayton

    c = archimedean_copula(make_clayton(2.0))
    assert max_stability_check(c, 5) > 1e-3


def test_transpose_pickands_pwl():
    p = make_piecewise_linear_pickands(paper_pwl_knots())
    pt = transpose_pickands(p)
    t = np.linspace(0, 1, 101)
    assert np.allclose(pt.a(t), p.a(1.0 - t), atol=1e-12)
    # transposed copula equals the swapped-argument copula
    c, ct = ev_copula(p), transpose(ev_copula(p))
    g = np.linspace(0.05, 0.95, 19)
    assert np.max(np.abs(ct.cdf(g[:, None], g[None, :])
                         - c.cdf(g[None, :], g[:, None]))) <= 1e-12


def test_transpose_pickands_mirrors_pwl_knots():
    # the transpose is the interpolant of (1 - x_i, a_i): its right derivative is
    # the mirrored slopes exactly, knots included, with no finite-difference probe
    p = make_piecewise_linear_pickands(paper_pwl_knots())
    pt = transpose_pickands(p)
    assert pt.label == "pickands-pwl^t"
    mirrored = sorted((1.0 - x, a) for x, a in paper_pwl_knots())
    xs, vs = np.array(mirrored).T
    slopes = np.diff(vs) / np.diff(xs)
    assert np.array_equal(pt.dplus_a(xs[:-1]), slopes)
    assert np.array_equal(pt.dplus_a((xs[:-1] + xs[1:]) / 2), slopes)
    assert np.array_equal(pt.a(xs), vs)
    check_pickands_invariants(pt)
    ptt = transpose_pickands(pt)
    t = np.linspace(0.0, 1.0, 101)
    assert np.max(np.abs(ptt.a(t) - p.a(t))) <= 1e-15


def test_ev_kernel_transpose_disintegration():
    from copkern.metrics import disintegration_defect

    ct = transpose(ev_copula(make_piecewise_linear_pickands(paper_pwl_knots())))
    assert disintegration_defect(ct) <= 1e-3


def test_ev_kernel_evaluates_pickands_once():
    calls = []
    p = make_galambos(3.0)

    def a(t):
        calls.append(np.shape(t))
        return p.a(t)

    x = (np.arange(16) + 0.5) / 16
    ev_copula(replace(p, a=a)).kernel_cdf(x[:, None], x[None, :])
    assert calls == [(16, 16)]


@pytest.mark.parametrize("build,msg", [
    (lambda: make_galambos(0.0), "Galambos parameter must be positive"),
    (lambda: make_galambos(-1.0), "Galambos parameter must be positive"),
    (lambda: make_gumbel_pickands(0.5), "Gumbel Pickands parameter must be >= 1"),
    (lambda: max_stability_check(ev_copula(make_galambos(3.0)), 0),
     "max-stability order must be >= 1"),
], ids=["galambos-0", "galambos-negative", "gumbel-ev-below-1", "max-stability-0"])
def test_extreme_value_parameter_checks(build, msg):
    with pytest.raises(ValueError, match=msg):
        build()


@pytest.mark.parametrize("p", [make_galambos(0.5), make_galambos(3.0), make_galambos(10.0),
                               make_gumbel_pickands(1.0), make_gumbel_pickands(2.5)],
                         ids=["galambos05", "galambos3", "galambos10", "gumbel1", "gumbel25"])
def test_power_mean_pickands_edges(p):
    # A(0) = A(1) = 1 exactly (Galambos through 0^-theta = inf), and
    # D+A is -1 left of the interval and +1 right of it, Pi (gumbel-ev:1) included
    assert np.all(p.a(np.array([0.0, 1.0])) == 1.0)
    assert p.dplus_a(np.array([-0.5, 0.0, 1.0, 1.5])).tolist() == [-1.0, -1.0, 1.0, 1.0]
