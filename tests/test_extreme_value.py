import math
from dataclasses import replace

import numpy as np
import pytest

import copkern.extreme_value as ev
from copkern.archimedean import archimedean_copula, make_gumbel
from copkern.core import transpose
from copkern.estimation import cfg_estimator, convexify_pickands, pseudo_obs
from copkern.extreme_value import (
    ev_copula,
    ev_measures,
    make_galambos,
    make_gumbel_pickands,
    make_piecewise_linear_pickands,
    max_stability_check,
    paper_pwl_knots,
    transpose_pickands,
)
from copkern.metrics import QuadratureSpec, pi_measures
from copkern.registry import make_copula
from copkern.sampling import RngSpec, sample


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


def test_piecewise_linear_pickands_takes_array_rows():
    # read_knots_csv returns a (k, 2) array
    t = np.linspace(0.0, 1.0, 101)
    a, b = (make_piecewise_linear_pickands(k) for k in (np.array(paper_pwl_knots()),
                                                        paper_pwl_knots()))
    assert a.a(t).tobytes() == b.a(t).tobytes()
    assert a.dplus_a(t).tobytes() == b.dplus_a(t).tobytes()


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


def test_ev_kernel_computes_the_x_terms_once_per_conditional():
    # conditional(x) reads the stable tail function's terms in u = -ln x once;
    # each kernel(y) call computes only the terms in v = -ln y
    calls = []
    p = make_galambos(3.0)

    def stable_tail(u):
        calls.append(("u", np.shape(u)))
        at = p.stable_tail(u)

        def at_v(v):
            calls.append(("v", np.shape(v)))
            return at(v)

        return at_v

    x = (np.arange(16) + 0.5) / 16
    kernel = ev_copula(replace(p, stable_tail=stable_tail)).conditional(x[:, None])
    assert calls == [("u", (16, 1))]
    kernel(x[None, :])
    kernel(x[None, :8])
    assert calls == [("u", (16, 1)), ("v", (1, 16)), ("v", (1, 8))]


@pytest.mark.parametrize("p", [make_galambos(3.0), make_gumbel_pickands(2.0),
                               make_piecewise_linear_pickands(paper_pwl_knots())],
                         ids=["galambos", "gumbel-ev", "piecewise"])
def test_ev_cdf_reads_a_tail_of_v_alone_once_per_call(p):
    # a stable tail is u -> (v -> (l, D1 l)) and nothing else: the CDF takes
    # l from one call of a callable of v alone, with the library's bits
    asked = []

    def v_only(u):
        at = p.stable_tail(u)

        def at_v(v):
            asked.append(np.shape(v))
            return at(v)

        return at_v

    g = np.r_[0.0, 1e-300, np.linspace(0.0, 1.0, 33), 1.0]
    want = ev_copula(p).cdf(g[:, None], g[None, :])
    cdf = ev_copula(replace(p, stable_tail=v_only)).cdf
    for _ in range(2):
        asked.clear()
        got = cdf(g[:, None], g[None, :])
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert asked == [(1, len(g))]


def _power_form(theta, galambos):
    """A and D+A of galambos:theta or gumbel-ev:theta written with powers,
    M_p(t) = (t^p + (1-t)^p)^(1/p), as the library computed them before the
    log-sum-exp form: a reference independent of it, exact where no power
    overflows (galambos:100's D+A does, as NaN)."""
    p = -theta if galambos else theta

    def a(t):
        tc = np.clip(t, 0.0, 1.0)
        with np.errstate(divide="ignore", over="ignore"):
            m = (tc ** p + (1.0 - tc) ** p) ** (1.0 / p)
        return 1.0 - m if galambos else m

    def dplus_a(t):
        tc = np.clip(t, 1e-15, 1.0 - 1e-15)
        u, v = (1.0 - tc, tc) if galambos else (tc, 1.0 - tc)
        with np.errstate(over="ignore"):
            val = (u ** p + v ** p) ** (1.0 / p - 1.0) * (u ** (p - 1.0) - v ** (p - 1.0))
        return np.clip(np.where(t <= 0.0, -1.0, np.where(t >= 1.0, 1.0, val)), -1.0, 1.0)

    return a, dplus_a


def _t_form(a, dplus_a):
    """C = exp(ln xy A(t)) and K = C (D+A(t) ln y / (x ln xy) + A(t) / x) in
    t = ln x / ln xy, with the edge rules of `ev_copula`: the reference form."""

    def logs(x, y):
        lx, ly = (np.log(np.clip(s, 1e-15, 1.0 - 1e-15)) for s in (x, y))
        return lx, ly, lx + ly

    def cdf(x, y):
        lx, ly, lxy = logs(x, y)
        val = np.where(x >= 1.0, y, np.where(y >= 1.0, x, np.exp(lxy * a(lx / lxy))))
        return np.where((x <= 0.0) | (y <= 0.0), 0.0, val)

    def kernel(x, y):
        lx, ly, lxy = logs(x, y)
        t = lx / lxy
        a_t = a(t)
        with np.errstate(divide="ignore", invalid="ignore"):
            val = np.exp(lxy * a_t) * (dplus_a(t) * ly / (x * lxy) + a_t / x)
        val = np.where((y <= 0.0) | (y >= 1.0), np.clip(y, 0.0, 1.0), np.clip(val, 0.0, 1.0))
        return np.where((x <= 0.0) | (x >= 1.0), 1.0, val)

    return cdf, kernel


@pytest.mark.parametrize("spec", ["galambos:0.2", "galambos:3", "galambos:30", "gumbel-ev:1",
                                  "gumbel-ev:1.01", "gumbel-ev:3", "gumbel-ev:30"])
def test_ev_copula_matches_the_t_form(spec):
    name, theta = spec.split(":")
    cdf, kernel = _t_form(*_power_form(float(theta), name == "galambos"))
    # galambos:30's powers overflow in the reference at (1e-9, 1 - 1e-9)
    corners = [1e-6, 1e-4, 1.0 - 1e-4, 1.0 - 1e-6]
    g = np.r_[np.linspace(0.0, 1.0, 65), corners]
    X, Y = g[:, None], g[None, :]
    c = make_copula(spec)
    assert np.max(np.abs(c.kernel_cdf(X, Y) - kernel(X, Y))) <= 5e-14
    assert np.max(np.abs(c.cdf(X, Y) - cdf(X, Y))) <= 5e-14


def test_ev_kernel_near_the_corner_x_0():
    # at x < 1e-15 the kernel read 1.0, with ln x clipped at 1e-15 but divided
    # by the unclipped x; the closed form of the Gumbel copula's dC/dx is
    # C M^(1 - theta) u^(theta - 1) / x, with M = (u^theta + v^theta)^(1/theta)
    x, y, theta = 2.13e-16, 1.81e-14, 10.0
    u, v = -math.log(x), -math.log(y)
    m = (u ** theta + v ** theta) ** (1.0 / theta)
    want = math.exp(-m) * m ** (1.0 - theta) * u ** (theta - 1.0) / x
    assert abs(want - 0.3383303178679762) <= 1e-15
    got = float(make_copula("gumbel-ev:10").kernel_cdf(x, y))
    assert abs(got - want) <= 1e-14


@pytest.mark.parametrize("name, thetas", [
    ("galambos", [0.2, 1.0, 3.0, 10.0, 30.0, 100.0, 300.0, 1e3, 1e4, 1e5]),
    ("gumbel-ev", [1.01, 3.0, 10.0, 100.0, 1e3, 1e4, 1e5]),
])
def test_ev_kernels_pass_the_kernel_check_up_to_theta_1e5(name, thetas):
    # the log-sum-exp form neither overflows nor underflows: every grid passes
    # pi_measures' kernel check, and r grows with theta.  From theta = 1e4 the
    # grid has saturated at its value for the near-M kernel (1/2 on the
    # diagonal cells, where u = v): there it moves by 3e-10, below its own
    # error, so the grid's r is checked against the exact r within 2/m
    m = 512
    grid = np.array([pi_measures(make_copula(f"{name}:{t:g}"), QuadratureSpec(m=m))[2]
                     for t in thetas])
    make = make_galambos if name == "galambos" else make_gumbel_pickands
    exact = np.array([ev_measures(make(t))[2] for t in thetas])
    assert np.all(np.diff(exact) > 0.0)
    assert np.all(np.diff(grid) >= -1e-9)
    assert np.max(np.abs(grid - exact)) <= 2.0 / m


@pytest.mark.parametrize("name", ["galambos", "gumbel-ev"])
def test_ev_copula_at_theta_1e300(name):
    # p ln u is finite for |p| up to about 4.9e306: the kernel is M's to
    # rounding, 1 above the diagonal cells, 1/2 on them and 0 below, whose
    # grid r is 1 - 1.5/m; the exact r is 1
    m = 512
    grid = pi_measures(make_copula(f"{name}:1e300"), QuadratureSpec(m=m))[2]
    assert abs(grid - (1.0 - 1.5 / m)) <= 1e-12
    make = make_galambos if name == "galambos" else make_gumbel_pickands
    assert abs(ev_measures(make(1e300))[2] - 1.0) <= 1e-12


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


def test_power_mean_pickands_have_no_breakpoints():
    assert make_galambos(3.0).breakpoints == ()
    assert make_gumbel_pickands(2.5).breakpoints == ()


def test_pwl_breakpoints_are_its_knots_and_mirror_under_transpose():
    p = make_piecewise_linear_pickands(paper_pwl_knots())
    assert p.breakpoints == (0.0, 0.25, 0.7, 1.0)
    assert transpose_pickands(p).breakpoints == tuple(sorted(1.0 - x for x in p.breakpoints))


@pytest.mark.parametrize("n", [1, 2, 5, 16])
def test_gauss_legendre_is_exact_up_to_degree_2n_minus_1(n):
    from copkern.extreme_value import _gauss_legendre

    x, w = _gauss_legendre(n)
    for k in range(2 * n):
        assert abs(np.dot(w, x ** k) - (1 - (-1) ** (k + 1)) / (k + 1)) <= 1e-14


def test_ev_measures_of_the_paper_pwl():
    d, z, r = ev_measures(make_piecewise_linear_pickands(paper_pwl_knots()))
    assert abs(r - 0.4) <= 1e-12
    # the reference value is given to 7 decimals
    assert abs(z - 0.5578485) <= 5e-8
    assert d == z / 3.0


@pytest.mark.parametrize("knots, want", [
    ([(0.0, 1.0), (1.0, 1.0)], 0.0),                  # A = 1: independence
    ([(0.0, 1.0), (0.5, 0.5), (1.0, 1.0)], 1.0),      # A = max(t, 1-t): M
], ids=["pi", "m"])
def test_ev_measures_of_the_bounds(knots, want):
    _, z, r = ev_measures(make_piecewise_linear_pickands(knots))
    assert abs(z - want) <= 1e-12 and abs(r - want) <= 1e-12


def _grid_errors(c, exact):
    """|pi_measures(c, m) - exact| in (zeta1, r) at m = 256 and m = 1024."""
    return {m: np.abs(np.array(pi_measures(c, QuadratureSpec(m=m))[1:]) - exact[1:])
            for m in (256, 1024)}


@pytest.mark.parametrize("theta", [1.5, 3.0, 10.0])
def test_ev_measures_match_the_archimedean_gumbel_grid(theta):
    # gumbel:theta and gumbel-ev:theta are one copula; the midpoint grid of the
    # Archimedean form converges to the exact EV values at first order or better
    err = _grid_errors(make_copula(f"gumbel:{theta:g}"),
                       np.array(ev_measures(make_gumbel_pickands(theta))))
    for m in (256, 1024):
        assert np.all(err[m] <= 1.0 / m)
    assert np.all(err[1024] < err[256])


@pytest.mark.parametrize("n", [50, 100, 2000])
def test_ev_measures_of_plugin_fits_against_the_grid(n):
    s = sample(make_copula("galambos:3"), n, RngSpec(seed=3))
    fit = convexify_pickands(cfg_estimator(pseudo_obs(s)))
    err = _grid_errors(ev_copula(fit), np.array(ev_measures(fit)))
    for m in (256, 1024):
        assert np.all(err[m] <= 1.0 / m)
    # the grid's r error is first order in 1/m; its zeta1 error is O(1/m) with a
    # sign that changes with m, so only its size is bounded
    assert err[1024][1] < err[256][1]


@pytest.mark.parametrize("p", [make_galambos(0.2), make_gumbel_pickands(1.01),
                               make_galambos(3.0), make_gumbel_pickands(3.0)],
                         ids=lambda p: p.label)
def test_ev_measures_resolve_endpoint_singularities(monkeypatch, p):
    # D+A of galambos:0.2 and gumbel-ev:1.01 has a power singularity at 0 and
    # 1; the reference is 64 Gauss-Legendre nodes on 4096 uniform cells, once
    # refined geometrically toward both ends as ev_measures refines and once
    # not, where the uniform cells alone converge to the same values
    got = np.array(ev_measures(p))
    nodes, weights = ev._gauss_legendre(64)
    monkeypatch.setattr(ev, "_GL_NODES", nodes)
    monkeypatch.setattr(ev, "_GL_WEIGHTS", weights)
    uniform = np.linspace(0.0, 1.0, 4097)
    geometric = np.r_[ev._EV_GEOMETRIC, 1.0 - ev._EV_GEOMETRIC]
    refined = np.array(ev_measures(replace(p, breakpoints=tuple(np.union1d(uniform, geometric)))))
    plain = np.array(ev_measures(replace(p, breakpoints=tuple(uniform))))
    assert np.max(np.abs(got - refined)) <= 1e-14
    assert np.max(np.abs(got - plain)) <= 1e-9


def test_ev_measures_name_a_damaged_pickands_function():
    # ev_measures reads the stable tail function, as the kernel does; here its
    # derivative D1 l is NaN
    tail = make_galambos(3.0).stable_tail

    def damaged_tail(u):
        at = tail(u)
        return lambda v: (at(v)[0], np.full(np.broadcast(u, v).shape, np.nan))

    p = replace(make_galambos(3.0), label="damaged", stable_tail=damaged_tail)
    with pytest.raises(ValueError, match="'damaged'.*not finite"):
        ev_measures(p)


@pytest.mark.parametrize("p, want", [(make_galambos(100.0), 0.985106310585124),
                                     (make_galambos(300.0), 0.995011827970666),
                                     (make_gumbel_pickands(100.0), 0.985000567500687)],
                         ids=["galambos:100", "galambos:300", "gumbel-ev:100"])
def test_ev_measures_of_the_power_mean_at_large_theta(p, want):
    # the power form's D+A overflowed to NaN at these theta.  The references
    # are 40-digit quadratures of r (mpmath, split at 2^-k toward 0, 1/2 and
    # 1); D+A steepens around 1/2 as theta grows, and the uniform cells alone
    # left r 2e-11 (theta = 100) and 1e-8 (galambos:300) off
    d, z, r = ev_measures(p)
    assert abs(r - want) <= 1e-13
    assert 0.0 <= z <= 1.0 and d == z / 3.0
