import math
from dataclasses import replace

import numpy as np
import pytest

import copkern.extreme_value as ev
from copkern.archimedean import archimedean_copula, make_gumbel
from copkern.core import LATTICE_BLOCK, _unit, lattice, make_pi, square_lattice, transpose
from copkern.estimation import cfg_estimator, convexify_pickands, pseudo_obs
from copkern.extreme_value import (
    ev_copula,
    ev_measures,
    make_galambos,
    make_gumbel_pickands,
    make_marshall_olkin,
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


def test_pwl_knots_are_sorted_by_x_then_value():
    # the knots may come in any order, as pairs or as array rows; a repeated
    # x is named whatever its order, and a row that is no pair is rejected
    knots = np.array(paper_pwl_knots())
    want = make_piecewise_linear_pickands(knots)
    t = np.linspace(0.0, 1.0, 101)
    for order in ([3, 1, 0, 2], [2, 3, 1, 0]):
        got = make_piecewise_linear_pickands([tuple(knots[i]) for i in order])
        assert got.breakpoints == want.breakpoints
        assert np.array_equal(got.a(t), want.a(t))
        assert np.array_equal(got.dplus_a(t), want.dplus_a(t))
    # a CFG fit's knots, shuffled, sort as Python sorts the pairs
    fit = convexify_pickands(cfg_estimator(pseudo_obs(sample(make_copula("galambos:3"), 100,
                                                             RngSpec(5)))))
    rows = np.column_stack((fit.breakpoints, fit.a(np.array(fit.breakpoints))))
    rows = rows[np.random.default_rng(0).permutation(len(rows))]
    pairs = sorted((float(x), float(v)) for x, v in rows)
    got = make_piecewise_linear_pickands(rows)
    assert got.breakpoints == tuple(x for x, _ in pairs) == fit.breakpoints
    assert np.array_equal(got.a(np.array(got.breakpoints)), [v for _, v in pairs])
    with pytest.raises(ValueError, match="strictly increasing x"):
        make_piecewise_linear_pickands([(1.0, 1.0), (0.5, 0.9), (0.0, 1.0), (0.5, 0.7)])
    with pytest.raises(ValueError, match=r"\(x, A\(x\)\) pairs, got an array of shape \(2, 3\)"):
        make_piecewise_linear_pickands([(0.0, 1.0, 0.0), (1.0, 1.0, 0.0)])


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
    # a symmetric p is read at (max(u, v), min(u, v)), both of the broadcast shape
    shape = (len(g), len(g)) if transpose_pickands(p) is p else (1, len(g))
    for _ in range(2):
        asked.clear()
        got = cdf(g[:, None], g[None, :])
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert asked == [shape]


# 0, the smallest subnormal, a tiny normal, interior points and 1: more
# points than one lattice block, so `square_lattice` mirrors panels
_EDGE_GRID = np.r_[0.0, 5e-324, 1e-300, 1e-10, np.linspace(0.0, 1.0, 257)[1:-1], 0.999999, 1.0]
_SYMMETRIC = [(make_galambos, 0.2), *((make, theta) for make in (make_galambos,
              make_gumbel_pickands) for theta in (1.0, 3.0, 100.0, 1e300))]


def _parent_order_cdf(p, x, y):
    """The EV CDF with l read at (u, v) = (-ln x, -ln y) as given, with the
    edge rules of `ev_copula`: the form before the canonical order."""
    x, y = np.broadcast_arrays(np.clip(x, 0.0, 1.0), np.clip(y, 0.0, 1.0))
    u = -np.log(np.clip(x, np.finfo(float).tiny, 1.0))
    v = -np.log(np.clip(y, np.finfo(float).tiny, 1.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        val = np.exp(-p.stable_tail(u)(v)[0])
    val = np.where(y >= 1.0, x, val)
    val = np.where(x >= 1.0, y, val)
    return np.where((x <= 0.0) | (y <= 0.0), 0.0, val)


@pytest.mark.parametrize("make, theta", _SYMMETRIC,
                         ids=[f"{m.__name__}-{t:g}" for m, t in _SYMMETRIC])
def test_symmetric_ev_cdfs_are_exchangeable_to_the_bit(make, theta):
    p = make(theta)
    c = ev_copula(p)
    assert c.cdf.exchangeable is True
    g = _EDGE_GRID
    assert len(g) ** 2 > LATTICE_BLOCK
    got = c.cdf(g[:, None], g[None, :])
    assert np.array_equal(got.view(np.int64), got.T.view(np.int64))
    # the square tiles, a mirrored upper triangle, hold the row-walked lattice's bits
    assert np.array_equal(square_lattice(c, g).view(np.int64),
                          lattice(c.cdf, g, g).view(np.int64))
    # cells with x <= y read l in the order they are given, as before
    upper = g[:, None] <= g[None, :]
    want = _parent_order_cdf(p, g[:, None], g[None, :])
    assert np.array_equal(got[upper].view(np.int64), want[upper].view(np.int64))


def test_asymmetric_ev_cdfs_declare_nothing():
    raw = cfg_estimator(pseudo_obs(sample(make_copula("galambos:3"), 100, RngSpec(7))))
    for p in (convexify_pickands(raw), make_piecewise_linear_pickands(paper_pwl_knots())):
        assert getattr(ev_copula(p).cdf, "exchangeable", False) is False


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


def _pickands_tail(a, dplus_a):
    """The stable tail l = s A(t), D1 l = A(t) + (1 - t) D+A(t), s = u + v and
    t = u / s, read through A and D+A: the generic form the piecewise-linear
    Pickands function used before it looked its piece up once."""

    def stable_tail(u):
        def at(v):
            s = u + v
            t = u / s
            a_t = a(t)
            return s * a_t, a_t + (1.0 - t) * dplus_a(t)

        return at

    return stable_tail


def _pwl_tables():
    fits = [convexify_pickands(cfg_estimator(pseudo_obs(sample(make_copula("galambos:3"), n,
                                                               RngSpec(seed=3)))))
            for n in (50, 2000)]
    tables = [make_piecewise_linear_pickands(paper_pwl_knots()), *fits,
              make_piecewise_linear_pickands([(0.0, 1.0), (0.5, 0.5), (1.0, 1.0)], "m"),
              make_piecewise_linear_pickands([(0.0, 1.0), (1.0, 1.0)], "pi")]
    return tables + [transpose_pickands(p) for p in tables]


@pytest.mark.parametrize("p", _pwl_tables(), ids=lambda p: p.label)
def test_pwl_stable_tail_matches_the_generic_form_to_the_bit(p):
    # u and v hold 0, where t = u / (u + v) is 0, 1 or (at u = v = 0) NaN
    logs = np.r_[0.0, 1e-300, 1e-12, 1e-3, np.linspace(0.01, 5.0, 40), 30.0, 700.0,
                 -np.log(np.finfo(float).tiny)]
    u, v = logs[:, None], logs[None, :]
    ref = replace(p, stable_tail=_pickands_tail(p.a, p.dplus_a))
    with np.errstate(invalid="ignore"):
        got, want = p.stable_tail(u)(v), ref.stable_tail(u)(v)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()
    assert np.array(ev_measures(p)).tobytes() == np.array(ev_measures(ref)).tobytes()


def _mo_closed_form(alpha, beta):
    """CDF and kernel of Marshall-Olkin MO(alpha, beta) in closed form, as the
    library wrote them before building MO as an EV copula: the reference.
    C = x^(1 - alpha) y where x^alpha >= y^beta and x y^(1 - beta) below;
    K = (1 - alpha) x^-alpha y where y^beta < x^alpha and y^(1 - beta) above."""

    def cdf(x, y):
        x, y = _unit(x), _unit(y)
        with np.errstate(divide="ignore", invalid="ignore"):
            upper = np.where(x > 0, x ** (1.0 - alpha) * y, 0.0)
            lower = np.where(y > 0, x * y ** (1.0 - beta), 0.0)
        return np.where(x ** alpha >= y ** beta, upper, lower)

    def kernel(x, y):
        x, y = np.asarray(x, float), _unit(y)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            below = np.where(x > 0, (1.0 - alpha) * x ** (-alpha) * y, 0.0)
        return np.clip(np.where(y ** beta < x ** alpha, below, y ** (1.0 - beta)), 0.0, 1.0)

    return cdf, kernel


_MO_PARAMS = [(a, b) for a in (0.0, 0.05, 0.5, 1.0) for b in (0.0, 0.05, 0.5, 1.0)] + [
    (1e-300, 0.5), (0.5, 1e-300)]


@pytest.mark.parametrize("alpha, beta", _MO_PARAMS)
def test_marshall_olkin_matches_its_closed_form(alpha, beta):
    c = make_marshall_olkin(alpha, beta)
    cdf, kernel = _mo_closed_form(alpha, beta)
    g = np.r_[0.0, 5e-324, 1e-300, 1e-12, np.arange(1, 256) / 256, 1.0 - 1e-12, 1.0]
    X, Y = g[:, None], g[None, :]
    assert np.max(np.abs(c.cdf(X, Y) - cdf(X, Y))) <= 2.3e-16
    K, want = c.kernel_cdf(X, Y), kernel(X, Y)
    assert np.all((K >= 0.0) & (K <= 1.0))
    assert np.max(np.abs(K - want)[4:-1]) <= 4e-15
    # e^(u - l) at u = -ln x near 690 loses about u eps, and x = 5e-324 is
    # read as the smallest normal number; the closed form's alpha = 1 row there
    # is NaN (0 * inf), the EV kernel's is finite
    near_0 = np.abs(K - want)[1:4]
    assert np.isnan(near_0).any() == (alpha == 1.0 and beta > 0.0)
    assert np.nanmax(near_0) <= 1e-12
    # the rows x = 0 and x = 1 follow the edge rule of the model that is built:
    # Pi's kernel y, or 1 for an EV copula
    edge = np.clip(g, 0.0, 1.0) if c.measures(0) == (0.0, 0.0, 0.0) else 1.0
    assert np.all(K[[0, -1]] == edge)


@pytest.mark.parametrize("alpha, beta", _MO_PARAMS)
def test_marshall_olkin_measures_are_exact(alpha, beta):
    # K integrates to r = (2 beta (1 - alpha)^2 + 6 alpha) / (3 alpha + beta - 2 alpha beta) - 2
    c = make_marshall_olkin(alpha, beta)
    d, z, r = c.measures(2048)
    want = 0.0 if alpha + beta == 0.0 else (
        (2.0 * beta * (1.0 - alpha) ** 2 + 6.0 * alpha) / (3.0 * alpha + beta - 2.0 * alpha * beta)
        - 2.0)
    assert abs(r - want) <= 1e-14
    assert d == z / 3.0
    assert abs(z - pi_measures(c, QuadratureSpec(m=2048))[1]) <= 4.0 / 2048


@pytest.mark.parametrize("alpha, beta", [(0.0, 0.0), (0.0, 0.5), (0.5, 0.0), (1e-300, 0.5),
                                         (0.5, 1e-300)])
def test_marshall_olkin_off_the_open_interval_is_pi(alpha, beta):
    # the kink beta / (alpha + beta) is 0 or 1, or rounds to 1 (1e-300, 0.5) or,
    # where 1 - t is a float too, to 0 (0.5, 1e-300): the closed form is x y
    c, pi = make_marshall_olkin(alpha, beta), make_pi()
    g = np.linspace(0.0, 1.0, 33)
    X, Y = g[:, None], g[None, :]
    assert c.label == f"marshall-olkin:{alpha}:{beta}"
    assert c.cdf(X, Y).tobytes() == pi.cdf(X, Y).tobytes()
    assert c.kernel_cdf(X, Y).tobytes() == pi.kernel_cdf(X, Y).tobytes()
    assert c.measures(64) == (0.0, 0.0, 0.0)


_MO_EXTREMES = (0.0, 1e-300, 1e-16, 1e-15, 1e-13, 1e-9, 1e-7, 0.3, 1.0 - 1e-9, 1.0 - 1e-16, 1.0)


@pytest.mark.parametrize("alpha", _MO_EXTREMES)
def test_marshall_olkin_builds_at_extreme_parameters(alpha):
    # with the kink beta / (alpha + beta) as rounded and A there 1 - alpha t,
    # seven of these pairs, such as (1e-13, 1) and (1, 1e-16), had a slope
    # outside [-1, 1] by more than the knot check's 1e-10
    g = np.r_[0.0, 1e-300, 1e-12, np.arange(1, 64) / 64, 1.0 - 1e-12, 1.0]
    X, Y = g[:, None], g[None, :]
    for beta in _MO_EXTREMES:
        c = make_marshall_olkin(alpha, beta)
        cdf = _mo_closed_form(alpha, beta)[0]
        assert np.max(np.abs(c.cdf(X, Y) - cdf(X, Y))) <= 2.3e-16
        # the EV kernel e^(u - l) D1 l reads 1 - 4 ulp where the closed form's
        # y^0 is 1, so it is nondecreasing in y to rounding (3.6e-15 at (0.3, 1))
        K = c.kernel_cdf(X, Y)
        assert np.all((K >= 0.0) & (K <= 1.0)) and np.all(np.diff(K, axis=1) >= -1e-14)
        want = 0.0 if alpha + beta == 0.0 else (
            (2.0 * beta * (1.0 - alpha) ** 2 + 6.0 * alpha)
            / (3.0 * alpha + beta - 2.0 * alpha * beta) - 2.0)
        assert abs(c.measures(64)[2] - want) <= 1e-14


def test_marshall_olkin_is_the_ev_copula_of_its_knots():
    # A(t) = max(1 - 0.5 t, 1 - 0.7 (1 - t)) at the kink t = 0.7 / 1.2, where
    # 1 - t is a float already
    c, t = make_marshall_olkin(0.5, 0.7), 0.7 / 1.2
    p = make_piecewise_linear_pickands([(0.0, 1.0), (t, max(1.0 - 0.5 * t, 1.0 - 0.7 * (1.0 - t))),
                                        (1.0, 1.0)])
    ref = ev_copula(p)
    g = np.linspace(0.0, 1.0, 33)
    X, Y = g[:, None], g[None, :]
    assert c.label == "marshall-olkin:0.5:0.7"
    assert c.cdf(X, Y).tobytes() == ref.cdf(X, Y).tobytes()
    assert c.kernel_cdf(X, Y).tobytes() == ref.kernel_cdf(X, Y).tobytes()
    assert c.measures(64) == ev_measures(p)
