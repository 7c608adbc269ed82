from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copkern._accel import dominance_counts, levy_distance
from copkern.archimedean import (
    _positive_square_mean,
    kendall_function,
    make_w_generator,
    piecewise_measures,
)
from copkern.estimation import (
    PseudoObservations,
    _average_ranks,
    convexify_pickands,
    empirical_copula_cdf,
    empirical_kendall,
    pseudo_obs,
    reconstruct_generator,
)
from copkern.extreme_value import ev_measures
from copkern.sampling import SampleSet


@st.composite
def cdf_grids(draw, m=65):
    jumps = draw(
        st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=6)
    )
    y = np.linspace(0.0, 1.0, m)
    f = np.zeros(m)
    for j in jumps:
        f += (y >= j).astype(float)
    return f / len(jumps)


@settings(max_examples=50, deadline=None)
@given(cdf_grids(), cdf_grids())
def test_levy_distance_symmetric_bounded(f, g):
    d = levy_distance(f, g)
    assert 0.0 <= d <= 1.0
    assert d == levy_distance(g, f)
    assert levy_distance(f, f) == 0.0


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(0.0, 1.5, allow_nan=False), min_size=5, max_size=50),
    st.integers(0, 2 ** 31 - 1),
)
def test_convexify_always_yields_valid_pickands(vals, seed):
    # arbitrary noisy raw tables always convexify into a valid Pickands function
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 1.0, len(vals))
    raw = {"t": t, "a": np.asarray(vals) + 0.01 * rng.random(len(vals))}
    p = convexify_pickands(raw)
    g = np.linspace(0.0, 1.0, 201)
    a = p.a(g)
    assert abs(a[0] - 1.0) <= 1e-12 and abs(a[-1] - 1.0) <= 1e-12
    assert np.all(a <= 1.0 + 1e-12)
    assert np.all(a >= np.maximum(g, 1.0 - g) - 1e-12)
    slopes = np.diff(a) / np.diff(g)
    assert np.min(np.diff(slopes)) >= -1e-8


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                          st.floats(0.0, 1.0)), min_size=0, max_size=12))
def test_ev_measures_of_random_convex_pwl_lie_in_unit_interval(points):
    # knots anywhere between the Pickands bounds, the lower ones included; their
    # lower convex hull is a valid piecewise-linear Pickands function
    t = np.array([0.0, *(x for x, _ in points), 1.0])
    lo = np.maximum(t, 1.0 - t)
    a = np.array([1.0, *(lam for _, lam in points), 1.0])
    order = np.argsort(t, kind="stable")
    t, a = t[order], (lo + a * (1.0 - lo))[order]
    keep = np.r_[True, np.diff(t) > 0]
    p = convexify_pickands({"t": t[keep], "a": a[keep]})
    _, z, r = ev_measures(p)
    assert -1e-12 <= z <= 1.0 + 1e-12
    assert -1e-12 <= r <= 1.0 + 1e-12


@st.composite
def tied_points(draw):
    # small integer grids, so ties in x, in y and in both are common
    n = draw(st.integers(1, 200))
    gx = draw(st.integers(1, 12))
    gy = draw(st.integers(1, 12))
    x = draw(st.lists(st.integers(0, gx), min_size=n, max_size=n))
    y = draw(st.lists(st.integers(0, gy), min_size=n, max_size=n))
    return np.asarray(x, dtype=float), np.asarray(y, dtype=float)


@settings(max_examples=200, deadline=None)
@given(tied_points())
def test_dominance_counts_match_brute_force(xy):
    x, y = xy
    expected = ((x[None, :] < x[:, None]) & (y[None, :] < y[:, None])).sum(1)
    got = dominance_counts(x, y)
    assert got.dtype == np.int64
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("n", [1000, 1234])
def test_dominance_counts_beyond_hypothesis_sizes(n):
    # many merge levels, with an incomplete last block when n is no power of two
    t = np.arange(n, dtype=float)
    assert np.array_equal(dominance_counts(t, t), np.arange(n))
    assert np.array_equal(dominance_counts(t, -t), np.zeros(n))
    rng = np.random.default_rng(n)
    x, y = rng.integers(0, 50, n), rng.random(n)
    expected = ((x[None, :] < x[:, None]) & (y[None, :] < y[:, None])).sum(1)
    assert np.array_equal(dominance_counts(x, y), expected)


@settings(max_examples=200, deadline=None)
@given(tied_points())
def test_average_ranks_match_tie_group_means(xy):
    z = xy[0]
    order = np.argsort(z, kind="mergesort")
    positions = np.empty(len(z))
    positions[order] = np.arange(1, len(z) + 1)
    expected = np.array([positions[z == v].mean() for v in z])
    ranks, groups = _average_ranks(z)
    assert np.array_equal(ranks, expected)
    assert groups == len(np.unique(z))


@settings(max_examples=200, deadline=None)
@given(tied_points(), st.data())
def test_empirical_copula_cdf_matches_brute_force(xy, data):
    u, v = xy
    p = PseudoObservations(u=u, v=v)
    # query points on the same integer grids, one beyond each end
    qx = np.asarray(data.draw(st.lists(st.integers(-1, 13), min_size=1, max_size=20)), float)
    qy = np.asarray(data.draw(st.lists(st.integers(-1, 13), min_size=len(qx),
                                       max_size=len(qx))), float)
    expected = [sum(1 for ui, vi in zip(u, v) if ui <= a and vi <= b) / len(u)
                for a, b in zip(qx, qy)]
    got = empirical_copula_cdf(p, qx, qy)
    assert got.shape == qx.shape
    assert np.array_equal(got, expected)
    grid = empirical_copula_cdf(p, qx[:, None], qy[None, :])
    assert grid.shape == (len(qx), len(qy))
    assert np.array_equal(np.diagonal(grid), expected)
    scalar = empirical_copula_cdf(p, qx[0], qy[0])
    assert isinstance(scalar, float) and scalar == expected[0]


def _clamped_kendall_eval(k, t):
    """EmpiricalKendall.eval with its two former clamps at 1, which never act:
    the count and clip(t) both lie in [0, 1]."""
    t = np.asarray(t, dtype=float)
    raw = np.searchsorted(k.w_values, t, side="right") / len(k.w_values)
    out = np.maximum(raw, np.clip(t, 0.0, 1.0))
    return np.where(t >= 1.0, 1.0, np.minimum(out, 1.0))


@settings(max_examples=200, deadline=None)
@given(tied_points().filter(lambda xy: np.ptp(xy[0]) > 0 and np.ptp(xy[1]) > 0),
       st.lists(st.floats() | st.floats(-0.5, 1.5), max_size=30))
def test_empirical_kendall_eval_matches_the_clamped_form(xy, ts):
    # NaN, +-inf, values below 0 and above 1, the atoms and their neighbours
    k = empirical_kendall(pseudo_obs(SampleSet(x=xy[0], y=xy[1])))
    w = k.w_values
    t = np.r_[ts, np.nan, np.inf, -np.inf, 0.0, 1.0, w, np.nextafter(w, 2.0),
              np.nextafter(w, -1.0)]
    assert k.eval(t).tobytes() == _clamped_kendall_eval(k, t).tobytes()


@settings(max_examples=200, deadline=None)
@given(tied_points().filter(lambda xy: np.ptp(xy[0]) > 0 and np.ptp(xy[1]) > 0))
def test_reconstructed_generator_is_exact_on_the_step_estimate(xy):
    k = empirical_kendall(pseudo_obs(SampleSet(x=xy[0], y=xy[1])))
    g = reconstruct_generator(k)
    atoms = np.union1d(k.w_values, [1.0])
    mids = 0.5 * (atoms[1:] + atoms[:-1])
    assert np.max(np.abs(kendall_function(g).eval(mids) - k.eval(mids))) <= 1e-9
    t = np.union1d(np.r_[0.0, 0.5, atoms], mids)
    phi = g.phi(t)
    # 1/2 lies inside a linear piece of phi, so phi(1/2) = 1 holds to rounding
    assert abs(g.phi(0.5) - 1.0) <= 1e-12 and g.phi(1.0) == 0.0
    assert np.isfinite(g.phi(0.0)) and not g.strict
    assert np.all(np.diff(phi) < 0)
    slopes = np.diff(phi) / np.diff(t)
    assert np.all(np.diff(slopes) >= -1e-9 * np.abs(slopes[:-1]))


@settings(max_examples=200, deadline=None)
@given(tied_points().filter(lambda xy: 2 <= len(xy[0]) <= 150
                            and np.ptp(xy[0]) > 0 and np.ptp(xy[1]) > 0))
def test_exact_plugin_measures_lie_in_unit_interval(xy):
    # the sums the exact Archimedean plugin route reads, with no slack for a grid
    g = reconstruct_generator(empirical_kendall(pseudo_obs(SampleSet(x=xy[0], y=xy[1]))))
    _, z, r = piecewise_measures(g)
    assert 0.0 <= z <= 1.0 and 0.0 <= r <= 1.0


def _row_sorted_piece_pair_sums(ts, phis, s, j):
    """The sums of `piecewise_measures` over the bands j, a column of indices,
    each band holding all 2 (P + 1) points, stably sorted by x row by row."""
    P = len(ts) - 1
    v = np.interp(phis[j] - phis, phis[::-1], ts[::-1])     # Y_j(t_i)
    x = np.concatenate([np.broadcast_to(ts, v.shape), v[:, ::-1]], axis=1)
    y = np.concatenate([v, np.broadcast_to(ts[::-1], v.shape)], axis=1)
    order = np.argsort(x, axis=1, kind="stable")
    x, y = np.take_along_axis(x, order, 1), np.take_along_axis(y, order, 1)
    # a segment's piece is the last knot at or left of it; mirrors are -1
    piece = np.r_[np.arange(P + 1), np.full(P + 1, -1)][order]
    i = np.minimum(np.maximum.accumulate(piece, axis=1)[:, :-1], P - 1)
    w, yl, yr = np.diff(x, axis=1), y[:, :-1], y[:, 1:]
    k_j = np.minimum(s[i] / s[j], 1.0)
    k_prev = np.minimum(s[i] * np.r_[0.0, 1.0 / s[:-1]][j], 1.0)
    r = np.sum(w * (yl + yr) * (k_j * k_j - k_prev * k_prev))
    d1 = np.sum(w * (_positive_square_mean(yl - k_prev, yr - k_prev)
                     - _positive_square_mean(yl - k_j, yr - k_j)))
    return r, d1


def _row_sorted_measures(g):
    """(D1, zeta1, r) of `piecewise_measures` from the row-sorted sums."""
    ts, phis = g.knots
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        s = np.diff(phis) / np.diff(ts)
        r, d1 = _row_sorted_piece_pair_sums(ts, phis, s, np.arange(len(s))[:, None])
    d1, r = d1 / 3.0, 6.0 * (1.0 - r / 2.0) - 2.0
    return d1, 3.0 * d1, r


@st.composite
def convex_knot_tables(draw):
    """Generators linear between P knots on the grid i / 1024, P from 1 to
    300, with phi(0) up to about 1e82."""
    P = draw(st.integers(1, 300))
    top = draw(st.floats(0.0, 82.0))
    tied = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    ts = np.r_[0, np.sort(rng.choice(np.arange(1, 1024), P - 1, replace=False)), 1024] / 1024
    if tied:
        # few distinct integer slopes times one power of 2: phi and its slopes
        # are exact, so the tied slopes stay tied
        mags = np.sort(rng.integers(1, 8, P))[::-1] * 2.0 ** np.floor(top * np.log2(10) - 3)
    else:
        mags = np.sort(10.0 ** rng.uniform(top - 6, top, P))[::-1]
    phis = np.r_[np.cumsum((mags * np.diff(ts))[::-1])[::-1], 0.0]
    return replace(make_w_generator(), label="table", knots=(ts, phis))


@settings(max_examples=100, deadline=None)
@given(convex_knot_tables())
def test_piecewise_measures_match_the_row_sorted_sums(g):
    assert np.max(np.abs(np.array(piecewise_measures(g))
                         - np.array(_row_sorted_measures(g)))) <= 1e-13


@settings(max_examples=100, deadline=None)
@given(tied_points().filter(lambda xy: 2 <= len(xy[0])
                            and np.ptp(xy[0]) > 0 and np.ptp(xy[1]) > 0))
def test_piecewise_measures_match_the_row_sorted_sums_on_tied_fits(xy):
    g = reconstruct_generator(empirical_kendall(pseudo_obs(SampleSet(x=xy[0], y=xy[1]))))
    assert np.max(np.abs(np.array(piecewise_measures(g))
                         - np.array(_row_sorted_measures(g)))) <= 1e-13


def test_piecewise_measures_merge_mirrors_that_rounding_puts_out_of_order():
    # a valid convex table on which band 1's mirror of t_3 rounds to 0, left
    # of its mirror of t_4 = 1e-300, across the knot t_1 = 1e-300
    ts = np.array([0.0, 1e-300, 0.75, 0.875, 1.0])
    phis = np.array([1.0 + 2.0 ** -52, 1.0, 2.0 ** -52, 2.0 ** -53, 0.0])
    xm = np.interp(phis[1] - phis[[4, 3]], phis[::-1], ts[::-1])
    assert xm[1] < ts[1] == xm[0]
    g = replace(make_w_generator(), label="table", knots=(ts, phis))
    assert np.max(np.abs(np.array(piecewise_measures(g))
                         - np.array(_row_sorted_measures(g)))) <= 1e-13
