import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copkern._accel import dominance_counts, levy_distance
from copkern.archimedean import kendall_function
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
