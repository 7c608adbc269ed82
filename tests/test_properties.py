import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from copkern._accel import dominance_counts, levy_distance
from copkern.estimation import _average_ranks, convexify_pickands


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


@settings(max_examples=200, deadline=None)
@given(tied_points())
def test_average_ranks_match_tie_group_means(xy):
    z = xy[0]
    order = np.argsort(z, kind="mergesort")
    positions = np.empty(len(z))
    positions[order] = np.arange(1, len(z) + 1)
    expected = np.array([positions[z == v].mean() for v in z])
    ranks, tied = _average_ranks(z)
    assert np.array_equal(ranks, expected)
    assert tied == (len(np.unique(z)) < len(z))
