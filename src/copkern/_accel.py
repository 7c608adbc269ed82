"""Loop-bound numeric kernels, one vectorized numpy implementation each.

``dominance_counts`` gives the strict pairwise dominance counts behind the
empirical Kendall distribution in O(n log^2 n) by counting over merge levels;
``levy_distance`` resolves the Levy metric between tabulated CDFs, row by
row, by one binary search over grid shifts bracketed by the sup distance,
each step checked for all rows by ``_levy_check``.  F is padded into its
shifted windows once per ``levy_distance`` call, not once per search step.
"""

import numpy as np

# numba is not used; the constant remains for callers that report it
HAVE_NUMBA = False


def dominance_counts(x, y):
    """#{j : x_j < x_i and y_j < y_i} for every i (finite inputs, ties allowed).

    After sorting by x ascending, and by y descending within x-ties, the count
    of i is the number of earlier points with a smaller y.  With y replaced by
    its min-ranks, ties in y stay non-dominating.  Each merge level with block
    size b counts, for every element in the right half of a 2b-block, the
    left-half elements of the same block with a smaller rank; every earlier
    point is counted at exactly one level.
    """
    x = np.asarray(x)
    y = np.asarray(y)
    n = x.shape[0]
    rank = np.searchsorted(np.sort(y), y, side="left")
    order = np.lexsort((-rank, x))
    rank = rank[order]
    pos = np.arange(n)
    counts = np.zeros(n, dtype=np.int64)
    b = 1
    while b < n:
        block = pos // (2 * b)
        left = pos % (2 * b) < b
        keys = block * n + rank
        left_keys = np.sort(keys[left])
        right = ~left
        # every earlier block is complete: block * b left keys lie below block * n
        counts[right] += np.searchsorted(left_keys, keys[right], side="left") - block[right] * b
        b *= 2
    out = np.empty(n, dtype=np.int64)
    out[order] = counts
    return out


def _levy_check(windows, g, k):
    """Per row r, the Levy condition F(y-eps)-eps <= G(y) <= F(y+eps)+eps at
    eps = k_r * h, checked on the common grid (h = grid step, index shift k_r);
    `g` is (rows, m) and `k` holds one integer shift per row.  windows[r, s]
    is row r of F padded by m - 1 zeros and m - 1 ones, read from s on, so
    windows[r, m - 1 -/+ k_r] is F read k_r steps to the left/right, 0 below
    the grid and 1 above it; picking one window per row copies whole rows."""
    n, _, m = windows.shape
    rows, k = np.arange(n), np.asarray(k)
    lo, hi = windows[rows, m - 1 - k], windows[rows, m - 1 + k]
    eps = (k / (m - 1))[:, None]
    return np.all(lo - eps <= g + 1e-12, axis=1) & np.all(g <= hi + eps + 1e-12, axis=1)


def levy_distance(f, g):
    """Levy metric between CDFs tabulated on a common uniform grid on [0,1].

    `f` and `g` hold the CDF values at ``j/(m-1)``, ``j = 0..m-1``: one pair
    of 1-D tables gives a float, stacked (rows, m) tables give the distance
    of each row pair as an array; tables of different shapes are an error.
    The result is resolved to the grid step, which is what metrizing weak
    convergence of conditional laws with atoms requires.  One binary search
    over index shifts advances every row at once.  A row's search runs over
    [0, k] with k = ceil(max|F - G| (m - 1)), capped at m - 1, when the
    check passes at k, and over [0, m - 1] otherwise; a shift of m - 1 is
    taken, not checked.  On rows that are nondecreasing and inside [0, 1]
    each side of the check is a monotone rounding of monotone terms, so the
    check holds from some shift on: each such row gets the smallest shift
    that passes `_levy_check`, the shift a search over [0, m - 1] gives.
    """
    f = np.asarray(f, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    if f.shape != g.shape:
        raise ValueError(f"a Levy distance needs CDF tables of one shape, got {f.shape} "
                         f"and {g.shape}")
    if f.ndim > 2:
        raise ValueError(f"a Levy distance needs 1-D or (rows, m) CDF tables, got "
                         f"{f.shape} and {g.shape}")
    rows_f, rows_g = np.atleast_2d(f, g)
    m = rows_f.shape[1]
    if m < 2:
        raise ValueError(f"a Levy distance needs CDF tables of at least 2 points, got {m}")
    n = len(rows_f)
    padded = np.concatenate((np.zeros((n, m - 1)), rows_f, np.ones((n, m - 1))), axis=1)
    windows = np.lib.stride_tricks.sliding_window_view(padded, m, axis=1)
    # the sup distance brackets the shift: fmin reads a NaN row as m - 1
    sup = np.max(np.abs(rows_f - rows_g), axis=1)
    hi = np.fmin(np.ceil(sup * (m - 1)), m - 1).astype(np.int64)
    hi = np.where(_levy_check(windows, rows_g, hi), hi, m - 1)
    lo = np.full(n, -1, dtype=np.int64)    # shift 0 is searched like any other
    while np.any(unsettled := hi - lo > 1):
        mid = (lo + hi) // 2
        ok = _levy_check(windows, rows_g, mid)
        hi = np.where(unsettled & ok, mid, hi)
        lo = np.where(unsettled & ~ok, mid, lo)
    dist = hi / (m - 1)
    return float(dist[0]) if f.ndim == 1 else dist
