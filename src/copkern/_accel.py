"""Loop-bound numeric kernels, one vectorized numpy implementation each.

``dominance_counts`` gives the strict pairwise dominance counts behind the
empirical Kendall distribution in O(n log^2 n) by counting over merge levels;
``levy_distance`` resolves the Levy metric between tabulated CDFs by a binary
search over grid shifts, each shift checked by ``_levy_check``.
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


def _levy_check(f, g, k):
    # Levy condition F(y-eps)-eps <= G(y) <= F(y+eps)+eps at eps = k*h,
    # checked on the common grid (h = grid step, index shift k).
    m = f.shape[0]
    eps = k / (m - 1)
    lo = np.concatenate((np.zeros(k), f[: m - k])) if k else f
    hi = np.concatenate((f[k:], np.ones(k))) if k else f
    return bool(np.all(lo - eps <= g + 1e-12) and np.all(g <= hi + eps + 1e-12))


def levy_distance(f, g):
    """Levy metric between two CDFs tabulated on a common uniform grid on [0,1].

    `f` and `g` hold the CDF values at ``j/(m-1)``, ``j = 0..m-1``.  The result
    is resolved to the grid step (binary search over index shifts), which is
    what metrizing weak convergence of conditional laws with atoms requires.
    """
    f = np.ascontiguousarray(f, dtype=np.float64)
    g = np.ascontiguousarray(g, dtype=np.float64)
    m = f.shape[0]
    lo, hi = 0, m - 1
    if _levy_check(f, g, 0):
        return 0.0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _levy_check(f, g, mid):
            hi = mid
        else:
            lo = mid
    return hi / (m - 1)
