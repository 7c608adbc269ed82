"""Nonparametric estimators: ranks, empirical copula, Chatterjee's coefficient,
empirical Kendall distribution, generator reconstruction, the CFG Pickands
estimator with its convexification, and `estimate`, which dispatches on a name."""

from dataclasses import dataclass

import numpy as np

from ._accel import dominance_counts
from .archimedean import Generator, archimedean_copula
from .core import CopulaModel, _piecewise_linear, lattice, sup_distance
from .extreme_value import PickandsFunction, ev_copula, make_piecewise_linear_pickands
# zeta1 is not used here; the binding remains for callers that trace it
from .metrics import QuadratureSpec, measures, zeta1  # noqa: F401
from .sampling import RngSpec, SampleSet, sample

_EULER_GAMMA = 0.5772156649015329

# plugin estimator -> the structural assumption its model is fitted under
PLUGINS = {"plugin-arch": "archimedean", "plugin-ev": "extreme-value"}
ESTIMATORS = ("chatterjee", *PLUGINS)


@dataclass(frozen=True)
class PseudoObservations:
    u: np.ndarray
    v: np.ndarray
    had_ties: bool = False

    @property
    def n(self) -> int:
        return len(self.u)


@dataclass(frozen=True)
class EmpiricalKendall:
    """Step estimate K(t) = (1/n) #{W_i <= t} of the Kendall distribution function."""

    w_values: np.ndarray          # sorted normalized concordance statistics

    def eval(self, t):
        t = np.asarray(t, dtype=float)
        n = len(self.w_values)
        raw = np.searchsorted(self.w_values, t, side="right") / n
        return np.maximum(raw, np.clip(t, 0.0, 1.0))


def _average_ranks(z: np.ndarray) -> tuple[np.ndarray, int]:
    """1-based ranks, each tie group at its mean rank, and the number of groups."""
    order = np.argsort(z, kind="mergesort")
    sz = z[order]
    bounds = np.flatnonzero(np.r_[True, sz[1:] != sz[:-1], True])
    lo, hi = bounds[:-1], bounds[1:]
    ranks = np.empty(len(z))
    ranks[order] = np.repeat((lo + hi + 1) / 2, hi - lo)
    return ranks, len(lo)


def _check_sample(s: SampleSet):
    if s.n < 2:
        raise ValueError("need at least two observations")
    if np.any(~np.isfinite(s.x)) or np.any(~np.isfinite(s.y)):
        raise ValueError("observations must be finite")


def pseudo_obs(s: SampleSet) -> PseudoObservations:
    """Rank transform to (rank/(n+1)) pseudo-observations; ties get average ranks.

    A constant column (a single tie group) has no ranks and is rejected.
    """
    _check_sample(s)
    n = s.n
    u, x_groups = _average_ranks(s.x)
    v, y_groups = _average_ranks(s.y)
    if 1 in (x_groups, y_groups):
        col = "x" if x_groups == 1 else "y"
        raise ValueError(f"pseudo-observations are undefined for a constant {col} column")
    return PseudoObservations(u=u / (n + 1), v=v / (n + 1), had_ties=min(x_groups, y_groups) < n)


def empirical_copula_cdf(p: PseudoObservations, x, y):
    """Step empirical copula (1/n) #{i : u_i <= x, v_i <= y}."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    shape = np.broadcast_shapes(x.shape, y.shape)
    xb = np.broadcast_to(x, shape).reshape(-1, 1)
    yb = np.broadcast_to(y, shape).reshape(-1, 1)
    # query blocks keep each comparison array near 2^22 entries
    step = max(1, 2 ** 22 // p.n)
    out = np.concatenate([
        np.count_nonzero((p.u <= xb[i:i + step]) & (p.v <= yb[i:i + step]), axis=1)
        for i in range(0, len(xb) or 1, step)
    ]) / p.n
    return out.reshape(shape) if shape else float(out[0])


def empirical_copula_lattice(p: PseudoObservations, edges) -> np.ndarray:
    """`empirical_copula_cdf` at (edges[a], edges[b]) for ascending `edges`,
    counted exactly in O(n + lattice): each pair is binned at the first edge
    at or above u and at or above v, and two cumulative sums of the bins give
    #{i : u_i <= edges[a], v_i <= edges[b]}."""
    edges = np.asarray(edges, dtype=float)
    k = len(edges) + 1            # bin len(edges) lies above every edge
    a = np.searchsorted(edges, p.u, side="left")
    b = np.searchsorted(edges, p.v, side="left")
    bins = np.bincount(a * k + b, minlength=k * k).reshape(k, k)[:-1, :-1]
    return bins.cumsum(axis=0).cumsum(axis=1) / p.n


def sample_fidelity(c: CopulaModel, n: int, rng: RngSpec, grid: int = 50) -> float:
    """Sup distance on the (grid+1)^2 lattice between `c` and the sample's
    empirical copula (1/n) #{i : u_i <= x, v_i <= y}."""
    p = pseudo_obs(sample(c, n, rng))
    edges = np.linspace(0.0, 1.0, grid + 1)
    return sup_distance(empirical_copula_lattice(p, edges), lattice(c.cdf, edges, edges))


def chatterjee_r(s: SampleSet, rng: np.random.Generator = None) -> float:
    """Chatterjee's rank coefficient; x-ties broken uniformly at random.

    Undefined, and rejected, for a constant y column: its denominator is 0.
    """
    _check_sample(s)
    n = s.n
    if rng is None:
        rng = np.random.default_rng(0)
    noise = rng.random(n)
    order = np.lexsort((noise, s.x))
    y = s.y[order]
    sorted_y = np.sort(s.y)
    r = np.searchsorted(sorted_y, y, side="right").astype(float)
    l = (n - np.searchsorted(sorted_y, y, side="left")).astype(float)
    num = n * np.sum(np.abs(np.diff(r)))
    den = 2.0 * np.sum(l * (n - l))
    if den == 0.0:
        raise ValueError("chatterjee_r is undefined for a constant y column")
    return float(1.0 - num / den)


def empirical_kendall(p: PseudoObservations) -> EmpiricalKendall:
    """Empirical Kendall distribution from strict pairwise dominance counts.

    W_i = #{j : u_j < u_i, v_j < v_i} / (n+1), the divisor of the ranks.  A
    point with count c dominates c points of smaller count, so the step
    function (1/n) #{W_i <= t} is at least c/n > c/(n+1) below each atom: it
    exceeds the identity on [0, 1) and is a valid Kendall function as it is.
    """
    n = p.n
    if n < 2:
        raise ValueError("need at least two observations")
    return EmpiricalKendall(w_values=np.sort(dominance_counts(p.u, p.v) / (n + 1)))


# knots on which a Kendall function known only through `eval` is tabulated
_KENDALL_GRID = np.linspace(0.0, 1.0, 10_001)


def _log_mean(a, b):
    """Logarithmic mean (b - a) / log(b / a) of same-sign a, b; a when a == b."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(a == b, a, (b - a) / np.log(b / a))


def reconstruct_generator(k) -> Generator:
    """Archimedean generator of a Kendall function K, normalized to phi(1/2) = 1.

    log phi(x) = int_{1/2}^x dt / g(t) with g(t) = t - K(t) < 0 on (0, 1).
    Between knots K is taken constant (the atoms of an EmpiricalKendall) or
    linear (a tabulation of any other K on _KENDALL_GRID); g is then linear,
    and the integral over a segment is exactly dt / L(g_lo, g_hi), L the
    logarithmic mean.  For the step estimate phi is linear between atoms with
    its root at K's value there, so the knot table is the exact generator,
    decreasing and convex.  The last segment's integral diverges (K(1) = 1),
    which gives phi(1) = 0.  The generator is strict exactly when the first
    segment's integral diverges, i.e. when K(0) = 0; the table then starts at
    the first positive knot t1 and, with K the chord through the origin on
    [0, t1], phi(x) = phi(t1) (t1 / x)**alpha below it.  log phi(1/2) is
    integrated within its segment: a knot at 1/2 inside a linear piece of phi
    would split its slope in two by rounding, and the kernel would drop in y.
    The table (ts, phi(ts)) is the generator's `knots`.
    """
    if isinstance(k, EmpiricalKendall):
        ts = np.union1d(k.w_values, [0.0, 1.0])
        k_lo = k_hi = k.eval(ts[:-1])
    else:
        ts = _KENDALL_GRID
        kv = k.eval(ts)
        k_lo, k_hi = kv[:-1], kv[1:]
    g_lo, g_hi = ts[:-1] - k_lo, ts[1:] - k_hi
    if not (np.all(g_lo[1:] < 0) and np.all(g_hi[:-1] < 0) and g_lo[0] <= 0 and g_hi[-1] == 0):
        raise ValueError("a Kendall function must exceed the identity on (0, 1) and reach 1 at 1")
    strict = bool(g_lo[0] == 0)
    with np.errstate(divide="ignore"):
        steps = np.diff(ts) / _log_mean(g_lo, g_hi)
    if strict:
        alpha = -ts[1] / g_hi[0]
        ts, steps = ts[1:], steps[1:]
    log_phi = np.concatenate(([0.0], np.cumsum(steps)))
    j = np.searchsorted(ts, 0.5, side="right") - 1
    # log phi(1/2) - log phi(t_j) on the segment of the last knot t_j <= 1/2
    half = (0.5 - ts[j]) / _log_mean(ts[j] - k.eval(ts[j]), 0.5 - k.eval(0.5))
    with np.errstate(over="ignore"):
        phis = np.exp(log_phi - log_phi[j] - half)
    if not (np.isfinite(phis[0]) and np.all(phis[:-1] > 0)):
        raise ValueError("the generator's range exceeds floating point "
                         "(a Kendall estimate too close to comonotone)")
    t1, phi1 = ts[0], phis[0]
    table_phi, table_dplus = _piecewise_linear(ts, phis)
    if not strict:
        phi, dplus = table_phi, table_dplus
    else:
        def phi(t):
            t = np.clip(np.asarray(t, dtype=float), 0.0, 1.0)
            with np.errstate(divide="ignore", over="ignore"):
                return np.where(t < t1, phi1 * (t1 / t) ** alpha, table_phi(t))

        def dplus(t):
            t = np.asarray(t, dtype=float)
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                return np.where(t < t1, -alpha / t * phi1 * (t1 / t) ** alpha, table_dplus(t))

    def inverse(s):
        # beyond phi(0) = phis[0] a non-strict table gives ts[0] = 0
        s = np.asarray(s, dtype=float)
        out = np.interp(s, phis[::-1], ts[::-1])
        if strict:
            with np.errstate(divide="ignore"):
                out = np.where(s > phi1, t1 * (phi1 / s) ** (1.0 / alpha), out)
        return out

    for a in (ts, phis):
        a.setflags(write=False)
    return Generator(phi, dplus, inverse, "reconstructed", knots=(ts, phis))


# the CFG estimate is tabulated on t = i / _CFG_GRID, i = 0.._CFG_GRID
_CFG_GRID = 1000


def cfg_estimator(p: PseudoObservations) -> dict:
    """Endpoint-corrected CFG estimate of the Pickands dependence function.

    log A(t) = -gamma - mean(log min((-log u_i)/(1-t), (-log v_i)/t)),
    followed by the affine endpoint correction forcing A(0) = A(1) = 1.
    Returns the raw table {'t': grid, 'a': values}.

    With lu = -log u and lv = -log v, term i takes its u-branch for
    t <= s_i = lv_i / (lu_i + lv_i) and its v-branch above.  With the s_i
    sorted, U and V the prefix sums of log lu and log lv in that order and
    k = #{s_i < t},

        sum_i log min(...) = (U_n - U_k) - (n-k) log(1-t) + V_k - k log t,

    so the table costs O((n + T) log n) for T grid points, with no n x T
    array.  At t = 0 every term takes its u-branch and at t = 1 its
    v-branch: those rows are U_n and V_n, where the formula would read
    0 * log 0.
    """
    if not (np.all((p.u > 0) & (p.u < 1)) and np.all((p.v > 0) & (p.v < 1))):
        raise ValueError("CFG pseudo-observations must lie in the open interval (0, 1)")
    lu, lv = -np.log(p.u), -np.log(p.v)
    s = lv / (lu + lv)
    order = np.argsort(s)
    big_u = np.concatenate(([0.0], np.cumsum(np.log(lu[order]))))
    big_v = np.concatenate(([0.0], np.cumsum(np.log(lv[order]))))
    t = np.linspace(0.0, 1.0, _CFG_GRID + 1)
    k = np.searchsorted(s[order], t, side="left")
    with np.errstate(divide="ignore", invalid="ignore"):
        total = (big_u[-1] - big_u[k]) - (p.n - k) * np.log(1.0 - t) + big_v[k] - k * np.log(t)
    total[0], total[-1] = big_u[-1], big_v[-1]
    log_a = -_EULER_GAMMA - total / p.n
    log_a = log_a - (1.0 - t) * log_a[0] - t * log_a[-1]
    return {"t": t, "a": np.exp(log_a)}


def convexify_pickands(raw: dict) -> PickandsFunction:
    """Greatest convex minorant of max(min(raw, 1), id, 1 - id).

    Its knots are the lower convex hull of the clamped point set, so it meets
    every Pickands constraint exactly.  A point on or above the chord of its
    two neighbours is no hull vertex: each pass drops all such points at
    once, until none is left.
    """
    t = np.asarray(raw["t"], dtype=float)
    a = np.asarray(raw["a"], dtype=float)
    # 1 - t can round below the bound, and near t = 0 that tilts the first
    # hull slope below -1 (by 3% at t = 2e-16); the next float up does not
    one_minus_t = 1.0 - t
    one_minus_t = np.where(1.0 - one_minus_t > t, np.nextafter(one_minus_t, 2.0), one_minus_t)
    g = np.maximum(np.minimum(a, 1.0), np.maximum(t, one_minus_t))
    while True:
        above = np.diff(t)[:-1] * (g[2:] - g[:-2]) <= (t[2:] - t[:-2]) * np.diff(g)[:-1]
        if not above.any():
            return make_piecewise_linear_pickands(list(zip(t, g)), label="cfg")
        keep = np.r_[True, ~above, True]
        t, g = t[keep], g[keep]


def plugin_zeta1_r(
    p: PseudoObservations, which: str, q: QuadratureSpec = QuadratureSpec()
):
    """Structural plugin estimates (zeta1, r), `metrics.measures` at `q` of the
    Archimedean or EV model fitted to `p`, and the fit the model is built from:
    the EmpiricalKendall or the convexified PickandsFunction."""
    if which == "archimedean":
        fit = empirical_kendall(p)
        model = archimedean_copula(reconstruct_generator(fit))
    elif which == "extreme-value":
        fit = convexify_pickands(cfg_estimator(p))
        model = ev_copula(fit)
    else:
        raise ValueError("structural assumption must be 'archimedean' or 'extreme-value'")
    _, z, r = measures(model, q)
    return z, r, fit


def estimate(s: SampleSet, estimator: str, seed: int, q: QuadratureSpec):
    """(r, zeta1, fit) of `estimator`, one of ESTIMATORS, on the sample `s`: Chatterjee's
    r, its x-ties broken by `np.random.default_rng(seed)`, with no zeta1 or fit, or
    `plugin_zeta1_r` at `q` under the structural assumption that PLUGINS names."""
    if estimator == "chatterjee":
        return chatterjee_r(s, np.random.default_rng(seed)), None, None
    z, r, fit = plugin_zeta1_r(pseudo_obs(s), PLUGINS[estimator], q)
    return r, z, fit
