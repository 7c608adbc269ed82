"""Nonparametric estimators: ranks, empirical copula, Chatterjee's coefficient,
empirical Kendall distribution, generator reconstruction, and the CFG Pickands
estimator with its convexification."""

from dataclasses import dataclass

import numpy as np

from ._accel import dominance_counts
from .archimedean import Generator, archimedean_copula, make_generator
from .extreme_value import PickandsFunction, ev_copula, make_piecewise_linear_pickands
# zeta1 is not used here; the binding remains for callers that trace it
from .metrics import QuadratureSpec, pi_measures, zeta1  # noqa: F401
from .sampling import SampleSet

_EULER_GAMMA = 0.5772156649015329


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
    """Validity-projected step estimate of the Kendall distribution function."""

    w_values: np.ndarray          # sorted normalized concordance statistics
    projected: bool = True

    def eval(self, t):
        t = np.asarray(t, dtype=float)
        n = len(self.w_values)
        raw = np.searchsorted(self.w_values, t, side="right") / n
        out = np.maximum(raw, np.clip(t, 0.0, 1.0))
        return np.where(t >= 1.0, 1.0, np.minimum(out, 1.0))


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
    out = np.count_nonzero((p.u <= xb) & (p.v <= yb), axis=1) / p.n
    return out.reshape(shape) if shape else float(out[0])


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

    W_i = #{j != i : u_j < u_i, v_j < v_i} / (n-1); the raw step function
    (1/n) #{W_i <= t} is then projected to a valid Kendall function
    (max with the identity, nondecreasing, right-continuous, value 1 at 1).
    """
    n = p.n
    if n < 2:
        raise ValueError("need at least two observations")
    w = np.sort(dominance_counts(p.u, p.v) / (n - 1))
    return EmpiricalKendall(w_values=w)


def reconstruct_generator(
    k: EmpiricalKendall, grid: int = 10_000, eps: float = 1e-6
) -> Generator:
    """Normalized Archimedean generator from a Kendall distribution estimate.

    phi(x) = exp( int_{1/2}^{x} dt / (t - F(t)) ) tabulated by the trapezoid
    rule on [1e-4, 1]; the denominator is floored at -eps so that stretches
    where F(t) = t cannot blow up the integral.
    """
    ts = np.union1d(np.linspace(1e-4, 1.0, grid), [0.5])
    denom = np.minimum(ts - k.eval(ts), -eps)
    integrand = 1.0 / denom
    # cumulative trapezoid from the left end, then re-anchor at t = 1/2
    cum = np.concatenate(
        ([0.0], np.cumsum(0.5 * (integrand[1:] + integrand[:-1]) * np.diff(ts)))
    )
    anchor = cum[np.searchsorted(ts, 0.5)]
    # cap the exponent: near-degenerate stretches of F would overflow phi to
    # inf and poison the table; 1e12 is far above the strictness threshold
    phis = np.exp(np.minimum(cum - anchor, np.log(1e12)))
    phis[-1] = 0.0                      # phi(1) = 0 exactly
    return table_generator(ts, phis, label="reconstructed")


def _pava_nondecreasing(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Weighted isotonic projection onto nondecreasing sequences (pool adjacent
    violators); preserves the weighted total of `values`."""
    v, w, sizes = [], [], []
    for x, wt in zip(values, weights):
        v.append(x)
        w.append(wt)
        sizes.append(1)
        while len(v) >= 2 and v[-2] > v[-1]:
            wv = w[-2] + w[-1]
            v[-2] = (w[-2] * v[-2] + w[-1] * v[-1]) / wv
            w[-2] = wv
            sizes[-2] += sizes[-1]
            v.pop(); w.pop(); sizes.pop()
    return np.repeat(v, sizes)


def table_generator(ts: np.ndarray, phis: np.ndarray, label: str,
                    strict_threshold: float = 1e6) -> Generator:
    """Generator backed by a monotone table, convexified by slope projection.

    The chord slopes are projected onto nondecreasing sequences (weighted
    isotonic regression), which preserves the total increment, so phi(1) = 0
    survives the projection; the table is then rescaled so that phi(1/2) = 1
    holds exactly.
    """
    ts = np.asarray(ts, dtype=float)
    phis = np.asarray(phis, dtype=float)
    dt = np.diff(ts)
    d = _pava_nondecreasing(np.diff(phis) / dt, dt)
    # rebuild the convex table backwards from phi(1) and renormalize at 1/2
    phis = phis[-1] - np.concatenate(([0.0], np.cumsum((d * dt)[::-1])))[::-1]
    scale = np.interp(0.5, ts, phis)
    if scale > 0:
        phis = phis / scale
        d = d / scale
    strict = bool(phis[0] > strict_threshold)
    rev_p = phis[::-1]
    rev_t = ts[::-1]

    def phi(t):
        t = np.asarray(t, dtype=float)
        return np.interp(np.clip(t, ts[0], 1.0), ts, phis)

    def dplus(t):
        t = np.asarray(t, dtype=float)
        idx = np.clip(np.searchsorted(ts, t, side="right") - 1, 0, len(d) - 1)
        return d[idx]

    def inverse(s):
        s = np.asarray(s, dtype=float)
        out = np.interp(s, rev_p, rev_t)
        return np.where(s >= phis[0], 0.0, out)

    return make_generator(
        phi, dplus, np.inf if strict else float(phis[0]), label, inverse
    )


def cfg_estimator(p: PseudoObservations, t_grid: int = 1000) -> dict:
    """Endpoint-corrected CFG estimate of the Pickands dependence function.

    log A(t) = -gamma - mean(log min((-log u_i)/(1-t), (-log v_i)/t)),
    followed by the affine endpoint correction forcing A(0) = A(1) = 1.
    Returns the raw table {'t': grid, 'a': values}.
    """
    t = np.linspace(0.0, 1.0, t_grid + 1)
    lu = -np.log(p.u)
    lv = -np.log(p.v)
    with np.errstate(divide="ignore"):
        xi = np.minimum(
            lu[None, :] / (1.0 - t[:, None]),
            lv[None, :] / t[:, None],
        )
    log_a = -_EULER_GAMMA - np.mean(np.log(xi), axis=1)
    log_a = log_a - (1.0 - t) * log_a[0] - t * log_a[-1]
    return {"t": t, "a": np.exp(log_a)}


def convexify_pickands(raw: dict, label: str = "cfg") -> PickandsFunction:
    """Greatest convex minorant of max(min(raw, 1), id, 1 - id).

    The lower convex hull of the clamped point set yields a function meeting
    every Pickands constraint exactly.
    """
    t = np.asarray(raw["t"], dtype=float)
    a = np.asarray(raw["a"], dtype=float)
    g = np.maximum(np.minimum(a, 1.0), np.maximum(t, 1.0 - t))
    # monotone-chain lower hull over the tabulated points
    hull_t = [t[0]]
    hull_a = [g[0]]
    for i in range(1, len(t)):
        while len(hull_t) >= 2:
            cross = (hull_t[-1] - hull_t[-2]) * (g[i] - hull_a[-2]) - (
                t[i] - hull_t[-2]
            ) * (hull_a[-1] - hull_a[-2])
            if cross <= 0.0:
                hull_t.pop()
                hull_a.pop()
            else:
                break
        hull_t.append(t[i])
        hull_a.append(g[i])
    knots = list(zip(hull_t, hull_a))
    return make_piecewise_linear_pickands(knots, label=label)


def plugin_zeta1_r(
    p: PseudoObservations, which: str, q: QuadratureSpec = QuadratureSpec()
):
    """Structural plugin estimates (zeta1, r) under an Archimedean or EV assumption."""
    if which == "archimedean":
        model = archimedean_copula(reconstruct_generator(empirical_kendall(p)))
    elif which == "extreme-value":
        model = ev_copula(convexify_pickands(cfg_estimator(p)))
    else:
        raise ValueError("structural assumption must be 'archimedean' or 'extreme-value'")
    _, z, r = pi_measures(model, q)
    return z, r
