"""Archimedean generators and the induced copulas, kernels and Kendall functions.

Generators are normalized so that phi(1/2) = 1 and are right-continuous at 0:
every phi returns phi(0+) at 0.  Strict generators have phi(0+) = +inf; the
right derivative D+phi is non-decreasing, right-continuous, with D+phi(1) = 0
and D+phi(0) = -inf in the strict case.
"""

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .core import CopulaModel, ExchangeableKernel, _unit

_LN2 = np.log(2.0)


@dataclass(frozen=True)
class Generator:
    phi: Callable            # [0,1] -> [0,inf], phi(0) = phi(0+), vectorized
    dplus_phi: Callable      # right derivative on (0,1), vectorized, into a new array
    inverse: Callable        # pseudo-inverse phi^- on [0,inf], zero beyond phi(0)
    label: str
    # (t_k, phi(t_k)) of a generator linear between ascending knots t_k, as
    # read-only arrays; None for the parametric families
    knots: Optional[Tuple[np.ndarray, np.ndarray]] = None

    @property
    def strict(self) -> bool:
        """phi(0+) = +inf."""
        return bool(np.isinf(self.phi(0.0)))


@dataclass(frozen=True)
class KendallFunction:
    eval: Callable           # [0,1] -> [0,1], nondecreasing, eval(t) >= t


# The families' D+phi and phi^- compute into one new array with in-place
# ufuncs.  np.asarray turns the numpy scalar a ufunc returns for 0-d input
# into a 0-d array those steps can write; an array it returns as it is.


def make_clayton(theta: float) -> Generator:
    if not 0 < theta < np.inf:
        raise ValueError(f"Clayton parameter must be positive and must be finite, got {theta}")
    c = 2.0 ** theta - 1.0
    if c == 0.0:
        raise ValueError(f"Clayton parameter {theta:g} is beyond floating point: "
                         "its normalizer 2**theta - 1 rounds to 0")

    def phi(t):
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore", over="ignore"):
            return (t ** (-theta) - 1.0) / c

    def dplus(t):
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore", over="ignore"):
            out = np.asarray(t ** (-theta - 1.0))
            out *= -theta
            out /= c
        return out

    def inverse(s):
        s = np.asarray(s, dtype=float)
        out = np.asarray(c * s)
        out += 1.0
        with np.errstate(over="ignore"):
            out **= -1.0 / theta
        np.copyto(out, 1.0, where=s <= 0.0)
        return out

    return Generator(phi, dplus, inverse, f"clayton:{theta:g}")


def make_gumbel(theta: float) -> Generator:
    if not 1 <= theta < np.inf:
        raise ValueError(f"Gumbel parameter must be >= 1 and must be finite, got {theta}")

    def phi(t):
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore"):
            return (-np.log(t) / _LN2) ** theta

    def dplus(t):
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore", over="ignore"):
            out = np.asarray(np.log(t))
            np.negative(out, out=out)
            out **= theta - 1.0
            out *= -theta
            out /= t * _LN2 ** theta
        return out

    def inverse(s):
        s = np.asarray(s, dtype=float)
        with np.errstate(over="ignore"):
            out = np.asarray(s ** (1.0 / theta))
            out *= -_LN2
            np.exp(out, out=out)
        np.copyto(out, 1.0, where=s <= 0.0)
        return out

    return Generator(phi, dplus, inverse, f"gumbel:{theta:g}")


def _log_abs_expm1(a):
    """log|e^a - 1| = max(a, 0) + log(1 - e^{-|a|}), the last term log1p(-e^{-x})
    for x > ln 2 and log(-expm1(-x)) below, where the log1p form is -inf."""
    x = np.abs(a)
    with np.errstate(divide="ignore"):
        log1mexp = np.where(x > _LN2, np.log1p(-np.exp(-x)), np.log(-np.expm1(-x)))
    return np.maximum(a, 0.0) + log1mexp


def make_frank(theta: float) -> Generator:
    """Frank generator -log((e^{-theta t} - 1) / (e^{-theta} - 1)), normalized.

    The normalizer is about e^{-theta/2} for theta > 0 and |theta|/2 for
    theta < 0, so phi, D+phi and the inverse use one log|expm1| / expm1 /
    logaddexp form for both signs that neither cancels nor overflows.
    From theta ~ 1490 e^{-theta/2} underflows to 0; such theta are rejected.
    """
    if theta == 0 or not np.isfinite(theta):
        raise ValueError(f"Frank parameter must be nonzero and must be finite, got {theta}")
    l1 = _log_abs_expm1(-theta)
    norm = l1 - _log_abs_expm1(-theta / 2.0)
    if not (np.isfinite(norm) and norm > 0):
        raise ValueError(f"Frank parameter {theta:g} is beyond floating point: "
                         "its normalizer underflows to 0")

    def phi(t):
        return (l1 - _log_abs_expm1(-theta * np.asarray(t, dtype=float))) / norm

    def dplus(t):
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore", over="ignore"):
            out = np.asarray(theta * t)
            np.expm1(out, out=out)
            out *= norm
            np.divide(-theta, out, out=out)
        return out

    def inverse(s):
        s = np.asarray(s, dtype=float)
        sn = np.asarray(s * norm)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.asarray(np.negative(sn))
            np.expm1(out, out=out)
            np.negative(out, out=out)
            np.log(out, out=out)
            np.logaddexp(out, np.subtract(-theta, sn, out=sn), out=out)
            np.negative(out, out=out)
            out /= theta
        np.copyto(out, 1.0, where=s <= 0.0)
        return out

    return Generator(phi, dplus, inverse, f"frank:{theta:g}")


def make_w_generator() -> Generator:
    """Generator 2(1-t) of the lower Frechet bound W; canonical non-strict case."""

    def phi(t):
        return 2.0 * (1.0 - np.asarray(t, dtype=float))

    def dplus(t):
        return np.full_like(np.asarray(t, dtype=float), -2.0)

    def inverse(s):
        s = np.asarray(s, dtype=float)
        return np.clip(1.0 - s / 2.0, 0.0, 1.0)

    return Generator(phi, dplus, inverse, "w")


def level_function(g: Generator, t, x):
    """t-level function f^t(x) = phi^-(phi(t) - phi(x)) on t <= x <= 1."""
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    if np.any(x < t - 1e-12):
        raise ValueError("level function requires x >= t")
    phit = g.phi(t)
    # phi(0) = inf (strict) is the level of every x, x = 0 included
    with np.errstate(invalid="ignore"):
        s = np.where(np.isinf(phit), np.inf, phit - g.phi(x))
    return g.inverse(np.maximum(s, 0.0))


def archimedean_copula(g: Generator) -> CopulaModel:
    """Copula min(phi^-(phi(x0) + phi(y0)), x0, y0), x0 and y0 the inputs clipped
    to phi's domain [0, 1], with the strict / non-strict Markov kernel.

    The copula is exchangeable to the bit: C takes only a commutative sum and
    min.  The kernel D+phi(x) / D+phi(C(x, y)), with its edge rules, is the
    `ExchangeableKernel` whose ``given(x)`` computes phi(x0), D+phi(x), the
    non-strict zero level and the x edges once; its symmetric part is
    S = D+phi(C), C clipped to [1e-300, 1], and ``finish_at`` the ratio.
    ``cdf`` and ``conditional`` both declare their symmetry (`CopulaModel`).
    """
    phi0 = g.phi(0.0)  # inf exactly when g is strict

    def cdf_at(x0, px, y):
        """C(x, y) from x0 and px = phi(x0)."""
        y0 = _unit(y)
        return np.minimum(g.inverse(px + g.phi(y0)), np.minimum(x0, y0))

    def cdf(x, y):
        x0 = _unit(x)
        return cdf_at(x0, g.phi(x0), y)

    def given(x):
        x = np.asarray(x, dtype=float)
        x0 = _unit(x)
        px = g.phi(x0)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            dx = g.dplus_phi(np.clip(x, 1e-300, 1.0))
        # non-strict: 0 below the level phi^-(phi(0) - phi(x))
        level = None if np.isinf(phi0) else g.inverse(phi0 - px)
        x_edge = (x <= 0.0) | (x >= 1.0)

        def symmetric_at(y):
            C = np.asarray(cdf_at(x0, px, y))
            np.clip(C, 1e-300, 1.0, out=C)
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                return np.asarray(g.dplus_phi(C))

        def finish_at(y, s):
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                ratio = np.divide(dx, s, out=s)
            np.copyto(ratio, 0.0, where=~np.isfinite(ratio))
            np.clip(ratio, 0.0, 1.0, out=ratio)
            if level is not None:
                np.copyto(ratio, 0.0, where=y < level)
            np.copyto(ratio, 1.0, where=y >= 1.0)
            np.copyto(ratio, 1.0, where=x_edge)
            return ratio

        return symmetric_at, finish_at

    cdf.exchangeable = True

    def measures(m):
        # P(P+1)/2 <= m^2/8 for P pieces from 0: the O(P^2) sum is cheaper than the grid
        if g.knots is None or g.knots[0][0] != 0.0:
            return None
        pieces = len(g.knots[0]) - 1
        return piecewise_measures(g) if 4 * pieces * (pieces + 1) <= m * m else None

    return CopulaModel(
        cdf=cdf,
        conditional=ExchangeableKernel(given),
        label=f"archimedean[{g.label}]",
        transpose_factory=lambda c: c,
        measures=measures,
    )


def kendall_function(g: Generator) -> KendallFunction:
    """Kendall distribution function F(x) = x - phi(x)/D+phi(x)."""

    def eval(x):
        # x = 0 is kept: a strict generator's phi / D+phi is inf / -inf there,
        # read as 0, so K(0) = 0 exactly, which is what marks it strict; at
        # x = 1 phi is 0, so the ratio reads 0 and K(1) = 1
        x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            ratio = g.phi(x) / g.dplus_phi(x)
        ratio = np.where(np.isfinite(ratio), ratio, 0.0)
        return np.clip(x - ratio, 0.0, 1.0)

    return KendallFunction(eval=eval)


# points `piecewise_measures` reduces at once: 2^12 points per temporary keep
# the two dozen it holds in a core's L1/L2 cache (one block of 2^15 points ran
# 1.7x slower at P = 124)
_PIECEWISE_BLOCK = 2 ** 12


def _positive_square_mean(a, b):
    """3 x the mean of max(v, 0)^2 over a segment on which v runs linearly
    from a down to b: where v changes sign only the share a / (a - b) of the
    segment is positive."""
    ap, bp, bn = np.maximum(a, 0.0), np.maximum(b, 0.0), np.minimum(b, 0.0)
    return ap / np.maximum(ap - bn, 1e-300) * (ap * ap + ap * bp + bp * bp)


def _band_sums(ts, phis, s, j):
    """(2 sum int (kappa_ij^2 - kappa_{i,j-1}^2) Y_j dx, 3 D1) summed over the
    bands j, ascending indices, of `piecewise_measures`.

    Band j holds x >= t_j, where Y_j(x) = phi^-(phi_j - phi(x)) leaves 1:
    the knots (t_k, Y_j(t_k)), k >= j, and their mirrors (Y_j(t_k), t_k),
    which lie on the level curve C = t_j too since C is symmetric: there Y_j
    crosses the knot t_k.  Both lists ascend in x, so one merge orders them;
    the bands are laid end to end.  Each pair of neighbours bounds a segment
    on which x lies in one piece i and Y_j is linear, integrated exactly from
    its two ends.
    """
    P = len(ts) - 1
    n = P + 1 - j                               # knots of band j, and mirrors
    start = np.cumsum(n) - n
    a = np.arange(start[-1] + n[-1]) - np.repeat(start, n)
    k = np.repeat(j, n) + a
    yk = np.interp(phis[k - a] - phis[k], phis[::-1], ts[::-1])    # Y_j(t_k)
    xm = yk[np.repeat(start + n - 1, n) - a]                       # mirror of t_{P-a}
    # a mirror's slot in its band: its rank among the mirrors plus the knots
    # at or left of it, the last of which is its piece.  The running max keeps
    # the slots distinct where rounding puts two mirrors out of order across
    # a knot
    offset = np.repeat(2 * start - j, n)
    last = np.maximum.accumulate(offset + np.searchsorted(ts, xm, side="right")) - offset
    slot = offset + last + a
    points = 2 * len(k)
    x, y, piece = np.empty(points), np.empty(points), np.empty(points, dtype=np.intp)
    knot = np.ones(points, dtype=bool)
    knot[slot] = False
    x[slot], y[slot], piece[slot] = xm, ts[P - a], last - 1
    x[knot], y[knot], piece[knot] = ts[k], yk, k
    w, yl, yr = np.diff(x), y[:-1], y[1:]
    w[2 * start[1:] - 1] = 0.0                  # the step from one band to the next
    i, jj = np.minimum(piece[:-1], P - 1), np.repeat(j, 2 * n)[:-1]
    # K = kappa_ij = s_i / s_j on band j; the min holds it to 1 on the pieces
    # i < j that rounding may put at a band's left end
    k_j = np.minimum(s[i] / s[jj], 1.0)
    k_prev = np.minimum(s[i] * np.concatenate(([0.0], 1.0 / s[:-1]))[jj], 1.0)
    r = np.sum(w * (yl + yr) * (k_j * k_j - k_prev * k_prev))
    d1 = np.sum(w * (_positive_square_mean(yl - k_prev, yr - k_prev)
                     - _positive_square_mean(yl - k_j, yr - k_j)))
    return r, d1


def piecewise_measures(g: Generator):
    """(D1(C, Pi), zeta1(C), r(C)) of the copula of a non-strict generator
    linear between its knots 0 = t_0 < ... < t_P = 1, exactly in O(P^2).

    With s_i the slope of piece i, the kernel is the step function
    K(x, [0, y]) = kappa_ij = s_i / s_j for x in piece i and C(x, y) in piece
    j <= i, i.e. y in [Y_j(x), Y_{j+1}(x)), Y_j(x) = phi^-(phi(t_j) - phi(x)),
    and 0 below Y_0; Y_{i+1} = 1.  Summed by parts over j (kappa_{i,-1} = 0):

        r  = 6 (1 - sum_{j<=i} int (kappa_ij^2 - kappa_{i,j-1}^2) Y_j dx) - 2,
        D1 = 2 int int (y - K)_+ = sum_{j<=i} int (Y_j - kappa_{i,j-1})_+^2
                                              - (Y_j - kappa_ij)_+^2 dx,

    the last since int int (K - y) = 0.  Y_j is linear in x between the
    knots and the mirror points Y_j(t_k), so each x-integral is exact on
    those segments: the difference of the antiderivatives of phi^- and
    (phi^-)^2 cut at phi(kappa), taken segment by segment, where each term
    is bounded by its segment's width whatever the size of phi(0).

    A generator without a knot table or with phi(0) = inf, a table whose
    slopes are not negative and non-decreasing (phi decreasing and convex:
    the condition for a copula), and a result that is not finite are each a
    ValueError naming the model.
    """
    name = f"archimedean[{g.label}]"
    if g.knots is None or g.knots[0][0] != 0.0:
        raise ValueError(f"the measures of '{name}' need a non-strict generator linear "
                         "between knots from 0 to 1")
    ts, phis = g.knots
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        s = np.diff(phis) / np.diff(ts)
        if not (np.all(s < 0.0) and np.all(np.diff(s) >= 0.0)):
            raise ValueError(f"the knot table of '{name}' is not decreasing and convex: "
                             "its slopes are not negative and non-decreasing")
        P = len(s)
        # band j holds 2 (P + 1 - j) points; a block ends where their running
        # count crosses a multiple of _PIECEWISE_BLOCK
        ends = np.cumsum(2 * (P + 1 - np.arange(P)))
        cuts = (np.flatnonzero(np.diff(ends // _PIECEWISE_BLOCK)) + 1).tolist()
        r_sum = d1_sum = 0.0
        for j0, j1 in zip([0, *cuts], [*cuts, P]):
            r_part, d1_part = _band_sums(ts, phis, s, np.arange(j0, j1))
            r_sum, d1_sum = r_sum + r_part, d1_sum + d1_part
        d1, r = d1_sum / 3.0, 6.0 * (1.0 - r_sum / 2.0) - 2.0
    if not (np.isfinite(d1) and np.isfinite(r)):
        raise ValueError(f"the measures of '{name}' are not finite (D1 = {d1}, r = {r})")
    return float(d1), 3.0 * float(d1), float(r)
