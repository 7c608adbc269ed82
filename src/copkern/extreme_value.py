"""Pickands dependence functions and Extreme-Value copulas with their kernels."""

from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

import numpy as np

from .core import CopulaModel, _piecewise_linear, _unit, sup_distance

_EPS = 1e-15


@dataclass(frozen=True)
class PickandsFunction:
    a: Callable          # [0,1] -> [1/2,1], convex, a(0)=a(1)=1
    dplus_a: Callable    # right derivative, nondecreasing, values in [-1,1]
    label: str
    breakpoints: tuple   # points in [0,1] where D+A may jump; empty if it is continuous
    transpose_factory: Callable  # self -> Pickands function of A(1-x)


def _power_mean_pickands(p: float, label: str) -> PickandsFunction:
    """A = M_p for p > 0 and A = 1 - M_p for p < 0, with the power mean
    M_p(x) = (x^p + (1-x)^p)^(1/p); D+A = +-M_p^(1-p) (x^(p-1) - (1-x)^(p-1))."""

    def a(x):
        xc = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
        # for p < 0, 0^p = inf gives M_p = 0, so A reads 1 at the endpoints
        with np.errstate(divide="ignore", over="ignore"):
            m = (xc ** p + (1.0 - xc) ** p) ** (1.0 / p)
        return m if p > 0 else 1.0 - m

    def dplus(x):
        x = np.asarray(x, dtype=float)
        xc = np.clip(x, _EPS, 1.0 - _EPS)
        # the order of the difference u^(p-1) - v^(p-1) carries the sign of D+A
        u, v = (xc, 1.0 - xc) if p > 0 else (1.0 - xc, xc)
        with np.errstate(over="ignore"):
            val = (u ** p + v ** p) ** (1.0 / p - 1.0) * (u ** (p - 1.0) - v ** (p - 1.0))
        val = np.where(x <= 0.0, -1.0, val)
        return np.clip(np.where(x >= 1.0, 1.0, val), -1.0, 1.0)

    return PickandsFunction(a, dplus, label, (), lambda q: q)  # M_p is symmetric: A^t = A


def make_galambos(theta: float) -> PickandsFunction:
    """Galambos Pickands function A(x) = 1 - (x^-theta + (1-x)^-theta)^(-1/theta)."""
    if theta <= 0:
        raise ValueError("Galambos parameter must be positive")
    return _power_mean_pickands(-theta, f"galambos:{theta:g}")


def make_gumbel_pickands(theta: float) -> PickandsFunction:
    """Gumbel-Hougaard Pickands function A(x) = (x^theta + (1-x)^theta)^(1/theta)."""
    if theta < 1:
        raise ValueError("Gumbel Pickands parameter must be >= 1")
    return _power_mean_pickands(theta, f"gumbel-ev:{theta:g}")


def make_piecewise_linear_pickands(
    knots: Sequence[Tuple[float, float]], label: str = "pickands-pwl"
) -> PickandsFunction:
    """Piecewise-linear Pickands function through validated (x, A(x)) knots.

    The knots are pairs or the rows of a (k, 2) array, as `read_knots_csv` gives.

    Rejects knot lists violating the Pickands constraints, naming the failed
    invariant in the error message.  The right derivative is the piecewise
    constant right-hand slope (left-hand slope at x = 1); it may jump at
    every knot, so the knots are the breakpoints.
    """
    pts = sorted((float(x), float(v)) for x, v in knots)
    xs = np.array([p[0] for p in pts])
    vs = np.array([p[1] for p in pts])
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(vs))):
        raise ValueError("pickands knots must be finite")
    if len(xs) < 2 or xs[0] != 0.0 or xs[-1] != 1.0:
        raise ValueError("pickands knots must cover [0,1] (missing endpoint knot)")
    if abs(vs[0] - 1.0) > 1e-12 or abs(vs[-1] - 1.0) > 1e-12:
        raise ValueError("pickands endpoint values must satisfy A(0)=A(1)=1")
    if np.any(vs > 1.0 + 1e-12):
        raise ValueError("pickands upper bound violated: A(x) <= 1")
    if np.any(vs < np.maximum(xs, 1.0 - xs) - 1e-12):
        raise ValueError("pickands lower bound violated: A(x) >= max(x, 1-x)")
    if np.any(np.diff(xs) <= 0):
        raise ValueError("pickands knots must have strictly increasing x")
    slopes = np.diff(vs) / np.diff(xs)
    if np.any(np.diff(slopes) < -1e-10):
        raise ValueError("pickands convexity violated: slopes must be nondecreasing")
    if np.any(slopes < -1.0 - 1e-10) or np.any(slopes > 1.0 + 1e-10):
        raise ValueError("pickands slope bound violated: |D+A| <= 1")

    def mirror(q):  # A(1-x) interpolates the mirrored knots (1-x_i, a_i)
        return make_piecewise_linear_pickands(list(zip(1.0 - xs, vs)), q.label + "^t")

    return PickandsFunction(*_piecewise_linear(xs, vs), label, tuple(xs.tolist()), mirror)


def paper_pwl_knots() -> list:
    """Knots of the piecewise-linear example function used in the simulations."""
    return [(0.0, 1.0), (0.25, 0.75), (0.7, 0.7), (1.0, 1.0)]


def transpose_pickands(p: PickandsFunction) -> PickandsFunction:
    """Pickands function of the transposed copula: A^t(x) = A(1-x), as `p` names it."""
    return p.transpose_factory(p)


def ev_copula(p: PickandsFunction) -> CopulaModel:
    """Extreme-Value copula C_A(x,y) = (xy)^A(ln x / ln xy) and its kernel."""

    def _log(t):
        return np.log(np.clip(t, _EPS, 1.0 - _EPS))

    def cdf(x, y):
        x, y = _unit(x), _unit(y)
        lx, ly = _log(x), _log(y)
        lxy = lx + ly
        val = np.exp(lxy * p.a(lx / lxy))
        val = np.where(x >= 1.0, y, np.where(y >= 1.0, x, val))
        return np.where((x <= 0.0) | (y <= 0.0), 0.0, val)

    def conditional(x):
        x = np.asarray(x, dtype=float)
        lx, x_edge = _log(x), (x <= 0.0) | (x >= 1.0)

        def kernel(y):
            y = np.asarray(y, dtype=float)
            ly = _log(y)
            lxy = lx + ly
            t = lx / lxy
            a = p.a(t)
            c = np.exp(lxy * a)
            # at subnormal x the terms over x overflow to +inf, which the clip
            # reads as 1, the limit at x -> 0
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                val = c * (p.dplus_a(t) * ly / (x * lxy) + a / x)
            val = np.clip(val, 0.0, 1.0)
            val = np.where((y <= 0.0) | (y >= 1.0), np.clip(y, 0.0, 1.0), val)
            return np.where(x_edge, 1.0, val)

        return kernel

    def transpose_factory(c):
        pt = transpose_pickands(p)
        return c if pt is p else ev_copula(pt)

    return CopulaModel(
        cdf=cdf,
        conditional=conditional,
        label=f"ev[{p.label}]",
        transpose_factory=transpose_factory,
    )


# ev_measures integrates in t by Gauss-Legendre with _EV_NODES nodes on each
# piece between 0, the breakpoints, the points of a uniform _EV_PARTITION-cell
# partition of [0, 1] (which resolves the smooth families) and 1
_EV_NODES = 16
_EV_PARTITION = 32


def _gauss_legendre(n: int):
    """Nodes and weights of n-point Gauss-Legendre quadrature on [-1, 1]: Newton
    steps on the roots of P_n from Tricomi's guesses, which converge within a
    few steps (importing numpy.polynomial for this costs 1.5 MB of memory)."""
    x = np.cos(np.pi * (np.arange(n) + 0.75) / (n + 0.5))
    for _ in range(8):
        p0, p1 = np.ones(n), x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        dp = n * (x * p1 - p0) / (x ** 2 - 1.0)    # P_n'(x)
        x = x - p1 / dp
    return x, 2.0 / ((1.0 - x ** 2) * dp ** 2)


_GL_NODES, _GL_WEIGHTS = _gauss_legendre(_EV_NODES)


def _tail(c, s):
    """int_s^inf z e^(-c z) dz."""
    return np.exp(-c * s) * (1.0 + c * s) / c ** 2


def ev_measures(p: PickandsFunction):
    """(D1(C_A, Pi), zeta1(C_A), r(C_A)) of the Extreme-Value copula of `p`.

    With u = -ln x, v = -ln y, s = u + v and t = u / s, dx dy = s e^-s ds dt,
    y = e^(-(1-t)s) and the kernel is K = B e^(-(A-t)s), B = A + (1-t) D+A:

        r     = 6 int_0^1 B^2 / (1 + 2A - 2t)^2 dt - 2,
        zeta1 = 3 int_0^1 int_0^inf s |B e^(-(A-t+1)s) - e^(-(2-t)s)| ds dt.

    The inner integrand is negative below s* = ln B / (A - 1) and positive
    above when B < 1 (s* = inf when A = 1 too), and never negative when
    B >= 1 (s* = 0); it is integrated in closed form on both sides of s*.
    The outer integrals are Gauss-Legendre on the pieces where A is smooth.
    A result that is not finite (a damaged D+A) is a ValueError.
    """
    edges = np.union1d(np.linspace(0.0, 1.0, _EV_PARTITION + 1), p.breakpoints)
    half = 0.5 * np.diff(edges)[:, None]
    t = (edges[:-1, None] + half * (1.0 + _GL_NODES)).ravel()
    w = (half * _GL_WEIGHTS).ravel()
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a = p.a(t)
        # B >= 0 for a valid A; the clip drops rounding below 0, as the kernel's does
        b = np.maximum(a + (1.0 - t) * p.dplus_a(t), 0.0)
        r = 6.0 * np.dot(w, b ** 2 / (1.0 + 2.0 * a - 2.0 * t) ** 2) - 2.0
        c1, c2 = a - t + 1.0, 2.0 - t
        s_star = np.where(b >= 1.0, 0.0, np.where(a < 1.0, np.log(b) / (a - 1.0), np.inf))
        # every tail past s = 1e4 underflows to 0; the cap keeps inf * 0 out
        s_star = np.minimum(s_star, 1e4)
        # int |f| = 2 int_{s*}^inf f - int_0^inf f, since f < 0 exactly below s*
        inner = 2.0 * (b * _tail(c1, s_star) - _tail(c2, s_star)) - (b / c1 ** 2 - 1.0 / c2 ** 2)
        z = 3.0 * float(np.dot(w, inner))
    if not (np.isfinite(z) and np.isfinite(r)):
        raise ValueError(f"the Extreme-Value measures of '{p.label}' are not finite "
                         f"(zeta1 = {z}, r = {r})")
    return z / 3.0, z, float(r)


def max_stability_check(c: CopulaModel, n: int) -> float:
    """Max defect of C(x,y) = C(x^(1/n), y^(1/n))^n over the 51^2 lattice."""
    if n < 1:
        raise ValueError("max-stability order must be >= 1")
    g = np.linspace(0.0, 1.0, 51)
    X, Y = g[:, None], g[None, :]
    lhs = np.asarray(c.cdf(X, Y))
    return sup_distance(lhs, np.asarray(c.cdf(X ** (1.0 / n), Y ** (1.0 / n))) ** n)
