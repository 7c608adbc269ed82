"""Pickands dependence functions and Extreme-Value copulas with their kernels.

An Extreme-Value copula reads its Pickands function A through the stable tail
l(u, v) = (u + v) A(u / (u + v)) and its derivative in u: the power mean's in
log-sum-exp form (Galambos, Gumbel-EV), and a piecewise-linear A's from the
piece of t = u / (u + v), looked up once per point.  Marshall-Olkin is the
Extreme-Value copula of a three-knot piecewise-linear A.
"""

from dataclasses import dataclass, replace
from typing import Callable, Sequence, Tuple

import numpy as np

from .core import CopulaModel, _piecewise_linear, _unit, make_pi, sup_distance

# x and y are clipped to this before their log, so u = -ln x is finite for every x > 0
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class PickandsFunction:
    """A Pickands dependence function A and the stable tail dependence function
    l(u, v) = (u + v) A(u / (u + v)) of u, v >= 0, through which `ev_copula`
    reads its copula.

    ``stable_tail(u)`` computes the terms in u alone once and returns the
    callable v -> (l(u, v), D1 l(u, v)), with D1 l the derivative in u,
    A(t) + (1 - t) D+A(t) at t = u / (u + v), as `CopulaModel.conditional`
    does for x.  u and v are broadcast-compatible arrays of at least one
    dimension; the two results are new arrays of their broadcast shape,
    which the caller may overwrite.  Both are elementwise.  The CDF of
    `ev_copula` reads the first of the pair, its kernel both.  A symmetric
    function's ``transpose_factory`` is `_self_transpose`, which `ev_copula`
    reads as the symmetry of l.
    """

    a: Callable          # [0,1] -> [1/2,1], convex, a(0)=a(1)=1
    dplus_a: Callable    # right derivative, nondecreasing, values in [-1,1]
    label: str
    breakpoints: tuple   # points in [0,1] where D+A may jump; empty if it is continuous
    transpose_factory: Callable  # self -> Pickands function of A(1-x)
    stable_tail: Callable        # u -> (v -> (l(u, v), D1 l(u, v)))


def _softplus(t):
    """ln(1 + e^t) = max(t, 0) + ln(1 + e^-|t|), which neither overflows nor
    underflows; computed in place on one new array."""
    out = np.asarray(np.abs(t))
    np.log1p(np.exp(np.negative(out, out=out), out=out), out=out)
    out += np.maximum(t, 0.0)
    return out


def _power_mean_pickands(p: float, label: str) -> PickandsFunction:
    """A = M_p for p > 0 and A = 1 - M_p for p < 0, with the power mean
    M_p(u, v) = (u^p + v^p)^(1/p) read at (x, 1 - x).

    No power is taken.  With q = ln(1 + e^(p (ln v - ln u))), the log-sum-exp
    ln(e^(p ln u) + e^(p ln v)) less p ln u, M_p = u e^(q / p) and
    D_u M_p = (M_p / u)^(1-p) = e^((1/p - 1) q).  q is a softplus of per-axis
    logs: it neither overflows nor underflows, and D_u M_p takes no difference
    of logs that the factor 1 - p would amplify.  l = M_p(u, v) for p > 0 and
    u + v - M_p(u, v) for p < 0; l is symmetric, so A(x) = l(x, 1 - x) and
    D+A(x) = D1 l(x, 1 - x) - D1 l(1 - x, x).
    """

    def stable_tail(u):
        pu = p * np.log(u)

        def at(v):
            z = np.subtract(p * np.log(v), pu)
            q = _softplus(z)
            d1_m = np.multiply(q, 1.0 / p - 1.0, out=z)
            np.exp(d1_m, out=d1_m)                  # D_u M_p
            q /= p
            m = np.exp(q, out=q)
            m *= u                                  # M_p = u e^(q / p)
            if p > 0:
                return m, d1_m
            ell = u + v
            ell -= m
            np.subtract(1.0, d1_m, out=d1_m)
            return ell, d1_m

        return at

    def a(x):
        x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
        t = np.atleast_1d(x)
        # the logs of 0 at the ends give NaN; A reads 1 there
        with np.errstate(divide="ignore", invalid="ignore"):
            val = stable_tail(t)(1.0 - t)[0].reshape(x.shape)
        return np.where((x <= 0.0) | (x >= 1.0), 1.0, val)

    def dplus(x):
        x = np.asarray(x, dtype=float)
        t = np.atleast_1d(x)
        with np.errstate(divide="ignore", invalid="ignore"):
            val = (stable_tail(t)(1.0 - t)[1] - stable_tail(1.0 - t)(t)[1]).reshape(x.shape)
        val = np.where(x <= 0.0, -1.0, val)
        return np.clip(np.where(x >= 1.0, 1.0, val), -1.0, 1.0)

    return PickandsFunction(a, dplus, label, (), _self_transpose, stable_tail)


def _self_transpose(p: PickandsFunction) -> PickandsFunction:
    """The transpose factory of a symmetric Pickands function, A(1 - x) = A(x),
    such as the power mean's.  `ev_copula` takes it as the mark of a
    symmetric l and reads the CDF in an order that makes it exchangeable to
    the bit."""
    return p


def make_galambos(theta: float) -> PickandsFunction:
    """Galambos Pickands function A(x) = 1 - (x^-theta + (1-x)^-theta)^(-1/theta)."""
    if not 0 < theta < np.inf:
        raise ValueError(f"Galambos parameter must be positive and must be finite, got {theta}")
    return _power_mean_pickands(-theta, f"galambos:{theta:g}")


def make_gumbel_pickands(theta: float) -> PickandsFunction:
    """Gumbel-Hougaard Pickands function A(x) = (x^theta + (1-x)^theta)^(1/theta)."""
    if not 1 <= theta < np.inf:
        raise ValueError(f"Gumbel Pickands parameter must be >= 1 and must be finite, got {theta}")
    return _power_mean_pickands(theta, f"gumbel-ev:{theta:g}")


def make_piecewise_linear_pickands(
    knots: Sequence[Tuple[float, float]], label: str = "pickands-pwl"
) -> PickandsFunction:
    """Piecewise-linear Pickands function through validated (x, A(x)) knots.

    The knots are pairs or the rows of a (k, 2) array, as `read_knots_csv` gives.

    Rejects knot lists violating the Pickands constraints, naming the failed
    invariant in the error message.  The right derivative is the piecewise
    constant right-hand slope (left-hand slope at x = 1); it may jump at
    every knot, so the knots are the breakpoints.  The stable tail looks up
    the piece k of t = u / (u + v) once, with one ``searchsorted`` over the
    inner knots, and reads A(t) = slope_k (t - x_k) + A(x_k), the formula of
    ``np.interp``, and D1 l = A(t) + (1 - t) slope_k from it, in place on
    the arrays of s = u + v and t.
    """
    k = np.asarray(knots, dtype=float)
    if k.size == 0:
        k = k.reshape(0, 2)
    if k.ndim != 2 or k.shape[1] != 2:
        raise ValueError(f"pickands knots must be (x, A(x)) pairs, got an array of shape "
                         f"{k.shape}")
    order = np.lexsort((k[:, 1], k[:, 0]))        # by x, then by A(x)
    xs, vs = k[order, 0], k[order, 1]
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
        return make_piecewise_linear_pickands(np.column_stack((1.0 - xs, vs)), q.label + "^t")

    inner = xs[1:-1]    # t lies on piece k where inner[k - 1] <= t < inner[k]

    def stable_tail(u):
        def at(v):
            s = u + v
            t = u / s
            k = np.searchsorted(inner, t, side="right")
            slope = slopes[k]
            a_t = np.subtract(t, xs[k])
            a_t *= slope
            a_t += vs[k]                    # A(t)
            s *= a_t                        # l = s A(t)
            d1 = np.subtract(1.0, t, out=t)
            d1 *= slope
            d1 += a_t                       # D1 l = A(t) + (1 - t) D+A(t)
            return s, d1

        return at

    a, dplus_a = _piecewise_linear(xs, vs)
    return PickandsFunction(a, dplus_a, label, tuple(xs.tolist()), mirror, stable_tail)


def paper_pwl_knots() -> list:
    """Knots of the piecewise-linear example function used in the simulations."""
    return [(0.0, 1.0), (0.25, 0.75), (0.7, 0.7), (1.0, 1.0)]


def transpose_pickands(p: PickandsFunction) -> PickandsFunction:
    """Pickands function of the transposed copula: A^t(x) = A(1-x), as `p` names it."""
    return p.transpose_factory(p)


def ev_copula(p: PickandsFunction) -> CopulaModel:
    """Extreme-Value copula C_A(x,y) = (xy)^A(ln x / ln xy) and its kernel.

    Both read the stable tail function l of `p` at u = -ln x and v = -ln y:
    C = e^(-l), and the kernel is dC/dx = C D1 l / x = e^(u - l) D1 l.
    `conditional(x)` computes u and the terms of l in u alone once.  At x = 1
    or y = 1 the log of u = 0 or v = 0 is -inf; the edge rules replace what
    that gives.  The model's `measures` are the exact `ev_measures(p)`.

    When `p` is its own transpose (its factory is `_self_transpose`: Galambos
    and Gumbel-EV), l is symmetric, and the CDF reads it at (max(u, v),
    min(u, v)): C(x, y) == C(y, x) holds to the bit, and the CDF declares
    ``exchangeable`` (`CopulaModel`).  Cells with x <= y read l in that order
    anyway.  The kernel's D1 l depends on the order, so it is not split.
    """

    def _neg_log(t):
        # at least 1-d, so that `stable_tail` and the edge rules work in place
        return -np.log(np.clip(np.atleast_1d(t), _TINY, 1.0))

    symmetric = p.transpose_factory is _self_transpose

    def cdf(x, y):
        x, y = _unit(x), _unit(y)
        u, v = _neg_log(x), _neg_log(y)
        if symmetric:
            u, v = np.maximum(u, v), np.minimum(u, v)
        with np.errstate(divide="ignore", invalid="ignore"):
            ell = p.stable_tail(u)(v)[0]
        val = np.exp(np.negative(ell, out=ell), out=ell)
        np.copyto(val, x, where=y >= 1.0)
        np.copyto(val, y, where=x >= 1.0)
        np.copyto(val, 0.0, where=(x <= 0.0) | (y <= 0.0))
        return val.reshape(np.broadcast(x, y).shape)

    def conditional(x):
        x = np.asarray(x, dtype=float)
        u, x_edge = _neg_log(x), (x <= 0.0) | (x >= 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            at = p.stable_tail(u)

        def kernel(y):
            y = np.asarray(y, dtype=float)
            with np.errstate(divide="ignore", invalid="ignore"):
                ell, d1 = at(_neg_log(y))
                val = np.exp(np.subtract(u, ell, out=ell), out=ell)
                val *= d1
            np.clip(val, 0.0, 1.0, out=val)
            np.copyto(val, np.clip(y, 0.0, 1.0), where=(y <= 0.0) | (y >= 1.0))
            np.copyto(val, 1.0, where=x_edge)
            return val.reshape(np.broadcast(x, y).shape)

        return kernel

    def transpose_factory(c):
        pt = transpose_pickands(p)
        return c if pt is p else ev_copula(pt)

    cdf.exchangeable = symmetric

    return CopulaModel(
        cdf=cdf,
        conditional=conditional,
        label=f"ev[{p.label}]",
        transpose_factory=transpose_factory,
        measures=lambda m: ev_measures(p),
    )


def make_marshall_olkin(alpha: float, beta: float) -> CopulaModel:
    """Marshall-Olkin copula M_{alpha,beta}: the Extreme-Value copula of
    A(t) = max(1 - alpha t, 1 - beta (1 - t)), with knots (0, 1), (t, A(t))
    and (1, 1) at the kink t = beta / (alpha + beta), rounded so that t and
    1 - t are both floats: A(t) then rounds to at least max(t, 1 - t), and
    the slopes -alpha and beta stay in [-1, 1] however short a piece is.
    Where t is not inside (0, 1) (alpha beta = 0, or t within 6e-17 of 0 or
    1) the copula is Pi, which the closed form then is to rounding."""
    if not (0.0 <= alpha <= 1.0 and 0.0 <= beta <= 1.0):
        raise ValueError("Marshall-Olkin parameters must lie in [0,1]")
    label = f"marshall-olkin:{alpha}:{beta}"
    t = 1.0 - (1.0 - beta / (alpha + beta)) if alpha + beta > 0.0 else 0.0
    if not 0.0 < t < 1.0:
        return replace(make_pi(), label=label)
    knots = [(0.0, 1.0), (t, max(1.0 - alpha * t, 1.0 - beta * (1.0 - t))), (1.0, 1.0)]
    return replace(ev_copula(make_piecewise_linear_pickands(knots, label)), label=label)


# ev_measures integrates in t by Gauss-Legendre with _EV_NODES nodes on each
# piece between 0, the breakpoints, the points of a uniform _EV_PARTITION-cell
# partition of [0, 1] (which resolves the smooth families) and 1.  A Pickands
# function without breakpoints also gets the cells _EV_GEOMETRIC toward each
# end, where D+A may have a power singularity (galambos:0.2, gumbel-ev:1.01),
# and _EV_GEOMETRIC / 2 on either side of 1/2, where the power mean's D+A
# steepens as theta grows: the uniform cells alone are 1e-6 and 1e-8 off
_EV_NODES = 16
_EV_PARTITION = 32
_EV_GEOMETRIC = 2.0 ** -np.arange(6, 53)
_EV_GRADED = np.r_[_EV_GEOMETRIC, 1.0 - _EV_GEOMETRIC, 0.5 - _EV_GEOMETRIC / 2,
                   0.5 + _EV_GEOMETRIC / 2]


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
    A = l(t, 1 - t) and B = D1 l(t, 1 - t), as the kernel reads them.  The
    outer integrals are Gauss-Legendre on the pieces where A is smooth, graded
    toward 0, 1/2 and 1 without breakpoints.  A non-finite result is a ValueError.
    """
    edges = np.union1d(np.linspace(0.0, 1.0, _EV_PARTITION + 1), p.breakpoints or _EV_GRADED)
    half = 0.5 * np.diff(edges)[:, None]
    t = (edges[:-1, None] + half * (1.0 + _GL_NODES)).ravel()
    w = (half * _GL_WEIGHTS).ravel()
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a, b = p.stable_tail(t)(1.0 - t)
        # B >= 0 for a valid A; the clip drops rounding below 0, as the kernel's does
        np.maximum(b, 0.0, out=b)
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
