"""Pickands dependence functions and Extreme-Value copulas with their kernels."""

from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

import numpy as np

from .core import CopulaModel, _piecewise_linear
from .metrics import sup_distance

_EPS = 1e-15


@dataclass(frozen=True)
class PickandsFunction:
    a: Callable          # [0,1] -> [1/2,1], convex, a(0)=a(1)=1
    dplus_a: Callable    # right derivative, nondecreasing, values in [-1,1]
    label: str
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

    return PickandsFunction(a, dplus, label, lambda q: q)  # M_p is symmetric: A^t = A


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

    Rejects knot lists violating the Pickands constraints, naming the failed
    invariant in the error message.  The right derivative is the piecewise
    constant right-hand slope (left-hand slope at x = 1).
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

    return PickandsFunction(*_piecewise_linear(xs, vs), label, mirror)


def paper_pwl_knots() -> list:
    """Knots of the piecewise-linear example function used in the simulations."""
    return [(0.0, 1.0), (0.25, 0.75), (0.7, 0.7), (1.0, 1.0)]


def transpose_pickands(p: PickandsFunction) -> PickandsFunction:
    """Pickands function of the transposed copula: A^t(x) = A(1-x), as `p` names it."""
    return p.transpose_factory(p)


def ev_copula(p: PickandsFunction) -> CopulaModel:
    """Extreme-Value copula C_A(x,y) = (xy)^A(ln x / ln xy) and its kernel."""

    def _interior(x, y):
        lx = np.log(np.clip(x, _EPS, 1.0 - _EPS))
        ly = np.log(np.clip(y, _EPS, 1.0 - _EPS))
        t = lx / (lx + ly)
        return lx, ly, t

    def cdf(x, y):
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        lx, ly, t = _interior(x, y)
        val = np.exp((lx + ly) * p.a(t))
        val = np.where(x >= 1.0, y, np.where(y >= 1.0, x, val))
        return np.where((x <= 0.0) | (y <= 0.0), 0.0, val)

    def kernel_cdf(x, y):
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        lx, ly, t = _interior(x, y)
        a = p.a(t)
        c = np.exp((lx + ly) * a)
        with np.errstate(divide="ignore", invalid="ignore"):
            val = c * (p.dplus_a(t) * ly / (x * (lx + ly)) + a / x)
        val = np.clip(val, 0.0, 1.0)
        val = np.where((y <= 0.0) | (y >= 1.0), np.clip(y, 0.0, 1.0), val)
        return np.where((x <= 0.0) | (x >= 1.0), 1.0, val)

    def transpose_factory(c):
        pt = transpose_pickands(p)
        return c if pt is p else ev_copula(pt)

    return CopulaModel(
        cdf=cdf,
        kernel_cdf=kernel_cdf,
        label=f"ev[{p.label}]",
        transpose_factory=transpose_factory,
    )


def max_stability_check(c: CopulaModel, n: int) -> float:
    """Max defect of C(x,y) = C(x^(1/n), y^(1/n))^n over the 51^2 lattice."""
    if n < 1:
        raise ValueError("max-stability order must be >= 1")
    g = np.linspace(0.0, 1.0, 51)
    X, Y = g[:, None], g[None, :]
    lhs = np.asarray(c.cdf(X, Y))
    return sup_distance(lhs, np.asarray(c.cdf(X ** (1.0 / n), Y ** (1.0 / n))) ** n)
