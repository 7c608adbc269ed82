"""Archimedean generators and the induced copulas, kernels and Kendall functions.

Generators are normalized so that phi(1/2) = 1 and are right-continuous at 0:
every phi returns phi(0+) at 0.  Strict generators have phi(0+) = +inf; the
right derivative D+phi is non-decreasing, right-continuous, with D+phi(1) = 0
and D+phi(0) = -inf in the strict case.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import CopulaModel

_LN2 = np.log(2.0)


@dataclass(frozen=True)
class Generator:
    phi: Callable            # [0,1] -> [0,inf], phi(0) = phi(0+), vectorized
    dplus_phi: Callable      # right derivative on (0,1), vectorized
    inverse: Callable        # pseudo-inverse phi^- on [0,inf], zero beyond phi(0)
    label: str

    @property
    def strict(self) -> bool:
        """phi(0+) = +inf."""
        return bool(np.isinf(self.phi(0.0)))


@dataclass(frozen=True)
class KendallFunction:
    eval: Callable           # [0,1] -> [0,1], nondecreasing, eval(t) >= t


def make_clayton(theta: float) -> Generator:
    if theta <= 0:
        raise ValueError("Clayton parameter must be positive")
    c = 2.0 ** theta - 1.0

    def phi(t):
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore", over="ignore"):
            return (t ** (-theta) - 1.0) / c

    def dplus(t):
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore", over="ignore"):
            return -theta * t ** (-theta - 1.0) / c

    def inverse(s):
        s = np.asarray(s, dtype=float)
        with np.errstate(over="ignore"):
            return np.where(s <= 0.0, 1.0, (1.0 + c * s) ** (-1.0 / theta))

    return Generator(phi, dplus, inverse, f"clayton:{theta:g}")


def make_gumbel(theta: float) -> Generator:
    if theta < 1:
        raise ValueError("Gumbel parameter must be >= 1")

    def phi(t):
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore"):
            return (-np.log(t) / _LN2) ** theta

    def dplus(t):
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore", over="ignore"):
            return -theta * (-np.log(t)) ** (theta - 1.0) / (t * _LN2 ** theta)

    def inverse(s):
        s = np.asarray(s, dtype=float)
        with np.errstate(over="ignore"):
            return np.where(s <= 0.0, 1.0, np.exp(-_LN2 * s ** (1.0 / theta)))

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
    if theta == 0:
        raise ValueError("Frank parameter must be nonzero")
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
            return -theta / (np.expm1(theta * t) * norm)

    def inverse(s):
        s = np.asarray(s, dtype=float)
        sn = s * norm
        with np.errstate(divide="ignore", invalid="ignore"):
            out = -np.logaddexp(np.log(-np.expm1(-sn)), -theta - sn) / theta
        return np.where(s <= 0.0, 1.0, out)

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
    """Copula phi^-(phi(x) + phi(y)) with the strict / non-strict Markov kernel."""
    phi0 = g.phi(0.0)  # inf exactly when g is strict

    def _phi_and_cdf(x, y):
        # phi lives on [0, 1]; the result is 0 at x <= 0 or y <= 0 anyway
        px, py = g.phi(np.maximum(x, 0.0)), g.phi(np.maximum(y, 0.0))
        # guard underflow near (1,1): tiny phi values act as exact zero
        px = np.where(px < 1e-300, 0.0, px)
        py = np.where(py < 1e-300, 0.0, py)
        out = g.inverse(px + py)
        out = np.where((x <= 0.0) | (y <= 0.0), 0.0, out)
        return px, np.minimum(out, np.minimum(np.maximum(x, 0), np.maximum(y, 0)))

    def cdf(x, y):
        return _phi_and_cdf(np.asarray(x, dtype=float), np.asarray(y, dtype=float))[1]

    def kernel_cdf(x, y):
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        px, C = _phi_and_cdf(x, y)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            ratio = g.dplus_phi(np.clip(x, 1e-300, 1.0)) / g.dplus_phi(np.clip(C, 1e-300, 1.0))
        ratio = np.where(np.isfinite(ratio), ratio, 0.0)
        out = np.clip(ratio, 0.0, 1.0)
        if not np.isinf(phi0):  # non-strict: 0 below the level phi^-(phi(0) - phi(x))
            out = np.where(y < g.inverse(np.maximum(phi0 - px, 0.0)), 0.0, out)
        out = np.where(y >= 1.0, 1.0, out)
        return np.where((x <= 0.0) | (x >= 1.0), 1.0, out)

    # archimedean copulas are symmetric
    return CopulaModel(
        cdf=cdf,
        kernel_cdf=kernel_cdf,
        label=f"archimedean[{g.label}]",
        transpose_factory=lambda c: c,
    )


def kendall_function(g: Generator) -> KendallFunction:
    """Kendall distribution function F(x) = x - phi(x)/D+phi(x)."""

    def eval(x):
        x = np.asarray(x, dtype=float)
        # x = 0 is kept: a strict generator's phi / D+phi is inf / -inf there,
        # read as 0, so K(0) = 0 exactly, which is what marks it strict
        xs = np.clip(x, 0.0, 1.0 - 1e-15)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            ratio = g.phi(xs) / g.dplus_phi(xs)
        ratio = np.where(np.isfinite(ratio), ratio, 0.0)
        out = np.clip(xs - ratio, 0.0, 1.0)
        return np.where(x >= 1.0, 1.0, out)

    return KendallFunction(eval=eval)
