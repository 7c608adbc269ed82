"""Archimedean generators and the induced copulas, kernels and Kendall functions.

Generators are normalized so that phi(1/2) = 1 and are right-continuous at 0:
every phi returns phi(0+) at 0.  Strict generators have phi(0+) = +inf; the
right derivative D+phi is non-decreasing, right-continuous, with D+phi(1) = 0
and D+phi(0) = -inf in the strict case.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import CopulaModel, _unit

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
    """Copula min(phi^-(phi(x0) + phi(y0)), x0, y0), x0 and y0 the inputs clipped
    to phi's domain [0, 1], with the strict / non-strict Markov kernel."""
    phi0 = g.phi(0.0)  # inf exactly when g is strict

    def _cdf_given(x):
        """(phi(x0), y -> C(x, y)), the terms in x computed once."""
        x0 = _unit(x)
        px = g.phi(x0)

        def cdf_at(y):
            y0 = _unit(y)
            return np.minimum(g.inverse(px + g.phi(y0)), np.minimum(x0, y0))

        return px, cdf_at

    def cdf(x, y):
        return _cdf_given(np.asarray(x, dtype=float))[1](np.asarray(y, dtype=float))

    def conditional(x):
        x = np.asarray(x, dtype=float)
        px, cdf_at = _cdf_given(x)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            dx = g.dplus_phi(np.clip(x, 1e-300, 1.0))
        # non-strict: 0 below the level phi^-(phi(0) - phi(x))
        level = None if np.isinf(phi0) else g.inverse(phi0 - px)
        x_edge = (x <= 0.0) | (x >= 1.0)

        def kernel(y):
            y = np.asarray(y, dtype=float)
            C = cdf_at(y)
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                ratio = dx / g.dplus_phi(np.clip(C, 1e-300, 1.0))
            ratio = np.where(np.isfinite(ratio), ratio, 0.0)
            out = np.clip(ratio, 0.0, 1.0)
            if level is not None:
                out = np.where(y < level, 0.0, out)
            out = np.where(y >= 1.0, 1.0, out)
            return np.where(x_edge, 1.0, out)

        return kernel

    # archimedean copulas are symmetric
    return CopulaModel(
        cdf=cdf,
        conditional=conditional,
        label=f"archimedean[{g.label}]",
        transpose_factory=lambda c: c,
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
