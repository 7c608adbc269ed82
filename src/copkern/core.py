"""Bivariate copulas represented by their CDF and conditional-CDF Markov kernel.

A copula model bundles two vectorized callables: ``cdf(x, y)`` and
``kernel_cdf(x, y)``, the latter being the conditional distribution function
K(x, [0,y]) of the second coordinate given the first.  Models are immutable
and safe for concurrent reads.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np


@dataclass(frozen=True)
class CopulaModel:
    cdf: Callable
    kernel_cdf: Callable
    label: str
    # closed-form transpose, when one is known; otherwise transpose() falls
    # back to a difference-quotient kernel
    transpose_factory: Optional[Callable] = field(default=None, repr=False)


@dataclass(frozen=True)
class MarshallOlkinParams:
    alpha: float
    beta: float

    def __post_init__(self):
        if not (0.0 <= self.alpha <= 1.0 and 0.0 <= self.beta <= 1.0):
            raise ValueError("Marshall-Olkin parameters must lie in [0,1]")


@dataclass(frozen=True)
class CheckerboardMatrix:
    resolution: int
    mass: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mass, dtype=float)
        if m.shape != (self.resolution, self.resolution):
            raise ValueError("mass matrix shape must match resolution")
        object.__setattr__(self, "mass", m)


def _as_xy(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return np.broadcast_arrays(x, y)


def make_pi() -> CopulaModel:
    """Independence copula."""
    model = CopulaModel(
        cdf=lambda x, y: np.asarray(x, float) * np.asarray(y, float),
        kernel_cdf=lambda x, y: np.broadcast_arrays(
            np.asarray(x, float), np.asarray(y, float)
        )[1].copy(),
        label="pi",
    )
    object.__setattr__(model, "transpose_factory", lambda: model)
    return model


def make_m() -> CopulaModel:
    """Comonotonicity copula min(x, y); its kernel is a point mass at y = x."""
    model = CopulaModel(
        cdf=lambda x, y: np.minimum(*_as_xy(x, y)),
        kernel_cdf=lambda x, y: (_as_xy(x, y)[0] <= _as_xy(x, y)[1]).astype(float),
        label="m",
    )
    object.__setattr__(model, "transpose_factory", lambda: model)
    return model


def make_w() -> CopulaModel:
    """Countermonotonicity copula max(x+y-1, 0); point mass at y = 1-x."""
    model = CopulaModel(
        cdf=lambda x, y: np.maximum(sum(_as_xy(x, y)) - 1.0, 0.0),
        kernel_cdf=lambda x, y: (_as_xy(x, y)[1] >= 1.0 - _as_xy(x, y)[0]).astype(
            float
        ),
        label="w",
    )
    object.__setattr__(model, "transpose_factory", lambda: model)
    return model


def make_marshall_olkin(p: MarshallOlkinParams) -> CopulaModel:
    """Marshall-Olkin copula M_{alpha,beta} with its two-branch Markov kernel."""
    a, b = p.alpha, p.beta

    def cdf(x, y):
        x, y = _as_xy(x, y)
        with np.errstate(divide="ignore", invalid="ignore"):
            upper = np.where(x > 0, x ** (1.0 - a) * y, 0.0)
            lower = np.where(y > 0, x * y ** (1.0 - b), 0.0)
        return np.where(x ** a >= y ** b, upper, lower)

    def kernel_cdf(x, y):
        x, y = _as_xy(x, y)
        with np.errstate(divide="ignore", invalid="ignore"):
            below = np.where(x > 0, (1.0 - a) * x ** (-a) * y, 0.0)
        return np.clip(np.where(y ** b < x ** a, below, y ** (1.0 - b)), 0.0, 1.0)

    return CopulaModel(
        cdf=cdf,
        kernel_cdf=kernel_cdf,
        label=f"marshall-olkin:{a}:{b}",
        transpose_factory=lambda: make_marshall_olkin(MarshallOlkinParams(b, a)),
    )


def kernel_from_cdf(cdf: Callable, h: float = 1e-5) -> Callable:
    """Markov kernel as a symmetric difference quotient of the CDF in x.

    dC/dx exists almost everywhere for any copula; the quotient is clamped to
    [0,1].  It need not be monotone in y: every kernel array the metrics build
    (`kernel_grid`, `wcc_profile`) passes through one helper,
    `copkern.metrics._monotone_in_y`, which takes the running maximum along y.
    """

    def kernel(x, y):
        x, y = _as_xy(x, y)
        lo = np.maximum(x - h, 0.0)
        hi = np.minimum(x + h, 1.0)
        span = np.where(hi > lo, hi - lo, 1.0)
        q = (np.asarray(cdf(hi, y)) - np.asarray(cdf(lo, y))) / span
        return np.clip(q, 0.0, 1.0)

    return kernel


def transpose(c: CopulaModel) -> CopulaModel:
    """Transposed copula C^t(x,y) = C(y,x)."""
    if c.transpose_factory is not None:
        return c.transpose_factory()

    def cdf(x, y):
        return c.cdf(y, x)

    return CopulaModel(
        cdf=cdf,
        kernel_cdf=kernel_from_cdf(cdf),
        label=c.label + "^t",
        transpose_factory=lambda: c,
    )


def checkerboard_approx(c: CopulaModel, N: int) -> CheckerboardMatrix:
    """Cell masses of the N-checkerboard approximation of `c`."""
    if N < 1:
        raise ValueError("checkerboard resolution must be >= 1")
    grid = np.arange(N + 1) / N
    C = np.asarray(c.cdf(grid[:, None], grid[None, :]))
    mass = C[1:, 1:] - C[:-1, 1:] - C[1:, :-1] + C[:-1, :-1]
    return CheckerboardMatrix(resolution=N, mass=mass)


def checkerboard_copula(m: CheckerboardMatrix, tol: float = 1e-9) -> CopulaModel:
    """Copula spreading each cell mass uniformly over its rectangle.

    The CDF is the exact piecewise-bilinear accumulation of the cell masses;
    the kernel is constant in x on each cell and piecewise linear in y.
    """
    N = m.resolution
    mass = m.mass
    if np.any(mass < -tol):
        raise ValueError("checkerboard mass matrix has negative entries")
    if (
        np.max(np.abs(mass.sum(axis=0) - 1.0 / N)) > tol
        or np.max(np.abs(mass.sum(axis=1) - 1.0 / N)) > tol
    ):
        raise ValueError("checkerboard mass matrix is not doubly stochastic")

    P = np.zeros((N + 1, N + 1))
    P[1:, 1:] = np.cumsum(np.cumsum(mass, axis=0), axis=1)

    def _cells(x, y):
        x, y = _as_xy(x, y)
        i = np.clip(np.floor(x * N).astype(int), 0, N - 1)
        j = np.clip(np.floor(y * N).astype(int), 0, N - 1)
        fx = np.clip(x * N - i, 0.0, 1.0)
        fy = np.clip(y * N - j, 0.0, 1.0)
        return i, j, fx, fy

    def cdf(x, y):
        i, j, fx, fy = _cells(x, y)
        return (
            P[i, j]
            + fx * (P[i + 1, j] - P[i, j])
            + fy * (P[i, j + 1] - P[i, j])
            + fx * fy * mass[i, j]
        )

    def kernel_cdf(x, y):
        i, j, fx, fy = _cells(x, y)
        return np.clip(N * (P[i + 1, j] - P[i, j] + fy * mass[i, j]), 0.0, 1.0)

    return CopulaModel(
        cdf=cdf,
        kernel_cdf=kernel_cdf,
        label=f"checkerboard:{N}",
        transpose_factory=lambda: checkerboard_copula(
            CheckerboardMatrix(N, mass.T.copy())
        ),
    )
