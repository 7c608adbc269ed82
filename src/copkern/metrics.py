"""Kernel-based copula metrics (D1, D2, D-infinity), dependence measures and
the weak-conditional-convergence diagnostic profile.

Double integrals over the unit square use a midpoint rule; kernels are
evaluated at cell centers so that the endpoint conventions at x in {0,1}
never enter.  Conditional laws are compared in the Levy metric, which
metrizes weak convergence even in the presence of atoms.
"""

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ._accel import levy_distance
from .core import CopulaModel, make_pi, transpose

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class QuadratureSpec:
    m: int = 512
    rule: str = "midpoint"

    def __post_init__(self):
        if self.m < 8:
            raise ValueError("quadrature resolution must be >= 8")
        if self.rule != "midpoint":
            raise ValueError("only the midpoint rule is supported")


@dataclass(frozen=True)
class WccProfile:
    xs: np.ndarray
    dist: np.ndarray
    summary: dict = field(default_factory=dict)


def midpoints(m: int) -> np.ndarray:
    return (np.arange(m) + 0.5) / m


def _monotone_in_y(K) -> np.ndarray:
    """Clip a kernel array to [0, 1] and take its running maximum along y."""
    return np.maximum.accumulate(np.clip(np.asarray(K, dtype=float), 0.0, 1.0), axis=1)


def kernel_grid(c: CopulaModel, q: QuadratureSpec) -> np.ndarray:
    """K(x_i, [0, y_j]) on the midpoint grid, monotonized along y.

    The running maximum along y is a no-op for exact kernels and repairs the
    difference-quotient kernels of transposed copulas.  Each measure of one
    model is a reduction of this one array; r and `pi_measures` compare it
    with the midpoint vector, which is Pi's grid.
    """
    x = midpoints(q.m)
    return _monotone_in_y(c.kernel_cdf(x[:, None], x[None, :]))


def d_inf(c1: CopulaModel, c2: CopulaModel, q: QuadratureSpec = QuadratureSpec()):
    """Uniform distance max |C1 - C2| on the (m+1)^2 lattice (error <= 2/m)."""
    g = np.arange(q.m + 1) / q.m
    d = np.abs(np.asarray(c1.cdf(g[:, None], g[None, :]))
               - np.asarray(c2.cdf(g[:, None], g[None, :])))
    return float(np.max(d))


def d1_grids(K1: np.ndarray, K2: np.ndarray) -> float:
    """D1 between two kernel grids (or a grid and Pi's midpoint vector)."""
    return float(np.mean(np.abs(K1 - K2)))


def d1(c1: CopulaModel, c2: CopulaModel, q: QuadratureSpec = QuadratureSpec()):
    """D1: double integral of |K1(x,[0,y]) - K2(x,[0,y])|."""
    return d1_grids(kernel_grid(c1, q), kernel_grid(c2, q))


def d2_squared(c1: CopulaModel, c2: CopulaModel, q: QuadratureSpec = QuadratureSpec()):
    """D2^2: double integral of the squared kernel difference."""
    return float(np.mean((kernel_grid(c1, q) - kernel_grid(c2, q)) ** 2))


def d_infty_metric(c1: CopulaModel, c2: CopulaModel, q: QuadratureSpec = QuadratureSpec()):
    """D-infinity: sup over y of the x-integral of |K1 - K2|."""
    diff = np.abs(kernel_grid(c1, q) - kernel_grid(c2, q))
    return float(np.max(np.mean(diff, axis=0)))


def _r_and_residual(K: np.ndarray, y: np.ndarray):
    """r = 6*mean(K^2) - 2 on the grid `K`, and the residual of r = 6*D2^2(C,Pi).

    The identity is exact in the continuum; on a finite grid the two routes
    differ by the cross-moment defect 12*E[K y] - 6*E[y^2] - 2, which is the
    exactly-attributable discretization of the disintegration identity (an
    O(1/m) term for kernels with atoms).  The residual after removing that
    defect must vanish to rounding for any correct kernel.
    """
    r = 6.0 * float(np.mean(K ** 2)) - 2.0
    via_d2 = 6.0 * float(np.mean((K - y) ** 2))
    defect = 12.0 * float(np.mean(K * y)) - 6.0 * float(np.mean(y ** 2)) - 2.0
    return r, abs(r - via_d2 - defect)


def _checked_r(K: np.ndarray, y: np.ndarray) -> float:
    r, residual = _r_and_residual(K, y)
    if residual > 1e-6:
        raise RuntimeError(
            "r(C) and 6*D2^2(C,Pi) disagree beyond quadrature: kernel bug"
        )
    return r


def zeta1(c: CopulaModel, q: QuadratureSpec = QuadratureSpec()):
    """Dependence measure zeta_1(C) = 3 * D1(C, Pi); 0 iff independence."""
    return 3.0 * d1(c, make_pi(), q)


def r_identity_residual(c: CopulaModel, q: QuadratureSpec = QuadratureSpec()):
    """Residual of the identity r(C) = 6*D2^2(C,Pi) on the kernel grid."""
    return _r_and_residual(kernel_grid(c, q), midpoints(q.m))[1]


def r_measure(c: CopulaModel, q: QuadratureSpec = QuadratureSpec()):
    """Dependence measure r(C) = 6 * integral of K^2 - 2 = 6 * D2^2(C, Pi)."""
    return _checked_r(kernel_grid(c, q), midpoints(q.m))


def pi_measures(c: CopulaModel, q: QuadratureSpec = QuadratureSpec()):
    """(D1(C, Pi), zeta1(C), r(C)) from one kernel grid of `c`."""
    K, y = kernel_grid(c, q), midpoints(q.m)
    d = d1_grids(K, y)
    return d, 3.0 * d, _checked_r(K, y)


def partial_distance(c1: CopulaModel, c2: CopulaModel, q: QuadratureSpec = QuadratureSpec()):
    """Symmetrized D1: D1(C1,C2) + D1(C1^t, C2^t)."""
    return d1(c1, c2, q) + d1(transpose(c1), transpose(c2), q)


def golden_xs(count: int = 25) -> np.ndarray:
    """Low-discrepancy abscissae frac(i * golden ratio), dodging dyadic points."""
    return np.modf((np.arange(1, count + 1)) * _GOLDEN)[0]


def wcc_profile(
    c1: CopulaModel,
    c2: CopulaModel,
    xs: Sequence[float] = None,
    y_grid: int = 512,
) -> WccProfile:
    """Per-x Levy distances between the conditional CDFs of two copulas.

    Callers must pick `xs` outside known lambda-null exceptional sets; the
    default uses a golden-ratio sequence which avoids dyadic rationals.
    """
    if xs is None:
        xs = golden_xs()
    xs = np.asarray(xs, dtype=float)
    y = np.linspace(0.0, 1.0, y_grid + 1)
    K1 = _monotone_in_y(c1.kernel_cdf(xs[:, None], y[None, :]))
    K2 = _monotone_in_y(c2.kernel_cdf(xs[:, None], y[None, :]))
    dist = np.array([levy_distance(K1[i], K2[i]) for i in range(len(xs))])
    summary = {
        "max": float(np.max(dist)),
        "mean": float(np.mean(dist)),
        "q95": float(np.quantile(dist, 0.95)),
    }
    return WccProfile(xs=xs, dist=dist, summary=summary)


def disintegration_defect(c: CopulaModel, ys: Sequence[float] = None, m: int = 2000):
    """Max defect of the disintegration identity: integral of K(x,[0,y]) dx = y."""
    if ys is None:
        ys = np.linspace(0.05, 0.95, 19)
    ys = np.asarray(ys, dtype=float)
    x = midpoints(m)
    K = np.asarray(c.kernel_cdf(x[:, None], ys[None, :]), dtype=float)
    return float(np.max(np.abs(np.mean(K, axis=0) - ys)))
