"""Kernel-based copula metrics (D1, D2, D-infinity), dependence measures and
the weak-conditional-convergence diagnostic profile.

Double integrals over the unit square use a midpoint rule; kernels are
evaluated at cell centers so that the endpoint conventions at x in {0,1}
never enter.  Conditional laws are compared in the Levy metric, which
metrizes weak convergence even in the presence of atoms.

`checked_kernel_grid`, and `pi_measures`, `r_measure` and `copkern converge`
through it, raise ValueError unless the grid meets the disintegration
identity integral K(x,[0,y]) dx = y to a column defect of 4/m (healthy
models read <= 2.25/m, overflow-damaged ones >= 5.5/m at m = 256).
Damage no midpoint reaches passes; kernels varying in x faster than m
resolves (the shift fixtures) fail, and so does a grid with a NaN cell.
"""

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ._accel import levy_distance
from .core import CopulaModel, cdf_lattice, lattice, make_pi, transpose

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
# checked_kernel_grid rejects a kernel grid whose column defect exceeds this / m
_DEFECT_PER_M = 4


@dataclass(frozen=True)
class QuadratureSpec:
    m: int = 512

    def __post_init__(self):
        if self.m < 8:
            raise ValueError("quadrature resolution must be >= 8")


@dataclass(frozen=True)
class WccProfile:
    xs: np.ndarray
    dist: np.ndarray
    summary: dict = field(default_factory=dict)


def midpoints(m: int) -> np.ndarray:
    return (np.arange(m) + 0.5) / m


def kernel_grid(c: CopulaModel, q: QuadratureSpec) -> np.ndarray:
    """K(x_i, [0, y_j]) on the midpoint grid.

    Each measure of one model is a reduction of this one array; r and
    `pi_measures` compare it with the midpoint vector, which is Pi's grid.
    """
    x = midpoints(q.m)
    return lattice(c.kernel_cdf, x, x)


def sup_distance(a: np.ndarray, b: np.ndarray) -> float:
    """max |a - b| of two grids or tables of the same shape."""
    return float(np.max(np.abs(a - b)))


def d_inf(c1: CopulaModel, c2: CopulaModel, q: QuadratureSpec = QuadratureSpec()):
    """Uniform distance max |C1 - C2| on the (m+1)^2 lattice (error <= 2/m)."""
    return sup_distance(cdf_lattice(c1, q.m), cdf_lattice(c2, q.m))


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


def _column_defect(K: np.ndarray, y: np.ndarray) -> float:
    """max_j |mean_i K_ij - y_j|: the disintegration identity on a kernel lattice."""
    return float(np.max(np.abs(np.mean(K, axis=0) - y)))


def zeta1(c: CopulaModel, q: QuadratureSpec = QuadratureSpec()):
    """Dependence measure zeta_1(C) = 3 * D1(C, Pi); 0 iff independence."""
    return 3.0 * d1(c, make_pi(), q)


def r_identity_residual(c: CopulaModel, q: QuadratureSpec = QuadratureSpec()):
    """|r - 6*D2^2(C,Pi) - (12*E[K y] - 6*E[y^2] - 2)| on the kernel grid.

    It is 0 for every array, so it is rounding only: it detects no wrong kernel.
    """
    K, y = kernel_grid(c, q), midpoints(q.m)
    r = 6.0 * float(np.mean(K ** 2)) - 2.0
    defect = 12.0 * float(np.mean(K * y)) - 6.0 * float(np.mean(y ** 2)) - 2.0
    return abs(r - 6.0 * float(np.mean((K - y) ** 2)) - defect)


def r_measure(c: CopulaModel, q: QuadratureSpec = QuadratureSpec()):
    """r(C) = 6 * integral of K^2 - 2 = 6 * D2^2(C, Pi): the last of `pi_measures`."""
    return pi_measures(c, q)[2]


def checked_kernel_grid(c: CopulaModel, q: QuadratureSpec) -> np.ndarray:
    """`kernel_grid(c, q)`, or ValueError naming the model when the grid's
    column defect is not at most 4/m (a NaN cell makes the defect NaN)."""
    K = kernel_grid(c, q)
    defect = _column_defect(K, midpoints(q.m))
    if not defect <= _DEFECT_PER_M / q.m:
        raise ValueError(f"the kernel of '{c.label}' does not disintegrate it at "
                         f"m = {q.m}: column defect {defect:.3g} > {_DEFECT_PER_M}/m")
    return K


def pi_measures(c: CopulaModel, q: QuadratureSpec = QuadratureSpec()):
    """(D1(C, Pi), zeta1(C), r(C)) from one `checked_kernel_grid` K of `c`,
    r = 6*mean(K^2) - 2."""
    K, y = checked_kernel_grid(c, q), midpoints(q.m)
    d = d1_grids(K, y)
    return d, 3.0 * d, 6.0 * float(np.mean(K ** 2)) - 2.0


def partial_distance(c1: CopulaModel, c2: CopulaModel, q: QuadratureSpec = QuadratureSpec()):
    """Symmetrized D1: D1(C1,C2) + D1(C1^t, C2^t)."""
    return d1(c1, c2, q) + d1(transpose(c1), transpose(c2), q)


def golden_xs(count: int = 25) -> np.ndarray:
    """Low-discrepancy abscissae frac(i * golden ratio), dodging dyadic points."""
    return np.modf((np.arange(1, count + 1)) * _GOLDEN)[0]


def wcc_grid(c: CopulaModel, xs: Sequence[float] = None, y_grid: int = 512) -> np.ndarray:
    """Conditional CDFs K(x, [0, j / y_grid]), one row per x in `xs`.

    Callers must pick `xs` outside known lambda-null exceptional sets; the
    default uses a golden-ratio sequence which avoids dyadic rationals.
    """
    xs = golden_xs() if xs is None else np.asarray(xs, dtype=float)
    return lattice(c.kernel_cdf, xs, np.linspace(0.0, 1.0, y_grid + 1))


def levy_grids(K1: np.ndarray, K2: np.ndarray) -> np.ndarray:
    """Levy distance between matching rows of two `wcc_grid` arrays."""
    return levy_distance(K1, K2)


def wcc_profile(c1: CopulaModel, c2: CopulaModel, xs: Sequence[float] = None,
                y_grid: int = 512) -> WccProfile:
    """Per-x Levy distances between the conditional CDFs of two copulas."""
    xs = golden_xs() if xs is None else np.asarray(xs, dtype=float)
    K1, K2 = wcc_grid(c1, xs, y_grid), wcc_grid(c2, xs, y_grid)
    dist = levy_grids(K1, K2)
    summary = {"max": float(np.max(dist)), "mean": float(np.mean(dist)),
               "q95": float(np.quantile(dist, 0.95))}
    return WccProfile(xs=xs, dist=dist, summary=summary)


def disintegration_defect(c: CopulaModel, ys: Sequence[float] = None, m: int = 2000):
    """Max defect of the disintegration identity: integral of K(x,[0,y]) dx = y."""
    ys = np.linspace(0.05, 0.95, 19) if ys is None else np.asarray(ys, dtype=float)
    return _column_defect(lattice(c.kernel_cdf, midpoints(m), ys), ys)
