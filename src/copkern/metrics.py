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
`d1_to_grid` runs the same check on the column sums it streams.

Square lattices over one grid (`kernel_grid`, `core.cdf_lattice` and the
streamed reductions) are walked by the tiles of `core.square_tiles`: row
blocks, or where the model's CDF declares itself exchangeable or its
kernel is a `core.ExchangeableKernel` (`core.CopulaModel`; every
Archimedean copula does both) panels of the upper triangle and their
mirrors, so that CDF, or the symmetric part of that kernel, is evaluated
on about half the lattice.  The tiles hold the row-walked values bit for
bit.

No reduction builds a second m^2 array beside its inputs.  `d_inf`,
`d_inf_to_lattice` and `d1_to_grid` stream a model's lattice tile by tile,
so they never hold it whole; the others take abs or square in place on
their own difference.  `pi_measures` keeps its one kernel grid
materialized on purpose: freeing a 2 MB array raises glibc's dynamic mmap
and trim thresholds, and with none ever freed the block working set of
the exact plugin measures is trimmed and re-faulted on every block, which
made a streamed version slower on small studies.
"""

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ._accel import levy_distance
from .core import (
    CopulaModel,
    _require_int,
    cdf_grid,
    has_exchangeable_cdf,
    lattice,
    make_pi,
    square_lattice,
    square_tiles,
    sup_distance,
    transpose,
)

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
# checked_kernel_grid rejects a kernel grid whose column defect exceeds this / m
_DEFECT_PER_M = 4


@dataclass(frozen=True)
class QuadratureSpec:
    m: int = 512

    def __post_init__(self):
        _require_int(self.m, "quadrature resolution m")
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
    return square_lattice(c, midpoints(q.m), kernel=True)


def _block_sup(pairs) -> float:
    """max |a - b| over paired tiles.  The max is order-free, so this is the
    sup of the whole lattices bit for bit, and a NaN in any tile gives NaN
    as np.max does (the builtin max() would drop one after the first tile)."""
    return float(np.max([sup_distance(a, b) for a, b in pairs]))


def d_inf(c1: CopulaModel, c2: CopulaModel, q: QuadratureSpec = QuadratureSpec()):
    """Uniform distance max |C1 - C2| on the (m+1)^2 lattice (error <= 2/m),
    reduced over paired tiles: neither lattice is built.  The tiles are
    those of `square_tiles` for an exchangeable CDF, if either model has
    one, and the other model is evaluated on each tile's coordinates."""
    if not has_exchangeable_cdf(c1):
        c1, c2 = c2, c1      # |a - b| is symmetric in the pair
    g = cdf_grid(q.m)
    return _block_sup((a, c2.cdf(g[rows, None], g[None, cols]))
                      for rows, cols, a in square_tiles(c1, g))


def d_inf_to_lattice(c: CopulaModel, L: np.ndarray) -> float:
    """`d_inf` of `c` against another model whose `cdf_lattice` L is given,
    bit for bit: c's tiles are reduced against the matching tiles of L."""
    tiles = square_tiles(c, cdf_grid(len(L) - 1))
    return _block_sup((a, L[rows, cols]) for rows, cols, a in tiles)


def d1_grids(K1: np.ndarray, K2: np.ndarray) -> float:
    """D1 between two kernel grids (or a grid and Pi's midpoint vector)."""
    diff = np.subtract(K1, K2)
    return float(np.mean(np.abs(diff, out=diff)))


def d1_to_grid(c: CopulaModel, K: np.ndarray) -> float:
    """D1 of `c` against another model whose m x m `kernel_grid` K is given.

    c's kernel is reduced tile by tile (`core.square_tiles`) against the
    matching tiles of K, so no m^2 array of c is built, and its column sums
    go through the check of `checked_kernel_grid` (same ValueError).  The sum
    of |K_c - K| is taken per tile, so with more than one tile (m > 181) it
    differs from `d1_grids(kernel_grid(c, q), K)` at rounding level; with one
    it is equal.
    """
    m = len(K)
    total, columns = 0.0, np.zeros(m)
    for rows, cols, block in square_tiles(c, midpoints(m), kernel=True):
        columns[cols] += block.sum(axis=0)
        diff = np.subtract(block, K[rows, cols])
        total += float(np.sum(np.abs(diff, out=diff)))
    _check_disintegration(c.label, columns / m, m)
    return total / K.size


def d1(c1: CopulaModel, c2: CopulaModel, q: QuadratureSpec = QuadratureSpec()):
    """D1: double integral of |K1(x,[0,y]) - K2(x,[0,y])|."""
    return d1_grids(kernel_grid(c1, q), kernel_grid(c2, q))


def d2_squared(c1: CopulaModel, c2: CopulaModel, q: QuadratureSpec = QuadratureSpec()):
    """D2^2: double integral of the squared kernel difference."""
    diff = kernel_grid(c1, q)
    diff -= kernel_grid(c2, q)
    return float(np.mean(np.square(diff, out=diff)))


def d_infty_metric(c1: CopulaModel, c2: CopulaModel, q: QuadratureSpec = QuadratureSpec()):
    """D-infinity: sup over y of the x-integral of |K1 - K2|."""
    diff = kernel_grid(c1, q)
    diff -= kernel_grid(c2, q)
    return float(np.max(np.mean(np.abs(diff, out=diff), axis=0)))


def _column_defect(K: np.ndarray, y: np.ndarray) -> float:
    """max_j |mean_i K_ij - y_j|: the disintegration identity on a kernel lattice."""
    return sup_distance(np.mean(K, axis=0), y)


def _check_disintegration(label: str, column_means: np.ndarray, m: int):
    """ValueError naming the model `label` unless the column means of its
    m x m kernel grid are within 4/m of the midpoints (a NaN mean fails)."""
    defect = sup_distance(column_means, midpoints(m))
    if not defect <= _DEFECT_PER_M / m:
        raise ValueError(f"the kernel of '{label}' does not disintegrate it at "
                         f"m = {m}: column defect {defect:.3g} > {_DEFECT_PER_M}/m")


def zeta1(c: CopulaModel, q: QuadratureSpec = QuadratureSpec()):
    """Dependence measure zeta_1(C) = 3 * D1(C, Pi); 0 iff independence."""
    return 3.0 * d1(c, make_pi(), q)


def r_identity_residual(c: CopulaModel, q: QuadratureSpec = QuadratureSpec()):
    """|r - 6*D2^2(C,Pi) - (12*E[K y] - 6*E[y^2] - 2)| on the kernel grid.

    It is 0 for every array, so it is rounding only: it detects no wrong kernel.
    """
    K, y = kernel_grid(c, q), midpoints(q.m)
    work = np.multiply(K, y)
    defect = 12.0 * float(np.mean(work)) - 6.0 * float(np.mean(y ** 2)) - 2.0
    d2 = float(np.mean(np.square(np.subtract(K, y, out=work), out=work)))
    r = 6.0 * float(np.mean(np.square(K, out=K))) - 2.0
    return abs(r - 6.0 * d2 - defect)


def r_measure(c: CopulaModel, q: QuadratureSpec = QuadratureSpec()):
    """r(C) = 6 * integral of K^2 - 2 = 6 * D2^2(C, Pi): the last of `pi_measures`."""
    return pi_measures(c, q)[2]


def checked_kernel_grid(c: CopulaModel, q: QuadratureSpec) -> np.ndarray:
    """`kernel_grid(c, q)`, or ValueError naming the model when the grid's
    column defect is not at most 4/m (a NaN cell makes the defect NaN)."""
    K = kernel_grid(c, q)
    _check_disintegration(c.label, np.mean(K, axis=0), q.m)
    return K


def pi_measures(c: CopulaModel, q: QuadratureSpec = QuadratureSpec()):
    """(D1(C, Pi), zeta1(C), r(C)) from one `checked_kernel_grid` K of `c`,
    r = 6*mean(K^2) - 2.  K is squared in place once D1 is read."""
    K, y = checked_kernel_grid(c, q), midpoints(q.m)
    d = d1_grids(K, y)
    return d, 3.0 * d, 6.0 * float(np.mean(np.square(K, out=K))) - 2.0


def measures(c: CopulaModel, q: QuadratureSpec = QuadratureSpec()):
    """(D1(C, Pi), zeta1, r): ``c.measures(q.m)``, else `pi_measures` of the grid at `q`."""
    return c.measures(q.m) or pi_measures(c, q)


def partial_distance(c1: CopulaModel, c2: CopulaModel, q: QuadratureSpec = QuadratureSpec()):
    """Symmetrized D1: D1(C1,C2) + D1(C1^t, C2^t)."""
    return d1(c1, c2, q) + d1(transpose(c1), transpose(c2), q)


def golden_xs(count: int = 25) -> np.ndarray:
    """Low-discrepancy abscissae frac(i * golden ratio), dodging dyadic points."""
    _require_int(count, "golden abscissa count", 1)
    return np.modf((np.arange(1, count + 1)) * _GOLDEN)[0]


def wcc_grid(c: CopulaModel, xs: Sequence[float] = None, y_grid: int = 512) -> np.ndarray:
    """Conditional CDFs K(x, [0, j / y_grid]), one row per x in `xs`.

    Callers must pick `xs` outside known lambda-null exceptional sets; the
    default uses a golden-ratio sequence which avoids dyadic rationals.
    """
    _require_int(y_grid, "wcc resolution y_grid", 2)
    xs = golden_xs() if xs is None else np.asarray(xs, dtype=float)
    return lattice(c.kernel_cdf, xs, np.linspace(0.0, 1.0, y_grid + 1))


# the summary statistics of a profile's per-x Levy distances
WCC_STATS = {"max": np.max, "mean": np.mean, "q95": lambda d: np.quantile(d, 0.95)}


def wcc_profile(c1: CopulaModel, c2: CopulaModel, xs: Sequence[float] = None,
                y_grid: int = 512) -> WccProfile:
    """Per-x Levy distances between the conditional CDFs of two copulas."""
    xs = golden_xs() if xs is None else np.asarray(xs, dtype=float)
    K1, K2 = wcc_grid(c1, xs, y_grid), wcc_grid(c2, xs, y_grid)
    dist = levy_distance(K1, K2)
    summary = {name: float(stat(dist)) for name, stat in WCC_STATS.items()}
    return WccProfile(xs=xs, dist=dist, summary=summary)


def disintegration_defect(c: CopulaModel, ys: Sequence[float] = None, m: int = 2000):
    """Max defect of the disintegration identity: integral of K(x,[0,y]) dx = y."""
    _require_int(m, "disintegration resolution m", 1)
    ys = np.linspace(0.05, 0.95, 19) if ys is None else np.asarray(ys, dtype=float)
    return _column_defect(lattice(c.kernel_cdf, midpoints(m), ys), ys)
