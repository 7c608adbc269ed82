"""Bivariate copulas represented by their CDF and conditional-CDF Markov kernel."""

from dataclasses import dataclass, field
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class ExchangeableKernel:
    """The Markov kernel of an exchangeable copula, as its model's ``conditional``.

    ``given(x)`` computes the terms in x alone once and returns
    ``(symmetric_at, finish_at)``; calling the split with x returns
    y -> K(x, [0, y]) = ``finish_at(y, symmetric_at(y))``.
    ``given(x)[0](y) == given(y)[0](x)`` holds bit for bit, so on a square
    lattice over one grid the costly part S is evaluated on one triangle and
    mirrored; ``finish_at`` adds what depends on the order of x and y, and
    may write its result into the array `s` it is given.  Both are
    elementwise and broadcast as `CopulaModel.kernel_cdf` does.
    """

    given: Callable   # x -> (y -> S(x, y), (y, s) -> K(x, [0, y]) from s = S(x, y))

    def __call__(self, x):
        symmetric_at, finish_at = self.given(x)
        return lambda y: finish_at(np.asarray(y, dtype=float), symmetric_at(y))


@dataclass(frozen=True)
class CopulaModel:
    """A copula given by ``cdf(x, y)`` and its Markov kernel ``conditional(x)``.

    ``conditional(x)`` returns the callable y -> K(x, [0, y]), the conditional
    distribution function of the second coordinate given the first: it
    computes every term in x alone once, and the callable only the terms in
    y, so a bisection in y at fixed x repeats no x work.  ``kernel_cdf(x, y)``
    is ``conditional(x)(y)``.  Both take broadcast-compatible inputs
    (scalars, vectors of one length, or an (m, 1) column against a (1, m)
    row) and compute on the arrays as given; the result has the broadcast
    shape.  Both are elementwise: a value depends only on its own (x, y), so
    any tile of x rows against y columns gives, bit for bit, the values the
    whole lattice has, which is what `square_tiles` and `lattice` rely on.
    The kernel is exact: a distribution function in y with values in [0, 1],
    which the metrics evaluate as given.  The required
    ``transpose_factory(c)`` returns the transpose of the model `c` it is
    called with, with its own exact kernel; a symmetric model is built with
    ``lambda c: c``.  Models are immutable and safe for concurrent reads.
    ``measures(m)`` is the exact (D1(C, Pi), zeta1, r), or None where it has
    none cheaper than an m x m grid.

    An exchangeable model declares it on the callables it describes, and
    `square_tiles` then evaluates that callable's costly part on about half a
    square lattice: ``cdf.exchangeable = True`` says ``cdf(x, y) ==
    cdf(y, x)`` bit for bit, and a ``conditional`` that is an
    `ExchangeableKernel` is the kernel's split.  A ``dataclasses.replace``
    of either callable so drops its declaration with it.
    """

    cdf: Callable
    conditional: Callable
    label: str
    transpose_factory: Callable = field(repr=False)
    measures: Callable = field(default=lambda m: None, repr=False)

    def kernel_cdf(self, x, y):
        """K(x, [0, y]) = ``conditional(x)(y)``."""
        return self.conditional(x)(y)


# rounding allowed in a checkerboard's masses and margins
_MASS_TOL = 1e-9


@dataclass(frozen=True)
class CheckerboardMatrix:
    """Cell masses of an N-checkerboard; N is the side of the square `mass`.

    Construction raises ValueError unless the masses are those of a copula:
    non-negative and doubly stochastic, each row and column summing to 1/N,
    up to _MASS_TOL.  A NaN or infinite mass is rejected too.
    """

    mass: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mass, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
            raise ValueError(f"checkerboard mass matrix must be square and non-empty, "
                             f"got shape {m.shape}")
        if np.any(m < -_MASS_TOL):
            raise ValueError("checkerboard mass matrix has negative entries")
        N = len(m)
        if not (np.max(np.abs(m.sum(axis=0) - 1.0 / N)) <= _MASS_TOL
                and np.max(np.abs(m.sum(axis=1) - 1.0 / N)) <= _MASS_TOL):
            raise ValueError("checkerboard mass matrix is not doubly stochastic")
        object.__setattr__(self, "mass", m)


def _require_int(value, what: str, least: int = None):
    """ValueError naming `what` unless `value` is an integer, and one at least
    `least` when that is given; a float such as 50.0 is rejected too."""
    if not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{what} must be >= {least}, got {value}")


def _unit(t):
    """t clipped to [0, 1], where a copula's CDF reads its arguments: off the
    unit square C(x, y) = C(x0, y0) with x0 and y0 the clipped inputs."""
    return np.minimum(np.maximum(np.asarray(t, float), 0.0), 1.0)


def _pi_conditional(x):
    x = np.asarray(x, float)
    # the kernel ignores x, so it broadcasts to the shape of (x, y) itself
    return lambda y: np.broadcast_arrays(x, _unit(y))[1].copy()


def _point_mass_conditional(at):
    """Conditional law of a point mass at y = at(x): the indicator at(x) <= y."""

    def conditional(x):
        atom = at(np.asarray(x, float))
        return lambda y: (atom <= y).astype(float)

    return conditional


def make_pi() -> CopulaModel:
    """Independence copula."""
    return CopulaModel(
        cdf=lambda x, y: _unit(x) * _unit(y),
        conditional=_pi_conditional,
        label="pi",
        transpose_factory=lambda c: c,
        measures=lambda m: (0.0, 0.0, 0.0),
    )


def make_m() -> CopulaModel:
    """Comonotonicity copula min(x, y); its kernel is a point mass at y = x."""
    return CopulaModel(
        cdf=lambda x, y: np.minimum(_unit(x), _unit(y)),
        conditional=_point_mass_conditional(lambda x: x),
        label="m",
        transpose_factory=lambda c: c,
        measures=lambda m: (1.0 / 3.0, 1.0, 1.0),
    )


def make_w() -> CopulaModel:
    """Countermonotonicity copula max(x+y-1, 0); point mass at y = 1-x."""
    return CopulaModel(
        cdf=lambda x, y: np.maximum(_unit(x) + _unit(y) - 1.0, 0.0),
        conditional=_point_mass_conditional(lambda x: 1.0 - x),
        label="w",
        transpose_factory=lambda c: c,
        measures=lambda m: (1.0 / 3.0, 1.0, 1.0),
    )


def make_marshall_olkin(alpha: float, beta: float) -> CopulaModel:
    """Marshall-Olkin copula M_{alpha,beta} with its two-branch Markov kernel."""
    if not (0.0 <= alpha <= 1.0 and 0.0 <= beta <= 1.0):
        raise ValueError("Marshall-Olkin parameters must lie in [0,1]")
    a, b = alpha, beta

    def cdf(x, y):
        x, y = _unit(x), _unit(y)
        with np.errstate(divide="ignore", invalid="ignore"):
            upper = np.where(x > 0, x ** (1.0 - a) * y, 0.0)
            lower = np.where(y > 0, x * y ** (1.0 - b), 0.0)
        return np.where(x ** a >= y ** b, upper, lower)

    def conditional(x):
        x = np.asarray(x, float)
        inside, xa = x > 0, x ** a
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = (1.0 - a) * x ** (-a)

        def kernel(y):
            y = _unit(y)
            with np.errstate(invalid="ignore"):
                below = np.where(inside, slope * y, 0.0)
            return np.clip(np.where(y ** b < xa, below, y ** (1.0 - b)), 0.0, 1.0)

        return kernel

    return CopulaModel(
        cdf=cdf,
        conditional=conditional,
        label=f"marshall-olkin:{a}:{b}",
        transpose_factory=lambda c: make_marshall_olkin(b, a),
    )


def _bisect(at_or_below: Callable, like: np.ndarray, steps: int):
    """Bracket (lo, hi), shaped like `like`, of a monotone root in [0, 1] after
    `steps` halvings; ``at_or_below(mid)`` is True where the root is <= mid.

    Each step selects by min/max rather than by ``np.where``: the mask is
    close to a coin flip per point, and on such a mask ``np.where`` costs
    about 6 ns per element against 0.35 ns for ``np.minimum`` (numpy 2.4.6,
    AVX-512).  ``far`` is 0 where the root is <= mid and 2 elsewhere, so
    ``max(mid, far)`` is mid or 2 and ``min(mid, far - 1)`` is -1 or mid.
    Since 0 <= lo <= mid <= hi <= 1 holds exactly in floating point,
    ``min(hi, .)`` and ``max(lo, .)`` then pick mid or keep the old bound:
    the bits ``np.where`` would pick.  `at_or_below`'s result goes through
    ``np.asarray`` first, because ``~`` of a Python bool is an int.
    """
    lo = np.zeros_like(like)
    hi = np.ones_like(like)
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        far = (~np.asarray(at_or_below(mid))) * 2.0
        hi = np.minimum(hi, np.maximum(mid, far))
        lo = np.maximum(lo, np.minimum(mid, far - 1.0))
    return lo, hi


def _piecewise_linear(xs: np.ndarray, vs: np.ndarray):
    """Value (t clipped to [0, 1]) and right slope (the first segment's below
    xs[0], the last's from xs[-1]) of the linear interpolant of (xs, vs)."""
    slopes = np.diff(vs) / np.diff(xs)

    def value(t):
        return np.interp(np.clip(np.asarray(t, dtype=float), 0.0, 1.0), xs, vs)

    def right_slope(t):
        idx = np.searchsorted(xs, np.asarray(t, dtype=float), side="right") - 1
        return slopes[np.clip(idx, 0, len(slopes) - 1)]

    return value, right_slope


def sup_distance(a: np.ndarray, b: np.ndarray) -> float:
    """max |a - b| of two grids or tables of the same shape (or broadcasting
    to one); the abs is taken in place, on the difference's own array.  Equal
    infinities differ by NaN, quietly: the sup is then NaN, for the caller's
    finiteness check to name."""
    with np.errstate(invalid="ignore"):
        diff = np.subtract(a, b)
    return float(np.max(np.abs(diff, out=diff)))


def transpose(c: CopulaModel) -> CopulaModel:
    """Transposed copula C^t(x,y) = C(y,x), as the model names it."""
    return c.transpose_factory(c)


# points one lattice block or tile evaluates: at 2^15 float64 points each
# temporary of a model call is 256 KB, so the dozen a kernel call holds stay
# in a core's L2 cache (a 512^2 lattice in one call spills 2 MB temporaries)
LATTICE_BLOCK = 2 ** 15


def lattice_blocks(f: Callable, x, y):
    """Yield (rows, cols, f(x[rows, None], y[None, cols])) over the rows of x,
    for an elementwise f: cols is all of y, and each block has at most
    LATTICE_BLOCK points (at least one row), so a lattice of at most
    LATTICE_BLOCK points is one block.

    A reduction over these blocks never holds the whole lattice.
    """
    x, y = np.asarray(x, float), np.asarray(y, float)
    rows = max(1, LATTICE_BLOCK // max(1, len(y)))
    for i in range(0, len(x), rows):
        yield slice(i, i + rows), slice(0, len(y)), f(x[i:i + rows, None], y[None, :])


def has_exchangeable_cdf(c: CopulaModel) -> bool:
    """Whether ``c.cdf`` declares ``cdf(x, y) == cdf(y, x)`` bit for bit."""
    return getattr(c.cdf, "exchangeable", False) is True


def square_tiles(c: CopulaModel, g, kernel: bool = False):
    """Yield (rows, cols, block) tiles that cover the square lattice of `c`'s
    CDF over the grid g once, or with `kernel` of its Markov kernel
    K(g_i, [0, g_j]): block is the lattice's [rows, cols], rows and cols
    slices of g.

    A callable that declares nothing (see `CopulaModel`), or a lattice of
    one block, gives the row blocks of `lattice_blocks`.  An exchangeable
    CDF, or the symmetric part of an `ExchangeableKernel`, is evaluated on
    the upper-triangle panel [i0, i1) x [i0, n) of at most LATTICE_BLOCK
    points (at least one row), which is yielded, then the mirror
    [i1, n) x [i0, i1) built from the panel's transpose: about half the
    lattice's points.  A CDF mirror is a transposed view of the panel; the
    kernel's ``given`` is applied to the panel's rows and to the mirror's,
    and each ``finish_at`` to its own block, the mirror's a copy of the
    panel's transpose.  Being elementwise, each tile holds the row-walked
    lattice's bits.  A consumer reads the blocks and writes into none of them.
    """
    g = np.asarray(g, float)
    n = len(g)
    if kernel:
        given = c.conditional.given if isinstance(c.conditional, ExchangeableKernel) else None
    else:
        given = (lambda x: (lambda y: c.cdf(x, y), None)) if has_exchangeable_cdf(c) else None
    if given is None or n * n <= LATTICE_BLOCK:
        yield from lattice_blocks(c.kernel_cdf if kernel else c.cdf, g, g)
        return
    i0 = 0
    while i0 < n:
        i1 = min(n, i0 + max(1, LATTICE_BLOCK // (n - i0)))
        rows, right, below = slice(i0, i1), slice(i0, n), slice(i1, n)
        symmetric_at, finish_at = given(g[rows, None])
        panel = symmetric_at(g[None, right])
        mirror = panel[:, i1 - i0:].T
        if finish_at is not None:
            # finish_at writes into what it is given: the mirror's copy first
            mirror = given(g[below, None])[1](g[None, rows], mirror.copy())
            panel = finish_at(g[None, right], panel)
        yield rows, right, panel
        if i1 < n:
            yield below, rows, mirror
        i0 = i1


def _filled(tiles, shape) -> np.ndarray:
    """The lattice of the given shape that `tiles` cover."""
    out = np.empty(shape)
    for rows, cols, block in tiles:
        out[rows, cols] = block
        del block   # one block alive at a time, also while the next is made
    return out


def lattice(f: Callable, x, y) -> np.ndarray:
    """f(x_i, y_j) as a (len(x), len(y)) array, filled from `lattice_blocks`."""
    return _filled(lattice_blocks(f, x, y), (len(x), len(y)))


def square_lattice(c: CopulaModel, g, kernel: bool = False) -> np.ndarray:
    """The (len(g), len(g)) lattice of `square_tiles(c, g, kernel)`."""
    return _filled(square_tiles(c, g, kernel), (len(g), len(g)))


def cdf_grid(m: int) -> np.ndarray:
    """i/m for i = 0..m: the grid of `cdf_lattice`."""
    return np.arange(m + 1) / m


def cdf_lattice(c: CopulaModel, m: int) -> np.ndarray:
    """C(i/m, j/m) for i, j = 0..m, an (m+1, m+1) array."""
    return square_lattice(c, cdf_grid(m))


def checkerboard_approx(c: CopulaModel, N: int) -> CheckerboardMatrix:
    """Cell masses of the N-checkerboard approximation of `c`."""
    _require_int(N, "checkerboard resolution N", 1)
    C = cdf_lattice(c, N)
    mass = C[1:, 1:] - C[:-1, 1:] - C[1:, :-1] + C[:-1, :-1]
    return CheckerboardMatrix(mass)


def checkerboard_measures(m: CheckerboardMatrix):
    """Exact (D1(C, Pi), zeta1(C), r(C)) of `checkerboard_copula(m)`, in O(N^2).

    On cell (i, j), with f the fraction across it in y, the kernel is
    N (c_ij + f m_ij), c_ij = sum_{j' < j} m_ij' column i's mass below the
    cell, and y = (j + f) / N.  So r = 6 sum (c_ij^2 + c_ij m_ij + m_ij^2 / 3) - 2
    and D1(C, Pi) = (1/N^2) sum int_0^1 |a_ij + b_ij f| df, with
    a_ij = N c_ij - j / N and b_ij = N m_ij - 1 / N.
    """
    mass = m.mass
    N = len(mass)
    c = np.cumsum(mass, axis=1) - mass
    r = 6.0 * float(np.sum(c ** 2 + c * mass + mass ** 2 / 3.0)) - 2.0
    lo = N * c - np.arange(N) / N       # a_ij: K - y at the cell's bottom
    hi = lo + N * mass - 1.0 / N        # a_ij + b_ij: at its top
    # a linear function's mean |.| over [0, 1]: |lo + hi| / 2 without a root,
    # (lo^2 + hi^2) / (2 |hi - lo|) with one
    same = lo * hi >= 0.0
    mean_abs = np.where(same, np.abs(lo + hi) / 2.0,
                        (lo ** 2 + hi ** 2) / (2.0 * np.where(same, 1.0, np.abs(hi - lo))))
    d = float(np.sum(mean_abs)) / N ** 2
    return d, 3.0 * d, r


def checkerboard_copula(m: CheckerboardMatrix) -> CopulaModel:
    """Copula spreading each cell mass uniformly over its rectangle.

    The CDF is the exact piecewise-bilinear accumulation of the cell masses;
    the kernel is constant in x on each cell and piecewise linear in y.
    """
    mass = m.mass
    N = len(mass)
    P = np.zeros((N + 1, N + 1))
    P[1:, 1:] = np.cumsum(np.cumsum(mass, axis=0), axis=1)

    def _cell(t):
        # cell index of t and t's fraction across that cell
        t = np.asarray(t, float)
        k = np.clip(np.floor(t * N).astype(int), 0, N - 1)
        return k, np.clip(t * N - k, 0.0, 1.0)

    def cdf(x, y):
        (i, fx), (j, fy) = _cell(x), _cell(y)
        return (
            P[i, j]
            + fx * (P[i + 1, j] - P[i, j])
            + fy * (P[i, j + 1] - P[i, j])
            + fx * fy * mass[i, j]
        )

    def conditional(x):
        i = _cell(x)[0]

        def kernel(y):
            j, fy = _cell(y)
            return np.clip(N * (P[i + 1, j] - P[i, j] + fy * mass[i, j]), 0.0, 1.0)

        return kernel

    return CopulaModel(
        cdf=cdf,
        conditional=conditional,
        label=f"checkerboard:{N}",
        transpose_factory=lambda c: checkerboard_copula(CheckerboardMatrix(mass.T.copy())),
        measures=lambda _: checkerboard_measures(m),
    )
