"""Counterexample copula families separating the convergence notions.

`strip_copula` mixes independence with a single completely dependent dyadic
strip: the D1-distance to independence vanishes with the strip width while
the conditional laws on the strip stay degenerate.  `shift_copula` is the
completely dependent copula of x -> 2^n x mod 1, whose transpose converges
to independence although the copula itself does not.
"""

import numpy as np

from .archimedean import Generator
from .core import CopulaModel, _bisect, _point_mass_conditional, _unit


def _with_transpose(cdf, conditional, t_conditional, label: str) -> CopulaModel:
    """The model (cdf, conditional); its transpose has kernel `t_conditional`,
    and each of the two names the other."""

    def transpose_factory(c):
        return CopulaModel(cdf=lambda x, y: cdf(y, x), conditional=t_conditional,
                           label=label + "^t", transpose_factory=lambda t: c)

    return CopulaModel(cdf=cdf, conditional=conditional, label=label,
                       transpose_factory=transpose_factory)


def strip_index(n: int):
    """Map the sequence index n >= 1 to the (N, i) strip parameters."""
    if n < 1:
        raise ValueError("strip copula index must be >= 1")
    N = int(np.floor(np.log2(n + 1)))
    i = n + 2 - 2 ** N
    return N, i


def strip_copula(n: int) -> CopulaModel:
    """Copula with kernel 1_{[0,y]}(2^N x + 1 - i) on the i-th dyadic strip.

    Off the strip [lo, lo + w] = [(i-1)/2^N, i/2^N] the kernel is the
    independence kernel.  The transpose's kernel is
    K^t(x, [0, y]) = w 1[lo + w x <= y] + |[0, y] minus [lo, lo + w]|.
    """
    N, i = strip_index(n)
    w = 0.5 ** N
    lo = (i - 1) * w

    def cdf(x, y):
        x, y = _unit(x), _unit(y)
        # strip overlap of [0,x] and its completely dependent contribution
        s = np.clip(np.minimum(x, lo + w) - lo, 0.0, w)
        return y * (x - s) + np.minimum(s, y * w)

    def conditional(x):
        x = np.asarray(x, float)
        h = (x - lo) / w
        on_strip = (x >= lo) & (x <= lo + w)

        def kernel(y):
            y = np.asarray(y, float)
            return np.where(on_strip, (h <= y).astype(float), np.clip(y, 0.0, 1.0))

        return kernel

    def t_conditional(x):
        # given x, the second coordinate sits at lo + w x with probability w
        # and is uniform on [0, 1] minus the strip otherwise
        atom = lo + w * np.asarray(x, float)

        def kernel(y):
            y = np.clip(np.asarray(y, float), 0.0, 1.0)
            return w * (atom <= y) + np.minimum(y, lo) + np.maximum(y - (lo + w), 0.0)

        return kernel

    return _with_transpose(cdf, conditional, t_conditional, f"strip:{n}")


def shift_copula(n: int) -> CopulaModel:
    """Completely dependent copula of h_n(x) = 2^n x mod 1."""
    if n < 0:
        raise ValueError("shift copula index must be >= 0")
    k = 2 ** n

    def cdf(x, y):
        x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
        y = np.clip(np.asarray(y, dtype=float), 0.0, 1.0)
        p = np.floor(k * x)
        frac = k * x - p
        return (p * y + np.minimum(frac, y)) / k

    def t_conditional(x):
        # discrete uniform on {(x+i)/2^n : i = 0..2^n - 1}
        xc = np.clip(np.asarray(x, float), 0, 1)

        def kernel(y):
            cnt = np.floor(k * np.clip(np.asarray(y, float), 0, 1) - xc) + 1.0
            return np.clip(cnt / k, 0.0, 1.0)

        return kernel

    atom = _point_mass_conditional(lambda x: k * np.clip(x, 0.0, 1.0) % 1.0)
    return _with_transpose(cdf, atom, t_conditional, f"shift:{n}")


def strict_generators_approaching_w(k: int):
    """Strict generators converging pointwise on (0,1] to the W generator
    (`archimedean.make_w_generator`).

    phi_k(t) = (2(1-t) + (1/k)(-log t)/log 2) / (1 + 1/k); each phi_k is
    convex, strictly decreasing, normalized and strict, while the limit is
    the non-strict W generator.
    """
    if k < 1:
        raise ValueError("index must be >= 1")
    ln2 = np.log(2.0)
    scale = 1.0 + 1.0 / k

    def phi(t):
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore"):
            return (2.0 * (1.0 - t) + (-np.log(t)) / (k * ln2)) / scale

    def dplus(t):
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore"):
            return (-2.0 - 1.0 / (k * ln2 * t)) / scale

    def inverse(s):
        # phi has no closed-form inverse: bisect for phi(t) = s
        s = np.asarray(s, dtype=float)
        lo, hi = _bisect(lambda t: ~(phi(t) > s), s, 80)
        out = np.select([s <= 0.0, s == np.inf], [1.0, 0.0], 0.5 * (lo + hi))
        return out if out.ndim else float(out)

    return Generator(phi, dplus, inverse, f"w-approx:{k}")
