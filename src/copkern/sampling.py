"""Seeded sampling from any copula model via conditional-distribution inversion."""

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .core import CopulaModel, _bisect

# most points one conditional_inverse call of `sample_many` inverts: a
# batch amortizes the bisection's per-step numpy overhead over its draws,
# but past a few thousand points a larger batch costs more per point
BATCH_POINTS = 4096


@dataclass(frozen=True)
class RngSpec:
    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        # PCG64 seeded through SeedSequence(seed, stream): the pair fully
        # determines the output sequence
        return np.random.default_rng(np.random.SeedSequence([self.seed, self.stream]))


@dataclass(frozen=True)
class SampleSet:
    x: np.ndarray
    y: np.ndarray
    seed: int = 0
    stream: int = 0

    @property
    def n(self) -> int:
        return len(self.x)


def conditional_inverse(c: CopulaModel, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Generalized inverse inf{y : K(x,[0,y]) >= u} by monotone bisection.

    The conditional law K(x, .) is built once, so its terms in x alone are
    not recomputed at each step.  60 bisection steps resolve y far below
    double precision; the inf convention lands on atoms and flat segments
    uniformly for all families.
    """
    kernel = c.conditional(x)
    return _bisect(lambda y: np.asarray(kernel(y)) >= u, u, 60)[1]


def batch_size(n: int) -> int:
    """Samples of size n that `sample_many` inverts in one call: at most
    BATCH_POINTS points, and at least one sample."""
    return max(1, BATCH_POINTS // n)


def sample_many(c: CopulaModel, n: int, rngs: Sequence[RngSpec]) -> List[SampleSet]:
    """Draw n pairs with uniform margins from the copula `c` for each RngSpec.

    Each spec draws its x and u from its own generator; the draws of up to
    `batch_size(n)` specs are concatenated and inverted by one
    `conditional_inverse` call.  The inversion is elementwise, so each
    SampleSet has the bytes it has when drawn alone.
    """
    if n < 1:
        raise ValueError("sample size must be >= 1")
    out = []
    k = batch_size(n)
    for i in range(0, len(rngs), k):
        chunk = rngs[i:i + k]
        draws = [(g.random(n), g.random(n)) for g in (r.generator() for r in chunk)]
        x, u = (np.concatenate(part) for part in zip(*draws))
        ys = np.split(conditional_inverse(c, x, u), len(chunk))
        out += [SampleSet(x=xr, y=yr, seed=r.seed, stream=r.stream)
                for r, (xr, _), yr in zip(chunk, draws, ys)]
    return out


def sample(c: CopulaModel, n: int, rng: RngSpec) -> SampleSet:
    """Draw n pairs with uniform margins from the copula `c`."""
    return sample_many(c, n, [rng])[0]

