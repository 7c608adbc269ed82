"""Seeded sampling from any copula model via conditional-distribution inversion."""

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .core import CopulaModel, _bisect, _require_int

# most points one conditional_inverse call of `sample_many` inverts: a
# batch amortizes the bisection's per-step numpy overhead over its draws.
# With branch-free steps the cost per point falls from 4096 to 8192 points on
# the closed-form families (by 10-20%; flat on a plugin-arch fit) and is
# higher at 32768 than at 8192 on every model (2 shared cores, numpy 2.4.6)
BATCH_POINTS = 8192


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


def batches(sizes: Sequence[int]) -> List[Tuple[int, int]]:
    """(start, stop) of the consecutive runs of `sizes` that `sample_many`
    inverts in one call each: each run holds at most BATCH_POINTS points, or
    one size alone that is larger."""
    out, start, points = [], 0, 0
    for i, n in enumerate(sizes):
        if i > start and points + n > BATCH_POINTS:
            out.append((start, i))
            start, points = i, 0
        points += n
    if start < len(sizes):
        out.append((start, len(sizes)))
    return out


def sample_many(c: CopulaModel, sizes: Sequence[int],
                rngs: Sequence[RngSpec]) -> List[SampleSet]:
    """Draw sizes[i] pairs with uniform margins from the copula `c` for rngs[i].

    Each spec draws its x and u from its own generator; the draws of each
    run of `batches(sizes)` are concatenated and inverted by one
    `conditional_inverse` call.  The inversion is elementwise, so each
    SampleSet has the bytes it has when drawn alone.
    """
    if len(sizes) != len(rngs):
        raise ValueError(f"{len(sizes)} sample sizes for {len(rngs)} generators")
    for n in sizes:
        _require_int(n, "sample size", 1)
    out = []
    for start, stop in batches(sizes):
        chunk = rngs[start:stop]
        draws = [(g.random(n), g.random(n))
                 for n, g in zip(sizes[start:stop], (r.generator() for r in chunk))]
        x, u = (np.concatenate(part) for part in zip(*draws))
        ys = np.split(conditional_inverse(c, x, u), np.cumsum(sizes[start:stop - 1]))
        out += [SampleSet(x=xr, y=yr, seed=r.seed, stream=r.stream)
                for r, (xr, _), yr in zip(chunk, draws, ys)]
    return out


def sample(c: CopulaModel, n: int, rng: RngSpec) -> SampleSet:
    """Draw n pairs with uniform margins from the copula `c`."""
    return sample_many(c, [n], [rng])[0]

