"""Replication-study runner: seeded Monte-Carlo comparison of r estimators."""

import functools
import hashlib
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .core import _require_int
from .estimation import ESTIMATORS, estimate
from .metrics import QuadratureSpec, r_measure
from .registry import make_copula
from .sampling import RngSpec, SampleSet, batches, sample_many


@dataclass(frozen=True)
class StudyConfig:
    copula_spec: str
    sizes: Sequence[int]
    replications: int
    estimators: Sequence[str]
    base_seed: int
    m: int = 256
    knots: Optional[Sequence[Tuple[float, float]]] = None

    def __post_init__(self):
        QuadratureSpec(m=self.m)  # rejects m < 8 before any replication runs
        _require_int(self.replications, "replication count", 1)
        if not self.estimators:
            raise ValueError("estimator list must be non-empty")
        for e in self.estimators:
            if e not in ESTIMATORS:
                raise ValueError(f"unknown estimator '{e}' (known: {', '.join(ESTIMATORS)})")
        if not self.sizes:
            raise ValueError("sample size list must be non-empty")
        for n in self.sizes:
            _require_int(n, "a sample size")
        if any(n < 10 for n in self.sizes):
            raise ValueError("sample sizes must be >= 10")
        # a repeated cell would run every replication twice under the same seeds
        for what, vals in (("sample sizes", self.sizes), ("estimators", self.estimators)):
            if len(set(vals)) < len(vals):
                raise ValueError(f"{what} must be distinct, got {list(vals)}")


@dataclass(frozen=True)
class StudyRecord:
    estimator: str
    n: int
    replication: int
    value: float
    seed: int
    wall_time: float


@dataclass(frozen=True)
class StudyResult:
    config: StudyConfig
    records: List[StudyRecord]
    true_r: float
    summary: dict = field(default_factory=dict)


def replication_seed(base_seed: int, estimator: str, n: int, rep: int) -> int:
    """Deterministic 64-bit per-replication seed, recorded for exact replay."""
    key = f"{base_seed}|{estimator}|{n}|{rep}".encode()
    return int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "big")


def _run_one(estimator: str, n: int, rep: int, seed: int, q: QuadratureSpec, s: SampleSet,
             draw_time: float) -> StudyRecord:
    """The record of one replication from its drawn sample `s`; `draw_time` is
    its share of the time that drew it, added to its own in `wall_time`."""
    t0 = time.perf_counter()
    value, _, _ = estimate(s, estimator, seed, q)
    return StudyRecord(
        estimator=estimator,
        n=n,
        replication=rep,
        value=float(value),
        seed=seed,
        wall_time=draw_time + time.perf_counter() - t0,
    )


def _run_chunk(cfg: StudyConfig, items) -> List[StudyRecord]:
    """The records of one chunk of consecutive items, [(estimator, n, replication,
    seed)], which may span cells: one model, one quadrature and one `sample_many`
    call, whose time each record's `draw_time` shares by n over the chunk's points."""
    c, q = make_copula(cfg.copula_spec, knots=cfg.knots), QuadratureSpec(m=cfg.m)
    sizes = [n for _, n, _, _ in items]
    t0 = time.perf_counter()
    samples = sample_many(c, sizes, [RngSpec(seed=seed, stream=0) for *_, seed in items])
    per_point = (time.perf_counter() - t0) / sum(sizes)
    return [_run_one(est, n, rep, seed, q, s, per_point * n)
            for (est, n, rep, seed), s in zip(items, samples)]


def run_study(cfg: StudyConfig, jobs: int = 1) -> StudyResult:
    """Run the full replication grid; record order is canonical regardless of jobs.

    The (estimator, n, replication) items, in the order of the config's
    lists, split into min(items, jobs) parts of near-equal counts, and each part into chunks
    of consecutive items of at most BATCH_POINTS sample points
    (`sampling.batches`), so that a chunk is one `conditional_inverse` call
    and may span cells; a process pool maps `_run_chunk` over the chunks,
    and each record's value comes from `estimation.estimate`.
    """
    _require_int(jobs, "worker count", 1)
    # first, so that a model the kernel check rejects fails before any replication
    true_r = r_measure(make_copula(cfg.copula_spec, knots=cfg.knots), QuadratureSpec(m=512))
    items = [(est, n, rep, replication_seed(cfg.base_seed, est, n, rep))
             for est in cfg.estimators for n in cfg.sizes for rep in range(cfg.replications)]
    # at least min(items, jobs) chunks, so that no worker of the pool idles
    parts = min(len(items), jobs)
    bounds = [len(items) * p // parts for p in range(parts + 1)]
    chunks = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        part = items[lo:hi]
        chunks += [part[start:stop] for start, stop in batches([n for _, n, _, _ in part])]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            done = list(pool.map(functools.partial(_run_chunk, cfg), chunks))
    else:
        done = [_run_chunk(cfg, chunk) for chunk in chunks]
    records = [r for part in done for r in part]
    records.sort(key=lambda r: (r.estimator, r.n, r.replication))
    summary = summarize(records, true_r)
    return StudyResult(config=cfg, records=records, true_r=true_r, summary=summary)


def summarize(records: Sequence[StudyRecord], true_r: float) -> dict:
    """Per-(estimator, n) quartiles, mean and RMSE against the true r."""
    cells = {}
    for r in records:
        cells.setdefault((r.estimator, r.n), []).append(r.value)
    out = {}
    for (est, n), vals in sorted(cells.items()):
        v = np.asarray(vals)
        out[f"{est}|n={n}"] = {
            "count": int(len(v)),
            "q25": float(np.quantile(v, 0.25)),
            "median": float(np.median(v)),
            "q75": float(np.quantile(v, 0.75)),
            "mean": float(np.mean(v)),
            "rmse": float(np.sqrt(np.mean((v - true_r) ** 2))),
        }
    return out
