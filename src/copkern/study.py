"""Replication-study runner: seeded Monte-Carlo comparison of r estimators."""

import hashlib
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .estimation import chatterjee_r, plugin_zeta1_r, pseudo_obs
from .metrics import QuadratureSpec, r_measure
from .registry import make_copula
from .sampling import RngSpec, SampleSet, batch_size, sample_many

# plugin estimator -> the structural assumption its model is fitted under
PLUGINS = {"plugin-arch": "archimedean", "plugin-ev": "extreme-value"}
ESTIMATORS = ("chatterjee", *PLUGINS)


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
        if self.replications < 1:
            raise ValueError("replication count must be >= 1")
        if not self.estimators:
            raise ValueError("estimator list must be non-empty")
        for e in self.estimators:
            if e not in ESTIMATORS:
                raise ValueError(f"unknown estimator '{e}' (known: {', '.join(ESTIMATORS)})")
        if not self.sizes:
            raise ValueError("sample size list must be non-empty")
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


def _run_one(estimator: str, n: int, rep: int, seed: int, m: int, s: SampleSet,
             draw_time: float) -> StudyRecord:
    """The record of one replication from its drawn sample `s`; `draw_time` is
    its share of the time that drew it, added to its own in `wall_time`."""
    t0 = time.perf_counter()
    if estimator == "chatterjee":
        value = chatterjee_r(s, np.random.default_rng(seed))
    else:
        _, value, _ = plugin_zeta1_r(pseudo_obs(s), PLUGINS[estimator], QuadratureSpec(m=m))
    return StudyRecord(
        estimator=estimator,
        n=n,
        replication=rep,
        value=float(value),
        seed=seed,
        wall_time=draw_time + time.perf_counter() - t0,
    )


def _run_chunk(args) -> List[StudyRecord]:
    """The records of one chunk of an (estimator, n) cell: its samples come
    from one `sample_many` call, and each then goes through `_run_one`."""
    spec, knots, estimator, n, m, reps = args      # reps: [(replication, seed)]
    c = make_copula(spec, knots=knots)
    t0 = time.perf_counter()
    samples = sample_many(c, n, [RngSpec(seed=seed, stream=0) for _, seed in reps])
    draw_time = (time.perf_counter() - t0) / len(reps)
    return [_run_one(estimator, n, rep, seed, m, s, draw_time)
            for (rep, seed), s in zip(reps, samples)]


def run_study(cfg: StudyConfig, jobs: int = 1) -> StudyResult:
    """Run the full replication grid; record order is canonical regardless of jobs.

    Each (estimator, n) cell runs in chunks of at most `batch_size(n)`
    replications, one `sample_many` draw per chunk; a process pool maps over
    the chunks, and a cell has at least as many chunks as workers where its
    replications allow it.
    """
    if jobs < 1:
        raise ValueError(f"worker count must be >= 1, got {jobs}")
    # first, so that a model the kernel check rejects fails before any replication
    true_r = r_measure(make_copula(cfg.copula_spec, knots=cfg.knots), QuadratureSpec(m=512))
    chunks = []
    for est in cfg.estimators:
        for n in cfg.sizes:
            reps = [(rep, replication_seed(cfg.base_seed, est, n, rep))
                    for rep in range(cfg.replications)]
            # a cell of R replications splits into at least min(R, jobs) chunks,
            # so that no worker of the pool idles on a small cell
            k = min(batch_size(n), -(-cfg.replications // jobs))
            chunks += [(cfg.copula_spec, cfg.knots, est, n, cfg.m, reps[i:i + k])
                       for i in range(0, len(reps), k)]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(_run_chunk, chunks))
    else:
        parts = [_run_chunk(chunk) for chunk in chunks]
    records = [r for part in parts for r in part]
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
