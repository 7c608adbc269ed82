"""The three benchmark workloads and the checks on their outputs.

Every workload runs in one process, one client, closed loop: the next item
starts when the previous one has returned.  A workload is a sequence of
passes; pass `k` is a fixed list of items derived from the benchmark seed and
`k` only, so pass 0 always yields the same outputs (and digest) for a seed.
`r_rmse` covers passes 0 .. `rmse_passes` - 1, whether or not they fall
inside the timed loop, so it is fixed for a seed.

An item fails when it raises, exits non-zero, returns a non-finite value or
fails its output check; failures are counted, never raised.
"""

import csv
import hashlib
import json
import math
import os
import time
from contextlib import contextmanager

import numpy as np

import copkern
import copkern.cli
import copkern.study
from copkern.metrics import QuadratureSpec
from copkern.study import StudyConfig, replication_seed


def derive_seed(seed, *parts):
    """31-bit seed determined by the benchmark seed and a tag path."""
    key = "|".join(str(p) for p in (seed,) + parts).encode()
    return int.from_bytes(hashlib.blake2b(key, digest_size=4).digest(), "big") >> 1


class ItemResult:
    __slots__ = ("latency_s", "error", "r_est", "r_true", "outside_copula_range")

    def __init__(self, latency_s, error=None, r_est=None, r_true=None,
                 outside_copula_range=False):
        self.latency_s = latency_s
        self.error = error
        self.r_est = r_est
        self.r_true = r_true
        self.outside_copula_range = outside_copula_range


class PassResult:
    def __init__(self):
        self.items = []
        self.busy_s = 0.0
        self.segments = []        # (busy seconds, item count) of each closed segment
        self.digest = hashlib.sha256()

    def close_segment(self):
        """Close the items and busy time since the previous segment."""
        busy = sum(b for b, _ in self.segments)
        count = sum(n for _, n in self.segments)
        self.segments.append((self.busy_s - busy, len(self.items) - count))


def _finite(*vals):
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in vals)


def copula_r_range(m):
    """Interval of r(C) = 6*mean(K^2) - 2 on the m-point midpoint grid for a copula.

    The midpoint rule's O(1/m) error lets r reach 1 + 3/m for the Frechet
    bounds, and Pi gives about -2e-6, so a bound of r <= 1 would wrongly fail.
    """
    return -3.0 / m, 1.0 + 3.0 / m


def r_range(estimator, m):
    """Closed interval an r estimate can take.

    Chatterjee's coefficient lies in (-1/2, 1].  A plugin estimate is
    6*mean(K^2) - 2 of a model kernel clipped to [0, 1], so it lies in
    [-2, 4]; it stays in `copula_r_range` only when the reconstructed model is
    a copula, which the Archimedean reconstruction does not guarantee.
    Closed-form models (`measure`) must stay in `copula_r_range`.
    """
    if estimator == "chatterjee":
        return -0.5, 1.0
    if estimator.startswith("plugin"):
        return -2.0, 4.0
    return copula_r_range(m)


def check_r(value, estimator, m):
    """None when `value` is a valid r estimate, else the reason it is not."""
    if not _finite(value):
        return f"non-finite r {value!r}"
    lo, hi = r_range(estimator, m)
    if not lo <= value <= hi:
        return f"r={value!r} outside [{lo}, {hi}]"
    return None


def implausible_plugin(value, estimator, m):
    """True for a valid plugin estimate that no copula could have."""
    lo, hi = copula_r_range(m)
    return estimator.startswith("plugin") and _finite(value) and not lo <= value <= hi


# -- study-small-n -----------------------------------------------------------

class StudySmallN:
    """run_study(jobs=1) at m=256, n in {50, 100}; item = one StudyRecord."""

    name = "study-small-n"
    tail_pct = 95
    rmse_passes = 3
    # (copula, estimator, replications per n and pass), one run_study call each.
    # Every call also computes true_r (r_measure at m=512, about 130 ms), so
    # tens of replications per cell keep that fixed cost a small share, as in
    # criterion 08's 500-replication calls.  A Chatterjee record takes ~6 ms, a
    # plugin-ev record ~30 ms and a plugin-arch record ~60 ms; 4:6 replications
    # put the median record inside the plugin-ev group, away from the boundary
    # between two groups.
    CALLS = (("gumbel:3", "chatterjee", 20), ("gumbel:3", "plugin-arch", 30),
             ("galambos:3", "chatterjee", 20), ("galambos:3", "plugin-ev", 30))
    SPECS = ("gumbel:3", "galambos:3")
    SIZES = (50, 100)
    M = 256

    def __init__(self, seed, tracer):
        self.seed = seed
        self.tracer = tracer
        self.checkpoint = lambda: None    # runs between segments of a pass
        self.last_records = {}

    def params(self):
        return {"run_study_calls_per_pass": [list(c) for c in self.CALLS],
                "sizes": list(self.SIZES), "m": self.M, "jobs": 1}

    def setup(self):
        q = QuadratureSpec(m=512)
        self.true_r = {s: copkern.r_measure(copkern.make_copula(s), q) for s in self.SPECS}
        for spec, est, _ in self.CALLS:
            copkern.study.run_study(self._config(spec, est, "warm-up", 1), jobs=1)

    def _config(self, spec, est, tag, replications):
        return StudyConfig(copula_spec=spec, sizes=self.SIZES, replications=replications,
                           estimators=(est,),
                           base_seed=derive_seed(self.seed, "study", tag, spec, est),
                           m=self.M)

    def run_pass(self, k):
        """One segment per run_study call."""
        out = PassResult()
        for spec, est, reps in self.CALLS:
            self._run_call(out, self._config(spec, est, k, reps), len(self.SIZES) * reps)
            out.close_segment()
            self.checkpoint()
        return out

    def _run_call(self, out, cfg, expected):
        t0 = time.perf_counter()
        try:
            res = copkern.study.run_study(cfg, jobs=1)
        except Exception as exc:          # counted as failed items
            out.busy_s += time.perf_counter() - t0
            out.items += [ItemResult(math.nan, f"run_study raised {exc!r}")] * expected
            return
        out.busy_s += time.perf_counter() - t0
        self.last_records[cfg.copula_spec, cfg.estimators[0]] = (cfg, res.records)
        out.items += self.check_records(cfg, res, expected)
        for r in res.records:
            out.digest.update(f"{cfg.copula_spec}|{r.estimator}|{r.n}|{r.replication}|"
                              f"{r.value!r}|{r.seed}\n".encode())

    def check_records(self, cfg, res, expected):
        call_error = None
        if len(res.records) != expected:
            call_error = f"{len(res.records)} records, expected {expected}"
        elif res.true_r != self.true_r[cfg.copula_spec]:
            call_error = f"true_r {res.true_r!r} != r_measure at m=512"
        items = []
        for rec in res.records:
            error = call_error or check_r(rec.value, rec.estimator, cfg.m)
            if error is None and rec.seed != replication_seed(
                    cfg.base_seed, rec.estimator, rec.n, rec.replication):
                error = "record seed is not replication_seed(...)"
            if error is None and not (_finite(rec.wall_time) and rec.wall_time > 0):
                error = f"bad wall_time {rec.wall_time!r}"
            items.append(ItemResult(
                rec.wall_time, error, rec.value, self.true_r[cfg.copula_spec],
                error is None and implausible_plugin(rec.value, rec.estimator, cfg.m)))
        return items

    def replay(self, per_call=2):
        """Replay sampled records of the last pass through the public functions.

        Returns the list of mismatches; the values must agree bit for bit.
        """
        rng = np.random.default_rng(derive_seed(self.seed, "replay"))
        bad = []
        for (spec, _), (cfg, records) in sorted(self.last_records.items()):
            for i in sorted(rng.choice(len(records), size=per_call, replace=False)):
                rec = records[i]
                s = copkern.sample(copkern.make_copula(spec), rec.n,
                                   copkern.RngSpec(seed=rec.seed, stream=0))
                if rec.estimator == "chatterjee":
                    v = copkern.chatterjee_r(s, np.random.default_rng(rec.seed))
                else:
                    which = "archimedean" if rec.estimator == "plugin-arch" else "extreme-value"
                    v = copkern.plugin_zeta1_r(copkern.pseudo_obs(s), which,
                                               QuadratureSpec(m=cfg.m))[1]
                if np.float64(v).tobytes() != np.float64(rec.value).tobytes():
                    bad.append(f"{spec} {rec.estimator} n={rec.n} rep={rec.replication}: "
                               f"replayed {v!r} != recorded {rec.value!r}")
        return bad


# -- CLI-driven workloads ----------------------------------------------------

def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _csv_rows(data):
    rows = list(csv.reader(data.decode().splitlines()))
    return rows[0], rows[1:]


class _CliWorkload:
    """Items are in-process `copkern.cli.main` calls, each timed from outside.

    Output files are written to the current directory, so their bytes (and the
    paths recorded inside them) depend only on the seed.
    """

    def __init__(self, seed, tracer):
        self.seed = seed
        self.tracer = tracer
        self.checkpoint = lambda: None    # runs after each pass, its one segment

    OUTPUTS = ("sample.csv", "estimate.json", "out.json", "out.csv")

    def _run(self, argvs):
        """Run the CLI commands of one item; returns (latency, error)."""
        for name in self.OUTPUTS:            # a check must never see stale output
            if os.path.exists(name):
                os.remove(name)
        t0 = time.perf_counter()
        try:
            with self.tracer.span("bench.item"):
                for argv in argvs:
                    code = copkern.cli.main(argv)
                    if code != 0:
                        return time.perf_counter() - t0, f"{argv[0]} exited {code}"
        except Exception as exc:
            return time.perf_counter() - t0, f"cli raised {exc!r}"
        return time.perf_counter() - t0, None

    def run_pass(self, k):
        out = PassResult()
        for item in self.items_of_pass(k):
            latency, error = self._run(item["argv"])
            out.busy_s += latency
            r_est = r_true = None
            if error is None:
                try:
                    error, r_est, r_true, blobs = self.check(item)
                except Exception as exc:      # unreadable output is a failed item
                    error, blobs = f"output check raised {exc!r}", []
                for blob in blobs:
                    out.digest.update(blob)
            out.items.append(ItemResult(
                latency, error, r_est, r_true, error is None and implausible_plugin(
                    r_est, item.get("mode", ""), self.M)))
        out.close_segment()
        self.checkpoint()
        return out


class EstimateLargeN(_CliWorkload):
    """`sample --n 10000` into a CSV, then `estimate --m 256`; item = the pair."""

    name = "estimate-large-n"
    tail_pct = 75
    rmse_passes = 15
    N = 10_000
    M = 256
    CYCLE = (("gumbel:3", "chatterjee"), ("gumbel:3", "plugin-arch"),
             ("galambos:3", "plugin-ev"))

    def params(self):
        return {"n": self.N, "m": self.M, "cycle": [list(c) for c in self.CYCLE]}

    def setup(self):
        q = QuadratureSpec(m=512)
        self.true_r = {s: copkern.r_measure(copkern.make_copula(s), q)
                       for s in sorted({s for s, _ in self.CYCLE})}
        # every command path once, on small samples
        for item in self.items_of_pass("warm-up", n=1000):
            self._run(item["argv"])

    def items_of_pass(self, k, n=N):
        items = []
        for j, (spec, mode) in enumerate(self.CYCLE):
            s = str(derive_seed(self.seed, "estimate", k, j))
            items.append({"spec": spec, "mode": mode, "argv": [
                ["sample", "--copula", spec, "--n", str(n), "--seed", s,
                 "--out", "sample.csv"],
                ["estimate", "sample.csv", "--mode", mode, "--m", str(self.M),
                 "--seed", s, "--out", "estimate.json"]]})
        return items

    def check(self, item):
        sample_bytes, est_bytes = _read("sample.csv"), _read("estimate.json")
        blobs = [sample_bytes, est_bytes]
        header, rows = _csv_rows(sample_bytes)
        xy = np.array(rows, dtype=float)
        if header != ["x", "y"] or xy.shape != (self.N, 2):
            return f"sample CSV has header {header} and shape {xy.shape}", None, None, blobs
        if not (np.all(np.isfinite(xy)) and np.all((xy >= 0) & (xy <= 1))):
            return "sample values outside [0, 1]", None, None, blobs
        rep = json.loads(est_bytes)
        r_true = self.true_r[item["spec"]]
        if rep.get("mode") != item["mode"] or rep.get("n") != self.N:
            return f"estimate reports mode={rep.get('mode')} n={rep.get('n')}", None, None, blobs
        r = rep.get("r")
        error = check_r(r, item["mode"], self.M)
        if error is None and item["mode"] != "chatterjee":
            error = self._check_plugin(rep)
        return error, r, r_true, blobs

    def _check_plugin(self, rep):
        z = rep.get("zeta1")
        if not (_finite(z) and 0.0 <= z <= 1.0 + 3.0 / self.M):
            return f"zeta1={z!r} outside [0, 1 + 3/m]"
        if "kendall_table" in rep:
            t, f = (np.asarray(rep["kendall_table"][c], float) for c in ("t", "f"))
            if not (np.all(np.diff(f) >= 0) and np.all(f >= t - 1e-12)
                    and np.all((f >= 0) & (f <= 1))):
                return "kendall_table is not a valid Kendall function"
        else:
            t, a = (np.asarray(rep["pickands_table"][c], float) for c in ("t", "a"))
            if not np.all((a >= np.maximum(t, 1 - t) - 1e-12) & (a <= 1 + 1e-12)):
                return "pickands_table leaves [max(t, 1-t), 1]"
        return None


class MeasureSweep(_CliWorkload):
    """`measure`, `converge` and `approximate` commands; item = one command."""

    name = "measure-sweep"
    tail_pct = 80
    rmse_passes = 1         # measure's r does not depend on the seed or the pass
    M = 512
    # registered_examples() at the commit that defined this benchmark
    MEASURED = ("pi", "m", "w", "clayton:2", "gumbel:3", "frank:5", "galambos:3",
                "gumbel-ev:2.5", "marshall-olkin:0.5:0.7")
    # r_measure at m=2048 of each measured family: the reference that r_rmse
    # compares `measure --m 512` against, i.e. the quadrature self-check
    R_REFERENCE = {
        "pi": -1.1920928955078125e-07,
        "m": 1.00146484375,
        "w": 1.00146484375,
        "clayton:2": 0.3342914133355599,
        "gumbel:3": 0.5197961752196378,
        "frank:5": 0.26371909164512664,
        "galambos:3": 0.6062641351515139,
        "gumbel-ev:2.5": 0.43391795160929547,
        "marshall-olkin:0.5:0.7": 0.2333234261032482,
    }
    CONVERGE = ("clayton:3", "galambos:3")
    APPROXIMATE = ("clayton:2", "strip:5")

    def params(self):
        return {"measure_m": self.M, "measured": list(self.MEASURED),
                "converge": list(self.CONVERGE), "approximate": list(self.APPROXIMATE),
                "order": "permuted per pass from the seed"}

    def setup(self):
        # the first item of each command kind, the same for every seed
        items = self._items()
        for cmd in ("measure", "converge", "approximate"):
            self._run(next(i for i in items if i["cmd"] == cmd)["argv"])

    def items_of_pass(self, k):
        items = self._items()
        order = np.random.default_rng(derive_seed(self.seed, "measure", k)).permutation(
            len(items))
        return [items[i] for i in order]

    def _items(self):
        items = [{"cmd": "measure", "spec": s, "argv": [
            ["measure", "--copula", s, "--m", str(self.M), "--out", "out.json"]]}
            for s in self.MEASURED]
        items += [{"cmd": "converge", "spec": s,
                   "argv": [["converge", "--copula", s, "--out", "out.csv"]]}
                  for s in self.CONVERGE]
        items += [{"cmd": "approximate", "spec": s,
                   "argv": [["approximate", "--copula", s, "--out", "out.csv"]]}
                  for s in self.APPROXIMATE]
        return items

    def check(self, item):
        if item["cmd"] == "measure":
            return self._check_measure(item)
        data = _read("out.csv")
        header, rows = _csv_rows(data)
        vals = np.array([[float(c) for c in row] for row in rows])
        if not np.all(np.isfinite(vals)) or np.any(vals < 0):
            return "non-finite or negative value", None, None, [data]
        col = {h: vals[:, i] for i, h in enumerate(header)}
        if item["cmd"] == "converge":
            if list(col["k"]) != [1, 2, 4, 8, 16, 32, 64]:
                return f"converge rows k={list(col['k'])}", None, None, [data]
            for name in ("d_inf", "d1"):
                if np.any(np.diff(col[name]) > 0):
                    return f"{name} increases in k", None, None, [data]
        else:
            if list(col["resolution"]) != [8, 16, 32, 64, 128, 256]:
                return f"approximate rows {list(col['resolution'])}", None, None, [data]
            if np.any(vals[:, 1:] > 1):
                return "Levy distance above 1", None, None, [data]
            if item["spec"].startswith("strip:") and np.any(col["wcc_max"] < 0.25):
                return "strip fixture wcc_max fell below 0.25", None, None, [data]
        return None, None, None, [data]

    def _check_measure(self, item):
        data = _read("out.json")
        rep = json.loads(data)
        keys = {"copula", "m", "zeta1", "r", "d1_to_pi", "d_inf_to_pi"}
        if set(rep) != keys or rep["m"] != self.M:
            return f"measure keys {sorted(rep)} m={rep.get('m')}", None, None, [data]
        z, r, d1, dinf = rep["zeta1"], rep["r"], rep["d1_to_pi"], rep["d_inf_to_pi"]
        if not _finite(z, r, d1, dinf):
            return "non-finite measure", None, None, [data]
        tol = 3.0 / self.M
        error = check_r(r, "measure", self.M)
        if error is None and not 0.0 <= z <= 1.0 + tol:
            error = f"zeta1={z!r} outside [0, 1 + 3/m]"
        if error is None and not math.isclose(z, 3.0 * d1, rel_tol=1e-12, abs_tol=1e-15):
            error = f"zeta1={z!r} != 3 * d1_to_pi={d1!r}"
        if error is None and not 0.0 <= dinf <= 0.25:
            error = f"d_inf_to_pi={dinf!r} outside [0, 1/4]"
        return error, r, self.R_REFERENCE[item["spec"]], [data]


WORKLOADS = {w.name: w for w in (StudySmallN, EstimateLargeN, MeasureSweep)}


@contextmanager
def scratch_dir(root):
    """Per-process working directory inside the checkout, removed on exit."""
    path = os.path.join(root, ".perfbench_tmp", str(os.getpid()))
    os.makedirs(path, exist_ok=True)
    old = os.getcwd()
    os.chdir(path)
    try:
        yield path
    finally:
        os.chdir(old)
        for name in os.listdir(path):
            os.remove(os.path.join(path, name))
        os.rmdir(path)
        try:
            os.rmdir(os.path.dirname(path))
        except OSError:
            pass                      # another run still uses it
