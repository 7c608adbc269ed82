"""In-memory span tracer installed around copkern's public functions.

Each traced function is replaced by a recording wrapper at every ``copkern.*``
module attribute bound to that function object, because modules import each
other's functions under their own names (``estimation``, ``cli`` and
``study`` all hold ``zeta1`` or ``plugin_zeta1_r``).  ``uninstall`` restores
the originals.  No file of the library changes.

A span records its name, start, end, parent and item id.  A root span, or a
span marked as an item boundary, starts a new item.  Self time is a span's
duration minus the durations of its direct children.
"""

import sys
import time
from contextlib import contextmanager

import numpy as np

# Counters see a call's arguments and return the facts `layer_stats`
# aggregates: "key" (input identity for useful ratios), sizes, and "detail",
# which splits the per-call report by input size or model.


def _grid_facts(args, kwargs):
    c = args[0]
    q = args[1] if len(args) > 1 else kwargs.get("q")
    m = q.m if q is not None else 512
    return {"key": (c.label, m), "points": m * m, "detail": f"m={m}"}


def _n_detail(args, kwargs):
    return {"detail": f"n={args[0].n}"}


def _dominance_facts(args, kwargs):
    return {"pairs": len(args[0]) ** 2, "detail": f"n={len(args[0])}"}


def _kendall_facts(args, kwargs):
    # keep the argument itself: its id is then unique among live objects
    return {"key": args[0], "detail": f"n={args[0].n}"}


def _generator_detail(args, kwargs):
    return {"detail": f"n={len(args[0].w_values)}"}


def _cfg_facts(args, kwargs):
    t_grid = args[1] if len(args) > 1 else kwargs.get("t_grid", 1000)
    return {"key": args[0], "bytes": args[0].n * (t_grid + 1) * 8,
            "detail": f"n={args[0].n}"}


def _sample_detail(args, kwargs):
    return {"detail": f"{args[0].label} n={args[1]}"}


def _plugin_detail(args, kwargs):
    return {"detail": f"{args[1]} n={args[0].n}"}


def _points(args, kwargs):
    return {"points": int(np.broadcast(np.asarray(args[0]), np.asarray(args[1])).size)}


# (module, attribute, span name, counter)
TARGETS = (
    ("metrics", "kernel_grid", "metrics.kernel_grid", _grid_facts),
    ("metrics", "zeta1", "metrics.zeta1", None),
    ("metrics", "r_measure", "metrics.r_measure", None),
    ("metrics", "r_identity_residual", "metrics.r_identity_residual", None),
    ("metrics", "d1", "metrics.d1", None),
    ("metrics", "d_inf", "metrics.d_inf", None),
    ("metrics", "wcc_profile", "metrics.wcc_profile", None),
    ("_accel", "levy_distance", "accel.levy_distance", None),
    ("_accel", "_levy_check", "accel.levy_check", None),
    ("_accel", "dominance_counts", "accel.dominance_counts", _dominance_facts),
    ("core", "checkerboard_approx", "core.checkerboard_approx", None),
    ("core", "checkerboard_copula", "core.checkerboard_copula", None),
    ("sampling", "sample", "sampling.sample", _sample_detail),
    ("estimation", "pseudo_obs", "estimation.pseudo_obs", _n_detail),
    ("estimation", "empirical_kendall", "estimation.empirical_kendall", _kendall_facts),
    ("estimation", "reconstruct_generator", "estimation.reconstruct_generator",
     _generator_detail),
    ("estimation", "cfg_estimator", "estimation.cfg_estimator", _cfg_facts),
    ("estimation", "convexify_pickands", "estimation.convexify_pickands", None),
    ("estimation", "chatterjee_r", "estimation.chatterjee_r", _n_detail),
    ("estimation", "plugin_zeta1_r", "estimation.plugin_zeta1_r", _plugin_detail),
    ("registry", "make_copula", "registry.make_copula", None),
    ("study", "run_study", "study.run_study", None),
    ("cli", "main", "cli", None),
)

# private per-replication worker of run_study: traced as the item boundary
ITEM_TARGETS = (("study", "_run_one", "study.replication"),)

# model factories whose returned models get a traced kernel_cdf
MODEL_FACTORIES = (
    ("archimedean", "archimedean_copula", "archimedean.kernel_cdf"),
    ("extreme_value", "ev_copula", "extreme_value.kernel_cdf"),
)

SPAN_NAMES = tuple(t[2] for t in TARGETS + ITEM_TARGETS) + tuple(
    t[2] for t in MODEL_FACTORIES
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "item", "failed", "facts")

    def __init__(self, name, parent, item):
        self.name = name
        self.parent = parent
        self.item = item
        self.start = self.end = 0
        self.failed = False
        self.facts = None


class Tracer:
    def __init__(self):
        self.active = False
        self.spans = []
        self.models = []          # (creating span name, model), for health checks
        self._stack = []
        self._items = 0
        self._patches = []
        self.missing = []

    # -- recording ---------------------------------------------------------

    def _open(self, name, boundary):
        parent = self._stack[-1] if self._stack else None
        if boundary or parent is None:
            self._items += 1
            item = self._items
        else:
            item = parent.item
        span = Span(name, parent, item)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter_ns()
        return span

    def _close(self, span, failed):
        span.end = time.perf_counter_ns()
        span.failed = failed
        self._stack.pop()

    def call(self, name, fn, args, kwargs, counter=None, boundary=False):
        span = self._open(name, boundary)
        failed = True
        try:
            result = fn(*args, **kwargs)
            failed = name == "cli" and result != 0   # main returns an exit code
            return result
        finally:
            self._close(span, failed)
            if counter is not None:
                span.facts = counter(args, kwargs)

    @contextmanager
    def span(self, name):
        """Benchmark-side span that starts an item; a no-op while inactive."""
        if not self.active:
            yield
            return
        span = self._open(name, True)
        failed = True
        try:
            yield
            failed = False
        finally:
            self._close(span, failed)

    def wrap(self, name, fn, counter=None, boundary=False):
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            return self.call(name, fn, args, kwargs, counter, boundary)

        traced.__wrapped__ = fn
        return traced

    def _wrap_factory(self, span_name, factory):
        def traced_factory(*args, **kwargs):
            model = factory(*args, **kwargs)
            if self.active:
                object.__setattr__(
                    model, "kernel_cdf", self.wrap(span_name, model.kernel_cdf, _points)
                )
                creator = self._stack[-1].name if self._stack else None
                self.models.append((creator, model))
            return model

        traced_factory.__wrapped__ = factory
        return traced_factory

    # -- installation ------------------------------------------------------

    def install(self):
        """Patch every target.  A target the library no longer has is listed
        in `missing`; the traced run then fails its checks, because the
        layer would read 0 instead of its cost."""
        mods = [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == "copkern" or n.startswith("copkern."))]
        self.missing = []
        wrappers = []
        for mod, attr, name, counter in TARGETS:
            if (fn := self._lookup(mod, attr)) is not None:
                wrappers.append((fn, self.wrap(name, fn, counter)))
        for mod, attr, name in ITEM_TARGETS:
            if (fn := self._lookup(mod, attr)) is not None:
                wrappers.append((fn, self.wrap(name, fn, boundary=True)))
        for mod, attr, name in MODEL_FACTORIES:
            if (fn := self._lookup(mod, attr)) is not None:
                wrappers.append((fn, self._wrap_factory(name, fn)))
        for fn, traced in wrappers:
            for m in mods:
                for attr, val in list(vars(m).items()):
                    if val is fn:
                        self._patches.append((m, attr, fn))
                        setattr(m, attr, traced)
        self.active = True

    def _lookup(self, mod, attr):
        fn = getattr(sys.modules.get("copkern." + mod), attr, None)
        if fn is None:
            self.missing.append(f"copkern.{mod}.{attr}")
        return fn

    def uninstall(self):
        self.active = False
        for m, attr, fn in reversed(self._patches):
            setattr(m, attr, fn)
        self._patches.clear()

    def reset(self):
        self.spans = []
        self.models = []
        self._stack = []


def self_times(spans):
    """Self time in ns of every span; raises if any comes out negative."""
    child = {}
    for s in spans:
        if s.parent is not None:
            child[id(s.parent)] = child.get(id(s.parent), 0) + (s.end - s.start)
    out = []
    for s in spans:
        t = (s.end - s.start) - child.get(id(s), 0)
        if t < 0:
            raise ValueError(f"negative self time {t} ns in span {s.name}")
        out.append(t)
    return out


def _useful_ratio(spans, name, key_of):
    """Distinct inputs per item divided by calls (1.0 when there were none)."""
    keys = {}
    calls = 0
    for s in spans:
        if s.name == name and s.facts is not None:
            calls += 1
            keys.setdefault(s.item, set()).add(key_of(s.facts["key"]))
    useful = sum(len(v) for v in keys.values())
    return useful / calls if calls else 1.0


def layer_stats(spans):
    """Per-layer counts and times of one traced pass.

    A layer's time is reported as its self time's share of the pass (the
    summed duration of root spans); a layer a workload never calls reads 0.
    Returns the per-layer metrics and a per-call table in ms keyed by span
    name, split by the counter's "detail" (input size or model) if it has one.
    """
    selfs = self_times(spans)
    total_ns = sum(s.end - s.start for s in spans if s.parent is None)
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = out[f"{name}.self_share"] = out[f"{name}.failed"] = 0
    for k in ("metrics.kernel_grid.points", "accel.dominance_counts.pairs",
              "estimation.cfg_estimator.bytes", "archimedean.kernel_cdf.points",
              "extreme_value.kernel_cdf.points", "sampling.sample.kernel_points"):
        out[k] = 0
    per_call = {}
    outside_items_ns = 0        # in run_study, outside its replications
    for s, t in zip(spans, selfs):
        if s.name not in SPAN_NAMES:
            continue
        if s.name == "study.run_study":
            outside_items_ns += s.end - s.start
        elif s.name == "study.replication" and s.parent is not None \
                and s.parent.name == "study.run_study":
            outside_items_ns -= s.end - s.start
        out[f"{s.name}.calls"] += 1
        out[f"{s.name}.self_share"] += t / total_ns
        out[f"{s.name}.failed"] += s.failed
        facts = s.facts or {}
        for k in ("points", "pairs", "bytes"):
            if k in facts:
                out[f"{s.name}.{k}"] += facts[k]
        if s.name.endswith(".kernel_cdf") and s.parent is not None \
                and s.parent.name == "sampling.sample":
            out["sampling.sample.kernel_points"] += facts["points"]
        key = f"{s.name}[{facts['detail']}]" if "detail" in facts else s.name
        row = per_call.setdefault(key, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += (s.end - s.start) / 1e6
        row[2] += t / 1e6
    # run_study's own work: true_r and the summary
    out["study.run_study.outside_items_share"] = (
        outside_items_ns / total_ns if total_ns else 0.0)
    out["metrics.kernel_grid.useful_ratio"] = _useful_ratio(
        spans, "metrics.kernel_grid", lambda k: k)
    out["estimation.empirical_kendall.useful_ratio"] = _useful_ratio(
        spans, "estimation.empirical_kendall", id)
    out["estimation.cfg_estimator.useful_ratio"] = _useful_ratio(
        spans, "estimation.cfg_estimator", id)
    table = {k: {"calls": c, "incl_ms_per_call": incl / c, "self_ms_per_call": own / c}
             for k, (c, incl, own) in sorted(per_call.items())}
    return out, table
