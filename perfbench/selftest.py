"""Self-test of the benchmark's own checks.

    python3 perfbench/selftest.py

Exits non-zero unless the result validator rejects a missing metric, the
tracer rejects a negative self time and restores every patched binding, a
traced run fails when a traced function is missing from the library, and a
study item whose r is replaced by NaN is counted in the failed ratio.
"""

import argparse
import dataclasses
import math
import os
import sys
import time

import run

sys.path.insert(0, os.path.join(run.ROOT, "src"))

import copkern  # noqa: E402
import copkern.metrics  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402

FAILURES = []


def expect(cond, what):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        FAILURES.append(what)


def raises(fn, exc=ValueError):
    try:
        fn()
    except exc:
        return True
    return False


def check_validator():
    spec = run.load_spec()
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = {"correct": True, "attempted": 1, "failed": 0, "metrics": {
            m["name"]: {"value": 1.0, "unit": m["unit"]} for m in spec[key]}}
        expect(not raises(lambda: run.validate_result(result, spec, trace)),
               f"validator accepts a complete {key} result")
        dropped = spec[key][0]["name"]
        del result["metrics"][dropped]
        expect(raises(lambda: run.validate_result(result, spec, trace)),
               f"validator rejects {key} metrics without {dropped}")


def check_tracer():
    parent = tr.Span("outer", None, 1)
    parent.start, parent.end = 0, 100
    child = tr.Span("inner", parent, 1)
    child.start, child.end = 10, 150
    expect(raises(lambda: tr.self_times([parent, child])),
           "self_times rejects a child longer than its parent")

    t = tr.Tracer()
    original = copkern.metrics.kernel_grid
    t.install()
    try:
        expect(copkern.metrics.kernel_grid is not original
               and copkern.zeta1 is copkern.metrics.zeta1
               and copkern.estimation.zeta1 is copkern.metrics.zeta1,
               "install wraps every binding of a traced function")
        copkern.zeta1(copkern.make_copula("gumbel:3"), copkern.QuadratureSpec(m=16))
    finally:
        t.uninstall()
    expect(copkern.metrics.kernel_grid is original
           and copkern.estimation.zeta1.__name__ == "zeta1",
           "uninstall restores the original functions")
    stats, _ = tr.layer_stats(t.spans)
    expect(stats["metrics.kernel_grid.calls"] == 2 and stats["metrics.d1.calls"] == 1
           and stats["archimedean.kernel_cdf.calls"] == 1
           and stats["metrics.kernel_grid.useful_ratio"] == 1.0,
           "zeta1 traces one d1, two grids and one model kernel call")
    expect(all(v >= 0 for v in tr.self_times(t.spans)), "traced self times are >= 0")


class TinyWorkload:
    """One zeta1 call at m=16 per pass, to drive `run.run_traced`."""

    def __init__(self):
        self.tracer = tr.Tracer()

    def run_pass(self, k):
        out = workloads.PassResult()
        t0 = time.perf_counter()
        copkern.zeta1(copkern.make_copula("gumbel:3"), copkern.QuadratureSpec(m=16))
        out.busy_s = time.perf_counter() - t0
        out.items.append(workloads.ItemResult(out.busy_s))
        return out


def check_missing_target():
    args = argparse.Namespace(seconds=0)
    ok = run.run_traced(TinyWorkload(), args)[-1]
    expect(ok, "a traced run over existing functions passes its checks")
    saved = tr.TARGETS
    tr.TARGETS = saved + (("metrics", "no_such_function", "metrics.none", None),)
    try:
        *_, report, ok = run.run_traced(TinyWorkload(), args)
    finally:
        tr.TARGETS = saved
    expect(not ok and any("copkern.metrics.no_such_function" in c
                          for c in report["check_failures"]),
           "a traced function missing from the library fails the traced run")


def check_nan_counted():
    wl = workloads.StudySmallN(1, tr.Tracer())
    spec, est, _ = wl.CALLS[0]
    cfg = wl._config(spec, est, "self-test", 2)
    res = copkern.study.run_study(cfg, jobs=1)
    wl.true_r = {spec: res.true_r}
    expected = len(res.records)
    items = wl.check_records(cfg, res, expected)
    expect(run.summarize_items(items)["failed"] == 0,
           "untouched study records pass their checks")
    bad = dataclasses.replace(res.records[0], value=float("nan"))
    tampered = dataclasses.replace(res, records=[bad] + res.records[1:])
    s = run.summarize_items(wl.check_records(cfg, tampered, expected))
    expect(s["failed"] == 1 and s["attempted"] == expected and math.isfinite(s["rmse"]),
           f"a NaN r is counted: failed_ratio = {s['failed']}/{s['attempted']}, "
           "r_rmse stays finite")


def main():
    check_validator()
    check_tracer()
    check_missing_target()
    check_nan_counted()
    print(f"{len(FAILURES)} self-test failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
