"""copkern benchmark: one workload per run, end-to-end or traced per-layer metrics.

    python3 perfbench/run.py --workload study-small-n --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; copkern is imported from ``src/``.
With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json,
with ``--trace 1`` the per-layer metrics from a traced run.  Human-readable
lines and a report (provenance, digests, percentiles, per-call times) come
first; the last line of standard output is the result object.
"""

import time

T_START = time.perf_counter()

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys

import numpy

import speed
from tracer import Tracer, layer_stats

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# later performance claims must also hold on this seed, which is not used
# while a change is being written
HELD_OUT_SEED = 90210
SETUP_REPEATS = 3           # set-ups per end-to-end run; setup_s is their median
SETUP_TIMEOUT_S = 60


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def percentile(values, pct):
    return float(numpy.percentile(values, pct))


def validate_result(result, spec, trace):
    """Raise ValueError unless `result` carries exactly the metrics `spec` names."""
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    missing = sorted(set(expected) - set(got))
    extra = sorted(set(got) - set(expected))
    if missing or extra:
        raise ValueError(f"metrics missing {missing}, unexpected {extra}")
    for name, unit in expected.items():
        v = got[name]["value"]
        if got[name]["unit"] != unit or not isinstance(v, (int, float)) or not math.isfinite(v):
            raise ValueError(f"metric {name} = {got[name]!r}, expected a finite {unit}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)):
        raise ValueError("attempted/failed must be whole numbers, attempted >= 1")


def provenance(wl, seed, tracer_mode):
    import copkern
    import copkern._accel

    def read(path):
        try:
            with open(path) as fh:
                return fh.read().strip()
        except OSError:
            return None

    cpu = None
    for line in (read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for idx in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        level = read(f"{base}/{idx}/level")
        if level in ("2", "3"):
            caches[f"L{level}"] = read(f"{base}/{idx}/size")
    head = read(os.path.join(ROOT, ".git", "HEAD"))
    commit = None
    if head and head.startswith("ref: "):
        commit = read(os.path.join(ROOT, ".git", head[5:]))
    elif head:
        commit = head
    src = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "copkern")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            src.update(name.encode() + b"\0")
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(fh.read())
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": bool(copkern._accel.HAVE_NUMBA),
        "copkern_version": copkern.__version__,
        "copkern_commit": commit or "unknown (not a git checkout)",
        "copkern_src_sha256": src.hexdigest(),
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "workload": wl.name,
        "workload_params": wl.params(),
        "trace": tracer_mode,
        "loop": "closed, one client, one process",
    }


def summarize_items(items):
    """Counts, distinct errors and r RMSE of a list of ItemResult."""
    pairs = [(i.r_est, i.r_true) for i in items if i.error is None and i.r_est is not None]
    return {
        "attempted": len(items),
        "failed": sum(1 for i in items if i.error is not None),
        "errors": sorted({i.error for i in items if i.error is not None}),
        "rmse": math.sqrt(sum((a - b) ** 2 for a, b in pairs) / len(pairs)) if pairs else None,
        "outside_copula_range": sum(i.outside_copula_range for i in items),
    }


def run_end_to_end(wl, args, setup, probe, rss_setup_mb):
    """Timed closed loop over passes 0, 1, ... until `args.seconds` have passed.

    `setup` is (scaled, raw) set-up seconds and `probe` the host-speed probe
    taken after set-up, and `rss_setup_mb` the peak resident memory before that
    first probe.  A probe follows every segment of a pass (a run_study call,
    or a whole pass of CLI items), and each segment's times are scaled by the
    probes on both sides of it (see speed.py).  Passes up to
    `wl.rmse_passes` that the timed loop did not reach run afterwards,
    untimed: their items are checked and counted, and `r_rmse` covers
    exactly passes 0 .. `wl.rmse_passes` - 1.
    """
    passes, probes = [], [probe]
    wl.checkpoint = lambda: probes.append(speed.probe_s())
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 < args.seconds:
        passes.append(wl.run_pass(len(passes)))
    wall = time.perf_counter() - t0
    wl.checkpoint = lambda: None
    timed = len(passes)
    while len(passes) < wl.rmse_passes:
        passes.append(wl.run_pass(len(passes)))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    passes, untimed = passes[:timed], passes[timed:]
    scales = iter(speed.scale(a, b) for a, b in zip(probes, probes[1:]))
    lat, busy = [], 0.0
    for p in passes:
        start = 0
        for seg_busy, count in p.segments:
            f = next(scales)
            busy += seg_busy * f
            lat += [i.latency_s * 1e3 * f for i in p.items[start:start + count]
                    if i.error is None]
            start += count
    summary = summarize_items([i for p in passes + untimed for i in p.items])
    attempted, failed = summary["attempted"], summary["failed"]
    rmse = summarize_items([i for p in (passes + untimed)[:wl.rmse_passes]
                            for i in p.items])["rmse"]
    raw = [i.latency_s * 1e3 for p in passes for i in p.items if i.error is None]
    done = len(raw)             # items done in the timed passes
    tail = percentile(lat, wl.tail_pct) if lat else math.nan
    beyond = sum(1 for v in lat if v > tail)
    setups = [setup] + [setup_subprocess(args) for _ in range(SETUP_REPEATS - 1)]
    busy_raw = sum(p.busy_s for p in passes)
    metrics = {
        "setup_s": (statistics.median(s for s, _ in setups), "s"),
        "items_per_s": (done / busy, "1/s"),
        "item_ms_p50": (statistics.median(lat) if lat else math.nan, "ms"),
        "item_ms_tail": (tail, "ms"),
        "success_ratio": ((attempted - failed) / attempted, "ratio"),
        "r_rmse": (rmse if rmse is not None else math.nan, "1"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    report = {
        "passes": len(passes),
        "untimed_passes": len(untimed),
        "r_rmse_passes": wl.rmse_passes,
        "peak_rss_mb_before_first_probe": rss_setup_mb,
        "timed_wall_s": wall,
        "speed_probe_ms": [p * 1e3 for p in probes],
        "raw_wall_clock": {
            "setup_s": statistics.median(r for _, r in setups),
            "items_per_s": done / busy_raw,
            "item_ms_p50": statistics.median(raw) if raw else None,
            "item_ms_tail": percentile(raw, wl.tail_pct) if raw else None,
        },
        "failed_ratio": failed / attempted,
        "tail_percentile": wl.tail_pct,
        "items_timed": len(lat),
        "items_beyond_tail": beyond,
        "setup_s_samples": setups,
        "pass0_output_sha256": passes[0].digest.hexdigest(),
        "plugin_r_outside_copula_range": summary["outside_copula_range"],
        "errors": summary["errors"][:20],
    }
    if beyond < 10:
        report["warning"] = f"only {beyond} items beyond p{wl.tail_pct}"
    return attempted, failed, metrics, report


def run_traced(wl, args):
    tracer = wl.tracer
    untraced, traced, stats, checks = [], [], [], []
    t0 = time.perf_counter()
    while not traced or time.perf_counter() - t0 < args.seconds:
        # alternate which side runs first, so drift cancels in the ratio
        if len(traced) % 2 == 0:
            untraced.append(wl.run_pass(0))
        tracer.reset()
        tracer.install()
        try:
            traced.append(wl.run_pass(0))
        finally:
            tracer.uninstall()
        if len(traced) % 2 == 0:
            untraced.append(wl.run_pass(0))
        layer, calls = layer_stats(tracer.spans)
        stats.append(layer)
        if len(traced) == 1:
            health, per_call = model_health(tracer.models), calls
    tracer.reset()
    counts = [{k: v for k, v in s.items() if not k.endswith("_share")} for s in stats]
    if any(c != counts[0] for c in counts[1:]):
        checks.append("per-layer counts differ between identical traced passes")
    digests = {p.digest.hexdigest() for p in untraced + traced}
    if len(digests) != 1:
        checks.append("pass 0 outputs differ between repetitions")
    if tracer.missing:
        checks.append("traced functions missing from copkern: " + ", ".join(tracer.missing))
    if hasattr(wl, "replay"):
        checks += wl.replay()
    summary = summarize_items([i for p in untraced + traced for i in p.items])
    attempted, failed = summary["attempted"], summary["failed"]
    out = dict(counts[0])
    for k in stats[0]:
        if k.endswith("_share"):
            out[k] = statistics.median(s[k] for s in stats)
    out["trace.overhead_ratio"] = (sum(p.busy_s for p in traced)
                                   / sum(p.busy_s for p in untraced))
    out.update(health)
    out["health.plugin_r.outside_copula_range"] = summarize_items(
        traced[0].items)["outside_copula_range"]
    metrics = {k: (v, unit_of(k)) for k, v in out.items()}
    report = {
        "traced_passes": len(traced),
        "failed_ratio": failed / attempted,
        "pass0_output_sha256": sorted(digests)[0],
        "per_call": per_call,
        "errors": summary["errors"][:20],
        "check_failures": checks,
    }
    return attempted, failed, metrics, report, not checks


def model_health(models):
    """Max disintegration defect of the plugin models built in one traced pass."""
    import copkern

    out = {"health.plugin_arch.defect_max": 0.0, "health.plugin_ev.defect_max": 0.0}
    for creator, model in models:
        if creator != "estimation.plugin_zeta1_r":
            continue
        key = ("health.plugin_arch.defect_max" if model.label.startswith("archimedean[")
               else "health.plugin_ev.defect_max")
        out[key] = max(out[key], copkern.disintegration_defect(model))
    return out


def unit_of(name):
    suffix = name.rsplit(".", 1)[-1]
    return {"self_share": "ratio", "outside_items_share": "ratio", "bytes": "bytes",
            "useful_ratio": "ratio", "overhead_ratio": "ratio",
            "defect_max": "1"}.get(suffix, "count")


def setup_subprocess(args):
    """Set-up time of a fresh process running the same workload and seed."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=SETUP_TIMEOUT_S, check=True)
    out = json.loads(done.stdout.strip().splitlines()[-1])
    return out["setup_s"], out["setup_raw_s"]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "copkern", "__init__.py")):
        print(f"error: no copkern sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    spec = load_spec()

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r} "
              f"(known: {', '.join(workloads.WORKLOADS)})", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](args.seed, Tracer())
    with workloads.scratch_dir(ROOT):
        wl.setup()
        setup_raw = time.perf_counter() - T_START
        rss_setup_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        probe = speed.probe_s()
        setup = (setup_raw * speed.scale(probe, probe), setup_raw)
        if args.setup_only:
            print(json.dumps({"setup_s": setup[0], "setup_raw_s": setup_raw}))
            return 0
        if args.trace:
            attempted, failed, metrics, report, checks_ok = run_traced(wl, args)
        else:
            attempted, failed, metrics, report = run_end_to_end(
                wl, args, setup, probe, rss_setup_mb)
            checks_ok = True

    result = {
        "correct": failed == 0 and checks_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    validate_result(result, spec, args.trace)
    report["provenance"] = provenance(wl, args.seed, args.trace)
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
