"""Command-line surface: measure, estimate, simulate, sample, converge, approximate.

All outputs are deterministic given the flags and seeds: CSV files use a fixed
column order with 17-significant-digit floats, JSON files use sorted keys.
"""

import argparse
import csv
import json
import sys

import numpy as np

from .archimedean import kendall_function
from .core import checkerboard_approx, checkerboard_copula
from .estimation import (
    cfg_estimator,
    chatterjee_r,
    convexify_pickands,
    empirical_kendall,
    plugin_zeta1_r,
    pseudo_obs,
)
from .fixtures import strip_copula
from .metrics import QuadratureSpec, d1_grids, d_inf, kernel_grid, pi_measures, wcc_profile
from .registry import (
    COPULA_OF_KIND,
    FAMILIES,
    build_component,
    make_copula,
    parse_spec,
    read_knots_csv,
)
from .sampling import RngSpec, SampleSet, sample
from .study import ESTIMATORS, StudyConfig, run_study

_FLOAT_FMT = "%.17g"


def _fmt(v) -> str:
    return _FLOAT_FMT % float(v)


def _emit_json(obj: dict, out: str):
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_csv(header, rows, out: str):
    fh = open(out, "w", newline="") if out else sys.stdout
    try:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([c if isinstance(c, str) else _fmt(c) for c in row])
    finally:
        if out:
            fh.close()


def _load_knots(args):
    return read_knots_csv(args.knots) if getattr(args, "knots", None) else None


def _int_list(text: str):
    return [int(p) for p in text.split(",") if p]


def cmd_measure(args) -> int:
    c = make_copula(args.copula, knots=_load_knots(args))
    q = QuadratureSpec(m=args.m)
    d1_to_pi, z, r = pi_measures(c, q)
    report = {
        "copula": c.label,
        "m": args.m,
        "zeta1": z,
        "r": r,
        "d1_to_pi": d1_to_pi,
        "d_inf_to_pi": d_inf(c, make_copula("pi"), q),
    }
    _emit_json(report, args.out)
    return 0


def _read_sample_csv(path: str) -> SampleSet:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or [f.strip() for f in reader.fieldnames] != ["x", "y"]:
            raise ValueError("sample CSV must have header 'x,y'")
        xs, ys = [], []
        for row in reader:
            xs.append(float(row["x"]))
            ys.append(float(row["y"]))
    return SampleSet(x=np.asarray(xs), y=np.asarray(ys))


def cmd_estimate(args) -> int:
    s = _read_sample_csv(args.input)
    q = QuadratureSpec(m=args.m)
    report = {"mode": args.mode, "n": s.n, "input": args.input}
    if args.mode == "chatterjee":
        report["r"] = chatterjee_r(s, np.random.default_rng(args.seed))
    else:
        p = pseudo_obs(s)
        if args.mode == "plugin-arch":
            k = empirical_kendall(p)
            grid = np.linspace(0.0, 1.0, 101)
            report["kendall_table"] = {
                "t": [float(t) for t in grid],
                "f": [float(v) for v in k.eval(grid)],
            }
            z, r = plugin_zeta1_r(p, "archimedean", q)
        else:
            raw = cfg_estimator(p)
            pickands = convexify_pickands(raw)
            grid = np.linspace(0.0, 1.0, 101)
            report["pickands_table"] = {
                "t": [float(t) for t in grid],
                "a": [float(v) for v in pickands.a(grid)],
            }
            z, r = plugin_zeta1_r(p, "extreme-value", q)
        report["zeta1"] = z
        report["r"] = r
    _emit_json(report, args.out)
    return 0


def cmd_sample(args) -> int:
    c = make_copula(args.copula, knots=_load_knots(args))
    s = sample(c, args.n, RngSpec(seed=args.seed, stream=args.stream))
    _emit_csv(["x", "y"], zip(s.x, s.y), args.out)
    return 0


def cmd_simulate(args) -> int:
    cfg = StudyConfig(
        copula_spec=args.copula,
        sizes=_int_list(args.sizes),
        replications=args.R,
        estimators=args.estimators.split(","),
        base_seed=args.seed,
        m=args.m,
        knots=_load_knots(args),
    )
    result = run_study(cfg, jobs=args.jobs)
    rows = [
        (r.estimator, str(r.n), str(r.replication), _fmt(r.value), str(r.seed), _fmt(r.wall_time))
        for r in result.records
    ]
    _emit_csv(
        ["estimator", "n", "replication", "value", "seed", "wall_time"],
        rows,
        args.out,
    )
    summary = {"true_r": result.true_r, "copula": args.copula, "cells": result.summary}
    summary_path = (args.out + ".summary.json") if args.out else ""
    _emit_json(summary, summary_path)
    return 0


_TGRID = np.linspace(0.01, 0.99, 99)
_PGRID = np.linspace(0.05, 1.0, 96)

# family kind -> (its extra converge columns, the differences whose sups they are)
_CONVERGE_SUPS = {
    "archimedean": (["kendall_sup", "phi_sup", "dphi_sup"], lambda g, lim: (
        kendall_function(g).eval(_TGRID) - kendall_function(lim).eval(_TGRID),
        g.phi(_PGRID) - lim.phi(_PGRID),
        g.dplus_phi(_TGRID) - lim.dplus_phi(_TGRID),
    )),
    "extreme-value": (["a_sup", "da_sup"], lambda p, lim: (
        p.a(_TGRID) - lim.a(_TGRID),
        p.dplus_a(_TGRID) - lim.dplus_a(_TGRID),
    )),
}


def _converge_rows(args):
    name, params = parse_spec(args.copula)
    kind = FAMILIES[name].kind
    if kind not in _CONVERGE_SUPS or len(params) != 1:
        names = [n for n, f in FAMILIES.items() if f.kind in _CONVERGE_SUPS and f.arity == 1]
        raise ValueError(
            f"converge needs a one-parameter Archimedean or Extreme-Value spec with "
            f"exactly one parameter ({', '.join(names)}), got '{args.copula}'"
        )
    ks = _int_list(args.ks)
    if any(k < 1 for k in ks):
        raise ValueError("sequence indices k must be >= 1")
    theta = params[0]
    q = QuadratureSpec(m=args.m)
    columns, diffs = _CONVERGE_SUPS[kind]
    to_copula = COPULA_OF_KIND[kind]
    part_lim = build_component(name, [theta])
    limit = to_copula(part_lim)
    k_lim = kernel_grid(limit, q)
    rows = []
    for k in ks:
        theta_k = theta + args.offset_scale / k
        part = build_component(name, [theta_k])
        ck = to_copula(part)
        rows.append((
            str(k),
            _fmt(theta_k),
            _fmt(d_inf(ck, limit, q)),
            *(_fmt(np.max(np.abs(d))) for d in diffs(part, part_lim)),
            _fmt(d1_grids(kernel_grid(ck, q), k_lim)),
            _fmt(wcc_profile(ck, limit).summary["max"]),
        ))
    return ["k", "theta", "d_inf", *columns, "d1", "wcc_max"], rows


def cmd_converge(args) -> int:
    header, rows = _converge_rows(args)
    _emit_csv(header, rows, args.out)
    return 0


def cmd_approximate(args) -> int:
    if args.copula.startswith("strip:"):
        # counterexample fixture rows: the strip family never wcc-converges
        n = int(args.copula.split(":")[1])
        target = strip_copula(n)
    else:
        target = make_copula(args.copula, knots=_load_knots(args))
    pi = make_copula("pi")
    reference = pi if args.copula.startswith("strip:") else target
    rows = []
    for N in _int_list(args.resolutions):
        cb = checkerboard_copula(checkerboard_approx(target, N))
        prof = wcc_profile(cb, reference)
        rows.append(
            (
                str(N),
                _fmt(prof.summary["max"]),
                _fmt(prof.summary["mean"]),
                _fmt(prof.summary["q95"]),
            )
        )
    _emit_csv(["resolution", "wcc_max", "wcc_mean", "wcc_q95"], rows, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="copkern",
        description="Markov-kernel copula dependence analysis",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p, copula=True):
        if copula:
            p.add_argument("--copula", required=True, help="family spec NAME:PARAMS")
            p.add_argument("--knots", default=None, help="CSV of pickands-pwl knots (header x,a)")
        p.add_argument("--m", type=int, default=512, help="quadrature resolution")
        p.add_argument("--out", default="", help="output path (default: stdout)")

    p = sub.add_parser("measure", help="dependence measures of a registered copula")
    add_common(p)
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("estimate", help="estimate dependence measures from a sample CSV")
    p.add_argument("input", help="sample CSV with header x,y")
    p.add_argument("--mode", required=True, choices=("chatterjee", "plugin-arch", "plugin-ev"))
    p.add_argument("--seed", type=int, default=0)
    add_common(p, copula=False)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("sample", help="draw a seeded sample from a copula")
    add_common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stream", type=int, default=0)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("simulate", help="replication study comparing r estimators")
    add_common(p)
    p.set_defaults(m=256)
    p.add_argument("--sizes", default="50,100,500,2000", help="comma-separated sample sizes")
    p.add_argument("--R", type=int, default=500, help="replications per cell")
    p.add_argument("--estimators", default=",".join(ESTIMATORS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("converge", help="discrepancy curves along a parameter sequence")
    add_common(p)
    p.add_argument("--ks", default="1,2,4,8,16,32,64", help="sequence indices k")
    p.add_argument(
        "--offset-scale",
        type=float,
        default=1.0,
        help="theta_k = theta + scale/k (0 gives the constant sequence)",
    )
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("approximate", help="checkerboard wcc profiles per resolution")
    add_common(p)
    p.add_argument("--resolutions", default="8,16,32,64,128,256")
    p.set_defaults(func=cmd_approximate)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
