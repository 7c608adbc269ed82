"""Command-line surface: measure, estimate, simulate, sample, converge, approximate.

All outputs are deterministic given the flags and seeds and go through one
emitter: CSV files use a fixed column order, write floats as %.17g and
integers and labels as they are; JSON files use sorted keys and never hold
NaN or infinity (such a value is an error, exit 2, and no file is written).
"""

import argparse
import json
import sys

import numpy as np

from ._accel import levy_distance
from .archimedean import kendall_function
from .core import cdf_lattice, checkerboard_approx, checkerboard_copula, sup_distance
from .estimation import chatterjee_r, plugin_zeta1_r, pseudo_obs
from .fixtures import strip_copula
from .metrics import WCC_STATS, QuadratureSpec, checked_kernel_grid, d1_grids, d_inf
from .metrics import pi_measures, wcc_grid
from .registry import (
    COPULA_OF_KIND,
    FAMILIES,
    build_component,
    make_copula,
    parse_spec,
    read_float_csv,
    read_knots_csv,
)
from .sampling import RngSpec, SampleSet, sample
from .study import ESTIMATORS, PLUGINS, StudyConfig, run_study

_FLOAT_FMT = "%.17g"


def _fmt(v) -> str:
    return _FLOAT_FMT % float(v)


def _emit(text: str, out: str):
    """Write `text` to the file `out`, or to stdout when `out` is empty."""
    if out:
        with open(out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(obj: dict, out: str):
    _emit(json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n", out)


def _cell(c) -> str:
    return _fmt(c) if isinstance(c, float) else str(c)


def _column(values):
    """(cells, format) of one CSV column: floats under %.17g, or each cell through `_cell`."""
    cells = values.tolist() if isinstance(values, np.ndarray) else list(values)
    if all(isinstance(c, float) for c in cells):
        return cells, _FLOAT_FMT
    return list(map(_cell, cells)), "%s"


def _emit_csv(header, columns, out: str):
    """The header line, then one line per row of the equal-length `columns`.

    Each column is resolved once: a column of floats is written as `_fmt`
    writes them, any other through `_cell`.  The body is one `%` format of
    the one-row template repeated over the row-major cells.
    """
    resolved = [_column(c) for c in columns]
    k, n = len(resolved), len(resolved[0][0])
    flat = [None] * (n * k)
    for j, (cells, _) in enumerate(resolved):
        flat[j::k] = cells
    row = ",".join(f for _, f in resolved) + "\n"
    _emit(",".join(header) + "\n" + (row * n) % tuple(flat), out)


def _load_knots(args):
    return read_knots_csv(args.knots) if getattr(args, "knots", None) else None


def _int_list(text: str, what: str):
    try:
        values = [int(p) for p in text.split(",") if p]
    except ValueError:
        raise ValueError(f"{what} list must be comma-separated integers, got '{text}'") from None
    if not values:
        raise ValueError(f"{what} list must be non-empty")
    return values


def _check_seeds(args, *flags):
    """ValueError naming the first RNG flag given a negative value."""
    for flag in flags:
        if getattr(args, flag) < 0:
            raise ValueError(f"--{flag} must be a non-negative integer, got {getattr(args, flag)}")


def _check_finite(what: str, args, columns):
    """ValueError naming each (name, values) column that holds a non-finite value."""
    bad = [name for name, values in columns if not np.all(np.isfinite(values))]
    if bad:
        raise ValueError(f"the {what} of '{args.copula}' are not finite at m = {args.m}: "
                         f"{', '.join(bad)}")


def cmd_measure(args):
    c = make_copula(args.copula, knots=_load_knots(args))
    q = QuadratureSpec(m=args.m)
    d1_to_pi, z, r = pi_measures(c, q)
    measures = {
        "zeta1": z,
        "r": r,
        "d1_to_pi": d1_to_pi,
        "d_inf_to_pi": d_inf(c, make_copula("pi"), q),
    }
    _check_finite("measures", args, measures.items())
    _emit_json({"copula": c.label, "m": args.m, **measures}, args.out)


def _read_sample_csv(path: str) -> SampleSet:
    x, y = read_float_csv(path, ("x", "y"), "sample").T
    return SampleSet(x=x, y=y)


def cmd_estimate(args):
    _check_seeds(args, "seed")
    s = _read_sample_csv(args.input)
    q = QuadratureSpec(m=args.m)
    report = {"mode": args.mode, "n": s.n, "input": args.input}
    if args.mode == "chatterjee":
        report["r"] = chatterjee_r(s, np.random.default_rng(args.seed))
    else:
        p = pseudo_obs(s)
        which = PLUGINS[args.mode]
        report["zeta1"], report["r"], fit = plugin_zeta1_r(p, which, q)
        grid = np.linspace(0.0, 1.0, 101)
        if which == "archimedean":
            table, column, values = "kendall_table", "f", fit.eval(grid)
        else:
            table, column, values = "pickands_table", "a", fit.a(grid)
        report[table] = {"t": grid.tolist(), column: values.tolist()}
    _emit_json(report, args.out)


def cmd_sample(args):
    _check_seeds(args, "seed", "stream")
    c = make_copula(args.copula, knots=_load_knots(args))
    s = sample(c, args.n, RngSpec(seed=args.seed, stream=args.stream))
    _emit_csv(["x", "y"], (s.x, s.y), args.out)


def cmd_simulate(args):
    cfg = StudyConfig(
        copula_spec=args.copula,
        sizes=_int_list(args.sizes, "sample size"),
        replications=args.R,
        estimators=args.estimators.split(","),
        base_seed=args.seed,
        m=args.m,
        knots=_load_knots(args),
    )
    result = run_study(cfg, jobs=args.jobs)
    fields = ["estimator", "n", "replication", "value", "seed", "wall_time"]
    _emit_csv(fields, [[getattr(r, f) for r in result.records] for f in fields], args.out)
    summary = {"true_r": result.true_r, "copula": args.copula, "cells": result.summary}
    summary_path = (args.out + ".summary.json") if args.out else ""
    _emit_json(summary, summary_path)


_TGRID = np.linspace(0.01, 0.99, 99)
_PGRID = np.linspace(0.05, 1.0, 96)

# family kind -> its extra converge columns: sups of component-table differences
_CONVERGE_SUPS = {
    "archimedean": {
        "kendall_sup": lambda g: kendall_function(g).eval(_TGRID),
        "phi_sup": lambda g: g.phi(_PGRID),
        "dphi_sup": lambda g: g.dplus_phi(_TGRID),
    },
    "extreme-value": {"a_sup": lambda p: p.a(_TGRID), "da_sup": lambda p: p.dplus_a(_TGRID)},
}


def _against_limit(grid, reduce, limit, terms):
    """reduce(grid(t), grid(limit)) per term t, building the limit's grid once.

    No term or term grid outlives its own reduction: lazily built `terms` are
    alive one at a time, and no two term grids ever are.
    """
    at_limit = grid(limit)
    return list(map(lambda t: reduce(grid(t), at_limit), terms))


def cmd_converge(args):
    name, params = parse_spec(args.copula)
    kind = FAMILIES[name].kind
    if kind not in _CONVERGE_SUPS or len(params) != 1:
        names = [n for n, f in FAMILIES.items() if f.kind in _CONVERGE_SUPS and f.arity == 1]
        raise ValueError(
            f"converge needs a one-parameter Archimedean or Extreme-Value spec with "
            f"exactly one parameter ({', '.join(names)}), got '{args.copula}'"
        )
    ks = _int_list(args.ks, "sequence index")
    if any(k < 1 for k in ks):
        raise ValueError("sequence indices k must be >= 1")
    theta = params[0]
    q = QuadratureSpec(m=args.m)
    sups, to_copula = _CONVERGE_SUPS[kind], COPULA_OF_KIND[kind]
    thetas = [theta + args.offset_scale / k for k in ks]
    part_lim = build_component(name, [theta], _load_knots(args))
    parts = [build_component(name, [t]) for t in thetas]
    limit, models = to_copula(part_lim), [to_copula(p) for p in parts]
    # one column at a time, so that one limit-sized grid is alive at a time
    columns = [
        _against_limit(lambda c: cdf_lattice(c, q.m), sup_distance, limit, models),
        *(_against_limit(table, sup_distance, part_lim, parts) for table in sups.values()),
        _against_limit(lambda c: checked_kernel_grid(c, q), d1_grids, limit, models),
        _against_limit(wcc_grid, lambda a, b: np.max(levy_distance(a, b)), limit, models),
    ]
    header = ["k", "theta", "d_inf", *sups, "d1", "wcc_max"]
    _check_finite("converge rows", args, zip(header[2:], columns))
    _emit_csv(header, [ks, thetas, *columns], args.out)


def cmd_approximate(args):
    if args.copula.startswith("strip:"):
        # counterexample fixture rows: the strip family never wcc-converges
        if args.knots:
            raise ValueError("strip takes no knots table (--knots CSV)")
        index = args.copula[len("strip:"):]
        if not index.isdecimal():
            raise ValueError(f"strip spec must be strip:N with an integer N, got '{args.copula}'")
        target, reference = strip_copula(int(index)), make_copula("pi")
    else:
        target = reference = make_copula(args.copula, knots=_load_knots(args))
    resolutions = _int_list(args.resolutions, "resolution")
    boards = (checkerboard_copula(checkerboard_approx(target, N)) for N in resolutions)
    dists = _against_limit(wcc_grid, levy_distance, reference, boards)
    columns = [resolutions, *([f(d) for d in dists] for f in WCC_STATS.values())]
    _emit_csv(["resolution", *(f"wcc_{name}" for name in WCC_STATS)], columns, args.out)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="copkern",
        description="Markov-kernel copula dependence analysis",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p, copula=True, m=None, m_help="quadrature resolution"):
        if copula:
            p.add_argument("--copula", required=True, help="family spec NAME:PARAMS")
            p.add_argument("--knots", default=None, help="CSV of pickands-pwl knots (header x,a)")
        if m is not None:
            p.add_argument("--m", type=int, default=m, help=m_help)
        p.add_argument("--out", default="", help="output path (default: stdout)")

    p = sub.add_parser("measure", help="dependence measures of a registered copula")
    add_common(p, m=512)
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("estimate", help="estimate dependence measures from a sample CSV")
    p.add_argument("input", help="sample CSV with header x,y")
    p.add_argument("--mode", required=True, choices=ESTIMATORS)
    p.add_argument("--seed", type=int, default=0)
    add_common(p, copula=False, m=512,
               m_help="quadrature resolution of plugin-arch (plugin-ev is exact)")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("sample", help="draw a seeded sample from a copula")
    add_common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stream", type=int, default=0)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("simulate", help="replication study comparing r estimators")
    add_common(p, m=256, m_help="quadrature resolution of plugin-arch records "
                                "(plugin-ev is exact)")
    p.add_argument("--sizes", default="50,100,500,2000", help="comma-separated sample sizes")
    p.add_argument("--R", type=int, default=500, help="replications per cell")
    p.add_argument("--estimators", default=",".join(ESTIMATORS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("converge", help="discrepancy curves along a parameter sequence")
    add_common(p, m=512)
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
        args.func(args)
        return 0
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
