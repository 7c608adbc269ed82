"""Acceptance suite: one test per criterion, each reporting a pass/fail line."""

import time

import numpy as np
import pytest

from conftest import ACCEPTANCE_LINES

from copkern.archimedean import archimedean_copula, kendall_function, make_clayton
from copkern.core import (
    checkerboard_approx,
    checkerboard_copula,
    checkerboard_measures,
    make_m,
    make_pi,
    transpose,
)
from copkern.estimation import plugin_zeta1_r, pseudo_obs, reconstruct_generator, sample_fidelity
from copkern.extreme_value import ev_copula, ev_measures, make_galambos, make_gumbel_pickands
from copkern.fixtures import shift_copula, strip_copula, strip_index
from copkern.metrics import (
    QuadratureSpec,
    d1,
    d_inf,
    disintegration_defect,
    golden_xs,
    pi_measures,
    r_identity_residual,
    r_measure,
    wcc_profile,
    zeta1,
)
from copkern.registry import make_copula, registered_examples
from copkern.sampling import RngSpec, sample
from copkern.study import StudyConfig, run_study

Q = QuadratureSpec(m=512)
_LN2 = np.log(2.0)


def report(num, name, ok, detail):
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    ACCEPTANCE_LINES.append(line)
    print(line)
    return ok


def test_acceptance_01_zeta1_galambos():
    t0 = time.perf_counter()
    z = zeta1(make_copula("galambos:3"), Q)
    dt = time.perf_counter() - t0
    ok = abs(z - 0.7513) <= 0.005 and dt < 10.0
    assert report(1, "zeta1(Galambos 3) = 0.7513 +/- 0.005", ok,
                  f"zeta1={z:.5f}, {dt:.2f}s")


def test_acceptance_02_zeta1_gumbel():
    t0 = time.perf_counter()
    z = zeta1(make_copula("gumbel:3"), Q)
    dt = time.perf_counter() - t0
    ok = abs(z - 0.6910) <= 0.005 and dt < 10.0
    assert report(2, "zeta1(Gumbel 3) = 0.6910 +/- 0.005", ok,
                  f"zeta1={z:.5f}, {dt:.2f}s")


def test_acceptance_03_boundary_values():
    pi, m = make_pi(), make_m()
    z_pi, r_pi = zeta1(pi, Q), r_measure(pi, Q)
    z_m, r_m = zeta1(m, Q), r_measure(m, Q)
    d1_m_pi = d1(m, pi, Q)
    ok = (
        abs(z_pi) <= 1e-3
        and abs(r_pi) <= 1e-3
        and abs(z_m - 1.0) <= 6e-3
        and abs(r_m - 1.0) <= 6e-3
        and abs(d1_m_pi - 1.0 / 3.0) <= 2e-3
    )
    assert report(3, "boundary values of zeta1, r, D1", ok,
                  f"zeta1(Pi)={z_pi:.2e}, r(Pi)={r_pi:.2e}, zeta1(M)={z_m:.4f}, "
                  f"r(M)={r_m:.4f}, D1(M,Pi)={d1_m_pi:.4f}")


def test_acceptance_04_checkerboard_wcc_density():
    t0 = time.perf_counter()
    c = make_copula("clayton:2")
    xs = golden_xs(25)
    maxima = [
        wcc_profile(checkerboard_copula(checkerboard_approx(c, 2 ** n)), c, xs=xs).summary["max"]
        for n in range(3, 9)
    ]
    dt = time.perf_counter() - t0
    ok = all(a >= b for a, b in zip(maxima, maxima[1:])) and maxima[-1] < 0.05 and dt < 30.0
    assert report(4, "checkerboard wcc density (Clayton 2)", ok,
                  f"max at 2^8 = {maxima[-1]:.4f}, decreasing={maxima}, {dt:.1f}s")


def _decreasing_past_4(ks, vals):
    tail = [v for k, v in zip(ks, vals) if k >= 4]
    return all(a > b for a, b in zip(tail, tail[1:]))


def test_acceptance_05_convergence_coherence():
    ks = [1, 2, 4, 8, 16, 32, 64]
    # Clayton theta_k = 3 + 1/k: six discrepancy curves vs the theta = 3 limit
    g_lim = make_clayton(3.0)
    c_lim = archimedean_copula(g_lim)
    f_lim = kendall_function(g_lim)
    tgrid = np.linspace(0.01, 0.99, 99)
    pgrid = np.linspace(0.05, 1.0, 96)
    curves = {k: [] for k in ("d_inf", "kendall_sup", "phi_sup", "dphi_sup", "d1", "wcc_max")}
    for k in ks:
        g = make_clayton(3.0 + 1.0 / k)
        c = archimedean_copula(g)
        curves["d_inf"].append(d_inf(c, c_lim, Q))
        curves["kendall_sup"].append(
            float(np.max(np.abs(kendall_function(g).eval(tgrid) - f_lim.eval(tgrid))))
        )
        curves["phi_sup"].append(float(np.max(np.abs(g.phi(pgrid) - g_lim.phi(pgrid)))))
        curves["dphi_sup"].append(
            float(np.max(np.abs(g.dplus_phi(tgrid) - g_lim.dplus_phi(tgrid))))
        )
        curves["d1"].append(d1(c, c_lim, Q))
        curves["wcc_max"].append(wcc_profile(c, c_lim, y_grid=4096).summary["max"])

    # Galambos theta_k = 3 + 1/k: five discrepancy curves
    p_lim = make_galambos(3.0)
    e_lim = ev_copula(p_lim)
    ev_curves = {k: [] for k in ("d_inf", "a_sup", "da_sup", "d1", "wcc_max")}
    for k in ks:
        p = make_galambos(3.0 + 1.0 / k)
        c = ev_copula(p)
        ev_curves["d_inf"].append(d_inf(c, e_lim, Q))
        ev_curves["a_sup"].append(float(np.max(np.abs(p.a(tgrid) - p_lim.a(tgrid)))))
        ev_curves["da_sup"].append(
            float(np.max(np.abs(p.dplus_a(tgrid) - p_lim.dplus_a(tgrid))))
        )
        ev_curves["d1"].append(d1(c, e_lim, Q))
        ev_curves["wcc_max"].append(wcc_profile(c, e_lim, y_grid=4096).summary["max"])

    failures = []
    for name, vals in {**{f"clayton/{k}": v for k, v in curves.items()},
                       **{f"galambos/{k}": v for k, v in ev_curves.items()}}.items():
        if not _decreasing_past_4(ks, vals):
            failures.append(f"{name} not decreasing past k=4")
        if vals[-1] >= 1e-2:
            failures.append(f"{name} at k=64 is {vals[-1]:.3g} >= 1e-2")
    ok = not failures
    assert report(5, "six-way/five-way convergence coherence", ok,
                  "all curves decreasing and < 1e-2" if ok else "; ".join(failures))


def test_acceptance_06_counterexample_fidelity():
    pi = make_pi()
    g = (np.sqrt(5.0) - 1.0) / 2.0
    strip_ok = True
    details = []
    for n in (3, 7, 14, 30):
        N, i = strip_index(n)
        c = strip_copula(n)
        v = d1(c, pi, Q)
        xs = ((i - 1) + np.modf(np.arange(1, 26) * g)[0]) / 2 ** N
        w = wcc_profile(c, pi, xs=xs).summary["max"]
        strip_ok &= v <= 2.0 ** -N and w > 0.4
        details.append(f"n={n}: D1={v:.4f}<=2^-{N}, wcc={w:.3f}")
    shift_ok = all(
        abs(d1(shift_copula(n), pi, Q) - 1.0 / 3.0) <= 2e-3 for n in range(7)
    )
    t6 = d1(transpose(shift_copula(6)), pi, Q)
    shift_ok &= t6 <= 0.02
    ok = strip_ok and shift_ok
    assert report(6, "counterexample fixtures (strips, shifts)", ok,
                  f"{'; '.join(details)}; D1(shift^t_6,Pi)={t6:.4f}")


@pytest.mark.slow
def test_acceptance_07_estimator_recovery():
    t0 = time.perf_counter()
    q = QuadratureSpec(m=256)
    n = 10_000
    gum = make_copula("gumbel:3")
    gal = make_copula("galambos:3")
    err_arch, err_ev = [], []
    for seed in range(50):
        s = sample(gum, n, RngSpec(seed=seed, stream=1))
        z, _, _ = plugin_zeta1_r(pseudo_obs(s), "archimedean", q)
        err_arch.append(abs(z - 0.6910))
        s = sample(gal, n, RngSpec(seed=seed, stream=2))
        z, _, _ = plugin_zeta1_r(pseudo_obs(s), "extreme-value", q)
        err_ev.append(abs(z - 0.7513))
    dt = time.perf_counter() - t0
    med_a, med_e = float(np.median(err_arch)), float(np.median(err_ev))
    frac = float(np.mean([e <= 0.03 for e in err_arch + err_ev]))
    ok = med_a <= 0.02 and med_e <= 0.02 and frac >= 0.90 and dt < 300.0
    assert report(7, "estimator recovery over 50 seeds at n=10^4", ok,
                  f"median arch err={med_a:.4f}, ev err={med_e:.4f}, "
                  f"within 0.03: {frac:.0%}, {dt:.0f}s")


@pytest.mark.slow
def test_acceptance_08_simulation_study():
    t0 = time.perf_counter()
    results = {}
    for spec, plugin in (("gumbel:3", "plugin-arch"), ("galambos:3", "plugin-ev")):
        cfg = StudyConfig(
            copula_spec=spec,
            sizes=(50, 100, 2000),
            replications=500,
            estimators=("chatterjee", plugin),
            base_seed=20260823,
            m=256,
        )
        results[spec] = (run_study(cfg, jobs=4), plugin)
    dt = time.perf_counter() - t0
    failures = []
    for spec, (res, plugin) in results.items():
        for n in (50, 100):
            rp = res.summary[f"{plugin}|n={n}"]["rmse"]
            rc = res.summary[f"chatterjee|n={n}"]["rmse"]
            if not rp < rc:
                failures.append(f"{spec} n={n}: plugin rmse {rp:.4f} !< chatterjee {rc:.4f}")
        rp = res.summary[f"{plugin}|n=2000"]["rmse"]
        rc = res.summary[f"chatterjee|n=2000"]["rmse"]
        ratio = max(rp, rc) / min(rp, rc)
        if ratio >= 2.0:
            failures.append(f"{spec} n=2000: rmse ratio {ratio:.2f} >= 2")
    ok = not failures and dt < 900.0
    assert report(8, "simulation study: plugin beats Chatterjee at small n", ok,
                  f"{dt:.0f}s; " + ("all cells as claimed" if not failures else "; ".join(failures)))


def test_acceptance_09_oracle_equivalences():
    residuals = {spec: r_identity_residual(make_copula(spec), Q)
                 for spec in registered_examples()}
    identity_ok = max(residuals.values()) <= 1e-6

    # generator round trips from true Kendall functions
    class PiKendall:
        def eval(self, t):
            t = np.clip(np.asarray(t, dtype=float), 1e-300, 1.0)
            return np.clip(t - t * np.log(t), 0.0, 1.0)

    x = np.linspace(0.05, 1.0, 200)
    g_pi = reconstruct_generator(PiKendall())
    err_pi = float(np.max(np.abs(g_pi.phi(x) - (-np.log(x) / _LN2))))
    from copkern.archimedean import make_gumbel

    g_gum = reconstruct_generator(kendall_function(make_gumbel(3.0)))
    err_gum = float(np.max(np.abs(g_gum.phi(x) - (-np.log(x) / _LN2) ** 3)))
    roundtrip_ok = err_pi <= 1e-3 and err_gum <= 1e-3

    fid_c = sample_fidelity(make_copula("clayton:2"), 20_000, RngSpec(seed=17))
    fid_g = sample_fidelity(make_copula("galambos:3"), 20_000, RngSpec(seed=18))
    fidelity_ok = fid_c <= 0.02 and fid_g <= 0.02

    # exact measures against the kernel grid: every (D1, zeta1, r) is an
    # integral of a kernel in [0, 1] whose midpoint error is at most first
    # order, so the grid must agree within one step 1/m
    exact = {
        "galambos:3": ev_measures(make_galambos(3.0)),
        "gumbel-ev:2.5": ev_measures(make_gumbel_pickands(2.5)),
        "checkerboard(clayton:2, 8)": checkerboard_measures(
            checkerboard_approx(make_copula("clayton:2"), 8)),
    }
    grids = {
        "galambos:3": make_copula("galambos:3"),
        "gumbel-ev:2.5": make_copula("gumbel-ev:2.5"),
        "checkerboard(clayton:2, 8)": checkerboard_copula(
            checkerboard_approx(make_copula("clayton:2"), 8)),
    }
    exact_errs = {k: float(np.max(np.abs(np.array(pi_measures(grids[k], Q)) - exact[k])))
                  for k in exact}
    exact_ok = max(exact_errs.values()) <= 1.0 / Q.m

    ok = identity_ok and roundtrip_ok and fidelity_ok and exact_ok
    assert report(9, "oracle equivalences (r identity, round trips, sampler, exact measures)",
                  ok,
                  f"max identity residual={max(residuals.values()):.2e}, "
                  f"phi errs=({err_pi:.2e},{err_gum:.2e}), "
                  f"fidelity=({fid_c:.4f},{fid_g:.4f}), "
                  f"exact vs grid: " + ", ".join(f"{k} {v:.1e}" for k, v in exact_errs.items()))


def test_acceptance_10_invariant_suites(tmp_path):
    from copkern.cli import main
    from copkern.estimation import cfg_estimator, convexify_pickands, empirical_kendall
    from copkern.sampling import SampleSet

    failures = []
    g = np.linspace(0.0, 1.0, 101)
    for spec in registered_examples():
        c = make_copula(spec)
        C = np.asarray(c.cdf(g[:, None], g[None, :]))
        vol = C[1:, 1:] - C[:-1, 1:] - C[1:, :-1] + C[:-1, :-1]
        if (np.max(np.abs(C[-1, :] - g)) > 1e-10 or np.max(np.abs(C[:, -1] - g)) > 1e-10
                or vol.min() < -1e-12):
            failures.append(f"copula axioms: {spec}")
        if disintegration_defect(c) > 1e-3:
            failures.append(f"disintegration: {spec}")

    # exact Pickands validity after convexification of a noisy estimate
    rng = np.random.default_rng(2)
    p = pseudo_obs(SampleSet(x=rng.random(300), y=rng.random(300)))
    pick = convexify_pickands(cfg_estimator(p))
    a = pick.a(g)
    if not (abs(a[0] - 1) <= 1e-12 and abs(a[-1] - 1) <= 1e-12
            and np.all(a <= 1 + 1e-12) and np.all(a >= np.maximum(g, 1 - g) - 1e-12)):
        failures.append("pickands validity after convexification")
    slopes = np.diff(a) / np.diff(g)
    if np.min(np.diff(slopes)) < -1e-9:
        failures.append("pickands convexity after convexification")

    # generator validity after reconstruction
    gen = reconstruct_generator(empirical_kendall(p))
    t = np.linspace(0.05, 1.0, 100)
    phi = gen.phi(t)
    if not (np.all(np.diff(phi) <= 1e-12) and abs(gen.phi(0.5) - 1.0) <= 1e-12
            and np.min(np.diff(np.diff(phi) / np.diff(t))) >= -1e-8):
        failures.append("generator validity after reconstruction")

    # end-to-end CLI determinism: byte-identical reruns
    for args, name in (
        (["measure", "--copula", "clayton:2", "--m", "128"], "measure.json"),
        (["sample", "--copula", "galambos:3", "--n", "200", "--seed", "4"], "sample.csv"),
        (["converge", "--copula", "clayton:3", "--ks", "1,2", "--m", "64"], "converge.csv"),
        (["approximate", "--copula", "clayton:2", "--resolutions", "8,16"], "approx.csv"),
    ):
        a, b = tmp_path / ("a_" + name), tmp_path / ("b_" + name)
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        if a.read_bytes() != b.read_bytes():
            failures.append(f"cli determinism: {name}")

    ok = not failures
    assert report(10, "invariant suites and CLI determinism", ok,
                  "all invariants hold" if ok else "; ".join(failures))
