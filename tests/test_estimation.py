import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from copkern.archimedean import archimedean_copula, kendall_function, make_gumbel
from copkern.estimation import (
    EmpiricalKendall,
    PseudoObservations,
    cfg_estimator,
    chatterjee_r,
    convexify_pickands,
    empirical_copula_cdf,
    empirical_copula_lattice,
    empirical_kendall,
    plugin_zeta1_r,
    pseudo_obs,
    reconstruct_generator,
)
from copkern.extreme_value import ev_copula, ev_measures, make_galambos
from copkern.metrics import QuadratureSpec, disintegration_defect, kernel_grid, r_measure, zeta1
from copkern.registry import make_copula
from copkern.sampling import RngSpec, SampleSet, sample

_LN2 = np.log(2.0)


def _sset(pairs):
    a = np.asarray(pairs, dtype=float)
    return SampleSet(x=a[:, 0], y=a[:, 1])


def test_pseudo_obs_monotone():
    p = pseudo_obs(_sset([(1, 10), (2, 20), (3, 30)]))
    assert np.allclose(p.u, [0.25, 0.5, 0.75])
    assert np.allclose(p.v, [0.25, 0.5, 0.75])
    assert not p.had_ties


def test_pseudo_obs_rank_arithmetic():
    p = pseudo_obs(_sset([(3, 1), (1, 3), (2, 2)]))
    assert np.allclose(p.u, [0.75, 0.25, 0.5])
    assert np.allclose(p.v, [0.25, 0.75, 0.5])


def test_pseudo_obs_ties_average_ranks():
    p = pseudo_obs(_sset([(1, 1), (1, 2), (2, 3)]))
    assert p.had_ties
    assert np.allclose(p.u, [1.5 / 4, 1.5 / 4, 3 / 4])


@pytest.mark.parametrize(
    "pairs", [[(1, 7), (2, 7), (3, 7)], [(4, 1), (4, 3), (4, 2)]],
    ids=["constant-y", "constant-x"],
)
def test_pseudo_obs_rejects_constant_column(pairs):
    with pytest.raises(ValueError, match="constant"):
        pseudo_obs(_sset(pairs))


def test_empirical_copula_values():
    p = pseudo_obs(_sset([(1, 10), (2, 20), (3, 30)]))
    assert empirical_copula_cdf(p, 1.0, 1.0) == 1.0
    assert empirical_copula_cdf(p, 0.0, 0.5) == 0.0
    anti = pseudo_obs(_sset([(1, 3), (2, 2), (3, 1)]))
    assert empirical_copula_cdf(anti, 0.5, 0.5) == pytest.approx(1.0 / 3.0)


def _lattice_samples():
    rng = np.random.default_rng(5)
    x = rng.integers(0, 6, 300).astype(float)
    yield "clayton:2 n=500", pseudo_obs(sample(make_copula("clayton:2"), 500, RngSpec(seed=3)))
    yield "ties n=300", pseudo_obs(SampleSet(x=x, y=x + rng.integers(0, 4, 300)))
    # n + 1 = 100: at grid 50 every even rank lands exactly on an edge
    yield "on edges n=99", pseudo_obs(sample(make_copula("gumbel:3"), 99, RngSpec(seed=4)))
    yield "n=2", pseudo_obs(_sset([(1, 2), (2, 1)]))
    edge = np.array([0.0, 0.5, 1.0, 0.25, 1.0])
    yield "at 0 and 1", PseudoObservations(u=edge, v=edge[::-1].copy())


@pytest.mark.parametrize("grid", [50, 7])
def test_empirical_copula_lattice_counts_like_the_cdf(grid):
    edges = np.linspace(0.0, 1.0, grid + 1)
    for name, p in _lattice_samples():
        want = empirical_copula_cdf(p, edges[:, None], edges[None, :])
        got = empirical_copula_lattice(p, edges)
        assert got.shape == (grid + 1, grid + 1)
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), name


def test_chatterjee_monotone_small():
    s = _sset([(1, 1), (2, 2), (3, 3), (4, 4)])
    assert chatterjee_r(s) == pytest.approx(0.4)


def test_chatterjee_monotone_formula():
    n = 100
    s = _sset([(i, i) for i in range(1, n + 1)])
    assert chatterjee_r(s) == pytest.approx(1.0 - 3.0 / (n + 1))


def test_chatterjee_independence_band():
    vals = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        s = SampleSet(x=rng.random(10_000), y=rng.random(10_000))
        vals.append(chatterjee_r(s))
    assert np.max(np.abs(vals)) <= 0.05


def test_chatterjee_rank_invariance():
    rng = np.random.default_rng(11)
    x = rng.random(500)
    y = rng.random(500)
    a = chatterjee_r(SampleSet(x=x, y=y), np.random.default_rng(0))
    b = chatterjee_r(SampleSet(x=x ** 3, y=np.exp(y)), np.random.default_rng(0))
    assert a == b


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_chatterjee_rejects_non_finite(bad):
    s = _sset([(1, 1), (2, 2), (3, bad), (4, 4)])
    with pytest.raises(ValueError, match="observations must be finite"):
        chatterjee_r(s)
    with pytest.raises(ValueError, match="observations must be finite"):
        chatterjee_r(_sset([(1, 1), (bad, 2), (3, 3)]))


def test_chatterjee_rejects_constant_y():
    with pytest.raises(ValueError, match="constant y column"):
        chatterjee_r(_sset([(1, 5), (2, 5), (3, 5)]))


def test_empirical_kendall_comonotone():
    p = pseudo_obs(_sset([(1, 1), (2, 2), (3, 3), (4, 4)]))
    k = empirical_kendall(p)
    assert np.allclose(k.w_values, [0.0, 1 / 5, 2 / 5, 3 / 5])
    assert k.eval(0.0) == pytest.approx(0.25)
    assert k.eval(1.0) == 1.0


def test_empirical_kendall_two_point():
    p = pseudo_obs(_sset([(1, 2), (2, 1)]))
    k = empirical_kendall(p)
    assert np.allclose(k.w_values, [0.0, 0.0])
    t = np.linspace(0, 1, 11)
    assert np.allclose(k.eval(t), 1.0)


def test_empirical_kendall_projection_validity():
    # raw step below the diagonal gets projected up to the identity
    k = EmpiricalKendall(w_values=np.array([0.9, 0.95, 1.0]))
    t = np.linspace(0, 1, 21)
    v = k.eval(t)
    assert np.min(v - t) >= -1e-12
    assert np.min(np.diff(v)) >= -1e-12


def test_reconstruct_generator_pi_oracle():
    # F(t) = t - t ln t  =>  phi(x) = -log x / log 2 (integral oracle ln|ln t|)
    class TrueKendall:
        def eval(self, t):
            t = np.clip(np.asarray(t, dtype=float), 1e-300, 1.0)
            return np.clip(t - t * np.log(t), 0.0, 1.0)

    g = reconstruct_generator(TrueKendall())
    x = np.linspace(0.05, 1.0, 200)
    assert np.max(np.abs(g.phi(x) - (-np.log(x) / _LN2))) <= 1e-3


def test_reconstruct_generator_gumbel3_oracle():
    true = kendall_function(make_gumbel(3.0))
    g = reconstruct_generator(true)
    x = np.linspace(0.05, 1.0, 200)
    assert np.max(np.abs(g.phi(x) - (-np.log(x) / _LN2) ** 3)) <= 1e-3


def test_reconstruct_generator_anchor_exact():
    true = kendall_function(make_gumbel(3.0))
    g = reconstruct_generator(true)
    assert g.phi(0.5) == pytest.approx(1.0, abs=1e-14)
    # generator invariants: decreasing, convex up to grid tolerance
    t = np.linspace(0.05, 1.0, 100)
    phi = g.phi(t)
    assert np.all(np.diff(phi) <= 1e-12)
    slopes = np.diff(phi) / np.diff(t)
    assert np.min(np.diff(slopes)) >= -1e-8


def test_reconstruct_generator_strict_iff_kendall_zero_at_zero():
    class ZeroAtZero:            # Pi's Kendall function, exact 0 at 0
        def eval(self, t):
            t = np.asarray(t, dtype=float)
            with np.errstate(divide="ignore", invalid="ignore"):
                return np.where(t > 0, t - t * np.log(t), 0.0)

    g = reconstruct_generator(ZeroAtZero())
    assert g.strict and g.phi(0.0) == np.inf and g.inverse(np.inf) == 0.0
    x = np.array([1e-9, 1e-6, 1e-5])
    assert np.all(np.diff(g.phi(x)) < 0) and np.allclose(g.inverse(g.phi(x)), x)
    assert reconstruct_generator(kendall_function(make_gumbel(3.0))).strict
    # the step estimate has an atom at 0, so its generator is never strict
    p = pseudo_obs(sample(make_copula("clayton:2"), 200, RngSpec(seed=1)))
    k = empirical_kendall(p)
    assert k.eval(0.0) > 0
    g = reconstruct_generator(k)
    # phi(0) is the finite right limit phi(0+), and the pseudo-inverse maps it to 0
    assert not g.strict and np.isfinite(g.phi(0.0))
    assert g.phi(0.0) == pytest.approx(g.phi(1e-12), rel=1e-9) and g.inverse(g.phi(0.0)) == 0.0


def test_reconstruct_generator_rejects_kendall_at_identity():
    k = EmpiricalKendall(w_values=np.array([0.9, 0.95, 1.0]))   # K(t) = t below 0.9
    with pytest.raises(ValueError, match="exceed the identity"):
        reconstruct_generator(k)


def test_reconstruct_generator_rejects_range_beyond_float():
    # comonotone n = 1000: phi(0) / phi(1/2) is about e^955
    p = pseudo_obs(_sset([(i, i) for i in range(1000)]))
    with pytest.raises(ValueError, match="exceeds floating point"):
        reconstruct_generator(empirical_kendall(p))


@pytest.mark.parametrize("n", [50, 2000])
@pytest.mark.parametrize("spec", ["gumbel:3", "clayton:2"])
def test_plugin_models_satisfy_disintegration(spec, n):
    bad = []
    for seed in range(10):
        p = pseudo_obs(sample(make_copula(spec), n, RngSpec(seed=seed)))
        for which, model in (
            ("arch", archimedean_copula(reconstruct_generator(empirical_kendall(p)))),
            ("ev", ev_copula(convexify_pickands(cfg_estimator(p)))),
        ):
            defect = disintegration_defect(model)
            if defect > 1e-3:
                bad.append(f"{which} seed={seed}: {defect:.2e}")
    assert not bad, bad


@pytest.mark.parametrize("spec,n,seed", [("clayton:2", 2000, 1), ("clayton:2", 50, 2),
                                         ("gumbel:3", 500, 3), ("frank:5", 1000, 4)])
def test_plugin_arch_kernel_is_monotone_in_y(spec, n, seed):
    # phi is linear between the step estimate's atoms; a knot inside a piece
    # splits its slope by rounding, and K then drops in y where C crosses it
    p = pseudo_obs(sample(make_copula(spec), n, RngSpec(seed=seed)))
    model = archimedean_copula(reconstruct_generator(empirical_kendall(p)))
    assert np.min(np.diff(kernel_grid(model, QuadratureSpec(m=512)), axis=1)) >= 0.0


def test_cfg_endpoints_exact_one():
    rng = np.random.default_rng(5)
    p = pseudo_obs(SampleSet(x=rng.random(200), y=rng.random(200)))
    raw = cfg_estimator(p)
    assert raw["a"][0] == pytest.approx(1.0, abs=1e-12)
    assert raw["a"][-1] == pytest.approx(1.0, abs=1e-12)


def test_cfg_comonotone_midpoint():
    x = (np.arange(1000) + 1.0) / 1001.0
    p = pseudo_obs(SampleSet(x=x, y=x))
    raw = cfg_estimator(p)
    mid = raw["a"][len(raw["a"]) // 2]
    assert mid < 0.6


def test_cfg_independence_close_to_one():
    sups = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        p = pseudo_obs(SampleSet(x=rng.random(10_000), y=rng.random(10_000)))
        raw = cfg_estimator(p)
        sups.append(np.max(np.abs(raw["a"] - 1.0)))
    assert max(sups) <= 0.05


def _dense_cfg(p):
    # the O(n T) reference: the whole n x (T+1) matrix of min(...) terms
    t = np.linspace(0.0, 1.0, 1001)
    lu, lv = -np.log(p.u), -np.log(p.v)
    with np.errstate(divide="ignore"):
        xi = np.minimum(lu[None, :] / (1.0 - t[:, None]), lv[None, :] / t[:, None])
    log_a = -np.euler_gamma - np.mean(np.log(xi), axis=1)
    return np.exp(log_a - (1.0 - t) * log_a[0] - t * log_a[-1])


def _cfg_oracle_samples():
    out = {}
    for spec in ("galambos:3", "gumbel-ev:2.5", "pi"):
        for n in (2, 50, 2000):
            out[f"{spec}-{n}"] = lambda spec=spec, n=n: sample(make_copula(spec), n, RngSpec(seed=n))
    x = np.arange(1000.0)
    out["comonotone"] = lambda: SampleSet(x=x, y=x)
    out["countermonotone"] = lambda: SampleSet(x=x, y=-x)
    out["ties"] = lambda: SampleSet(x=np.floor(x / 7), y=np.floor(np.sqrt(x)))
    return out


_CFG_ORACLE = _cfg_oracle_samples()


@pytest.mark.parametrize("name", list(_CFG_ORACLE))
def test_cfg_matches_dense_formula(name):
    p = pseudo_obs(_CFG_ORACLE[name]())
    assert p.had_ties == (name == "ties")
    raw = cfg_estimator(p)
    assert np.array_equal(raw["t"], np.linspace(0.0, 1.0, 1001))
    assert np.all(np.isfinite(raw["a"]))
    assert np.max(np.abs(raw["a"] - _dense_cfg(p))) <= 1e-14


def test_cfg_memory_is_linear_in_n():
    # an n x 1001 float matrix at n = 10^4 alone is 80 MB
    p = pseudo_obs(sample(make_copula("galambos:3"), 10_000, RngSpec(seed=1)))
    tracemalloc.start()
    try:
        cfg_estimator(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, np.nan])
def test_cfg_rejects_pseudo_obs_outside_open_unit_interval(bad):
    u = np.array([0.25, 0.5, 0.75])
    for p in (PseudoObservations(u=np.r_[u[:2], bad], v=u),
              PseudoObservations(u=u, v=np.r_[bad, u[1:]])):
        with pytest.raises(ValueError, match=r"open interval \(0, 1\)"):
            cfg_estimator(p)


def test_convexify_identity():
    t = np.linspace(0, 1, 101)
    p = convexify_pickands({"t": t, "a": np.ones_like(t)})
    assert np.allclose(p.a(t), 1.0)


def test_convexify_clamps_to_lower_bound():
    t = np.linspace(0, 1, 101)
    p = convexify_pickands({"t": t, "a": np.full_like(t, 0.1)})
    assert np.allclose(p.a(t), np.maximum(t, 1 - t), atol=1e-12)


def test_convexify_rounds_the_lower_bound_up_near_zero():
    # fl(1 - t) < 1 - t at t = 2.2e-16 made the first slope -1.03, which the
    # piecewise-linear constructor rejected
    t = 2.1554957060641818e-16
    p = convexify_pickands({"t": np.array([0.0, t, 1.0]), "a": np.array([1.0, 0.0, 1.0])})
    assert p.breakpoints == (0.0, t, 1.0)
    assert p.a(t) >= 1.0 - t and p.dplus_a(0.0) >= -1.0


def test_convexify_sawtooth_near_truth():
    truth = make_galambos(3.0)
    t = np.linspace(0, 1, 201)
    saw = truth.a(t) + 0.02 * np.sign(np.sin(40 * np.pi * t))
    p = convexify_pickands({"t": t, "a": saw})
    assert np.max(np.abs(p.a(t) - truth.a(t))) <= 0.021


def test_plugin_gumbel3_band():
    c = make_copula("gumbel:3")
    s = sample(c, 10_000, RngSpec(seed=123))
    z, r, _ = plugin_zeta1_r(pseudo_obs(s), "archimedean", QuadratureSpec(m=256))
    assert abs(z - 0.6910) <= 0.05
    assert 0.0 <= r <= 1.0


def test_plugin_galambos3_band():
    c = make_copula("galambos:3")
    s = sample(c, 10_000, RngSpec(seed=321))
    z, r, _ = plugin_zeta1_r(pseudo_obs(s), "extreme-value", QuadratureSpec(m=256))
    assert abs(z - 0.7513) <= 0.05


def test_plugin_pi_extreme_value_small():
    vals = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        p = pseudo_obs(SampleSet(x=rng.random(10_000), y=rng.random(10_000)))
        z, _, _ = plugin_zeta1_r(p, "extreme-value", QuadratureSpec(m=128))
        vals.append(z)
    assert max(vals) <= 0.1


def test_plugin_rejects_unknown_assumption():
    rng = np.random.default_rng(0)
    p = pseudo_obs(SampleSet(x=rng.random(50), y=rng.random(50)))
    with pytest.raises(ValueError):
        plugin_zeta1_r(p, "gaussian")


def _plugin_sample(n=200):
    return pseudo_obs(sample(make_copula("gumbel:3"), n, RngSpec(seed=5)))


@pytest.mark.parametrize("which", ["archimedean", "extreme-value"])
def test_plugin_equals_single_measures_of_rebuilt_model(which):
    p = _plugin_sample()
    q = QuadratureSpec(m=64)
    t = np.linspace(0.0, 1.0, 1001)
    if which == "archimedean":
        fit = empirical_kendall(p)
        model = archimedean_copula(reconstruct_generator(fit))
        tabulate = lambda f: f.eval(t)
        want = (zeta1(model, q), r_measure(model, q))
    else:
        # the Extreme-Value measures are exact and read no grid
        fit = convexify_pickands(cfg_estimator(p))
        tabulate = lambda f: f.a(t)
        want = ev_measures(fit)[1:]
    out = plugin_zeta1_r(p, which, q)
    assert out[:2] == want
    # the returned fit is the component the model is built from
    assert tabulate(out[2]).tobytes() == tabulate(fit).tobytes()


@pytest.mark.parametrize(
    "which, factory",
    [("archimedean", "archimedean_copula"), ("extreme-value", "ev_copula")],
)
def test_plugin_evaluates_one_kernel_grid(monkeypatch, which, factory):
    # the Archimedean plugin reads one kernel grid, the Extreme-Value one none
    import copkern.estimation as est
    import copkern.extreme_value as ev

    # every binding of the factory is counted, so no route to a model escapes
    owners = [mod for mod in (est, ev) if hasattr(mod, factory)]
    sizes = []
    build = getattr(owners[0], factory)

    def counting_factory(component):
        model = build(component)

        def conditional(x):
            kernel = model.conditional(x)

            def counted_kernel(y):
                sizes.append(np.broadcast(np.asarray(x), np.asarray(y)).size)
                return kernel(y)

            return counted_kernel

        return replace(model, conditional=conditional)

    for mod in owners:
        monkeypatch.setattr(mod, factory, counting_factory)
    plugin_zeta1_r(_plugin_sample(), which, QuadratureSpec(m=32))
    assert sizes == ([32 * 32] if which == "archimedean" else [])


@pytest.mark.parametrize("build,msg", [
    (lambda: pseudo_obs(_sset([(0.2, 0.3)])), "at least two observations"),
    (lambda: empirical_kendall(PseudoObservations(u=np.array([0.5]), v=np.array([0.5]))),
     "at least two observations"),
], ids=["pseudo-obs-n1", "empirical-kendall-n1"])
def test_estimation_size_checks(build, msg):
    with pytest.raises(ValueError, match=msg):
        build()
