import numpy as np
import pytest

from copkern.archimedean import archimedean_copula, kendall_function, make_gumbel
from copkern.core import CopulaModel
from copkern.estimation import (
    EmpiricalKendall,
    cfg_estimator,
    chatterjee_r,
    convexify_pickands,
    empirical_copula_cdf,
    empirical_kendall,
    plugin_zeta1_r,
    pseudo_obs,
    reconstruct_generator,
)
from copkern.extreme_value import ev_copula, make_galambos
from copkern.metrics import QuadratureSpec, r_measure, zeta1
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
    assert np.allclose(k.w_values, [0.0, 1 / 3, 2 / 3, 1.0])
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


def test_convexify_identity():
    t = np.linspace(0, 1, 101)
    p = convexify_pickands({"t": t, "a": np.ones_like(t)})
    assert np.allclose(p.a(t), 1.0)


def test_convexify_clamps_to_lower_bound():
    t = np.linspace(0, 1, 101)
    p = convexify_pickands({"t": t, "a": np.full_like(t, 0.1)})
    assert np.allclose(p.a(t), np.maximum(t, 1 - t), atol=1e-12)


def test_convexify_sawtooth_near_truth():
    truth = make_galambos(3.0)
    t = np.linspace(0, 1, 201)
    saw = truth.a(t) + 0.02 * np.sign(np.sin(40 * np.pi * t))
    p = convexify_pickands({"t": t, "a": saw})
    assert np.max(np.abs(p.a(t) - truth.a(t))) <= 0.021


def test_plugin_gumbel3_band():
    c = make_copula("gumbel:3")
    s = sample(c, 10_000, RngSpec(seed=123))
    z, r = plugin_zeta1_r(pseudo_obs(s), "archimedean", QuadratureSpec(m=256))
    assert abs(z - 0.6910) <= 0.05
    assert 0.0 <= r <= 1.0


def test_plugin_galambos3_band():
    c = make_copula("galambos:3")
    s = sample(c, 10_000, RngSpec(seed=321))
    z, r = plugin_zeta1_r(pseudo_obs(s), "extreme-value", QuadratureSpec(m=256))
    assert abs(z - 0.7513) <= 0.05


def test_plugin_pi_extreme_value_small():
    vals = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        p = pseudo_obs(SampleSet(x=rng.random(10_000), y=rng.random(10_000)))
        z, _ = plugin_zeta1_r(p, "extreme-value", QuadratureSpec(m=128))
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
    if which == "archimedean":
        model = archimedean_copula(reconstruct_generator(empirical_kendall(p)))
    else:
        model = ev_copula(convexify_pickands(cfg_estimator(p)))
    assert plugin_zeta1_r(p, which, q) == (zeta1(model, q), r_measure(model, q))


@pytest.mark.parametrize(
    "which, factory",
    [("archimedean", "archimedean_copula"), ("extreme-value", "ev_copula")],
)
def test_plugin_evaluates_one_kernel_grid(monkeypatch, which, factory):
    import copkern.estimation as est

    sizes = []
    build = getattr(est, factory)

    def counting_factory(component):
        model = build(component)

        def kernel_cdf(x, y):
            sizes.append(np.broadcast(np.asarray(x), np.asarray(y)).size)
            return model.kernel_cdf(x, y)

        return CopulaModel(cdf=model.cdf, kernel_cdf=kernel_cdf, label=model.label)

    monkeypatch.setattr(est, factory, counting_factory)
    plugin_zeta1_r(_plugin_sample(), which, QuadratureSpec(m=32))
    assert sizes == [32 * 32]
