import functools
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copkern import archimedean
from copkern.archimedean import (
    KendallFunction,
    _log_abs_expm1,
    archimedean_copula,
    kendall_function,
    level_function,
    make_clayton,
    make_frank,
    make_gumbel,
    make_w_generator,
    piecewise_measures,
)
from copkern.core import (
    ExchangeableKernel,
    cdf_lattice,
    has_exchangeable_cdf,
    lattice,
    make_pi,
    make_w,
    square_tiles,
    sup_distance,
)
from copkern.estimation import empirical_kendall, pseudo_obs, reconstruct_generator
from copkern.extreme_value import make_galambos, make_gumbel_pickands
from copkern.fixtures import strict_generators_approaching_w
from copkern.metrics import (
    QuadratureSpec,
    d1_grids,
    d1_to_grid,
    d_inf,
    disintegration_defect,
    kernel_grid,
    pi_measures,
)
from copkern.registry import FAMILIES, make_copula, parse_spec, registered_examples
from copkern.sampling import RngSpec, SampleSet, sample

_LN2 = np.log(2.0)


@pytest.mark.parametrize(
    "g",
    [make_clayton(2.0), make_gumbel(3.0), make_frank(5.0), make_w_generator()],
    ids=["clayton2", "gumbel3", "frank5", "w"],
)
def test_generator_invariants(g):
    t = np.linspace(0.01, 1.0, 200)
    phi = g.phi(t)
    assert np.all(np.diff(phi) < 0), "strictly decreasing"
    assert g.phi(1.0) == pytest.approx(0.0, abs=1e-12)
    assert g.phi(0.5) == pytest.approx(1.0, abs=1e-12)
    # convexity via slopes of consecutive chords
    slopes = np.diff(phi) / np.diff(t)
    assert np.min(np.diff(slopes)) >= -1e-9
    # right derivative is nondecreasing and consistent with chords
    d = g.dplus_phi(t[:-1])
    assert np.min(np.diff(d)) >= -1e-9
    # inverse round trip
    assert np.allclose(g.inverse(phi), t, atol=1e-9)


def test_gumbel_closed_form():
    g = make_gumbel(3.0)
    x = 0.3
    assert g.phi(x) == pytest.approx((-np.log(x) / _LN2) ** 3, rel=1e-14)


def test_clayton_closed_form():
    g = make_clayton(2.0)
    assert g.phi(0.25) == pytest.approx((0.25 ** -2 - 1) / 3.0, rel=1e-14)


def test_pseudo_inverse_beyond_range_is_zero():
    g = make_w_generator()          # phi(0) = 2, non-strict
    assert g.inverse(2.5) == 0.0
    assert g.inverse(1.0) == pytest.approx(0.5)


def test_level_function_zero_level_of_w():
    g = make_w_generator()
    x = np.linspace(0.0, 1.0, 11)
    assert np.allclose(level_function(g, 0.0, x), 1.0 - x, atol=1e-12)


def test_level_function_rejects_x_below_t():
    with pytest.raises(ValueError):
        level_function(make_clayton(2.0), 0.5, 0.3)


def test_level_function_strict_zero_level():
    # strict generators: f^0 == 0 except at x = 0
    g = make_gumbel(3.0)
    x = np.linspace(0.1, 1.0, 10)
    assert np.max(level_function(g, 0.0, x)) <= 1e-12


def test_w_copula_matches_closed_form():
    c = archimedean_copula(make_w_generator())
    w = make_w()
    g = np.linspace(0, 1, 41)
    assert np.allclose(c.cdf(g[:, None], g[None, :]),
                       w.cdf(g[:, None], g[None, :]), atol=1e-9)
    # non-strict kernel: no mass strictly below y = 1 - x
    assert c.kernel_cdf(0.3, 0.69) == 0.0
    assert c.kernel_cdf(0.3, 0.71) == 1.0


@pytest.mark.parametrize(
    "g", [make_clayton(2.0), make_gumbel(3.0), make_frank(5.0)],
    ids=["clayton2", "gumbel3", "frank5"],
)
def test_kernel_level_curve_consistency(g):
    # K(x, [0, f^t(x)]) = D+phi(x) / D+phi(t) for t <= x, both continuous here
    c = archimedean_copula(g)
    ts = np.linspace(0.05, 0.9, 20)
    for t in ts:
        xs = np.linspace(t + 0.01, 0.99, 20)
        f = level_function(g, t, xs)
        lhs = c.kernel_cdf(xs, f)
        rhs = g.dplus_phi(xs) / g.dplus_phi(t)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_kernel_evaluates_x_terms_once_per_x():
    """On an (m, 1) x (1, m) grid, phi(x), D+phi(x) and the zero level see m points."""
    sizes = {"phi": [], "dplus_phi": []}

    def counted(name, f):
        def wrapped(t):
            sizes[name].append(np.size(t))
            return f(t)
        return wrapped

    g = make_w_generator()        # non-strict: the kernel also reads the zero level
    g = replace(g, phi=counted("phi", g.phi), dplus_phi=counted("dplus_phi", g.dplus_phi))
    m = 16
    x = (np.arange(m) + 0.5) / m
    K = archimedean_copula(g).kernel_cdf(x[:, None], x[None, :])
    assert K.shape == (m, m)
    assert max(sizes["phi"]) == m
    assert sorted(sizes["dplus_phi"]) == [m, m * m]


def _plugin_generator():
    return reconstruct_generator(empirical_kendall(
        pseudo_obs(sample(make_copula("clayton:2"), 200, RngSpec(seed=1)))))


@pytest.mark.parametrize("build,strict", [
    (make_w_generator, False),
    (_plugin_generator, False),
    (lambda: make_clayton(2.0), True),
], ids=["w", "plugin-arch", "clayton2"])
def test_kernel_evaluates_phi_twice(monkeypatch, build, strict):
    """phi(0) is read once per copula; a kernel call evaluates phi at x and at y only,
    and its non-strict zero level reuses that phi(x) instead of the level function."""
    g = build()
    assert g.strict == strict
    calls = []
    g = replace(g, phi=lambda t, phi=g.phi: calls.append(np.shape(t)) or phi(t))
    c = archimedean_copula(g)
    assert calls == [()]

    def no_level_function(*args):
        raise AssertionError("the kernel re-derives its zero level")

    monkeypatch.setattr(archimedean, "level_function", no_level_function)
    x = (np.arange(16) + 0.5) / 16
    for _ in range(3):
        calls.clear()
        K = c.kernel_cdf(x[:, None], x[None, :])
        assert calls == [(16, 1), (1, 16)]
    if not strict:
        # the zero region is the one the level function draws
        assert np.array_equal(K == 0.0, x[None, :] < level_function(g, 0.0, x)[:, None])


def test_kendall_function_pi_form():
    # independence-like check: Gumbel theta=1 is Pi; F(x) = x - x ln x
    g = make_gumbel(1.0)
    x = np.linspace(0.05, 0.95, 19)
    assert np.allclose(kendall_function(g).eval(x), x - x * np.log(x), atol=1e-12)


def test_kendall_function_gumbel3():
    # F(x) = x - (x ln x)/3 for Gumbel theta = 3
    g = make_gumbel(3.0)
    x = np.linspace(0.05, 0.95, 19)
    assert np.allclose(kendall_function(g).eval(x), x - x * np.log(x) / 3.0, atol=1e-12)


def test_kendall_function_boundaries():
    f = kendall_function(make_clayton(2.0))
    assert f.eval(1.0) == 1.0
    # Clayton theta=2: F(x) = x + (x - x^3)/2
    assert f.eval(0.5) == pytest.approx(0.5 + (0.5 - 0.125) / 2.0, abs=1e-9)
    # nondecreasing and above the identity
    x = np.linspace(0.0, 1.0, 101)
    v = f.eval(x)
    assert np.min(np.diff(v)) >= -1e-12
    assert np.min(v - np.clip(x, 0, 1)) >= -1e-12


def test_clayton_sequence_copula_curves_decrease():
    # theta_k = 3 + 1/k: copula-level discrepancies decrease to 0
    from copkern.metrics import QuadratureSpec, d1, d_inf

    limit = archimedean_copula(make_clayton(3.0))
    q = QuadratureSpec(m=128)
    ks = [1, 2, 4, 8, 16, 32, 64]
    dinfs = [d_inf(archimedean_copula(make_clayton(3.0 + 1.0 / k)), limit, q) for k in ks]
    d1s = [d1(archimedean_copula(make_clayton(3.0 + 1.0 / k)), limit, q) for k in ks]
    assert all(a > b for a, b in zip(dinfs, dinfs[1:]))
    assert all(a > b for a, b in zip(d1s, d1s[1:]))
    assert dinfs[-1] < 1e-2 and d1s[-1] < 1e-2


def test_strict_generators_converge_pointwise_to_w():
    # pointwise convergence on (0, 1] with phi_k(0+) = inf for every k
    w = make_w_generator()
    t = np.linspace(0.01, 1.0, 100)
    sup_prev = np.inf
    for k in (1, 10, 100, 1000):
        g = strict_generators_approaching_w(k)
        assert g.strict
        sup = np.max(np.abs(g.phi(t) - w.phi(t)))
        assert sup < sup_prev
        sup_prev = sup
    assert sup_prev < 1e-2


def _pi_kendall(t):
    t = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(t > 0, t - t * np.log(t), 0.0)


# every kind of generator the library builds, with its expected strictness
_LIBRARY_GENERATORS = {
    "clayton": (lambda: make_clayton(2.0), True),
    "gumbel": (lambda: make_gumbel(3.0), True),
    "frank+": (lambda: make_frank(5.0), True),
    "frank-": (lambda: make_frank(-5.0), True),
    "w": (make_w_generator, False),
    "w-approx": (lambda: strict_generators_approaching_w(3), True),
    "plugin-step": (lambda: reconstruct_generator(empirical_kendall(
        pseudo_obs(sample(make_copula("clayton:2"), 200, RngSpec(seed=1)))
    )), False),
    "pi-reconstructed": (lambda: reconstruct_generator(KendallFunction(_pi_kendall)), True),
}


def test_generator_strictness_follows_phi_at_zero():
    # strictness is read off phi itself: phi(0) = phi(0+) is inf exactly when strict
    for name, (build, strict) in _LIBRARY_GENERATORS.items():
        g = build()
        assert g.strict == bool(np.isinf(g.phi(0.0))) == strict, name


@pytest.mark.parametrize("build", [b for b, _ in _LIBRARY_GENERATORS.values()],
                         ids=list(_LIBRARY_GENERATORS))
def test_phi_at_zero_level_and_cdf_raise_no_warning(build):
    g = build()
    x = np.linspace(0.0, 1.0, 11)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        phi0 = g.phi(0.0)
        level = level_function(g, 0.0, x)
        cdf = archimedean_copula(g).cdf(np.array([[-0.1], [0.0]]), x)
    assert phi0 > 0 and np.all((level >= 0.0) & (level <= 1.0))
    assert np.all(cdf == 0.0)


@pytest.mark.parametrize("theta", [5.0, 50.0, 300.0])
def test_frank_inverse_round_trip(theta):
    g = make_frank(theta)
    s = np.logspace(-6, 1, 71)
    assert np.allclose(g.phi(g.inverse(s)), s, rtol=1e-6, atol=0.0)


_FRANK_THETAS = (0.5, -0.5, 5.0, -5.0, 50.0, -50.0, 300.0, -300.0, -800.0, -1000.0)


@pytest.mark.parametrize("theta", _FRANK_THETAS)
def test_frank_round_trip_in_t(theta):
    # one form serves both signs; a linear-space theta < 0 form overflows at -800
    g = make_frank(theta)
    t = np.linspace(1e-3, 0.999, 999)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        back = g.inverse(g.phi(t))
    assert np.max(np.abs(back - t) / t) <= 1e-12


def test_frank_rejects_underflowing_normalizer():
    # the normalizer ~ e^{-theta/2} is the smallest subnormal at 1490 and 0 above
    for theta in (1491.0, 1500.0, 1e6):
        with pytest.raises(ValueError, match="beyond floating point"):
            make_frank(theta)
    for theta in (1400.0, 1490.0, -1500.0):
        assert make_frank(theta).strict


def test_clayton_rejects_a_normalizer_that_rounds_to_0():
    # 2**theta - 1 is 0 below theta ~ 1.6e-16, where phi read 0/0
    for theta in (1e-16, 1.6e-16, 5e-324):
        with pytest.raises(ValueError, match=f"Clayton parameter {theta:g} is beyond"):
            make_clayton(theta)
    g = make_clayton(1.7e-16)
    assert np.all(np.isfinite(g.phi(np.array([0.25, 0.5, 0.75]))))


def test_frank_large_theta_measures():
    # phi(1/2) ~ e^{-theta/2} for theta > 0 and e^{-theta t} overflows for
    # theta < 0: the generator must neither cancel nor overflow
    m = 512
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for thetas in ((50.0, 100.0, 200.0, 300.0), (-50.0, -300.0, -800.0, -1000.0)):
            rs = []
            for theta in thetas:
                c = archimedean_copula(make_frank(theta))
                _, z, r = pi_measures(c, QuadratureSpec(m))
                assert 0.0 <= z <= 1.0
                assert -3.0 / m <= r <= 1.0 + 3.0 / m
                assert disintegration_defect(c) <= 1e-3
                rs.append(r)
            # r is non-decreasing in |theta|
            assert np.all(np.diff(rs) >= 0.0)


@pytest.mark.parametrize("build", [b for b, _ in _LIBRARY_GENERATORS.values()],
                         ids=list(_LIBRARY_GENERATORS))
def test_kernel_is_one_off_the_unit_interval(build):
    # the non-strict zero level is read at x clipped to [0, 1], as the CDF reads phi
    K = archimedean_copula(build()).kernel_cdf(np.array([-0.1, 1.2]), 0.3)
    assert np.all(K == 1.0)


def test_gumbel100_reads_subnormal_phi():
    # phi(0.9995) is subnormal (~1e-314) and enters phi(x) + phi(y) as it is
    x = 0.9995
    assert make_copula("gumbel:100").cdf(x, x) == pytest.approx(x ** 2 ** (1 / 100), rel=1e-12)


# phi is read on [0, 1] only, so off the square C is the Frechet bound min(x, 1)
_OFF_SQUARE_GENERATORS = {
    "clayton2": lambda: make_clayton(2.0),
    "gumbel2.5": lambda: make_gumbel(2.5),
    "gumbel3": lambda: make_gumbel(3.0),
    "gumbel20": lambda: make_gumbel(20.0),
    "frank5": lambda: make_frank(5.0),
    "frank-4": lambda: make_frank(-4.0),
    "w": make_w_generator,
    "plugin-step": _LIBRARY_GENERATORS["plugin-step"][0],
}


@pytest.mark.parametrize("build", list(_OFF_SQUARE_GENERATORS.values()),
                         ids=list(_OFF_SQUARE_GENERATORS))
def test_cdf_at_y_from_1_up_is_min_of_x_and_1(build):
    c = archimedean_copula(build())
    x, y = np.array([[0.0], [0.3], [0.9995], [1.0], [1.2]]), np.array([[1.0, 1.2]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        C, Ct = c.cdf(x, y), c.cdf(y, x)
    assert np.all(np.isfinite(C)) and np.all(np.isfinite(Ct))
    assert np.max(np.abs(C - np.minimum(x, 1.0))) <= 1e-12
    assert np.max(np.abs(Ct - np.minimum(x, 1.0))) <= 1e-12


@pytest.mark.parametrize("theta", [3.0, 2.5])
def test_kendall_function_is_above_the_identity_next_to_1(theta):
    t = np.array([1.0 - 1e-16, 1.0 - 5e-16])
    assert np.all(kendall_function(make_gumbel(theta)).eval(t) >= t)


@pytest.mark.parametrize("build", [b for b, _ in _LIBRARY_GENERATORS.values()],
                         ids=list(_LIBRARY_GENERATORS))
def test_kendall_function_is_1_at_1(build):
    assert kendall_function(build()).eval(1.0) == 1.0


@pytest.mark.parametrize("build,msg", [
    (lambda: make_gumbel(0.5), "Gumbel parameter must be >= 1"),
    (lambda: make_frank(0.0), "Frank parameter must be nonzero"),
], ids=["gumbel-below-1", "frank-zero"])
def test_generator_parameter_checks(build, msg):
    with pytest.raises(ValueError, match=msg):
        build()


@pytest.mark.parametrize("theta", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("make", [make_clayton, make_gumbel, make_frank, make_galambos,
                                  make_gumbel_pickands],
                         ids=["clayton", "gumbel", "frank", "galambos", "gumbel-ev"])
def test_family_factories_reject_non_finite_parameters(make, theta):
    # a NaN passed the `<` tests: make_clayton(nan)'s kernel read 0 and
    # make_galambos(inf)'s CDF NaN; the registry checks only its own specs
    with pytest.raises(ValueError, match=f"parameter must be .* must be finite, got {theta}"):
        make(theta)


def _plugin_generator(spec, n, seed):
    p = pseudo_obs(sample(make_copula(spec), n, RngSpec(seed=seed)))
    return reconstruct_generator(empirical_kendall(p))


@pytest.mark.parametrize("name", list(_LIBRARY_GENERATORS), ids=list(_LIBRARY_GENERATORS))
def test_knots_are_the_reconstructed_table(name):
    g = _LIBRARY_GENERATORS[name][0]()
    if g.label != "reconstructed":
        assert g.knots is None
        return
    ts, phis = g.knots
    assert np.all(np.diff(ts) > 0) and ts[-1] == 1.0 and phis[-1] == 0.0
    assert np.array_equal(g.phi(ts), phis)
    assert not (ts.flags.writeable or phis.flags.writeable)


# plugin fits, and near-comonotone ones whose phi(0) runs from 1e23 to 1e82
_PIECEWISE_FITS = [(spec, n, seed) for spec in ("gumbel:3", "clayton:2")
                   for n in (50, 100) for seed in range(3)]
_NEAR_COMONOTONE_FITS = [("m", 100, 0), ("m", 200, 0), ("gumbel:50", 200, 0),
                         ("clayton:20", 100, 0)]


@pytest.mark.parametrize("spec, n, seed", _PIECEWISE_FITS + _NEAR_COMONOTONE_FITS,
                         ids=lambda v: str(v))
def test_piecewise_measures_match_the_grid(spec, n, seed):
    g = _plugin_generator(spec, n, seed)
    if (spec, n, seed) in _NEAR_COMONOTONE_FITS:
        assert g.knots[1][0] >= 1e23
    exact = np.array(piecewise_measures(g))
    for m in (1024, 4096):
        err = np.abs(np.array(pi_measures(archimedean_copula(g), QuadratureSpec(m))) - exact)
        # the kernel is a step function: the midpoint grid's error is first
        # order, with a sign that changes with m; r = 6 int K^2 - 2 carries the
        # factor 6 on an integral of a kernel in [0, 1] (it reads 5.05/m at
        # m = 4096 on clayton:2, n = 100, seed 0)
        assert err[1] <= 2.0 / m and err[2] <= 6.0 / m


@pytest.mark.parametrize("spec, n, r", [
    ("gumbel:3", 50, 0.625489), ("gumbel:3", 100, 0.562740), ("gumbel:3", 500, 0.491111),
    ("clayton:2", 50, 0.409230), ("clayton:2", 100, 0.367382),
])
def test_piecewise_measures_pin_the_exact_r(spec, n, r):
    # values of an independent O(P^2) sum over Psi = int phi^-, seed 3
    assert abs(piecewise_measures(_plugin_generator(spec, n, 3))[2] - r) <= 1e-6


def test_piecewise_measures_of_the_countermonotone_fit():
    g = _plugin_generator("w", 50, 0)
    assert len(g.knots[0]) == 2          # P = 1: phi is linear, the generator of W
    _, z, r = piecewise_measures(g)
    assert abs(z - 1.0) <= 1e-15 and abs(r - 1.0) <= 1e-15


def _table(ts, phis):
    return replace(make_w_generator(), label="table", knots=(np.array(ts), np.array(phis)))


@pytest.mark.parametrize("build, msg", [
    (lambda: make_gumbel(3.0), r"'archimedean\[gumbel:3\]' need a non-strict generator"),
    (lambda: reconstruct_generator(kendall_function(make_gumbel(3.0))),
     r"'archimedean\[reconstructed\]' need a non-strict generator"),
    (lambda: _table([0.0, 0.5, 1.0], [2.0, 1.5, 0.0]), "not decreasing and convex"),
    (lambda: _table([0.0, 0.5, 1.0], [2.0, np.nan, 0.0]), "not decreasing and convex"),
    # the first slope overflows to -inf, so kappa_00 = inf / inf
    (lambda: _table([0.0, 1e-10, 1.0], [1e300, 1.0, 0.0]), r"'archimedean\[table\]'.*not finite"),
], ids=["parametric", "strict-reconstructed", "concave", "nan", "overflow"])
def test_piecewise_measures_checks(build, msg):
    with pytest.raises(ValueError, match=msg):
        piecewise_measures(build())


def _tied_sample():
    # six x values and four offsets: many pseudo-observations share ranks
    rng = np.random.default_rng(5)
    x = rng.integers(0, 6, 300).astype(float)
    return SampleSet(x=x, y=x + rng.integers(0, 4, 300))


# every kind of Archimedean model the library builds: the registered specs,
# the W generator, and plugin fits that are strict, non-strict or tied
_EXCHANGEABLE_BUILDERS = {
    **{spec: lambda spec=spec: make_copula(spec) for spec in registered_examples()
       if FAMILIES[parse_spec(spec)[0]].kind == "archimedean"},
    "w-generator": lambda: archimedean_copula(make_w_generator()),
    "plugin-strict": lambda: archimedean_copula(
        reconstruct_generator(kendall_function(make_gumbel(3.0)))),
    "plugin-non-strict": lambda: archimedean_copula(_plugin_generator("clayton:2", 200, 1)),
    "plugin-tied": lambda: archimedean_copula(
        reconstruct_generator(empirical_kendall(pseudo_obs(_tied_sample())))),
}


@functools.lru_cache(maxsize=None)
def _exchangeable_model(name):
    return _EXCHANGEABLE_BUILDERS[name]()


def test_exchangeable_builders_cover_every_kind_of_generator():
    assert len(_EXCHANGEABLE_BUILDERS) == 7
    for name in _EXCHANGEABLE_BUILDERS:
        c = _exchangeable_model(name)
        assert has_exchangeable_cdf(c)
        assert isinstance(c.conditional, ExchangeableKernel)
        assert not hasattr(c.conditional, "exchangeable")
    assert reconstruct_generator(kendall_function(make_gumbel(3.0))).strict
    assert not _plugin_generator("clayton:2", 200, 1).strict
    assert pseudo_obs(_tied_sample()).had_ties


_EDGE_FLOATS = (0.0, 1.0, 5e-324, 2.2250738585072014e-308, 1e-300, 0.5, 1.0 - 2.0 ** -53)
_UNIT = st.one_of(st.sampled_from(_EDGE_FLOATS),
                  st.floats(0.0, 1.0, allow_nan=False, allow_subnormal=True))


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(_EXCHANGEABLE_BUILDERS)),
       st.lists(st.tuples(_UNIT, _UNIT), min_size=1, max_size=40))
def test_exchangeable_models_are_symmetric_to_the_bit(name, pairs):
    # the declaration `square_tiles` mirrors on: C and the kernel's symmetric
    # part S = given(x)[0](y) take the same bits at (x, y) and (y, x), as
    # vectors and as lattices
    c = _exchangeable_model(name)
    given = c.conditional.given

    def symmetric(x, y):
        return given(x)[0](y)

    x, y = np.array(pairs).T
    for f in (c.cdf, symmetric):
        assert np.array_equal(_bits(f(x, y)), _bits(f(y, x)))
        assert np.array_equal(_bits(f(x[:, None], y[None, :])), _bits(f(y[:, None], x[None, :]).T))
    # the kernel is the composition of its split, bit for bit
    X, Y = x[:, None], y[None, :]
    symmetric_at, finish_at = given(X)
    K = finish_at(Y, symmetric_at(Y))
    assert np.array_equal(_bits(c.kernel_cdf(X, Y)), _bits(K))


@pytest.mark.parametrize("m", [16, 181, 256, 512])
@pytest.mark.parametrize("name", list(_EXCHANGEABLE_BUILDERS))
def test_tiled_lattices_are_the_row_walked_lattices(name, m):
    # kernel_grid and cdf_lattice walk mirrored tiles from m = 182 on; the
    # row blocks of core.lattice are the reference
    c = _exchangeable_model(name)
    mid, edges = (np.arange(m) + 0.5) / m, np.arange(m + 1) / m
    K, L = kernel_grid(c, QuadratureSpec(m=m)), cdf_lattice(c, m)
    assert np.array_equal(_bits(K), _bits(lattice(c.kernel_cdf, mid, mid)))
    assert np.array_equal(_bits(L), _bits(lattice(c.cdf, edges, edges)))
    # d_inf evaluates the other model on the tiles of the exchangeable one
    other = _exchangeable_model("clayton:2")
    L_other, L_pi = cdf_lattice(other, m), cdf_lattice(make_pi(), m)
    q = QuadratureSpec(m=m)
    assert _bits(d_inf(c, other, q)) == _bits(sup_distance(L, L_other))
    assert _bits(d_inf(make_pi(), c, q)) == _bits(sup_distance(L, L_pi))
    # d1_to_grid sums per tile: equal to rounding
    K_other = kernel_grid(other, q)
    assert abs(d1_to_grid(c, K_other) - d1_grids(K, K_other)) <= 1e-15


def test_square_tiles_cover_the_lattice_once_and_evaluate_about_half():
    base = _exchangeable_model("clayton:2")
    points = []

    def counted(x):
        symmetric_at, finish_at = base.conditional.given(x)

        def counted_at(y):
            points.append(np.broadcast(x, y).size)
            return symmetric_at(y)

        return counted_at, finish_at

    c = replace(base, conditional=ExchangeableKernel(counted))
    for n, share in ((182, 0.99), (512, 0.62), (2000, 0.52)):
        g = (np.arange(n) + 0.5) / n
        cover = np.zeros((n, n), dtype=int)
        points.clear()
        for rows, cols, block in square_tiles(c, g, kernel=True):
            assert block.shape == cover[rows, cols].shape
            cover[rows, cols] += 1
        assert np.all(cover == 1)
        assert sum(points) <= share * n * n
    # a lattice of one block is one call of the kernel, over all of it
    points.clear()
    assert len(list(square_tiles(c, np.linspace(0.0, 1.0, 181), kernel=True))) == 1
    assert points == [181 * 181]


def test_a_replaced_callable_drops_its_exchangeable_declaration():
    # the declarations sit on the callables they describe, so a model whose
    # kernel or CDF is replaced walks the new one, at m = 256 (many tiles) too
    c, new = _exchangeable_model("clayton:2"), make_copula("clayton:3")
    q = QuadratureSpec(m=256)
    mid, edges = (np.arange(256) + 0.5) / 256, np.arange(257) / 256
    calls = []

    def conditional(x):
        calls.append(np.shape(x))
        return new.conditional(x)

    k = replace(c, conditional=conditional)
    assert np.array_equal(_bits(kernel_grid(k, q)), _bits(lattice(new.kernel_cdf, mid, mid)))
    assert len(calls) == 2                   # the two row blocks of 256 x 256 points
    assert np.array_equal(_bits(cdf_lattice(k, 256)), _bits(cdf_lattice(c, 256)))
    cdf = replace(c, cdf=lambda x, y: new.cdf(x, y))
    assert not has_exchangeable_cdf(cdf)
    assert np.array_equal(_bits(cdf_lattice(cdf, 256)), _bits(lattice(new.cdf, edges, edges)))
    assert np.array_equal(_bits(kernel_grid(cdf, q)), _bits(kernel_grid(c, q)))
    # a replaced kernel that declares its own split is walked by that split
    both = replace(c, conditional=new.conditional)
    assert np.array_equal(_bits(kernel_grid(both, q)), _bits(kernel_grid(new, q)))


# the allocating forms of the generators' D+phi and phi^-, which the
# in-place forms must reproduce bit for bit
def _clayton_reference(theta):
    c = 2.0 ** theta - 1.0
    return (lambda t: -theta * t ** (-theta - 1.0) / c,
            lambda s: np.where(s <= 0.0, 1.0, (1.0 + c * s) ** (-1.0 / theta)))


def _gumbel_reference(theta):
    return (lambda t: -theta * (-np.log(t)) ** (theta - 1.0) / (t * _LN2 ** theta),
            lambda s: np.where(s <= 0.0, 1.0, np.exp(-_LN2 * s ** (1.0 / theta))))


def _frank_reference(theta):
    norm = _log_abs_expm1(-theta) - _log_abs_expm1(-theta / 2.0)

    def inverse(s):
        sn = s * norm
        out = -np.logaddexp(np.log(-np.expm1(-sn)), -theta - sn) / theta
        return np.where(s <= 0.0, 1.0, out)

    return lambda t: -theta / (np.expm1(theta * t) * norm), inverse


# 1, 1.5, 2 and 3 put the exponents on numpy's scalar-power fast paths
# (x ** 2, x ** 0.5, x ** -1 and the like)
@pytest.mark.parametrize("theta", [1.0, 1.5, 2.0, 3.0, 7.3])
@pytest.mark.parametrize("make, reference", [
    (make_clayton, _clayton_reference),
    (make_gumbel, _gumbel_reference),
    (make_frank, _frank_reference),
    (lambda th: make_frank(-th), lambda th: _frank_reference(-th)),
], ids=["clayton", "gumbel", "frank", "frank-neg"])
def test_in_place_generators_match_the_allocating_forms(make, reference, theta):
    g, (dplus, inverse) = make(theta), reference(theta)
    t = np.r_[0.0, 5e-324, 1e-300, 1e-10, np.linspace(0.0, 1.0, 1001), 1.0 - 2.0 ** -53]
    s = np.r_[-1.0, 0.0, 5e-324, 1e-300, np.logspace(-300, 300, 601), np.inf]
    with np.errstate(all="ignore"):
        for got, want, arg in ((g.dplus_phi, dplus, t), (g.inverse, inverse, s)):
            assert np.array_equal(_bits(got(arg)), _bits(want(arg)))
            one = got(arg[7])
            assert isinstance(one, np.ndarray) and one.shape == ()
            assert _bits(one) == _bits(want(arg[7]))
