import warnings
from dataclasses import replace

import numpy as np
import pytest

from copkern.archimedean import (
    KendallFunction,
    archimedean_copula,
    kendall_function,
    level_function,
    make_clayton,
    make_frank,
    make_gumbel,
    make_w_generator,
)
from copkern.core import make_w
from copkern.estimation import empirical_kendall, pseudo_obs, reconstruct_generator
from copkern.fixtures import strict_generators_approaching_w
from copkern.metrics import QuadratureSpec, disintegration_defect, pi_measures
from copkern.registry import make_copula
from copkern.sampling import RngSpec, sample

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
