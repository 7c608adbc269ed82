import numpy as np
import pytest

from copkern.archimedean import Generator, archimedean_copula, make_clayton, make_w_generator
from copkern.core import make_m, make_pi, make_w
from copkern.estimation import empirical_kendall, pseudo_obs, reconstruct_generator, sample_fidelity
from copkern.registry import make_copula
from copkern.sampling import (
    BATCH_POINTS,
    RngSpec,
    batches,
    conditional_inverse,
    sample,
    sample_many,
)


def test_determinism_bit_identical():
    c = make_copula("clayton:2")
    a = sample(c, 1000, RngSpec(seed=99, stream=3))
    b = sample(c, 1000, RngSpec(seed=99, stream=3))
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)


def test_streams_differ():
    c = make_copula("clayton:2")
    a = sample(c, 100, RngSpec(seed=99, stream=0))
    b = sample(c, 100, RngSpec(seed=99, stream=1))
    assert not np.array_equal(a.y, b.y)


def _plugin_generator():
    p = pseudo_obs(sample(make_copula("gumbel:3"), 200, RngSpec(seed=3)))
    return reconstruct_generator(empirical_kendall(p))


@pytest.mark.parametrize("build", [lambda: make_clayton(2.0), make_w_generator, _plugin_generator],
                         ids=["clayton:2", "w", "plugin-arch"])
def test_sampler_evaluates_x_terms_once(build):
    # phi(x) and D+phi(x) once per draw, then phi and D+phi of C once per step
    g = build()
    calls = {"phi": 0, "dplus_phi": 0}

    def counting(name, f):
        def counted(t):
            calls[name] += 1
            return f(t)
        return counted

    c = archimedean_copula(Generator(counting("phi", g.phi), counting("dplus_phi", g.dplus_phi),
                                     g.inverse, g.label))
    calls.update(phi=0, dplus_phi=0)
    sample(c, 100, RngSpec(seed=1))
    assert calls == {"phi": 61, "dplus_phi": 61}


def test_sample_m_degenerate():
    s = sample(make_m(), 2000, RngSpec(seed=1))
    assert np.max(np.abs(s.y - s.x)) <= 1e-9


def test_sample_w_degenerate():
    s = sample(make_w(), 2000, RngSpec(seed=2))
    assert np.max(np.abs(s.y - (1.0 - s.x))) <= 1e-9


def test_sample_pi_uncorrelated():
    s = sample(make_pi(), 10_000, RngSpec(seed=3))
    assert abs(np.corrcoef(s.x, s.y)[0, 1]) <= 0.03


def test_conditional_inverse_pi_is_identity_in_u():
    x = np.full(5, 0.4)
    u = np.array([0.1, 0.25, 0.5, 0.75, 0.9])
    assert np.allclose(conditional_inverse(make_pi(), x, u), u, atol=1e-9)


@pytest.mark.parametrize("spec", ["clayton:2", "galambos:3"])
def test_sample_fidelity(spec):
    c = make_copula(spec)
    assert sample_fidelity(c, 20_000, RngSpec(seed=7)) <= 0.02


def test_sample_fidelity_small_n_band():
    assert sample_fidelity(make_pi(), 100, RngSpec(seed=11)) <= 0.2


@pytest.mark.parametrize("n", [49, 99])
def test_sample_fidelity_counts_closed_lower_orthants(n):
    # with n + 1 a multiple of the grid, pseudo-observations land on lattice
    # points; the empirical copula counts u_i <= x there, not only u_i < x
    c, grid = make_copula("clayton:2"), 50
    s = sample(c, n, RngSpec(seed=3))
    u, v = ((np.argsort(np.argsort(z)) + 1.0) / (n + 1) for z in (s.x, s.y))
    e = np.linspace(0.0, 1.0, grid + 1)
    emp = np.mean((u <= e[:, None, None]) & (v <= e[None, :, None]), axis=2)
    want = np.max(np.abs(emp - c.cdf(e[:, None], e[None, :])))
    assert sample_fidelity(c, n, RngSpec(seed=3), grid) == want


def test_marginal_uniformity_ks():
    # one-sample Kolmogorov statistic below 1.63/sqrt(n) in >= 95% of runs
    c = make_copula("gumbel:3")
    n = 1000
    bound = 1.63 / np.sqrt(n)
    ok = 0
    for seed in range(100):
        s = sample(c, n, RngSpec(seed=seed))
        ks_y = np.max(
            np.abs(np.sort(s.y) - (np.arange(1, n + 1) - 0.5) / n)
        ) + 0.5 / n
        ok += ks_y <= bound
    assert ok >= 95


def test_sample_rejects_bad_n():
    with pytest.raises(ValueError):
        sample(make_pi(), 0, RngSpec(seed=0))


@pytest.mark.parametrize("spec", ["gumbel:3", "galambos:3", "pi", "m"])
def test_sample_many_equals_one_sample_per_rng(spec):
    c = make_copula(spec)
    rngs = [RngSpec(seed=5), RngSpec(seed=6, stream=2)]
    many = sample_many(c, [50, 50], rngs)
    for s, r in zip(many, rngs):
        one = sample(c, 50, r)
        assert (s.seed, s.stream) == (one.seed, one.stream) == (r.seed, r.stream)
        assert s.x.tobytes() == one.x.tobytes() and s.y.tobytes() == one.y.tobytes()


@pytest.mark.parametrize("sizes, runs", [
    ([], []),
    ([10000], [(0, 1)]),
    ([10, 50, 1000], [(0, 3)]),
    ([8192, 1], [(0, 1), (1, 2)]),
    ([4000, 4192, 1, 10000, 5], [(0, 2), (2, 3), (3, 4), (4, 5)]),
], ids=["empty", "one-large", "mixed", "full-then-one", "large-between"])
def test_batches_pack_consecutive_sizes_by_points(sizes, runs):
    # a run holds at most BATCH_POINTS points, or one larger size alone
    assert BATCH_POINTS == 8192
    assert batches(sizes) == runs


def test_sample_many_checks_its_sizes():
    with pytest.raises(ValueError, match="2 sample sizes for 1 generators"):
        sample_many(make_pi(), [10, 10], [RngSpec(seed=0)])
    with pytest.raises(ValueError, match="sample size must be >= 1"):
        sample_many(make_pi(), [10, 0], [RngSpec(seed=0), RngSpec(seed=1)])
    with pytest.raises(ValueError, match="sample size must be an integer, got 2.5"):
        sample_many(make_pi(), [10, 2.5], [RngSpec(seed=0), RngSpec(seed=1)])
    with pytest.raises(ValueError, match="sample size must be an integer, got 50.0"):
        sample(make_pi(), 50.0, RngSpec(seed=0))
