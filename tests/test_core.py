import ast
import warnings
from pathlib import Path

import numpy as np
import pytest

import copkern
from copkern.archimedean import archimedean_copula
from copkern.core import (
    CheckerboardMatrix,
    checkerboard_approx,
    checkerboard_copula,
    checkerboard_measures,
    lattice,
    make_m,
    make_marshall_olkin,
    make_pi,
    make_w,
    transpose,
    _bisect,
)
from copkern.estimation import (
    cfg_estimator,
    convexify_pickands,
    empirical_kendall,
    pseudo_obs,
    reconstruct_generator,
)
from copkern.extreme_value import ev_copula
from copkern.fixtures import shift_copula, strip_copula
from copkern.registry import FAMILIES, make_copula, parse_spec, registered_examples
from copkern.sampling import RngSpec, conditional_inverse, sample


def check_copula_axioms(c, grid=100, tol=1e-10):
    g = np.linspace(0.0, 1.0, grid + 1)
    C = np.asarray(c.cdf(g[:, None], g[None, :]))
    assert np.max(np.abs(C[0, :])) <= tol, "grounded in x"
    assert np.max(np.abs(C[:, 0])) <= tol, "grounded in y"
    assert np.max(np.abs(C[-1, :] - g)) <= tol, "uniform second margin"
    assert np.max(np.abs(C[:, -1] - g)) <= tol, "uniform first margin"
    vol = C[1:, 1:] - C[:-1, 1:] - C[1:, :-1] + C[:-1, :-1]
    assert vol.min() >= -1e-12, "2-increasing"


def test_pi_values():
    pi = make_pi()
    assert pi.cdf(0.5, 0.5) == 0.25
    assert pi.kernel_cdf(0.3, 0.7) == 0.7
    assert pi.cdf(1.0, 0.37) == 0.37


def test_m_w_values():
    m, w = make_m(), make_w()
    assert m.kernel_cdf(0.4, 0.4) == 1.0
    # W has its point mass at y = 1 - x = 0.7, so just below it the mass is 0
    assert w.kernel_cdf(0.3, 0.69) == 0.0
    assert w.kernel_cdf(0.3, 0.7) == 1.0
    assert w.cdf(0.3, 0.8) == pytest.approx(0.1)


def test_marshall_olkin_reduces_to_pi():
    mo = make_marshall_olkin(0.0, 0.0)
    g = np.linspace(0, 1, 21)
    assert np.allclose(mo.cdf(g[:, None], g[None, :]), g[:, None] * g[None, :])


def test_marshall_olkin_reduces_to_m():
    mo = make_marshall_olkin(1.0, 1.0)
    assert mo.cdf(0.4, 0.7) == pytest.approx(0.4)


def test_marshall_olkin_kernel_boundary():
    # alpha = beta = 1/2 at the boundary case y^beta = x^alpha: upper branch
    mo = make_marshall_olkin(0.5, 0.5)
    assert mo.kernel_cdf(0.25, 0.5) == pytest.approx(0.5 ** 0.5, abs=1e-12)


def test_transpose_marshall_olkin_swaps_params():
    mo = make_marshall_olkin(0.3, 0.8)
    swapped = make_marshall_olkin(0.8, 0.3)
    t = transpose(mo)
    g = np.linspace(0, 1, 51)
    assert np.max(np.abs(t.cdf(g[:, None], g[None, :])
                         - swapped.cdf(g[:, None], g[None, :]))) <= 1e-12


def test_transpose_involution():
    for spec in ("pi", "clayton:2", "marshall-olkin:0.3:0.8"):
        c = make_copula(spec)
        tt = transpose(transpose(c))
        g = np.linspace(0, 1, 21)
        assert np.allclose(tt.cdf(g[:, None], g[None, :]),
                           c.cdf(g[:, None], g[None, :]), atol=1e-12)


def test_checkerboard_approx_examples():
    assert np.allclose(checkerboard_approx(make_pi(), 2).mass, 0.25)
    m4 = checkerboard_approx(make_m(), 4).mass
    assert np.allclose(m4, np.diag([0.25] * 4))
    w2 = checkerboard_approx(make_w(), 2).mass
    assert np.allclose(w2, [[0.0, 0.5], [0.5, 0.0]])


def test_checkerboard_approx_rejects_zero():
    with pytest.raises(ValueError):
        checkerboard_approx(make_pi(), 0)


def test_checkerboard_copula_uniform_equals_pi():
    cb = checkerboard_copula(CheckerboardMatrix(np.full((2, 2), 0.25)))
    assert cb.cdf(0.5, 0.5) == pytest.approx(0.25)
    g = np.linspace(0, 1, 21)
    assert np.allclose(cb.cdf(g[:, None], g[None, :]), g[:, None] * g[None, :])


def test_checkerboard_copula_diagonal_kernel():
    cb = checkerboard_copula(checkerboard_approx(make_m(), 4))
    y = np.linspace(0.0, 0.25, 11)
    assert np.allclose(cb.kernel_cdf(0.1, y), np.minimum(4 * y, 1.0))


@pytest.mark.parametrize("N", [2, 3, 8])
@pytest.mark.parametrize("bound", [make_m, make_w])
def test_checkerboard_measures_of_the_bounds(bound, N):
    # the N-board of M or W: a cell of mass 1/N per column, the kernel ramping
    # from 0 to 1 across it, so r = 1 - 1/N and zeta1 = 1 - 1/(2N) by hand
    d, z, r = checkerboard_measures(checkerboard_approx(bound(), N))
    assert abs(r - (1.0 - 1.0 / N)) <= 1e-12
    assert abs(z - (1.0 - 0.5 / N)) <= 1e-12 and d == z / 3.0


def test_checkerboard_measures_of_the_uniform_board():
    assert checkerboard_measures(CheckerboardMatrix(np.full((4, 4), 1.0 / 16))) == (0.0, 0.0, 0.0)


@pytest.mark.parametrize("spec, N", [("clayton:2", 8), ("galambos:3", 16)])
def test_checkerboard_measures_against_the_grid(spec, N):
    from copkern.metrics import QuadratureSpec, pi_measures

    cb = checkerboard_approx(make_copula(spec), N)
    exact = np.array(checkerboard_measures(cb))
    err = {m: np.abs(np.array(pi_measures(checkerboard_copula(cb), QuadratureSpec(m=m)))
                     - exact) for m in (256, 1024)}
    # for m a multiple of N the kernel is constant in x and linear in y on each
    # grid cell: the midpoint rule errs by exactly C/m^2 on K^2 (a quadratic),
    # and at second order or first (the kink of |K - y|) on D1; 1e-9 is the
    # rounding a checkerboard's masses may carry
    assert err[1024][2] <= err[256][2] / 16 + 1e-9
    assert np.all(err[1024][:2] <= err[256][:2] / 4 + 1e-9)


def test_checkerboard_measures_check_the_masses():
    with pytest.raises(ValueError, match="not doubly stochastic"):
        checkerboard_measures(CheckerboardMatrix(np.full((2, 2), 0.3)))


def test_checkerboard_disintegration():
    rng = np.random.default_rng(3)
    # random doubly stochastic matrix via Sinkhorn iteration
    a = rng.random((8, 8)) + 0.1
    for _ in range(500):
        a /= a.sum(axis=1, keepdims=True) * 8
        a /= a.sum(axis=0, keepdims=True) * 8
    cb = checkerboard_copula(CheckerboardMatrix(a))
    x = (np.arange(4000) + 0.5) / 4000
    ys = np.linspace(0.05, 0.95, 19)
    K = np.asarray(cb.kernel_cdf(x[:, None], ys[None, :]))
    assert np.max(np.abs(K.mean(axis=0) - ys)) <= 1e-10


def test_checkerboard_copula_rejects_bad_matrix():
    with pytest.raises(ValueError):
        checkerboard_copula(CheckerboardMatrix(np.array([[0.6, 0.0], [0.0, 0.4]])))


@pytest.mark.parametrize("shape", [(2, 3), (4,), (0, 0)])
def test_checkerboard_matrix_must_be_square(shape):
    # the resolution is the side of the mass matrix
    with pytest.raises(ValueError, match="square and non-empty"):
        CheckerboardMatrix(np.zeros(shape))
    assert checkerboard_copula(checkerboard_approx(make_pi(), 5)).label == "checkerboard:5"


def test_checkerboard_matches_on_lattice():
    c = make_copula("clayton:2")
    N = 8
    cb = checkerboard_copula(checkerboard_approx(c, N))
    g = np.arange(N + 1) / N
    assert np.allclose(cb.cdf(g[:, None], g[None, :]),
                       c.cdf(g[:, None], g[None, :]), atol=1e-14)


@pytest.mark.parametrize("spec", registered_examples())
def test_copula_axioms_all_families(spec):
    check_copula_axioms(make_copula(spec))


def test_registered_examples_cover_the_table():
    names = [parse_spec(spec)[0] for spec in registered_examples()]
    assert sorted(names) == sorted(set(FAMILIES) - {"pickands-pwl"})


@pytest.mark.parametrize(
    "spec, expected",
    [("pi:3", 0), ("m:1", 0), ("w:2", 0), ("clayton", 1), ("galambos:1:2", 1),
     ("marshall-olkin:0.5", 2), ("pickands-pwl:1", 0)],
)
def test_make_copula_rejects_wrong_parameter_count(spec, expected):
    with pytest.raises(ValueError, match=rf"takes {expected} inline parameter"):
        make_copula(spec)


def _plugin_fit():
    return pseudo_obs(sample(make_copula("gumbel:3"), 200, RngSpec(seed=3)))


_SYMMETRIC = {"pi", "m", "w", "clayton:2", "gumbel:3", "frank:5", "galambos:3", "gumbel-ev:2.5"}

# (model builder, transpose identity): "self" for symmetric models, "pair" for
# models whose named transpose names them back, None where the transpose is
# built anew from transposed components (parameters, Pickands function, masses)
_CONTRACT_MODELS = [
    *(pytest.param(lambda s=spec: make_copula(s), "self" if spec in _SYMMETRIC else None,
                   id=spec) for spec in registered_examples()),
    pytest.param(lambda: checkerboard_copula(checkerboard_approx(make_copula("clayton:2"), 8)),
                 None, id="checkerboard"),
    pytest.param(lambda: strip_copula(5), "pair", id="strip"),
    pytest.param(lambda: transpose(strip_copula(5)), None, id="strip^t"),
    pytest.param(lambda: shift_copula(2), "pair", id="shift"),
    pytest.param(lambda: transpose(shift_copula(2)), None, id="shift^t"),
    pytest.param(lambda: archimedean_copula(reconstruct_generator(empirical_kendall(_plugin_fit()))),
                 "self", id="plugin-arch"),
    pytest.param(lambda: ev_copula(convexify_pickands(cfg_estimator(_plugin_fit()))),
                 None, id="plugin-ev"),
]


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("build,transposed", _CONTRACT_MODELS)
def test_model_contract(build, transposed):
    """cdf and kernel_cdf compute on broadcast-compatible inputs as given, and
    kernel_cdf(x, y) is conditional(x)(y)."""
    c = build()
    g = np.linspace(0.0, 1.0, 33)
    X, Y = np.broadcast_arrays(g[:, None], g[None, :])
    for f in (c.cdf, c.kernel_cdf):
        out = np.asarray(f(g[:, None], g[None, :]))
        assert out.shape == (33, 33)
        assert _same_bits(out, f(X, Y))
        assert _same_bits(out, np.array([f(x, g) for x in g]))
    for x, y in ((g[:, None], g[None, :]), (X, Y), *((x, g) for x in g)):
        assert _same_bits(c.conditional(x)(y), c.kernel_cdf(x, y))
    if transposed == "self":
        assert transpose(c) is c
    elif transposed == "pair":
        assert transpose(transpose(c)) is c
    assert np.max(np.abs(transpose(c).cdf(X, Y) - c.cdf(Y, X))) <= 1e-12


@pytest.mark.parametrize("build,transposed", _CONTRACT_MODELS)
def test_conditional_inverse_bisects_the_kernel(build, transposed):
    # one conditional law per x draws the bytes of bisecting kernel_cdf(x, y)
    rng = np.random.default_rng(257)
    x = np.concatenate([rng.random(257), [0.0, 1e-310, 0.5, 1.0 - 1e-16, 1.0]])
    u = rng.random(x.size)
    for c in (build(), transpose(build())):
        want = _bisect(lambda y: np.asarray(c.kernel_cdf(x, y)) >= u, u, 60)[1]
        assert _same_bits(conditional_inverse(c, x, u), want)


@pytest.mark.parametrize("build,transposed", _CONTRACT_MODELS)
def test_kernel_monotone_and_reaches_one(build, transposed):
    # the kernels are used as given: each must be a distribution function in y
    c = build()
    x = np.linspace(0.02, 0.98, 25)
    y = np.linspace(0.0, 1.0, 101)
    K = np.asarray(c.kernel_cdf(x[:, None], y[None, :]))
    assert np.min(K) >= 0.0 and np.max(K) <= 1.0
    assert np.min(np.diff(K, axis=1)) >= -1e-9
    assert np.allclose(K[:, -1], 1.0)


@pytest.mark.parametrize("build,msg", [
    (lambda: make_marshall_olkin(-0.1, 0.5), r"must lie in \[0,1\]"),
    (lambda: make_marshall_olkin(0.5, 1.5), r"must lie in \[0,1\]"),
    (lambda: checkerboard_copula(CheckerboardMatrix(np.array([[-0.1, 0.6], [0.6, -0.1]]))),
     "negative entries"),
    # a NaN mass would make the board's measures and CDF read NaN
    (lambda: CheckerboardMatrix(np.full((2, 2), np.nan)), "not doubly stochastic"),
], ids=["mo-alpha-below-0", "mo-beta-above-1", "checkerboard-negative-mass",
        "checkerboard-nan-mass"])
def test_core_parameter_checks(build, msg):
    with pytest.raises(ValueError, match=msg):
        build()


_OFF_SQUARE = [-1.0, -1e-300, 0.3, float(np.nextafter(1.0, 2.0)), 1.2, 1.4]


_OFF_SQUARE_MODELS = {
    "checkerboard": lambda: checkerboard_copula(checkerboard_approx(make_copula("gumbel:3"), 8)),
    "strip:3": lambda: strip_copula(3),
    "shift:3": lambda: shift_copula(3),
}


@pytest.mark.parametrize("spec", registered_examples() + list(_OFF_SQUARE_MODELS))
def test_cdf_off_the_unit_square_reads_the_clipped_inputs(spec):
    # pi read 0.6 at (0.5, 1.2) and galambos:3 read 1.4 at (1.3, 1.4)
    c = _OFF_SQUARE_MODELS.get(spec, lambda: make_copula(spec))()
    t = np.array(_OFF_SQUARE + [0.0, 0.5, 1.0])
    x, y = (a.ravel() for a in np.meshgrid(t, t))
    off = (x < 0) | (x > 1) | (y < 0) | (y > 1)
    x, y = x[off], y[off]
    got = np.asarray(c.cdf(x, y))
    assert np.array_equal(got, np.asarray(c.cdf(np.clip(x, 0, 1), np.clip(y, 0, 1))))


_KERNEL_MODELS = {
    **_OFF_SQUARE_MODELS,
    "checkerboard:7": lambda: checkerboard_copula(checkerboard_approx(make_copula("clayton:2"), 7)),
}


@pytest.mark.parametrize("transposed", [False, True], ids=["", "transposed"])
@pytest.mark.parametrize("spec", registered_examples() + list(_KERNEL_MODELS))
def test_kernel_off_the_unit_interval_reads_the_clipped_y(spec, transposed):
    # pi read K(0.3, 1.2) = 1.2, and marshall-olkin:0.5:0.7 read NaN at y = -0.5
    c = _KERNEL_MODELS.get(spec, lambda: make_copula(spec))()
    if transposed:
        c = transpose(c)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (0.3, 0.7):
            assert c.kernel_cdf(x, -0.5) == c.kernel_cdf(x, 0.0)
            assert c.kernel_cdf(x, 1.0) == 1.0
            assert c.kernel_cdf(x, 1.2) == 1.0


def _lattice_models():
    # seeds fixed before the first run
    p_arch = pseudo_obs(sample(make_copula("gumbel:3"), 50, RngSpec(seed=21)))
    p_ev = pseudo_obs(sample(make_copula("galambos:3"), 50, RngSpec(seed=22)))
    return {
        **{spec: lambda spec=spec: make_copula(spec) for spec in registered_examples()},
        "strip:5": lambda: strip_copula(5),
        "shift:3": lambda: shift_copula(3),
        "checkerboard:7": lambda: checkerboard_copula(
            checkerboard_approx(make_copula("clayton:2"), 7)),
        "plugin-arch": lambda: archimedean_copula(reconstruct_generator(empirical_kendall(p_arch))),
        "plugin-ev": lambda: ev_copula(convexify_pickands(cfg_estimator(p_ev))),
    }


@pytest.mark.parametrize("m", [256, 300, 512])
@pytest.mark.parametrize("spec", list(_lattice_models()))
def test_lattice_blocks_are_bit_identical_to_one_call(spec, m):
    # 256 is two full blocks, 300 ends in a partial block, 512 is eight blocks
    c = _lattice_models()[spec]()
    mid, edges = (np.arange(m) + 0.5) / m, np.arange(m + 1) / m
    for f, g in ((c.kernel_cdf, mid), (c.cdf, edges)):
        one_call = np.asarray(f(g[:, None], g[None, :]), dtype=float)
        blocked = lattice(f, g, g)
        assert blocked.shape == one_call.shape
        assert np.array_equal(blocked.view(np.int64), one_call.view(np.int64))


def test_lattice_blocks_rows_by_the_point_budget():
    calls = []

    def f(x, y):
        calls.append(x.shape[0])
        return x + y

    x, y = np.linspace(0, 1, 300), np.linspace(0, 1, 300)
    assert np.array_equal(lattice(f, x, y), x[:, None] + y[None, :])
    assert calls == [109, 109, 82]
    calls.clear()
    lattice(f, x[:180], y[:180])          # 32 400 points: one call
    assert calls == [180]
    calls.clear()
    lattice(f, x[:3], np.linspace(0, 1, 40_000))   # a row over budget is one block
    assert calls == [1, 1, 1]


def test_no_import_inside_a_function():
    # the module graph is the import lines at the top of each module; an
    # import inside a function hides an edge of it, and can hide a cycle
    found = []
    for path in sorted(Path(copkern.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{path.name}:{node.lineno}" for node in ast.walk(fn)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert found == []
