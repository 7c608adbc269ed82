import numpy as np
import pytest

from copkern.archimedean import make_w_generator
from copkern.core import make_pi, transpose
from copkern.fixtures import (
    shift_copula,
    strict_generators_approaching_w,
    strip_copula,
    strip_index,
)
from copkern.metrics import QuadratureSpec, d1, disintegration_defect, midpoints

Q = QuadratureSpec(m=512)


def test_strip_index_enumeration():
    # consecutive n sweep (N, i) with i = 1..2^N
    seen = [strip_index(n) for n in range(1, 16)]
    assert seen[0] == (1, 1)
    assert seen[1] == (1, 2)
    assert seen[2] == (2, 1)
    assert seen[5] == (2, 4)
    assert seen[6] == (3, 1)
    for N, i in seen:
        assert 1 <= i <= 2 ** N


@pytest.mark.parametrize("n", [1, 3, 7, 12, 30])
def test_strip_copula_is_copula(n):
    c = strip_copula(n)
    g = np.linspace(0, 1, 101)
    C = np.asarray(c.cdf(g[:, None], g[None, :]))
    assert np.max(np.abs(C[-1, :] - g)) <= 1e-12
    assert np.max(np.abs(C[:, -1] - g)) <= 1e-12
    vol = C[1:, 1:] - C[:-1, 1:] - C[1:, :-1] + C[:-1, :-1]
    assert vol.min() >= -1e-12
    assert disintegration_defect(c, m=128000) <= 1e-3


@pytest.mark.parametrize("n", [1, 3, 7, 12, 30])
def test_strip_copula_d1_bound(n):
    N, _ = strip_index(n)
    assert d1(strip_copula(n), make_pi(), Q) <= 2.0 ** -N + 1e-3


@pytest.mark.parametrize("n", [0, 1, 3, 6])
def test_shift_copula_is_copula(n):
    c = shift_copula(n)
    g = np.linspace(0, 1, 129)
    C = np.asarray(c.cdf(g[:, None], g[None, :]))
    assert np.max(np.abs(C[-1, :] - g)) <= 1e-12
    assert np.max(np.abs(C[:, -1] - g)) <= 1e-12
    vol = C[1:, 1:] - C[:-1, 1:] - C[1:, :-1] + C[:-1, :-1]
    assert vol.min() >= -1e-12
    # the kernel is exact; the defect here is pure quadrature, O(2^n / m)
    assert disintegration_defect(c, m=128000) <= 1e-3


def test_shift_copula_d1_constant():
    pi = make_pi()
    for n in range(7):
        assert d1(shift_copula(n), pi, Q) == pytest.approx(1.0 / 3.0, abs=2e-3)


def test_shift_transpose_converges_to_pi():
    pi = make_pi()
    vals = [d1(transpose(shift_copula(n)), pi, Q) for n in (1, 3, 6)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] <= 0.02


def test_shift_transpose_involution():
    c = shift_copula(4)
    tt = transpose(transpose(c))
    g = np.linspace(0, 1, 65)
    assert np.allclose(tt.cdf(g[:, None], g[None, :]),
                       c.cdf(g[:, None], g[None, :]), atol=1e-12)


def test_shift_transpose_kernel_disintegrates():
    assert disintegration_defect(transpose(shift_copula(5)), m=128000) <= 1e-3


@pytest.mark.parametrize("m", [64, 256])
def test_strip_transpose_kernel_matches_difference_quotient(m):
    t = transpose(strip_copula(5))
    x = midpoints(m)[:, None]
    y = midpoints(m)[None, :]
    # oracle: dC^t/dx as a symmetric difference quotient of the CDF
    lo, hi = x - 1e-5, x + 1e-5
    Q = (t.cdf(hi, y) - t.cdf(lo, y)) / (hi - lo)
    assert np.max(np.abs(t.kernel_cdf(x, y) - Q)) <= 1e-10


def test_strip_transpose_kernel_disintegrates():
    assert disintegration_defect(transpose(strip_copula(5))) <= 1e-10


def test_w_approx_generators_limit_mismatch_at_zero():
    # the approximating generators are strict but the limit is not:
    # lim phi_k(0+) = inf != 2 = phi_W(0)
    w = make_w_generator()
    assert not w.strict
    assert w.phi(0.0) == 2.0
    for k in (1, 5, 50):
        g = strict_generators_approaching_w(k)
        assert g.strict and g.phi(0.0) == np.inf


@pytest.mark.parametrize("build,msg", [
    (lambda: strip_index(0), "strip copula index must be >= 1"),
    (lambda: shift_copula(-1), "shift copula index must be >= 0"),
    (lambda: strict_generators_approaching_w(0), "index must be >= 1"),
], ids=["strip-0", "shift-negative", "w-approx-0"])
def test_fixture_index_checks(build, msg):
    with pytest.raises(ValueError, match=msg):
        build()
