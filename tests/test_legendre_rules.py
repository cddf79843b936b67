"""The stored Gauss-Legendre rules (``legendre_rules.f64``) against the
rules numpy computes, and the properties every rule must have."""
import math
import os
from fractions import Fraction

import numpy as np
import pytest

from flatgrav import quadrature

SIZES = [16 << k for k in range(7)]         # 16 ... 1024


def test_file_holds_exactly_the_rules():
    assert os.path.getsize(quadrature.RULES_FILE) == 8 * 2 * sum(SIZES)
    assert len(quadrature._table()) == 2 * sum(SIZES)
    assert quadrature.MAX_NODES == SIZES[-1]
    with pytest.raises(ValueError):
        quadrature._floats(48)


@pytest.mark.parametrize("n", SIZES)
def test_rule_is_symmetric_bit_for_bit(n):
    x, w = quadrature._floats(n)
    assert len(x) == len(w) == n
    assert list(x) == sorted(x)
    for k in range(n):
        assert x[k] == -x[n - 1 - k]
        assert w[k] == w[n - 1 - k] > 0.0


@pytest.mark.parametrize("n", SIZES)
def test_rule_is_numpys_to_2_ulp(n):
    # LAPACK builds may round the eigenvalue solve differently
    want_x, want_w = np.polynomial.legendre.leggauss(n)
    x, w = map(np.array, quadrature._floats(n))
    assert (np.abs(x - want_x) <= 2.0 * np.spacing(np.abs(want_x))).all()
    assert (np.abs(w - want_w) <= 2.0 * np.spacing(want_w)).all()


@pytest.mark.parametrize("n", SIZES)
def test_weights_sum_to_2(n):
    # summed exactly: a double next to 2 is 4.4e-16 away
    total = sum(map(Fraction, quadrature._floats(n)[1]))
    assert abs(total - 2) <= Fraction(4e-16)


def _legendre_sum(x, w, k):
    """The rule's sum of w*P_k(x), P_k by its three-term recurrence."""
    terms = []
    for xi, wi in zip(x, w):
        p0, p1 = 1.0, xi
        for j in range(2, k + 1):
            p0, p1 = p1, ((2 * j - 1) * xi * p1 - (j - 1) * p0) / j
        terms.append(wi * p1)
    return math.fsum(terms)


@pytest.mark.parametrize("n", SIZES)
def test_rule_has_degree_2n_minus_1(n):
    x, w = quadrature._floats(n)
    # int P_{2n-2} = 0 and the rule is exact to degree 2n - 1, but not for
    # P_{2n}; the rule of n/2 nodes misses P_{2n-2} by 5e-3 or more
    assert abs(_legendre_sum(x, w, 2 * n - 2)) <= 1e-14
    assert abs(_legendre_sum(x, w, 2 * n)) > 1e-2
    # x^(2n-2) weighs the outermost nodes, where leggauss's weights are
    # off by up to 1.2e-9 relative at n = 1024 (6e-14 at n = 32, against
    # 40-digit Newton iterates): the stored rules reach 1.2e-11, not 1e-14
    got = math.fsum(wk * xk ** (2 * n - 2) for xk, wk in zip(x, w))
    assert got == pytest.approx(2.0 / (2 * n - 1), rel=2e-11, abs=0.0)


@pytest.mark.parametrize("n", SIZES)
def test_array_route_reads_the_same_rule(n):
    x, w = quadrature._rule(n)
    assert x.tolist() == list(quadrature._floats(n)[0])
    assert w.tolist() == list(quadrature._floats(n)[1])
