"""The stored Gauss-Legendre rules (``legendre_rules.f64``) against the
rules to 40 digits, and the properties every rule must have."""
import math
import os
from decimal import Decimal, localcontext
from fractions import Fraction

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


def _rule_to_40_digits(n, guesses):
    """The nodes near ``guesses`` of the n-point rule and their weights
    2/((1 - x^2)*P_n'(x)^2), by Newton's method on P_n in 40-digit decimal
    arithmetic, each rounded to the nearest double."""
    nodes, weights = [], []
    with localcontext() as ctx:
        ctx.prec = 40
        for guess in guesses:
            x = Decimal(guess)
            for _ in range(10):
                p0, p1 = Decimal(1), x
                for j in range(2, n + 1):
                    p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
                dp = n * (x * p1 - p0) / (x * x - 1)
                step = p1 / dp
                x -= step
                if abs(step) < Decimal("1e-36"):
                    break
            nodes.append(float(x))
            weights.append(float(2 / ((1 - x * x) * dp * dp)))
    return nodes, weights


@pytest.mark.parametrize("n", SIZES)
def test_rule_is_the_correctly_rounded_rule(n):
    # the half x > 0 from the stored nodes, independently of the mpmath
    # that wrote them; symmetry gives the other half
    x, w = quadrature._floats(n)
    assert _rule_to_40_digits(n, x[n // 2:]) == (list(x[n // 2:]),
                                                 list(w[n // 2:]))


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
    # x^(2n-2) weighs the outermost nodes, whose rounding it magnifies
    got = math.fsum(wk * xk ** (2 * n - 2) for xk, wk in zip(x, w))
    assert got == pytest.approx(2.0 / (2 * n - 1), rel=2e-14, abs=0.0)


@pytest.mark.parametrize("n", SIZES)
def test_array_route_reads_the_same_rule(n):
    x, w = quadrature._rule(n)
    assert x.tolist() == list(quadrature._floats(n)[0])
    assert w.tolist() == list(quadrature._floats(n)[1])
