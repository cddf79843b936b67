"""Write the Gauss-Legendre rules that ``flatgrav.quadrature`` reads.

Run from the repository root (numpy and mpmath required):

    python tests/reference/make_legendre_rules.py src/flatgrav/legendre_rules.f64

The file holds the rules n = 16, 32, ..., 1024 on [-1, 1], each as its n
nodes in ascending order then its n weights, as little-endian doubles.
Rule n starts at double 2*(n - 16).  Each node of the positive half is
polished by Newton's method on P_n in 40-digit arithmetic, starting from
``numpy.polynomial.legendre.leggauss``; its weight is
2/((1 - x^2)*P_n'(x)^2).  Both are rounded to the nearest double, and the
negative half mirrors them, so the nodes are antisymmetric and the weights
symmetric bit for bit.  A process that integrates only floats then needs
neither numpy nor the eigenvalue solve that builds each rule.
"""
import sys
from array import array

import mpmath
import numpy as np

SIZES = [16 << k for k in range(7)]          # 16 ... 1024
DIGITS = 40


def legendre(n: int, x):
    """P_n(x) and P_n'(x), by the three-term recurrence."""
    p0, p1 = mpmath.mpf(1), x
    for j in range(2, n + 1):
        p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
    return p1, n * (x * p1 - p0) / (x * x - 1)


def positive_half(n: int):
    """The nodes x > 0 of the n-point rule, ascending, and their weights,
    each rounded to the nearest double."""
    start = np.polynomial.legendre.leggauss(n)[0][n // 2:]
    nodes, weights = [], []
    with mpmath.workdps(DIGITS):
        tiny = mpmath.mpf(10) ** (4 - DIGITS)
        for guess in start.tolist():
            x = mpmath.mpf(guess)
            for _ in range(10):
                p, dp = legendre(n, x)
                step = p / dp
                x -= step
                if abs(step) < tiny:
                    break
            else:
                raise RuntimeError(f"node {guess!r} of rule {n} does not "
                                   f"converge")
            # dp is P_n' a step of < 1e-36 away: good to ~n^2*1e-36
            nodes.append(float(x))
            weights.append(float(2 / ((1 - x * x) * dp * dp)))
    return nodes, weights


def main(out: str) -> None:
    table = array("d")
    for n in SIZES:
        x, w = positive_half(n)
        table.extend([-v for v in reversed(x)] + x)
        table.extend(list(reversed(w)) + w)
    if sys.byteorder == "big":
        table.byteswap()
    with open(out, "wb") as fh:
        fh.write(table.tobytes())
    print(f"wrote {out} ({len(table)} doubles)")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: python {sys.argv[0]} OUT")
    main(sys.argv[1])
