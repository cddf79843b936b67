"""Range-safe float arithmetic: how a closed form keeps its digits where an
intermediate leaves the float range.

A closed form of length dimension -n is evaluated in units of a power of
two 2^e near the size of its lengths (``split``, ``in_units``) and rescaled
by 2^(-n*e) once, at the end (``ldexp``).  Dividing by a power of two is
exact, so the form rounds as it does in the original numbers wherever they
stay in the normal range, and only the last factor can leave it, as a
float product would.  ``cube`` and ``norm`` saturate or fall back where
r**3 and |v| would raise or lose digits.  Imports only ``math`` and
``sys``: ``gyro`` compiles no ``carriers`` or ``quadrature`` through it.
"""
from __future__ import annotations

import math
import sys
from typing import Sequence, Tuple


def ldexp(m: float, k: int) -> float:
    """``m`` times 2^k; beyond the largest float it is infinite, as a
    float product is, where ``math.ldexp`` raises."""
    try:
        return math.ldexp(m, k)
    except OverflowError:
        return math.copysign(math.inf, m)


def cube(r: float) -> float:
    """r**3, infinite where pow raises OverflowError (r above ~5.6e102)."""
    try:
        return r**3
    except OverflowError:
        return math.inf


def split(v: Sequence[float]) -> Tuple[Tuple[float, ...], int]:
    """v/2^e and e, where 2^(e-1) <= max|v_i| < 2^e (e = 0 for v = 0).

    A component below 2^-1074 of the largest one becomes 0.
    """
    e = math.frexp(max(map(abs, v)))[1]
    return tuple(math.ldexp(c, -e) for c in v), e


def in_units(x: Sequence[float], r3: float
             ) -> Tuple[Tuple[float, ...], float, int]:
    """x/2^e and e of ``split(x)``, and r^3/2^(3e), given r3 = r**3.

    r^3/2^(3e) is pow's own r**3 scaled where that is a normal float (pow
    is not exactly scale-invariant, so the cube of a scaled r would move
    the last digit), and the cube of the scaled x's norm elsewhere.
    """
    xs, e = split(x)
    if sys.float_info.min <= r3 < math.inf:
        return xs, math.ldexp(r3, -3 * e), e
    return xs, math.hypot(*xs) ** 3, e


def norm(v: Tuple[float, float, float]) -> float:
    """|v|, its squares summed left to right with no fused multiply-add:
    the same bytes on every CPU, where a BLAS ``ddot`` rounds by kernel.
    Where that sum of finite squares leaves the normal float range, and
    would lose digits or the whole norm, |v| is ``math.hypot``'s."""
    a, b, c = v
    ss = a * a + b * b + c * c
    if not sys.float_info.min <= ss < math.inf \
            and all(map(math.isfinite, v)):
        return math.hypot(a, b, c)
    return math.sqrt(ss)
