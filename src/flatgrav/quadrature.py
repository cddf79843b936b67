"""Gauss-Legendre quadrature with a convergence check.

Every quadrature route in the library integrates an analytic integrand over
a finite interval, after a substitution has mapped any endpoint singularity
or infinite range away.  For such integrands the n-point Gauss-Legendre rule
converges geometrically in n, so doubling n until two successive rules agree
gives a cheap, checked result without an adaptive integrator.

``gauss_legendre`` integrates a float integrand over one interval.
``legendre_antiderivative`` is the one array route: it samples a vectorized
integrand at the nodes of many intervals at once and gives each interval's
whole integral, and the integral up to any points inside it from the
Legendre series the same nodes define.  It adds with numpy's pairwise sum
and ``einsum``, never a BLAS product, so its bits follow no BLAS kernel.

The rules n = 16, 32, ..., 1024 are read from ``legendre_rules.f64``, which
``tests/reference/make_legendre_rules.py`` writes, each node and weight the
double nearest to its 40-digit value: an integral of floats runs without
numpy, and no process solves for its nodes.
"""
from __future__ import annotations

import math
import os
import sys
from array import array
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Tuple

from .errors import NumericalFailure

if TYPE_CHECKING:  # the array route imports it where it runs
    import numpy as np

__all__ = ["gauss_legendre", "legendre_antiderivative"]

RULES_FILE = os.path.join(os.path.dirname(__file__), "legendre_rules.f64")
START_NODES = 32
SERIES_START_NODES = 16
MAX_NODES = 1024
DEFAULT_EPSREL = 1e-13


@lru_cache(maxsize=None)
def _table() -> array:
    """Every stored rule, as little-endian doubles read into one array: for
    n = 16, 32, ..., 1024 the n nodes, then the n weights."""
    table = array("d")
    with open(RULES_FILE, "rb") as fh:
        table.frombytes(fh.read())
    if sys.byteorder == "big":
        table.byteswap()
    return table


@lru_cache(maxsize=None)
def _floats(n: int) -> Tuple[Tuple[float, ...], Tuple[float, ...]]:
    """Nodes and weights of the stored n-point rule on [-1, 1], as floats."""
    if n & (n - 1) or not 16 <= n <= 1024:
        raise ValueError(f"no stored {n}-point Gauss-Legendre rule")
    start = 2 * (n - 16)                # the rules 16, ..., n/2 come first
    table = _table()
    return (tuple(table[start:start + n]),
            tuple(table[start + n:start + 2 * n]))


@lru_cache(maxsize=None)
def _rule(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the stored n-point rule as arrays, read-only."""
    import numpy as np
    x, w = (np.array(values) for values in _floats(n))
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


@lru_cache(maxsize=None)
def _series(n: int) -> np.ndarray:
    """Matrix (n, n - 1) from f at the n nodes to the Legendre coefficients
    of G, read-only.

    With f = sum_l c_l P_l on [-1, 1] (c_l from the n-point rule), the
    antiderivative from -1 is (x + 1)*(c_0 + (x - 1)*G(x)), where
    G = sum_{l>=1} c_l P_l'/(l*(l + 1)) has degree n - 2: the identity
    int_{-1}^x P_l = (x^2 - 1)*P_l'(x)/(l*(l + 1)) for l >= 1.  The factored
    form is exactly 0 at x = -1 and keeps relative digits near it.
    """
    import numpy as np
    legendre = np.polynomial.legendre       # loaded on first use
    x, w = _rule(n)
    degree = np.arange(n)
    coef = legendre.legvander(x, n - 1) * (w[:, None] * (degree + 0.5))
    coef[:, 0] = 0.0                        # c_0 stays out of G
    coef[:, 1:] /= degree[1:] * (degree[1:] + 1.0)
    g = legendre.legder(coef, axis=1)
    g.flags.writeable = False
    return g


def gauss_legendre(f: Callable[[float], float], a: float, b: float) -> float:
    """Integral over [a, b] of ``f``, a map from float to float.

    ``f`` is called at each node, and the rule's terms are summed by
    ``math.fsum``.  Starts with START_NODES nodes and doubles the count
    until two successive rules agree to DEFAULT_EPSREL relative; returns
    the finer of the two.  Raises NumericalFailure if they still disagree at
    MAX_NODES nodes, or at once if the interval or a rule's sum is not
    finite, so an unconverged value is never returned.

    Only the convergence of the rules is checked, not the integrability of
    ``f``: an odd pole at the centre of the interval, as of 1/x on [-1, 1],
    is no node of any rule, and its terms cancel exactly in the sum, so
    0.0 is returned.  No subcommand's integrand has such a pole.
    """
    lo, hi = float(a), float(b)
    half, mid = 0.5 * (hi - lo), 0.5 * (lo + hi)
    if not (math.isfinite(half) and math.isfinite(mid)):
        raise NumericalFailure(f"the interval [{a!r}, {b!r}] is not finite")
    prev = None
    n = START_NODES
    while n <= MAX_NODES:
        x, w = _floats(n)
        terms = [wk * f(mid + half * xk) for xk, wk in zip(x, w)]
        try:
            val = half * math.fsum(terms)
        except ValueError:              # terms of +inf and -inf
            val = math.nan
        if not math.isfinite(val):
            raise NumericalFailure(
                f"integrand is not finite on [{a!r}, {b!r}]")
        if prev is not None and abs(val - prev) <= DEFAULT_EPSREL * abs(val):
            return val
        prev = val
        n *= 2
    raise NumericalFailure(
        f"Gauss-Legendre rules disagree at {MAX_NODES} nodes on "
        f"[{a!r}, {b!r}]: last value {prev!r}"
    )


def legendre_antiderivative(f: Callable[[np.ndarray], np.ndarray], a, b,
                            x=(), which=()
                            ) -> Tuple[np.ndarray, np.ndarray]:
    """Integrals of the vectorized ``f`` over each interval [a[i], b[i]],
    and from ``a[which[j]]`` to each point ``x[j]``: (whole, part).

    ``a`` and ``b`` are 1-D arrays; each point ``x[j]`` lies in the
    interval ``which[j]``, and by default there are none.  ``f`` gets the
    nodes of every interval at once, shape ``a.shape + (n,)``, and may
    return extra leading axes, which both results keep in front.

    A whole integral is the n-point rule, its terms added by numpy's
    pairwise sum; a point's is the Legendre series of the same samples,
    integrated from its interval's start (exactly 0 there), so the cost
    grows with the intervals, not the points.  One pass starts with
    SERIES_START_NODES nodes and doubles the count, and each result is
    settled at its own rule, the finer of the first two successive rules
    that agree to DEFAULT_EPSREL relative: ``whole`` where every whole
    integral agrees, ``part`` where every point agrees to DEFAULT_EPSREL of
    its interval's whole integral and so does that whole integral.  So
    ``whole`` does not depend on the points, and ``part`` is what a call
    over only the intervals that hold points would give.  Raises
    NumericalFailure as ``gauss_legendre`` does.
    """
    import numpy as np
    lo, hi = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    x, which = np.asarray(x, dtype=float), np.asarray(which, dtype=np.intp)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    inv = np.divide(1.0, half, out=np.zeros_like(half), where=half != 0.0)
    # each point as s on [-1, 1]: x - lo = half*(s + 1), below_hi = s - 1
    s = (x - mid[which]) * inv[which]
    from_lo, below_hi = x - lo[which], (x - hi[which]) * inv[which]
    whole = part = prev = vander = None
    n = SERIES_START_NODES
    while n <= MAX_NODES:
        nodes, w = _rule(n)
        vals = f(mid[:, None] + half[:, None] * nodes)
        if not np.isfinite(vals).all():
            raise NumericalFailure("integrand is not finite on an interval")
        rule = (vals * w).sum(axis=-1)          # sum_k w_k f_k = 2*c_0
        g = 0.0
        if len(x) and part is None:             # the whole steps need no G
            if vander is None or vander.shape[-1] < n - 1:
                # P_l at the points up to degree 2n - 2, which G of the
                # doubled rule needs as well
                vander = np.polynomial.legendre.legvander(s, 2 * n - 2)
            coef = np.einsum("...ik,kl->...il", vals, _series(n))
            g = np.einsum("...jl,jl->...j", coef[..., which, :],
                          vander[:, :n - 1])
        at_n = half * rule, from_lo * (0.5 * rule[..., which] + below_hi * g)
        if prev is not None:
            tol = DEFAULT_EPSREL * abs(at_n[0])
            agree = abs(at_n[0] - prev[0]) <= tol
            if whole is None and agree.all():
                whole = at_n[0]
            if (part is None and agree[..., which].all()
                    and (abs(at_n[1] - prev[1]) <= tol[..., which]).all()):
                part = at_n[1]
            if whole is not None and part is not None:
                return whole, part
        prev = at_n
        n *= 2
    raise NumericalFailure(
        f"Legendre series disagree at {MAX_NODES} nodes on "
        f"{len(lo)} interval(s)")
