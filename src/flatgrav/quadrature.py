"""Gauss-Legendre quadrature with a convergence check.

Every quadrature route in the library integrates an analytic integrand over
a finite interval, after a substitution has mapped any endpoint singularity
or infinite range away.  For such integrands the n-point Gauss-Legendre rule
converges geometrically in n, so doubling n until two successive rules agree
gives a cheap, checked result without an adaptive integrator.  Integrals up
to many points of one interval come from the Legendre series the same nodes
define, integrated once and evaluated at each point.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Callable, Tuple

import numpy as np

from .errors import NoConvergence

__all__ = ["gauss_legendre", "legendre_antiderivative"]

START_NODES = 32
SERIES_START_NODES = 16
MAX_NODES = 1024
DEFAULT_EPSREL = 1e-13


@lru_cache(maxsize=None)
def _rule(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point rule on [-1, 1], read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
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
    legendre = np.polynomial.legendre       # loaded on first use
    x, w = _rule(n)
    degree = np.arange(n)
    coef = legendre.legvander(x, n - 1) * (w[:, None] * (degree + 0.5))
    coef[:, 0] = 0.0                        # c_0 stays out of G
    coef[:, 1:] /= degree[1:] * (degree[1:] + 1.0)
    g = legendre.legder(coef, axis=1)
    g.flags.writeable = False
    return g


def gauss_legendre(f: Callable[[np.ndarray], np.ndarray], a, b,
                   epsrel: float = DEFAULT_EPSREL):
    """Integral of the vectorized ``f`` over [a, b].

    ``a`` and ``b`` may also be arrays of one shape, one interval per entry:
    ``f`` then gets the nodes of every interval at once, shape
    ``a.shape + (n,)``, and the result has the shape of ``a``.  ``f`` may
    return extra leading axes (several integrands on the same nodes), which
    the result keeps in front.

    Starts with START_NODES nodes and doubles the count until two successive
    rules agree to ``epsrel`` relative on every interval; returns the finer
    of the two.  Raises NoConvergence if they still disagree at MAX_NODES
    nodes, or at once if a rule sums to a non-finite value, so an
    unconverged value is never returned.
    """
    lo, hi = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    half = 0.5 * (hi - lo)
    mid, scale = (0.5 * (lo + hi))[..., None], half[..., None]
    prev = None
    n = START_NODES
    while n <= MAX_NODES:
        x, w = _rule(n)
        val = half * (f(mid + scale * x) @ w)
        if not np.isfinite(val).all():
            raise NoConvergence(f"integrand is not finite on [{a!r}, {b!r}]")
        if prev is not None and (abs(val - prev) <= epsrel * abs(val)).all():
            return val if val.ndim else float(val)
        prev = val
        n *= 2
    raise NoConvergence(
        f"Gauss-Legendre rules disagree at {MAX_NODES} nodes on "
        f"[{a!r}, {b!r}]: last value {prev!r}"
    )


def legendre_antiderivative(f: Callable[[np.ndarray], np.ndarray], a, b,
                            x, which) -> np.ndarray:
    """Integrals of the vectorized ``f`` from ``a[which]`` to ``x``.

    ``a`` and ``b`` are 1-D arrays of intervals and each point ``x[j]``
    lies in the interval ``which[j]``.  ``f`` gets the nodes of every
    interval at once, shape ``a.shape + (n,)``, and may return extra
    leading axes, which the result keeps in front of the points' axis.

    ``f`` is sampled once per interval, at the n nodes of the Gauss-Legendre
    rule; its Legendre series is integrated from the interval's start and
    evaluated at each point, so the cost grows with the intervals, not the
    points.  At the interval's end the series gives the n-point rule.
    Starts with SERIES_START_NODES nodes and doubles the count until two
    successive series agree at every point to DEFAULT_EPSREL of their
    interval's whole integral; returns the finer of the two.  Raises
    NoConvergence as ``gauss_legendre`` does.  A point at its interval's
    start gets exactly 0.
    """
    lo, hi = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    x, which = np.asarray(x, dtype=float), np.asarray(which)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    inv = np.divide(1.0, half, out=np.zeros_like(half), where=half != 0.0)
    # each point as s on [-1, 1]: x - lo = half*(s + 1), below_hi = s - 1
    s = (x - mid[which]) * inv[which]
    from_lo, below_hi = x - lo[which], (x - hi[which]) * inv[which]
    prev = vander = None
    n = SERIES_START_NODES
    while n <= MAX_NODES:
        nodes, w = _rule(n)
        vals = f(mid[:, None] + half[:, None] * nodes)
        if not np.isfinite(vals).all():
            raise NoConvergence("integrand is not finite on an interval")
        if vander is None or vander.shape[-1] < n - 1:
            # P_l at the points up to degree 2n - 2, which G of the doubled
            # rule needs as well
            vander = np.polynomial.legendre.legvander(s, 2 * n - 2)
        rule = (vals @ w)[..., which]           # sum_k w_k f_k = 2*c_0
        g = np.einsum("...jl,jl->...j", (vals @ _series(n))[..., which, :],
                      vander[:, :n - 1])
        val = from_lo * (0.5 * rule + below_hi * g)
        if prev is not None and (abs(val - prev) <= DEFAULT_EPSREL
                                 * abs(half[which] * rule)).all():
            return val
        prev = val
        n *= 2
    raise NoConvergence(
        f"Legendre series disagree at {MAX_NODES} nodes on "
        f"{len(lo)} interval(s)")
