"""Gauss-Legendre quadrature with a convergence check.

Every quadrature route in the library integrates an analytic integrand over
a finite interval, after a substitution has mapped any endpoint singularity
or infinite range away.  For such integrands the n-point Gauss-Legendre rule
converges geometrically in n, so doubling n until two successive rules agree
gives a cheap, checked result without an adaptive integrator.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Callable, Tuple

import numpy as np

from .errors import NoConvergence

__all__ = ["gauss_legendre"]

START_NODES = 32
MAX_NODES = 1024
DEFAULT_EPSREL = 1e-13


@lru_cache(maxsize=None)
def _rule(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point rule on [-1, 1], read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


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
