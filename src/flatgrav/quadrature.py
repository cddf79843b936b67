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


def gauss_legendre(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
                   epsrel: float = DEFAULT_EPSREL) -> float:
    """Integral of the vectorized ``f`` over [a, b].

    Starts with START_NODES nodes and doubles the count until two successive
    rules agree to ``epsrel`` relative; returns the finer of the two.  Raises
    NoConvergence if they still disagree at MAX_NODES nodes, or at once if
    a rule sums to a non-finite value, so an unconverged value is never
    returned.
    """
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    prev = None
    n = START_NODES
    while n <= MAX_NODES:
        x, w = _rule(n)
        val = half * float(w @ f(mid + half * x))
        if not np.isfinite(val):
            raise NoConvergence(f"integrand is not finite on [{a!r}, {b!r}]")
        if prev is not None and abs(val - prev) <= epsrel * abs(val):
            return val
        prev = val
        n *= 2
    raise NoConvergence(
        f"Gauss-Legendre rules disagree at {MAX_NODES} nodes on "
        f"[{a!r}, {b!r}]: last value {prev!r}"
    )
