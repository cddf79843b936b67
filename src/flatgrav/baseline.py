"""Schwarzschild baselines for model comparison.

These closed forms and quadratures use the standard vacuum solution
(g00 = 1 - 2*r_o/r, curved spatial part) so the comparison harness can show
weak-field agreement and strong-field divergence against the flat-space
model.  Geometric units (c = 1).
"""
from __future__ import annotations

import math

from .errors import NumericalFailure
from .orbits import _cosine_map_advance

__all__ = ["schwarzschild_precession", "schwarzschild_deflection",
           "schwarzschild_delay", "schwarzschild_precession_quadrature"]


def schwarzschild_precession(r_o: float, a: float, ecc: float) -> float:
    """Weak-field perihelion advance 6*pi*r_o/(a*(1-ecc^2)) per orbit."""
    return 6.0 * math.pi * r_o / (a * (1.0 - ecc**2))


def schwarzschild_deflection(r_o: float, R_s: float) -> float:
    """Grazing light deflection -4*r_o/R_s (radians, toward the body)."""
    return -4.0 * r_o / R_s


def schwarzschild_delay(r_o: float, r_es: float, r_ms: float,
                        R_s: float) -> float:
    """Round-trip radar excess delay 4*r_o*ln(4*r_ms*r_es/R_s^2) (meters)."""
    return 4.0 * r_o * math.log(4.0 * r_ms * r_es / R_s**2)


def schwarzschild_precession_quadrature(r_o: float, r_min: float,
                                        r_max: float) -> float:
    """Exact vacuum-orbit perihelion advance between given turning radii.

    The radial equation u'^2 = A + B*u - u^2 + 2*r_o*u^3 has the two given
    turning points as roots; the third follows from the cubic's root sum
    1/(2*r_o).  The cosine map shared with the flat-space quadrature
    removes the endpoint singularities.
    """
    if not 0.0 < r_min < r_max:
        raise NumericalFailure(f"need 0 < r_min < r_max, got {r_min}, {r_max}")
    if r_o <= 0.0:
        return 0.0
    u1, u2 = 1.0 / r_min, 1.0 / r_max
    u3 = 1.0 / (2.0 * r_o) - u1 - u2
    if u3 <= u1:
        raise NumericalFailure("third root inside orbit: field too strong")
    return _cosine_map_advance(u1, u2, u3, 1.0)
