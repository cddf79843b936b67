"""Nonlocal radial energy and charge carriers.

A carrier is not a point source: its energy fills all space with the r^-4
profile eps(r) = E_M*r_o/(4*pi*r^2*(r+r_o)^2), whose integral is finite and
equals E_M = r_o/G.  The field intensity w = -grad(W) of the logarithmic
potential W = -ln(1 + r_o/r) reproduces the inverse-square attraction outside
the energy radius while staying integrable at the center.  The electric
carrier is the same profile normalized to a total charge.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import NonPositiveRadius
from .quadrature import gauss_legendre

__all__ = [
    "RadialCarrier", "ElectricCarrier", "DensityResiduals",
    "energy_density", "field_intensity", "field_divergence", "log_potential",
    "density_identities", "ricci_density", "enclosed_energy",
    "enclosed_energy_quadrature", "total_energy_quadrature",
    "electric_profile", "displacement_divergence_residual", "enclosed_charge",
    "total_charge_quadrature", "self_energy_quadrature",
]

TAIL_SPLIT = 1.0e3            # switch to the analytic tail at r = 1e3 * r_o


@dataclass(frozen=True)
class RadialCarrier:
    """Radially distributed energy carrier with energy radius ``r_o``.

    ``newton_constant`` stays a parameter (default 1) so the profile can be
    used in fully geometric units or converted at the boundary.
    """

    r_o: float
    newton_constant: float = 1.0

    def __post_init__(self):
        if self.r_o <= 0.0 or self.newton_constant <= 0.0:
            raise NonPositiveRadius("r_o and newton_constant must be > 0")

    @property
    def total_energy(self) -> float:
        """E_M = r_o / G, the integral of the energy density over all space."""
        return self.r_o / self.newton_constant


def _radii(r) -> np.ndarray:
    """``r`` as a float array; NonPositiveRadius unless every radius is > 0."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise NonPositiveRadius("r must be > 0")
    return r


# -- the radial profile both carriers share, normalized to ``scale`` --------

def _profile(scale: float, r_o: float, r) -> np.ndarray:
    """Density scale*r_o/(4*pi*r^2*(r+r_o)^2); it integrates to ``scale``.

    Divided out one factor at a time, so that no intermediate overflows
    where the density is finite or underflows (r^2 would above ~1e154).
    """
    r = _radii(r)
    return scale * r_o / (4.0 * np.pi) / r / (r + r_o) / r / (r + r_o)


def _in_units_of_r(r, r_o):
    """``r`` and ``r_o`` divided by 2^k, with r/2^k in [0.5, 1), and k.

    Dividing by a power of two is exact, so a closed form of length
    dimension -n, evaluated in these lengths and multiplied by 2^(-n*k),
    rounds as the same form in the original lengths wherever that stays in
    range; and its r^2 is near 1, where r^2 overflows above ~1e154.
    """
    k = np.frexp(r)[1]
    return np.ldexp(r, -k), np.ldexp(r_o, -k), k


def _enclosed(scale: float, r_o: float, R: float) -> float:
    """Analytic integral of the profile over the ball of radius R."""
    if R < 0.0:
        raise NonPositiveRadius(f"R must be >= 0, got {R}")
    return scale * R / (R + r_o)


def _shell_quadrature(scale: float, r_o: float, R: float) -> float:
    """Quadrature of the shell integrand scale*r_o/(r + r_o)^2 over [0, R].

    Substituting r = r_o*(e^s - 1) over [0, ln(1 + R/r_o)] maps the long
    1/r^2 tail onto a short range with a smooth integrand for the
    Gauss-Legendre helper, whose successive rules must agree to 1e-12.
    """
    def shell_ds(s):
        r = r_o * np.expm1(s)
        return scale * r_o / (r + r_o) ** 2 * (r + r_o)    # dr/ds = r + r_o

    return gauss_legendre(shell_ds, 0.0, float(np.log1p(R / r_o)), 1e-12)


def _total_quadrature(scale: float, r_o: float) -> float:
    """Quadrature over [0, split] plus the exact tail integral beyond it.

    The split sits at 1e3 * r_o; the tail of the shell integrand
    scale*r_o/(r+r_o)^2 integrates to scale*r_o/(split+r_o) in closed form.
    """
    split = TAIL_SPLIT * r_o
    head = _shell_quadrature(scale, r_o, split)
    tail = scale * r_o / (split + r_o)
    return head + tail


def energy_density(c: RadialCarrier, r) -> np.ndarray:
    """eps(r) = E_M * r_o / (4*pi*r^2*(r+r_o)^2)."""
    return _profile(c.total_energy, c.r_o, r)


def field_intensity(c: RadialCarrier, r) -> np.ndarray:
    """Radial field w_r = -r_o/(r*(r+r_o)), inward, units 1/length.

    Written -(r_o/(r+r_o))/r: the quotient in parentheses is at most 1, so
    nothing overflows where w_r is finite.
    """
    r = _radii(r)
    return -(c.r_o / (r + c.r_o)) / r


def log_potential(c: RadialCarrier, r) -> np.ndarray:
    """Logarithmic potential W(r) = -ln((r+r_o)/r), with w = -grad W."""
    return -np.log1p(c.r_o / _radii(r))


def field_divergence(c: RadialCarrier, r) -> np.ndarray:
    """Closed-form div(w) = -r_o^2/(r^2*(r+r_o)^2)."""
    x, r_o, k = _in_units_of_r(np.asarray(r, dtype=float), c.r_o)
    return np.ldexp(-np.square(r_o) / (np.square(x) * np.square(x + r_o)),
                    -2 * k)


@dataclass(frozen=True)
class DensityResiduals:
    """Residuals of the active/passive density identities at one radius."""

    active_residual: float    # |(-div w)/(4 pi G) - eps_a|
    passive_residual: float   # |w^2/(4 pi G) - eps_p|
    equality_residual: float  # |eps_a - eps_p|
    fd_divergence_error: float  # |finite-difference div(w) - analytic|
    fd_divergence_error_half: float  # same with step h/2 (Richardson check)


def density_identities(c: RadialCarrier, r: float, h: float) -> DensityResiduals:
    """Check that active and passive energy densities coincide.

    Active density is -div(w)/(4*pi*G), passive is w^2/(4*pi*G); both equal
    r_o^2/(4*pi*G*r^2*(r+r_o)^2) in closed form.  The divergence is also
    recomputed by central differences at steps h and h/2 so callers can
    verify O(h^2) convergence.
    """
    _radii(r)
    if not 0.0 < h < r:
        raise NonPositiveRadius(f"step must satisfy 0 < h < r, got {h}")
    four_pi_g = 4.0 * np.pi * c.newton_constant
    x, r_o, k = _in_units_of_r(r, c.r_o)
    eps_common = float(np.ldexp(np.square(r_o) / (
        four_pi_g * np.square(x) * np.square(x + r_o)), -2 * k))
    eps_active = -field_divergence(c, r) / four_pi_g
    w = float(field_intensity(c, r))
    eps_passive = w**2 / four_pi_g

    def div_fd(step: float) -> float:
        # div w = (1/r^2) d(r^2 w_r)/dr for a radial field; both r^2 in
        # units of 2^(2k), which cancel
        fp = np.square(np.ldexp(r + step, -k)) * field_intensity(c, r + step)
        fm = np.square(np.ldexp(r - step, -k)) * field_intensity(c, r - step)
        return float(fp - fm) / (2.0 * step * np.square(x))

    analytic = float(field_divergence(c, r))
    return DensityResiduals(
        active_residual=abs(eps_active - eps_common),
        passive_residual=abs(eps_passive - eps_common),
        equality_residual=abs(eps_active - eps_passive),
        fd_divergence_error=abs(div_fd(h) - analytic),
        fd_divergence_error_half=abs(div_fd(h / 2.0) - analytic),
    )


def ricci_density(c: RadialCarrier, r) -> np.ndarray:
    """Curvature-scalar density: (eps_a + eps_p) = 2*eps(r)*G/... in model units.

    Returns eps_a + eps_p = 2 * r_o^2 / (4*pi*G*r^2*(r+r_o)^2), the quantity
    whose 8*pi*G multiple is the curvature scalar of the carrier field.
    """
    x, r_o, k = _in_units_of_r(np.asarray(r, dtype=float), c.r_o)
    return np.ldexp(2.0 * np.square(r_o) / (
        4.0 * np.pi * c.newton_constant * np.square(x) * np.square(x + r_o)),
        -2 * k)


def enclosed_energy(c: RadialCarrier, R: float) -> float:
    """Analytic enclosed energy E_M * R/(R + r_o); 0 at R = 0."""
    return _enclosed(c.total_energy, c.r_o, R)


def enclosed_energy_quadrature(c: RadialCarrier, R: float) -> float:
    """Quadrature of 4*pi*r^2*eps over [0, R]."""
    if R < 0.0:
        raise NonPositiveRadius(f"R must be >= 0, got {R}")
    if R == 0.0:
        return 0.0
    return _shell_quadrature(c.total_energy, c.r_o, R)


def total_energy_quadrature(c: RadialCarrier) -> float:
    """Quadrature of 4*pi*r^2*eps to the tail split plus the exact tail."""
    return _total_quadrature(c.total_energy, c.r_o)


@dataclass(frozen=True)
class ElectricCarrier:
    """Radially distributed elementary charge with energy radius ``r_e``."""

    e: float
    r_e: float = 7e-58
    r_o: float = 7e-58

    def __post_init__(self):
        if self.r_e <= 0.0 or self.r_o <= 0.0:
            raise NonPositiveRadius("r_e and r_o must be > 0")


def electric_profile(c: ElectricCarrier, r) -> Tuple[np.ndarray, np.ndarray,
                                                     np.ndarray]:
    """Charge density, radial field, and potential of the spread charge.

    rho = e*r_o/(4*pi*r^2*(r+r_o)^2); E_r = e*r_o/(r_e*r*(r+r_o));
    W_e = (e/r_e)*ln((r+r_o)/r).  The displacement field D = E*r_e/r_o
    satisfies div(D) = 4*pi*rho exactly.
    """
    rho = _profile(c.e, c.r_o, r)
    r = np.asarray(r, dtype=float)
    e_field = c.e * c.r_o / (c.r_e * r * (r + c.r_o))
    potential = (c.e / c.r_e) * np.log1p(c.r_o / r)
    return rho, e_field, potential


def displacement_divergence_residual(c: ElectricCarrier, r: float) -> float:
    """|div(D) - 4*pi*rho| using the closed forms (zero to rounding)."""
    rho = _profile(c.e, c.r_o, r)
    # div D = (1/r^2) d/dr [r^2 * e/(r*(r+r_o))] = e*r_o/(r^2*(r+r_o)^2)
    x, r_o, k = _in_units_of_r(r, c.r_o)
    div_d = float(np.ldexp(c.e * r_o / (np.square(x) * np.square(x + r_o)),
                           -3 * k))
    return abs(div_d - 4.0 * np.pi * float(rho))


def enclosed_charge(c: ElectricCarrier, R: float) -> float:
    """Analytic enclosed charge e * R/(R + r_o)."""
    return _enclosed(c.e, c.r_o, R)


def total_charge_quadrature(c: ElectricCarrier) -> float:
    """Quadrature of 4*pi*r^2*rho to the tail split plus the exact tail."""
    return _total_quadrature(c.e, c.r_o)


def self_energy_quadrature(c: ElectricCarrier) -> float:
    """E_e = integral of rho * (e/r_e) over all space = e^2/r_e.

    The self-potential e/r_e is constant, so its gradient — and hence any
    self-force — vanishes identically; the integral reduces to the total
    charge times e/r_e.
    """
    return total_charge_quadrature(c) * c.e / c.r_e

