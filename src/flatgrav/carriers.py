"""Nonlocal radial energy and charge carriers.

A carrier is not a point source: its energy fills all space with the r^-4
profile eps(r) = E_M*r_o/(4*pi*r^2*(r+r_o)^2), whose integral is finite and
equals E_M = r_o/G.  The field intensity w = -grad(W) of the logarithmic
potential W = -ln(1 + r_o/r) reproduces the inverse-square attraction outside
the energy radius while staying integrable at the center.  The electric
carrier is the same profile normalized to a total charge.

A radius is a float, and each closed form is computed with ``math``, so
that a profile table built row by row rounds as the C library does and
needs no numpy.
"""
from __future__ import annotations

import math
from typing import NamedTuple, Tuple

from ._scaled import ldexp
from .errors import NumericalFailure
from .quadrature import gauss_legendre

__all__ = [
    "RadialCarrier", "ElectricCarrier", "DensityResiduals",
    "energy_density", "field_intensity", "field_divergence", "log_potential",
    "density_identities", "enclosed_energy", "enclosed_energy_quadrature",
    "total_energy_quadrature", "electric_profile", "enclosed_charge",
    "total_charge_quadrature", "self_energy_quadrature",
]

TAIL_SPLIT = 1.0e3            # switch to the analytic tail at r = 1e3 * r_o


class RadialCarrier:
    """Radially distributed energy carrier with energy radius ``r_o``.

    ``newton_constant`` stays a parameter (default 1) so the profile can be
    used in fully geometric units or converted at the boundary.
    """

    __slots__ = ("r_o", "newton_constant")

    def __init__(self, r_o: float, newton_constant: float = 1.0):
        if r_o <= 0.0 or newton_constant <= 0.0:
            raise NumericalFailure("r_o and newton_constant must be > 0")
        self.r_o, self.newton_constant = r_o, newton_constant

    @property
    def total_energy(self) -> float:
        """E_M = r_o / G, the integral of the energy density over all space."""
        return self.r_o / self.newton_constant


def _radii(r: float) -> float:
    """``r`` as a float; NumericalFailure unless it is > 0 (a NaN is
    not)."""
    r = float(r)
    if not r > 0.0:
        raise NumericalFailure("r must be > 0")
    return r


# -- the closed forms both carriers share, at radii ``_radii`` has checked --

def _profile(scale: float, r_o: float, r: float) -> float:
    """Density scale*r_o/(4*pi*r^2*(r+r_o)^2); it integrates to ``scale``.

    Written scale*(r_o/(r+r_o))/(r+r_o)/(4*pi)/r/r in the mantissas of
    ``scale``, r_o, r+r_o and r, times the power of two of their exponents
    (``_scaled``'s rule).  No step on the mantissas leaves (0.01, 4), so
    only that power of two can under- or overflow: scale*(r_o/(r+r_o))
    would underflow deep inside a small r_o, where the density is large,
    and r^2 would overflow above r ~ 1e154.
    """
    m_scale, e_scale = math.frexp(scale)
    m_o, e_o = math.frexp(r_o)
    m_s, e_s = math.frexp(r + r_o)
    m_r, e_r = math.frexp(r)
    value = m_scale * (m_o / m_s) / m_s / (4.0 * math.pi) / m_r / m_r
    return ldexp(value, e_scale + e_o - 2 * (e_s + e_r))


def _intensity(r_o: float, r: float) -> float:
    """Radial field -r_o/(r*(r+r_o)) of the carrier of energy radius r_o.

    Written -(r_o/(r+r_o))/r: the quotient in parentheses is at most 1, so
    nothing overflows where the field is finite.
    """
    return -(r_o / (r + r_o)) / r


def _potential(r_o: float, r: float) -> float:
    """Logarithmic potential -ln(1 + r_o/r) of the same carrier."""
    return -math.log1p(r_o / r)


def _enclosed(scale: float, r_o: float, R: float) -> float:
    """Analytic integral of the profile over the ball of radius R."""
    if R < 0.0:
        raise NumericalFailure(f"R must be >= 0, got {R}")
    return scale * R / (R + r_o)


def _shell_quadrature(scale: float, r_o: float, R: float) -> float:
    """Quadrature of the shell integrand scale*r_o/(r + r_o)^2 over [0, R].

    Substituting r = r_o*(e^s - 1) over [0, ln(1 + R/r_o)] maps the long
    1/r^2 tail onto a short range with a smooth integrand for the
    Gauss-Legendre helper.  The mapped integrand is scale*e^(-s), so the
    rules agree to the last bits long before the helper's 1e-13; an empty
    interval (R = 0) gives exactly 0.
    """
    def shell_ds(s):
        r = r_o * math.expm1(s)
        return scale * r_o / (r + r_o) ** 2 * (r + r_o)    # dr/ds = r + r_o

    return gauss_legendre(shell_ds, 0.0, math.log1p(R / r_o))


def _total_quadrature(scale: float, r_o: float) -> float:
    """Quadrature over [0, split] plus the exact tail integral beyond it.

    The split sits at 1e3 * r_o; the tail of the shell integrand
    scale*r_o/(r+r_o)^2 integrates to scale*r_o/(split+r_o) in closed form.
    """
    split = TAIL_SPLIT * r_o
    head = _shell_quadrature(scale, r_o, split)
    tail = scale * r_o / (split + r_o)
    return head + tail


def energy_density(c: RadialCarrier, r: float) -> float:
    """eps(r) = E_M * r_o / (4*pi*r^2*(r+r_o)^2)."""
    return _profile(c.total_energy, c.r_o, _radii(r))


def field_intensity(c: RadialCarrier, r: float) -> float:
    """Radial field w_r = -r_o/(r*(r+r_o)), inward, units 1/length; the
    divergence is read from it."""
    return _intensity(c.r_o, _radii(r))


def log_potential(c: RadialCarrier, r: float) -> float:
    """Logarithmic potential W(r) = -ln((r+r_o)/r), with w = -grad W."""
    return _potential(c.r_o, _radii(r))


def field_divergence(c: RadialCarrier, r: float) -> float:
    """Closed-form div(w) = -r_o^2/(r^2*(r+r_o)^2) = -w_r^2: it overflows
    only where div(w) does, ~ -1/r^2 deep inside r_o."""
    w = field_intensity(c, r)
    return -(w * w)


class DensityResiduals(NamedTuple):
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
    r = _radii(r)
    if not 0.0 < h < r:
        raise NumericalFailure(f"step must satisfy 0 < h < r, got {h}")
    four_pi_g = 4.0 * math.pi * c.newton_constant
    eps_common = energy_density(c, r)   # E_M*r_o = r_o^2/G
    x, k = math.frexp(r)
    eps_active = -field_divergence(c, r) / four_pi_g
    w = field_intensity(c, r)
    eps_passive = w**2 / four_pi_g

    def div_fd(step: float) -> float:
        # div w = (1/r^2) d(r^2 w_r)/dr for a radial field; both r^2 in
        # units of 2^(2k), which cancel
        xp, xm = ldexp(r + step, -k), ldexp(r - step, -k)
        fp = xp * xp * field_intensity(c, r + step)
        fm = xm * xm * field_intensity(c, r - step)
        return (fp - fm) / (2.0 * step * (x * x))

    analytic = field_divergence(c, r)
    return DensityResiduals(
        active_residual=abs(eps_active - eps_common),
        passive_residual=abs(eps_passive - eps_common),
        equality_residual=abs(eps_active - eps_passive),
        fd_divergence_error=abs(div_fd(h) - analytic),
        fd_divergence_error_half=abs(div_fd(h / 2.0) - analytic),
    )


def enclosed_energy(c: RadialCarrier, R: float) -> float:
    """Analytic enclosed energy E_M * R/(R + r_o); 0 at R = 0."""
    return _enclosed(c.total_energy, c.r_o, R)


def enclosed_energy_quadrature(c: RadialCarrier, R: float) -> float:
    """Quadrature of 4*pi*r^2*eps over [0, R]; exactly 0 at R = 0."""
    if R < 0.0:
        raise NumericalFailure(f"R must be >= 0, got {R}")
    return _shell_quadrature(c.total_energy, c.r_o, R)


def total_energy_quadrature(c: RadialCarrier) -> float:
    """Quadrature of 4*pi*r^2*eps to the tail split plus the exact tail."""
    return _total_quadrature(c.total_energy, c.r_o)


class ElectricCarrier:
    """Radially distributed elementary charge with energy radius ``r_e``."""

    __slots__ = ("e", "r_e", "r_o")

    def __init__(self, e: float, r_e: float = 7e-58, r_o: float = 7e-58):
        if r_e <= 0.0 or r_o <= 0.0:
            raise NumericalFailure("r_e and r_o must be > 0")
        self.e, self.r_e, self.r_o = e, r_e, r_o


def electric_profile(c: ElectricCarrier,
                     r: float) -> Tuple[float, float, float]:
    """Charge density, radial field, and potential of the spread charge.

    rho = e*r_o/(4*pi*r^2*(r+r_o)^2); E_r = e*r_o/(r_e*r*(r+r_o));
    W_e = (e/r_e)*ln((r+r_o)/r).  The displacement field D = E*r_e/r_o
    satisfies div(D) = 4*pi*rho exactly.  rho is the shared profile
    normalized to e; E_r and W_e are the field and potential of the energy
    carrier of the same r_o, scaled by -e/r_e.
    """
    r = _radii(r)
    scale = -(c.e / c.r_e)
    return (_profile(c.e, c.r_o, r), scale * _intensity(c.r_o, r),
            scale * _potential(c.r_o, r))


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

