"""Light propagation in the central field.

Photons move on flat-space paths with the doubly slowed coordinate speed
dl/dt = g00 = (1 + r_o/r)^-2, an index of refraction n = (1 + r_o/r)^2.
That single ingredient drives the radar echo delay, the deflection integral
and the Fermat ray, integrated through an explicit trajectory.  Geometric
units (c = 1).
"""
from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple, Tuple

from .errors import (GeometryInvalid, NonPositiveRadius, NumericalFailure,
                     RayCaptured)
from .quadrature import gauss_legendre

if TYPE_CHECKING:  # the ODE routes import it: closed-form runs skip it
    from .ode import DenseOutput

__all__ = [
    "EchoGeometry", "EchoDelayResult", "DeflectionResult",
    "RayTrajectory", "coordinate_speed", "shapiro_delay",
    "deflection_integral", "fermat_ray_integrate",
]


def coordinate_speed(r_o: float, r: float) -> float:
    """Coordinate speed of light dl/dt = g00 = (1 + r_o/r)^-2 (units of c)."""
    if r <= 0.0:
        raise NonPositiveRadius(f"r must be > 0, got {r}")
    return (1.0 + r_o / r) ** -2


class EchoGeometry:
    """Round-trip radar geometry past a central body: the Earth-Sun and
    Mercury-Sun distances, the grazing distance (solar radius by default)
    and the central energy radius."""

    __slots__ = ("r_es", "r_ms", "R_s", "r_o")

    def __init__(self, r_es: float, r_ms: float, R_s: float, r_o: float):
        if min(r_es, r_ms, R_s) <= 0.0 or r_o < 0.0:
            raise GeometryInvalid("all lengths must be > 0 and r_o >= 0")
        if R_s > min(r_es, r_ms):
            raise GeometryInvalid("grazing distance exceeds an endpoint radius")
        self.r_es, self.r_ms, self.R_s, self.r_o = r_es, r_ms, R_s, r_o


class EchoDelayResult(NamedTuple):
    """Radar echo delay (meters of light travel; divide by c for seconds)."""

    quadrature: float
    closed_form: float


def shapiro_delay(geom: EchoGeometry) -> EchoDelayResult:
    """Round-trip excess delay along the straight Euclidean ray.

    Integrates 2 * (1/ldot - 1) over x in [-x_E, x_M] at y = R_s by
    quadrature and by its exact antiderivative
    2*r_o*asinh(x/R_s) + (r_o^2/R_s)*atan(x/R_s).  On each side of closest
    approach x = R_s*sinh(s) turns the slowly decaying excess into a smooth
    integrand over a short s-range for the Gauss-Legendre helper.  The
    excess is written r_o/r*(2 + r_o/r), not (1 + r_o/r)^2 - 1, which
    cancels; times dx/ds = r it is r_o*(2 + r_o/r).

    Where x/R_s overflows, s = asinh(x/R_s) is ln(2*x) - ln(R_s), and past
    the float range of cosh(s) 1/cosh(s) is 2*exp(-s): both to the last
    bit.  NumericalFailure naming R_s and x where the delay itself
    overflows.
    """
    x_e = math.sqrt(geom.r_es**2 - geom.R_s**2)
    x_m = math.sqrt(geom.r_ms**2 - geom.R_s**2)
    r_o, y = geom.r_o, geom.R_s

    def excess_ds(s):
        try:
            r = y * math.cosh(s)          # hypot(x, R_s) = dx/ds
        except OverflowError:
            return r_o * (2.0 + r_o / y * (2.0 * math.exp(-s)))
        return r_o * (2.0 + r_o / r)

    val = closed = 0.0
    for x in (x_e, x_m):
        ratio = x / y
        s = (math.asinh(ratio) if ratio < math.inf
             else math.log(2.0 * x) - math.log(y))
        closed += 2.0 * r_o * s + r_o * (r_o / y) * math.atan(ratio)
        if not math.isfinite(closed):
            raise NumericalFailure(
                f"the echo delay overflows at R_s = {y!r} with endpoint "
                f"distance {x!r}")
        val += gauss_legendre(excess_ds, 0.0, s)
    return EchoDelayResult(quadrature=2.0 * val, closed_form=2.0 * closed)


class DeflectionResult(NamedTuple):
    """Angular deflection in radians (negative: toward the body)."""

    quadrature: float
    closed_form: float


def deflection_integral(r_o: float, R_s: float) -> DeflectionResult:
    """Coordinate deflection -2 * int d/dy (ldot) dx at grazing distance R_s.

    The improper x-integral is mapped onto theta in [0, pi/2) by
    x = R_s*tan(theta), leaving a bounded smooth integrand for the
    Gauss-Legendre helper; the closed form is -4*r_o/R_s.  NumericalFailure
    where r_o/R_s overflows, as it does for a subnormal R_s: the integrand
    would be 0 and its product with r_o/R_s NaN.
    """
    if R_s <= 0.0:
        raise GeometryInvalid(f"R_s must be > 0, got {R_s}")
    if r_o < 0.0:
        raise GeometryInvalid(f"r_o must be >= 0, got {r_o}")
    if not math.isfinite(r_o / R_s):
        raise NumericalFailure(f"r_o/R_s = {r_o!r}/{R_s!r} overflows")

    def integrand(theta):
        c = math.cos(theta)
        return c / (1.0 + r_o * c / R_s) ** 3

    val = gauss_legendre(integrand, 0.0, math.pi / 2.0)
    return DeflectionResult(quadrature=-4.0 * r_o / R_s * val,
                            closed_form=-4.0 * r_o / R_s)


def _ray_rhs(psi, y, k):
    """p' = -w^3*sin(psi), q' = w^3*cos(psi), with w = 1 + r_o*u.

    The elements of u = u0*(a*cos(psi) + b*sin(psi)) are a = 2*k*p and
    b = 1 + 2*k*q with k = r_o*u0, so r_o*u = k*v, v = u/u0 (``_exit``).
    """
    p, q = y
    cos, sin = math.cos(psi), math.sin(psi)
    w = 1.0 + k * (2.0 * k * p * cos + (1.0 + 2.0 * k * q) * sin)
    w3 = w * w * w
    return [-w3 * sin, w3 * cos]


def _exit(psi, y, k):
    """v = u/u0 = a*cos(psi) + b*sin(psi): it falls through 0 at the exit."""
    return 2.0 * k * y[0] * math.cos(psi) \
        + (1.0 + 2.0 * k * y[1]) * math.sin(psi)


class RayTrajectory(NamedTuple):
    """Integrated photon path (see ``fermat_ray_integrate``)."""

    r_o: float
    u0: float
    sol: DenseOutput          # (p, q) over psi, from 0 to the exit


def fermat_ray_integrate(u0: float, r_o: float,
                         tol: float = 1e-12) -> Tuple[RayTrajectory, float]:
    """The Fermat ray of ``coordinate_speed`` from entry to exit, and its
    deflection (negative: toward the body).

    The index n = (1 + r_o/r)^2 keeps u'^2 + u^2 = u0^2*(1 + r_o*u)^4 along
    the ray, so u'' + u = F = 2*r_o*u0^2*(1 + r_o*u)^3 at all orders.  It is
    integrated by variation of constants, as ``orbits.integrate_orbit``
    integrates the orbit: u = u0*(a*cos(psi) + b*sin(psi)) with
    a' = -(F/u0)*sin(psi) and b' = (F/u0)*cos(psi), entering from infinity
    at psi = 0 with (a, b) = (0, 1).  DOP853 carries the departures from
    the straight line, a = g0*p and b = 1 + g0*q with g0 = 2*r_o*u0, at
    rtol = tol and atol = rtol*2*pi (``_ray_rhs``), until u falls through 0
    (``_exit``).  The deflection is atan2(a, b) there, unwrapped by the exit
    psi, so no pi is subtracted.  r*n(r) has its minimum 4*r_o at r = r_o,
    so a ray with 4*r_o*u0 >= 1 never turns back: RayCaptured.  Raises
    GeometryInvalid unless u0 is finite and > 0 and r_o finite and >= 0,
    and NumericalFailure if the integration stops short.
    """
    from .ode import dop853

    if not 0.0 < u0 < math.inf:
        raise GeometryInvalid(
            f"inverse impact parameter must be finite and > 0, got {u0}")
    if not 0.0 <= r_o < math.inf:
        raise GeometryInvalid(f"r_o must be finite and >= 0, got {r_o}")
    k = r_o * u0
    if 4.0 * k >= 1.0:
        raise RayCaptured(
            f"ray with u0={u0} is captured: 4*r_o*u0 = {4.0 * k} >= 1")
    # a ray that is not captured turns back, so the exit ends the run
    run = dop853(lambda psi, y: _ray_rhs(psi, y, k), (0.0, math.inf),
                 [0.0, 0.0], rtol=tol, atol=tol * 2.0 * math.pi,
                 event=(lambda psi, y: _exit(psi, y, k), -1.0))
    if run.failure:
        raise NumericalFailure(f"ray integration failed: {run.failure}")
    psi, (p, q) = run.t, run.y
    turned = math.atan2(2.0 * k * p, 1.0 + 2.0 * k * q)
    deflection = turned + 2.0 * math.pi * round(
        (math.pi - psi - turned) / (2.0 * math.pi))
    return RayTrajectory(r_o=r_o, u0=u0, sol=run.dense), deflection
