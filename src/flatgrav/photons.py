"""Light propagation in the central field.

Photons move on flat-space paths with the doubly slowed coordinate speed
dl/dt = g00 = (1 + r_o/r)^-2.  That single ingredient drives the radar echo
delay and the deflection integral; the Fermat ray equations give the same
bending through an explicit trajectory.  Geometric units (c = 1).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Tuple

import numpy as np

from .errors import GeometryInvalid, NonPositiveRadius, RayCaptured
from .quadrature import gauss_legendre

if TYPE_CHECKING:  # the ODE routes import it: closed-form runs skip it
    from .ode import DenseOutput

__all__ = [
    "EchoGeometry", "EchoDelayResult", "DeflectionResult",
    "RayTrajectory", "coordinate_speed", "shapiro_delay",
    "deflection_integral", "ray_launch",
    "closed_form_ray", "fermat_ray_integrate",
]


def coordinate_speed(r_o: float, r: float) -> float:
    """Coordinate speed of light dl/dt = g00 = (1 + r_o/r)^-2 (units of c)."""
    if r <= 0.0:
        raise NonPositiveRadius(f"r must be > 0, got {r}")
    return (1.0 + r_o / r) ** -2


@dataclass(frozen=True)
class EchoGeometry:
    """Round-trip radar geometry past a central body."""

    r_es: float               # Earth-Sun distance
    r_ms: float               # Mercury-Sun distance
    R_s: float                # grazing distance (solar radius by default)
    r_o: float                # central energy radius

    def __post_init__(self):
        if min(self.r_es, self.r_ms, self.R_s) <= 0.0 or self.r_o < 0.0:
            raise GeometryInvalid("all lengths must be > 0 and r_o >= 0")
        if self.R_s > min(self.r_es, self.r_ms):
            raise GeometryInvalid("grazing distance exceeds an endpoint radius")


@dataclass(frozen=True)
class EchoDelayResult:
    """Radar echo delay (meters of light travel; divide by c for seconds)."""

    quadrature: float
    closed_form: float


def shapiro_delay(geom: EchoGeometry) -> EchoDelayResult:
    """Round-trip excess delay along the straight Euclidean ray.

    Integrates 2 * (1/ldot - 1) over x in [-x_E, x_M] at y = R_s, and
    evaluates the logarithmic estimate 4*r_o*ln(4*r_MS*r_ES/R_S^2).  On each
    side of closest approach x = R_s*sinh(s) turns the slowly decaying
    excess into a smooth integrand over a short s-range for the
    Gauss-Legendre helper.  The excess is written r_o/r*(2 + r_o/r), not
    (1 + r_o/r)^2 - 1, which cancels; times dx/ds = r it is
    r_o*(2 + r_o/r).
    """
    x_e = np.sqrt(geom.r_es**2 - geom.R_s**2)
    x_m = np.sqrt(geom.r_ms**2 - geom.R_s**2)
    r_o, y = geom.r_o, geom.R_s

    def excess_ds(s):
        r = y * np.cosh(s)                # hypot(x, R_s) = dx/ds
        return r_o * (2.0 + r_o / r)

    val = sum(gauss_legendre(excess_ds, 0.0, np.arcsinh(x / y))
              for x in (x_e, x_m))
    closed = 4.0 * r_o * np.log(4.0 * geom.r_ms * geom.r_es / geom.R_s**2)
    return EchoDelayResult(quadrature=float(2.0 * val),
                           closed_form=float(closed))


@dataclass(frozen=True)
class DeflectionResult:
    """Angular deflection in radians (negative: toward the body)."""

    quadrature: float
    closed_form: float


def deflection_integral(r_o: float, R_s: float) -> DeflectionResult:
    """Coordinate deflection -2 * int d/dy (ldot) dx at grazing distance R_s.

    The improper x-integral is mapped onto theta in [0, pi/2) by
    x = R_s*tan(theta), leaving a bounded smooth integrand for the
    Gauss-Legendre helper; the closed form is -4*r_o/R_s.
    """
    if R_s <= 0.0:
        raise GeometryInvalid(f"R_s must be > 0, got {R_s}")
    if r_o < 0.0:
        raise GeometryInvalid(f"r_o must be >= 0, got {r_o}")

    def integrand(theta):
        c = np.cos(theta)
        return c / (1.0 + r_o * c / R_s) ** 3

    val = gauss_legendre(integrand, 0.0, np.pi / 2.0)
    return DeflectionResult(quadrature=float(-4.0 * r_o / R_s * val),
                            closed_form=-4.0 * r_o / R_s)


def ray_launch(u0: float) -> float:
    """The inverse impact parameter ``u0`` of an incoming ray from infinity,
    checked finite and > 0: the ray enters at phi = pi with u = 0, u' = -u0."""
    if not 0.0 < u0 < np.inf:
        raise GeometryInvalid(
            f"inverse impact parameter must be finite and > 0, got {u0}")
    return u0


def closed_form_ray(u0: float, r_o: float, phi) -> np.ndarray:
    """Weak-field ray solution u = u0*sin(phi) + 2*r_o*u0^2*(1 + cos(phi))."""
    return u0 * np.sin(phi) + 2.0 * r_o * u0**2 * (1.0 + np.cos(phi))


@dataclass
class RayTrajectory:
    """Integrated photon path and its exit deflection."""

    r_o: float
    u0: float
    sol: DenseOutput          # (u, du/ds) over s = pi - phi
    s_exit: float

    @property
    def deflection(self) -> float:
        """Exit angle phi where u returns to zero; approx -4*r_o*u0."""
        return np.pi - self.s_exit

    def u(self, phi):
        return self.sol(np.pi - np.asarray(phi))[0]

    def max_invariant_residual(self) -> float:
        """Largest |(1 - 4*r_o*u)*(u'^2 + u^2) - u0^2|, the weak-field ray
        invariant, at 2001 points of the traversed arc."""
        s = np.linspace(0.0, self.s_exit, 2001)
        u, dus = self.sol(s)                # u' = -du/ds
        res = (1.0 - 4.0 * self.r_o * u) * (dus**2 + u**2) - self.u0**2
        return float(np.max(np.abs(res)))


def fermat_ray_integrate(u0: float, r_o: float,
                         tol: float = 1e-12) -> Tuple[RayTrajectory, float]:
    """Integrate the ray equation u'' + u = 2*r_o*u0^2 from entry to exit.

    Marches in s = pi - phi from the incoming asymptote (``ray_launch``)
    until u crosses zero on the far side; returns the trajectory and the
    deflection angle.  Raises RayCaptured if u climbs past 1/(4*r_o).
    """
    from .ode import dop853

    u0 = ray_launch(u0)
    forcing = 2.0 * r_o * u0**2

    # March in s = pi - phi so the independent variable increases;
    # du/ds = -u', and u'' is unchanged.
    def rhs(s, y):
        return [y[1], forcing - y[0]]

    # u falls through zero at the exit; rises through 1/(4*r_o) on capture
    events = [(lambda s, y: y[0], -1.0)]
    if r_o > 0.0:
        cap = 1.0 / (4.0 * r_o)
        events.append((lambda s, y: y[0] - cap, 1.0))

    run = dop853(rhs, (0.0, np.pi + 0.5), [0.0, u0], rtol=tol,
                 atol=tol * max(u0, 1e-300), events=events)
    if run.failure:
        raise GeometryInvalid(f"ray integration failed: {run.failure}")
    if run.event == 1:
        raise RayCaptured(
            f"ray with u0={u0} exceeded the validity bound 1/(4*r_o)"
        )
    if run.event != 0:
        raise GeometryInvalid("ray never returned to u = 0")
    traj = RayTrajectory(r_o=r_o, u0=u0, sol=run.dense,
                         s_exit=float(run.dense.ts[-1]))
    return traj, traj.deflection
