"""Gyroscope transport around a rotating central body.

The body contributes a scalar potential -r_o/r and, when spinning, the
weak-rotation vector potential 2*I*[r x w]/r^3.  A comoving gyroscope's
covariant spin is parallel-transported along its orbit; the secular drift
decomposes into a frame-dragging rate set by the vector potential's curl and
a geodetic rate set by the motion through the scalar field's gradient.

Geometric units: lengths in meters, time in meters, angular velocity in 1/m,
moment of inertia in m^3.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .errors import NonPositiveRadius, NumericalFailure
from .metric import FourPotential, rotating_central_potential

__all__ = [
    "RotatingFieldSpec", "SpinState", "rotating_connections", "transport_spin",
    "spin_rhs_linearized", "precession_rates", "frame_dragging_rate",
    "geodetic_rate", "de_sitter_rate", "circular_polar_orbit",
    "spin_norm_invariant",
]


@dataclass(frozen=True)
class RotatingFieldSpec:
    """Rotating central source: energy radius, inertia moment, spin vector."""

    r_o: float
    inertia: float            # geometrized moment of inertia (m^3)
    omega: np.ndarray         # angular velocity vector (1/m)

    def __post_init__(self):
        object.__setattr__(self, "omega", np.asarray(self.omega, dtype=float))
        if self.r_o < 0.0 or self.inertia < 0.0:
            raise NonPositiveRadius("r_o and inertia must be >= 0")

    def potential(self) -> FourPotential:
        return rotating_central_potential(self.r_o, self.inertia, self.omega)

    # -- potential values and exact first derivatives -----------------------

    def G0(self, x: np.ndarray) -> float:
        r = np.linalg.norm(x)
        self._check(r)
        return -self.r_o / r

    def Gi(self, x: np.ndarray) -> np.ndarray:
        r = np.linalg.norm(x)
        self._check(r)
        return 2.0 * self.inertia * np.cross(self.omega, x) / r**3

    def grad_G0(self, x: np.ndarray) -> np.ndarray:
        """d_k G0 = r_o * x_k / r^3."""
        r = np.linalg.norm(x)
        self._check(r)
        return self.r_o * np.asarray(x, dtype=float) / r**3

    def grad_Gi(self, x: np.ndarray) -> np.ndarray:
        """Jacobian dG[k, i] = d_k G_i of the vector potential."""
        x = np.asarray(x, dtype=float)
        r = np.linalg.norm(x)
        self._check(r)
        wx = np.cross(self.omega, x)
        # d_k [w x x]_i = [w x e_k]_i
        eps_term = np.array([np.cross(self.omega, e) for e in np.eye(3)])
        return 2.0 * self.inertia * (
            eps_term / r**3 - 3.0 * np.outer(x, wx) / r**5
        )

    @staticmethod
    def _check(r: float) -> None:
        if r <= 0.0:
            raise NonPositiveRadius("field evaluated at the center")


def _metric_blocks(spec: RotatingFieldSpec, x: np.ndarray):
    """Covariant metric, its inverse, and all spatial derivatives at x."""
    G0 = spec.G0(x)
    Gi = spec.Gi(x)
    dG0 = spec.grad_G0(x)             # dG0[k]
    dGi = spec.grad_Gi(x)             # dGi[k, i]

    warp = 1.0 / (1.0 - G0)
    g00 = warp**2
    dg00 = 2.0 * warp**3 * dG0        # dg00[k]

    g = np.empty((4, 4))
    g[0, 0] = g00
    g[0, 1:] = g[1:, 0] = g00 * Gi
    g[1:, 1:] = g00 * np.outer(Gi, Gi) - np.eye(3)

    ginv = np.empty((4, 4))
    ginv[0, 0] = (1.0 - G0) ** 2 - Gi @ Gi
    ginv[0, 1:] = ginv[1:, 0] = Gi
    ginv[1:, 1:] = -np.eye(3)

    dg = np.zeros((4, 4, 4))          # dg[sigma, mu, nu]; time slot stays 0
    for k in range(3):
        s = k + 1
        dg[s, 0, 0] = dg00[k]
        row = dg00[k] * Gi + g00 * dGi[k]
        dg[s, 0, 1:] = dg[s, 1:, 0] = row
        dg[s, 1:, 1:] = (dg00[k] * np.outer(Gi, Gi)
                         + g00 * (np.outer(dGi[k], Gi)
                                  + np.outer(Gi, dGi[k])))
    return g, ginv, dg


def rotating_connections(spec: RotatingFieldSpec, x: np.ndarray) -> np.ndarray:
    """Exact Christoffel array Gamma[lam, mu, nu] in Cartesian (t, x, y, z).

    Built from closed-form metric derivatives of the rotating-central
    potential; the finite-difference connection serves as its oracle.
    """
    _, ginv, dg = _metric_blocks(spec, np.asarray(x, dtype=float))
    brackets = (np.einsum("msn->smn", dg) + np.einsum("nsm->smn", dg) - dg)
    return 0.5 * np.einsum("ls,smn->lmn", ginv, brackets)


@dataclass(frozen=True)
class SpinState:
    """Covariant gyroscope spin: spatial components at coordinate time t."""

    t: float
    s: np.ndarray             # covariant spatial components S_i

    def s_time(self, velocity: np.ndarray) -> float:
        """Time component S_0 = -v . S fixed by orthogonality to the motion."""
        return -float(np.dot(velocity, self.s))


def spin_norm_invariant(spec: RotatingFieldSpec, x: np.ndarray,
                        velocity: np.ndarray, s: np.ndarray) -> float:
    """Transport invariant g^{mu nu} S_mu S_nu with S_0 = -v . S."""
    G0 = spec.G0(x)
    Gi = spec.Gi(x)
    s0 = -float(np.dot(velocity, s))
    return (((1.0 - G0) ** 2 - Gi @ Gi) * s0**2
            + 2.0 * s0 * float(Gi @ s) - float(s @ s))


def transport_rhs(spec: RotatingFieldSpec, x: np.ndarray,
                  velocity: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Parallel-transport rate dS_i/dt = Gamma^lam_{i nu} S_lam xdot^nu.

    ``velocity`` is the coordinate velocity dx/dt; the time component of the
    spin is eliminated through S_0 = -v . S.
    """
    gamma = rotating_connections(spec, x)
    s4 = np.concatenate(([-float(np.dot(velocity, s))], s))
    xdot = np.concatenate(([1.0], velocity))
    return np.einsum("liv,l,v->i", gamma[:, 1:, :], s4, xdot)


def transport_spin(spec: RotatingFieldSpec,
                   position: Callable[[float], np.ndarray],
                   velocity: Callable[[float], np.ndarray],
                   s_initial: np.ndarray,
                   t_span: Tuple[float, float],
                   tol: float = 1e-12) -> Callable[[float], np.ndarray]:
    """Parallel-transport a spin along a prescribed orbit.

    Returns a callable mapping coordinate time to the covariant spatial spin.
    """
    from scipy.integrate import solve_ivp

    s0 = np.asarray(s_initial, dtype=float)

    def rhs(t, s):
        return transport_rhs(spec, position(t), velocity(t), s)

    sol = solve_ivp(rhs, t_span, s0, method="DOP853", dense_output=True,
                    rtol=tol, atol=tol * max(np.linalg.norm(s0), 1e-300))
    if not sol.success:
        raise NumericalFailure(f"spin transport failed: {sol.message}")
    return sol.sol


def frame_dragging_rate(spec: RotatingFieldSpec, x: np.ndarray) -> np.ndarray:
    """Drag rate (I/r^3) * (3*rhat*(w . rhat) - w) from the vector potential."""
    x = np.asarray(x, dtype=float)
    r = np.linalg.norm(x)
    spec._check(r)
    rhat = x / r
    w = spec.omega
    return spec.inertia / r**3 * (3.0 * rhat * np.dot(w, rhat) - w)


def geodetic_rate(spec: RotatingFieldSpec, x: np.ndarray,
                  velocity: np.ndarray) -> np.ndarray:
    """Orbital precession rate -(v/2 - G) x grad(G0) of a moving gyroscope."""
    return -np.cross(np.asarray(velocity, dtype=float) / 2.0 - spec.Gi(x),
                     spec.grad_G0(x))


def precession_rates(spec: RotatingFieldSpec, x: np.ndarray,
                     velocity: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(frame-dragging, geodetic) angular-velocity vectors at one point."""
    return frame_dragging_rate(spec, x), geodetic_rate(spec, x, velocity)


def de_sitter_rate(r_o: float, x: np.ndarray,
                   velocity: np.ndarray) -> np.ndarray:
    """Textbook geodetic comparison rate (3/2) * (r_o/r^3) * (x cross v)."""
    x = np.asarray(x, dtype=float)
    r = np.linalg.norm(x)
    if r <= 0.0:
        raise NonPositiveRadius("rate evaluated at the center")
    return 1.5 * r_o / r**3 * np.cross(x, velocity)


def spin_rhs_linearized(spec: RotatingFieldSpec, x: np.ndarray,
                        velocity: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Leading-order transport dS/dt = (Omega_fd + Omega_geo) x S."""
    omega_fd, omega_geo = precession_rates(spec, x, velocity)
    return np.cross(omega_fd + omega_geo, s)


def circular_polar_orbit(radius: float, r_o: float
                         ) -> Tuple[Callable, Callable, float, float]:
    """Circular orbit in the x-z plane (through the poles of a z-aligned spin).

    Returns (position, velocity, orbital rate nu, period) with
    nu = sqrt(r_o/r^3) and x(t) = r*(cos(nu t), 0, sin(nu t)).
    """
    if radius <= 0.0:
        raise NonPositiveRadius(f"radius must be > 0, got {radius}")
    nu = np.sqrt(r_o / radius**3)

    def position(t: float) -> np.ndarray:
        return radius * np.array([np.cos(nu * t), 0.0, np.sin(nu * t)])

    def velocity(t: float) -> np.ndarray:
        return radius * nu * np.array([-np.sin(nu * t), 0.0, np.cos(nu * t)])

    return position, velocity, nu, 2.0 * np.pi / nu
