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
from .metric import FourPotential, _christoffel, rotating_central_potential

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
        # d_k [w x x]_i = [w x e_k]_i, one row per e_k
        w_cross_e = np.cross(self.omega, np.eye(3))
        return 2.0 * self.inertia * (
            w_cross_e / r**3 - 3.0 * np.outer(x, wx) / r**5
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
    return _christoffel(ginv, dg)


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
    """Transport invariant g^{mu nu} S_mu S_nu with S_0 = -v . S.

    Along ``circular_polar_orbit`` it drifts by ~3 (r_o/r)^2 relative, up to
    ~3e-8 at r_o/r = 1e-4: that orbit is a Newtonian circle, not a geodesic,
    so the spin is transported along a path the metric does not follow.
    """
    G0 = spec.G0(x)
    Gi = spec.Gi(x)
    s0 = -float(np.dot(velocity, s))
    return (((1.0 - G0) ** 2 - Gi @ Gi) * s0**2
            + 2.0 * s0 * float(Gi @ s) - float(s @ s))


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def _directional_G(k3, k5, w, x, wx, y):
    """(y . grad) G = 2I [(w x y)/r^3 - 3 (x . y)(w x x)/r^5]."""
    a, b = _cross(w, y), 3.0 * k5 * _dot(x, y)
    return (k3 * a[0] - b * wx[0], k3 * a[1] - b * wx[1],
            k3 * a[2] - b * wx[2])


def _gradient_G_dot(k3, k5, w, x, wx, y):
    """grad(G . y) at fixed y = 2I [(y x w)/r^3 - 3 x ((w x x) . y)/r^5]."""
    a, b = _cross(y, w), 3.0 * k5 * _dot(wx, y)
    return (k3 * a[0] - b * x[0], k3 * a[1] - b * x[1],
            k3 * a[2] - b * x[2])


def transport_rhs(spec: RotatingFieldSpec, x: np.ndarray,
                  velocity: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Parallel-transport rate dS_i/dt = Gamma^lam_{i nu} S_lam xdot^nu.

    ``velocity`` is the coordinate velocity dx/dt; the time component of the
    spin is eliminated through S_0 = -v . S.  The connection is contracted
    directly, dS_i/dt = 1/2 S^s xdot^n (d_i g_sn + d_n g_si - d_s g_in),
    with g_mn = phi T_m T_n - P_mn, phi = (1 - G0)^-2, T = (1, G) and
    P = diag(0, 1, 1, 1).  Every term then needs only phi, grad(phi), G
    and the two first-derivative forms of G, evaluated in float arithmetic
    on 3-tuples (numpy's per-call cost dominates at length 3).
    """
    x = np.asarray(x, dtype=float).tolist()
    v = np.asarray(velocity, dtype=float).tolist()
    s_low = np.asarray(s, dtype=float).tolist()
    w = spec.omega.tolist()
    r2 = _dot(x, x)
    r = r2 ** 0.5
    spec._check(r)
    r_o = float(spec.r_o)
    k3 = 2.0 * float(spec.inertia) / (r * r2)
    k5 = k3 / r2
    lapse = 1.0 + r_o / r                       # 1 - G0
    phi = 1.0 / (lapse * lapse)
    dphi = 2.0 * phi * r_o / (lapse * r * r2)   # grad(phi) = dphi * x
    wx = _cross(w, x)
    G = (k3 * wx[0], k3 * wx[1], k3 * wx[2])

    # raised spin S^s = g^{s l} S_l
    s_time = -_dot(v, s_low)
    u_time = (lapse * lapse - _dot(G, G)) * s_time + _dot(G, s_low)
    u = (G[0] * s_time - s_low[0], G[1] * s_time - s_low[1],
         G[2] * s_time - s_low[2])
    Tu = u_time + _dot(G, u)
    Tw = 1.0 + _dot(G, v)

    dv_G = _directional_G(k3, k5, w, x, wx, v)
    du_G = _directional_G(k3, k5, w, x, wx, u)
    grad_Gv = _gradient_G_dot(k3, k5, w, x, wx, v)
    grad_Gu = _gradient_G_dot(k3, k5, w, x, wx, u)
    # the three derivative terms of the bracket, grouped by the factors
    # Tu = T.u, Tw = T.xdot and G_i they share
    xv, xu = dphi * _dot(x, v), dphi * _dot(x, u)
    c = phi * (_dot(dv_G, u) - _dot(du_G, v))
    return np.array([
        0.5 * (Tu * (Tw * dphi * x[i] + xv * G[i]
                     + phi * (grad_Gv[i] + dv_G[i]))
               + Tw * (phi * (grad_Gu[i] - du_G[i]) - xu * G[i])
               + c * G[i])
        for i in range(3)])


def _check_against_connection(spec: RotatingFieldSpec, x: np.ndarray,
                              velocity: np.ndarray, s: np.ndarray) -> None:
    """Compare transport_rhs with the contraction of the full connection.

    The tolerance is 1e-12 of the largest sum of absolute contraction terms
    |Gamma^lam_{i nu}| |S_lam| |xdot^nu|, the scale of the rounding error of
    either route, so a rate that vanishes by cancellation still passes.
    """
    gamma = rotating_connections(spec, x)[:, 1:, :]
    s4 = np.concatenate(([-float(np.dot(velocity, s))], s))
    xdot = np.concatenate(([1.0], velocity))
    oracle = np.einsum("liv,l,v->i", gamma, s4, xdot)
    scale = np.max(np.einsum("liv,l,v->i", np.abs(gamma), np.abs(s4),
                             np.abs(xdot)))
    gap = np.max(np.abs(transport_rhs(spec, x, velocity, s) - oracle))
    if not gap <= 1e-12 * scale:
        raise NumericalFailure(
            f"direct transport rate differs from the connection contraction "
            f"by {gap:.3e} (scale {scale:.3e})")


def transport_spin(spec: RotatingFieldSpec,
                   position: Callable[[float], np.ndarray],
                   velocity: Callable[[float], np.ndarray],
                   s_initial: np.ndarray,
                   t_span: Tuple[float, float],
                   tol: float = 1e-12) -> Callable[[float], np.ndarray]:
    """Parallel-transport a spin along a prescribed orbit.

    Returns a callable mapping coordinate time to the covariant spatial spin.
    At the initial point the direct rate is checked once against the full
    connection (``rotating_connections``); NumericalFailure if they differ.
    """
    from scipy.integrate import solve_ivp

    s0 = np.asarray(s_initial, dtype=float)
    t0 = t_span[0]
    _check_against_connection(spec, np.asarray(position(t0), dtype=float),
                              np.asarray(velocity(t0), dtype=float), s0)

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
    nu = sqrt(r_o/r^3) and x(t) = r*(cos(nu t), 0, sin(nu t)).  This is a
    Newtonian circle, not a geodesic of the metric, so ``spin_norm_invariant``
    drifts along it by ~3 (r_o/r)^2 (up to ~3e-8) whatever the tolerance.
    """
    if radius <= 0.0:
        raise NonPositiveRadius(f"radius must be > 0, got {radius}")
    nu = np.sqrt(r_o / radius**3)

    def position(t: float) -> np.ndarray:
        return radius * np.array([np.cos(nu * t), 0.0, np.sin(nu * t)])

    def velocity(t: float) -> np.ndarray:
        return radius * nu * np.array([-np.sin(nu * t), 0.0, np.cos(nu * t)])

    return position, velocity, nu, 2.0 * np.pi / nu
