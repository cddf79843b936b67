"""Gyroscope transport around a rotating central body.

The body contributes a scalar potential -r_o/r and, when spinning, the
weak-rotation vector potential 2*I*[w x r]/r^3 (``metric.CentralField``,
which also gives the exact connection).  A comoving gyroscope's
covariant spin is parallel-transported along its orbit; the secular drift
decomposes into a frame-dragging rate set by the vector potential's curl and
a geodetic rate set by the motion through the scalar field's gradient.

Geometric units: lengths in meters, time in meters, angular velocity in 1/m,
moment of inertia in m^3.
"""
from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Tuple

import numpy as np

from .errors import GeometryInvalid, NonPositiveRadius, NumericalFailure
from .metric import CentralField, _radius, christoffels

if TYPE_CHECKING:  # the ODE routes import it: closed-form runs skip it
    from .ode import DenseOutput

__all__ = [
    "RotatingFieldSpec", "rotating_connections", "transport_spin",
    "frame_dragging_rate", "geodetic_rate", "de_sitter_rate",
    "circular_polar_orbit", "spin_norm_invariant",
]


# The rotating body's field and its exact derivatives live in metric.
RotatingFieldSpec = CentralField


def rotating_connections(spec: RotatingFieldSpec, x: np.ndarray) -> np.ndarray:
    """Exact Christoffel array Gamma[lam, mu, nu] in Cartesian (t, x, y, z).

    The connection of ``metric.christoffels``, built from closed-form
    metric derivatives; the finite-difference connection serves as its
    oracle.
    """
    return christoffels(spec, x)


def spin_norm_invariant(spec: RotatingFieldSpec, x: np.ndarray,
                        velocity: np.ndarray, s: np.ndarray) -> float:
    """Transport invariant g^{mu nu} S_mu S_nu with S_0 = -v . S.

    Along ``circular_polar_orbit`` it drifts by ~3 (r_o/r)^2 relative, up to
    ~3e-8 at r_o/r = 1e-4: that orbit is a Newtonian circle, not a geodesic,
    so the spin is transported along a path the metric does not follow.
    """
    G0 = spec.g0(x)
    Gi = spec.gi(x)
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
    if r <= 0.0:
        raise NonPositiveRadius("field evaluated at the center")
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
                   tol: float = 1e-12) -> DenseOutput:
    """Parallel-transport a spin along a prescribed orbit.

    Returns the dense output, a callable from coordinate time to the
    covariant spatial spin.  At the initial point the direct rate is checked
    once against the full connection (``rotating_connections``);
    NumericalFailure if they differ.  GeometryInvalid for an empty span.
    """
    from .ode import dop853

    s0 = np.asarray(s_initial, dtype=float)
    t0, t1 = t_span
    if t0 == t1:
        raise GeometryInvalid(f"spin transport over an empty span ({t0}, {t1})")
    _check_against_connection(spec, np.asarray(position(t0), dtype=float),
                              np.asarray(velocity(t0), dtype=float), s0)

    def rhs(t, s):
        return transport_rhs(spec, position(t), velocity(t), s)

    run = dop853(rhs, t_span, s0, rtol=tol,
                 atol=tol * max(np.linalg.norm(s0), 1e-300))
    if run.failure:
        raise NumericalFailure(f"spin transport failed: {run.failure}")
    return run.dense


def frame_dragging_rate(spec: RotatingFieldSpec, x: np.ndarray) -> np.ndarray:
    """Drag rate (I/r^3) * (3*rhat*(w . rhat) - w) from the vector potential."""
    x = np.asarray(x, dtype=float)
    r = _radius(x)
    rhat = x / r
    w = spec.omega
    return spec.inertia / r**3 * (3.0 * rhat * np.dot(w, rhat) - w)


def geodetic_rate(spec: RotatingFieldSpec, x: np.ndarray,
                  velocity: np.ndarray) -> np.ndarray:
    """Orbital precession rate -(v/2 - G) x grad(G0) of a moving gyroscope."""
    return -np.cross(np.asarray(velocity, dtype=float) / 2.0 - spec.gi(x),
                     spec.dg0(x))


def de_sitter_rate(r_o: float, x: np.ndarray,
                   velocity: np.ndarray) -> np.ndarray:
    """Textbook geodetic comparison rate (3/2) * (r_o/r^3) * (x cross v)."""
    x = np.asarray(x, dtype=float)
    r = np.linalg.norm(x)
    if r <= 0.0:
        raise NonPositiveRadius("rate evaluated at the center")
    return 1.5 * r_o / r**3 * np.cross(x, velocity)


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
