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

import math
from typing import TYPE_CHECKING, Callable, List, Sequence, Tuple

import numpy as np

from .errors import GeometryInvalid, NonPositiveRadius, NumericalFailure
from .metric import CentralField, _inverse, _radius, christoffels

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
    x = np.asarray(x, dtype=float)
    s4 = np.concatenate(([-float(np.dot(velocity, s))], s))
    return float(s4 @ _inverse(float(spec.g0(x)), spec.gi(x)) @ s4)


def transport_rhs(spec: RotatingFieldSpec, x: np.ndarray,
                  velocity: np.ndarray, s: Sequence[float]) -> List[float]:
    """Parallel-transport rate dS_i/dt = Gamma^lam_{i nu} S_lam xdot^nu.

    ``velocity`` is the coordinate velocity dx/dt; the time component of the
    spin is eliminated through S_0 = -v . S.  The connection is contracted
    directly, dS_i/dt = 1/2 S^s xdot^n (d_i g_sn + d_n g_si - d_s g_in),
    with g_mn = phi T_m T_n - P_mn, phi = (1 - G0)^-2, T = (1, G) and
    P = diag(0, 1, 1, 1).  Every term then needs only phi, grad(phi), G
    and the two first-derivative forms of G.  The rate is one float kernel
    per solver stage: plain float arithmetic on the components of the float
    arrays ``x`` and ``velocity`` and of the float sequence ``s`` (numpy's
    per-call cost dominates at length 3), returned as a list.
    """
    x0, x1, x2 = x.tolist()
    v0, v1, v2 = velocity.tolist()
    s0, s1, s2 = s
    w0, w1, w2 = spec.omega.tolist()
    r2 = x0 * x0 + x1 * x1 + x2 * x2
    r = r2 ** 0.5
    if r <= 0.0:
        raise NonPositiveRadius("field evaluated at the center")
    r_o = float(spec.r_o)
    k3 = 2.0 * float(spec.inertia) / (r * r2)
    k5_3 = 3.0 * (k3 / r2)
    lapse = 1.0 + r_o / r                       # 1 - G0
    phi = 1.0 / (lapse * lapse)
    dphi = 2.0 * phi * r_o / (lapse * r * r2)   # grad(phi) = dphi * x
    wx0, wx1, wx2 = w1 * x2 - w2 * x1, w2 * x0 - w0 * x2, w0 * x1 - w1 * x0
    G0, G1, G2 = k3 * wx0, k3 * wx1, k3 * wx2   # G = k3 (w x x)

    # raised spin S^s = g^{s l} S_l
    s_time = -(v0 * s0 + v1 * s1 + v2 * s2)
    u_time = ((lapse * lapse - (G0 * G0 + G1 * G1 + G2 * G2)) * s_time
              + (G0 * s0 + G1 * s1 + G2 * s2))
    u0, u1, u2 = G0 * s_time - s0, G1 * s_time - s1, G2 * s_time - s2
    Tu = u_time + (G0 * u0 + G1 * u1 + G2 * u2)
    Tw = 1.0 + (G0 * v0 + G1 * v1 + G2 * v2)

    # (y . grad) G = k3 (w x y) - 3 k5 (x . y) (w x x), for y = v and u
    b = k5_3 * (x0 * v0 + x1 * v1 + x2 * v2)
    dvG0 = k3 * (w1 * v2 - w2 * v1) - b * wx0
    dvG1 = k3 * (w2 * v0 - w0 * v2) - b * wx1
    dvG2 = k3 * (w0 * v1 - w1 * v0) - b * wx2
    b = k5_3 * (x0 * u0 + x1 * u1 + x2 * u2)
    duG0 = k3 * (w1 * u2 - w2 * u1) - b * wx0
    duG1 = k3 * (w2 * u0 - w0 * u2) - b * wx1
    duG2 = k3 * (w0 * u1 - w1 * u0) - b * wx2
    # grad(G . y) at fixed y = k3 (y x w) - 3 k5 ((w x x) . y) x
    b = k5_3 * (wx0 * v0 + wx1 * v1 + wx2 * v2)
    gvG0 = k3 * (v1 * w2 - v2 * w1) - b * x0
    gvG1 = k3 * (v2 * w0 - v0 * w2) - b * x1
    gvG2 = k3 * (v0 * w1 - v1 * w0) - b * x2
    b = k5_3 * (wx0 * u0 + wx1 * u1 + wx2 * u2)
    guG0 = k3 * (u1 * w2 - u2 * w1) - b * x0
    guG1 = k3 * (u2 * w0 - u0 * w2) - b * x1
    guG2 = k3 * (u0 * w1 - u1 * w0) - b * x2

    # the three derivative terms of the bracket, grouped by the factors
    # Tu = T.u, Tw = T.xdot and G_i they share
    Twd = Tw * dphi
    xv = dphi * (x0 * v0 + x1 * v1 + x2 * v2)
    xu = dphi * (x0 * u0 + x1 * u1 + x2 * u2)
    c = phi * ((dvG0 * u0 + dvG1 * u1 + dvG2 * u2)
               - (duG0 * v0 + duG1 * v1 + duG2 * v2))
    return [
        0.5 * (Tu * (Twd * x0 + xv * G0 + phi * (gvG0 + dvG0))
               + Tw * (phi * (guG0 - duG0) - xu * G0) + c * G0),
        0.5 * (Tu * (Twd * x1 + xv * G1 + phi * (gvG1 + dvG1))
               + Tw * (phi * (guG1 - duG1) - xu * G1) + c * G1),
        0.5 * (Tu * (Twd * x2 + xv * G2 + phi * (gvG2 + dvG2))
               + Tw * (phi * (guG2 - duG2) - xu * G2) + c * G2)]


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
    gap = np.max(np.abs(transport_rhs(spec, x, velocity, s.tolist())
                        - oracle))
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
    NumericalFailure if they differ.  GeometryInvalid for a span that does
    not increase.
    """
    from .ode import dop853

    s0 = np.asarray(s_initial, dtype=float)
    t0, t1 = t_span
    if not t1 > t0:
        raise GeometryInvalid(f"spin transport span ({t0}, {t1}) does not "
                              f"increase")
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
    nu = sqrt(r_o/r^3) and x(t) = r*(cos(nu t), 0, sin(nu t)).  The closures
    take a scalar t and build their arrays from float ``math`` cos and sin,
    as cheap as the per-stage transport rate they feed.  This is a
    Newtonian circle, not a geodesic of the metric, so ``spin_norm_invariant``
    drifts along it by ~3 (r_o/r)^2 (up to ~3e-8) whatever the tolerance.
    """
    if radius <= 0.0:
        raise NonPositiveRadius(f"radius must be > 0, got {radius}")
    nu = np.sqrt(r_o / radius**3)
    rate, speed = float(nu), float(radius * nu)

    def position(t: float) -> np.ndarray:
        angle = rate * t
        return np.array([radius * math.cos(angle), 0.0,
                         radius * math.sin(angle)])

    def velocity(t: float) -> np.ndarray:
        angle = rate * t
        return np.array([-speed * math.sin(angle), 0.0,
                         speed * math.cos(angle)])

    return position, velocity, nu, 2.0 * np.pi / nu
