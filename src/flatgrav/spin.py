"""Gyroscope transport around a rotating central body.

The body contributes a scalar potential -r_o/r and, when spinning, the
weak-rotation vector potential 2*I*[w x r]/r^3.  The transport rate and
the exact connection read them and their first derivatives from one float
evaluation, ``metric.CentralField.at``; both gyroscope rates take its
range check on r (``metric._radius``) and form the rest themselves.  A
comoving gyroscope's covariant spin is parallel-transported along its
orbit; the secular drift decomposes into a frame-dragging rate set by the
vector potential's curl and a geodetic rate set by the motion through the
scalar field's gradient.

Both rates are float kernels that return 3-tuples (``frame_dragging``,
``geodetic``), as is ``de_sitter_rate``, so ``gyro`` runs without numpy.
Each rate, and the orbital rate of ``circular_polar_orbit``, is formed once
in units of the orbit radius by ``_scaled``'s rule, with r_o, I and each
factor they multiply split into mantissa and exponent: it keeps the plain
closed form's bits wherever that stays in the normal float range, and its
digits wherever the rate and the products of w and v with x/2^e are
normal floats.  numpy is imported only by the transport, its check against
the connection, the spin-norm invariant and the array wrappers.

Geometric units: lengths in meters, time in meters, angular velocity in 1/m,
moment of inertia in m^3.
"""
from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, List, Sequence, Tuple

from ._scaled import cube, in_units, ldexp, split
from .errors import NumericalFailure
from .metric import CentralField, _inverse, _radius, christoffels

if TYPE_CHECKING:  # the array and ODE routes import them: gyro skips both
    import numpy as np

    from .ode import DenseOutput

__all__ = [
    "RotatingFieldSpec", "rotating_connections", "transport_spin",
    "frame_dragging", "geodetic", "frame_dragging_rate", "geodetic_rate",
    "de_sitter_rate",
    "circular_polar_orbit", "spin_norm_invariant",
]


# The rotating body's field and its exact derivatives live in metric.
RotatingFieldSpec = CentralField


def rotating_connections(spec: RotatingFieldSpec,
                         x: Sequence[float]) -> np.ndarray:
    """The exact connection Gamma[lam, mu, nu] of ``metric.christoffels``."""
    return christoffels(spec, x)


def spin_norm_invariant(spec: RotatingFieldSpec, x: Sequence[float],
                        velocity: Sequence[float],
                        s: Sequence[float]) -> float:
    """Transport invariant g^{mu nu} S_mu S_nu with S_0 = -v . S.

    Along ``circular_polar_orbit`` it drifts by ~3 (r_o/r)^2 relative, up to
    ~3e-8 at r_o/r = 1e-4: that orbit is a Newtonian circle, not a geodesic,
    so the spin is transported along a path the metric does not follow.
    """
    import numpy as np
    r, k, _, wx = spec.at(x)
    s4 = np.concatenate(([-float(np.dot(velocity, s))], s))
    return float(s4 @ _inverse(-spec.r_o / r, k * np.array(wx)) @ s4)


def transport_rhs(spec: RotatingFieldSpec, x: Sequence[float],
                  velocity: Sequence[float], s: Sequence[float]
                  ) -> List[float]:
    """Parallel-transport rate dS_i/dt = Gamma^lam_{i nu} S_lam xdot^nu.

    ``velocity`` is the coordinate velocity dx/dt; the time component of the
    spin is eliminated through S_0 = -v . S.  The connection is contracted
    directly, dS_i/dt = 1/2 S^s xdot^n (d_i g_sn + d_n g_si - d_s g_in),
    with g_mn = phi T_m T_n - P_mn, phi = (1 - G0)^-2, T = (1, G) and
    P = diag(0, 1, 1, 1).  Every term then needs only phi, grad(phi), G
    and the two first-derivative forms of G, all from ``spec.at``: with
    u the space part of the raised spin S^s and y = v or u,
    (y . grad) G = k3 (w x y) - b_y (w x x) and
    grad(G . y) = k3 (y x w) - c_y x, where b_y = 3k5 (x . y) and
    c_y = 3k5 ((w x x) . y).  The bracket takes these in three
    combinations, in each of which the k3 (w x .) terms cancel or add:

    - grad(G . v) + (v . grad) G = -c_v x - b_v (w x x);
    - grad(G . u) - (u . grad) G = 2 k3 (u x w) - c_u x + b_u (w x x);
    - ((v . grad) G) . u - ((u . grad) G) . v
      = 2 k3 (u x w) . v + 3k5 ((x . u)(w x x . v) - (x . v)(w x x . u)).

    T . S^s is lapse^2 S_0: the G . S and G . G parts of S^0 cancel against
    G . u.  So the rate is a x + b (w x x) + c (u x w), three scalars times
    three vectors, from four dot products and one cross product.  It runs
    once per solver stage, so it takes float 3-sequences and returns a list
    (numpy's per-call cost dominates at length 3).
    """
    v0, v1, v2 = velocity
    s0, s1, s2 = s
    w0, w1, w2 = spec.omega
    r, k3, k5_3, (wx0, wx1, wx2) = spec.at(x)
    x0, x1, x2 = x
    r_o = spec.r_o
    lapse = 1.0 + r_o / r                       # 1 - G0
    phi = 1.0 / (lapse * lapse)
    dphi = 2.0 * phi * r_o / (lapse * r**3)     # grad(phi) = dphi * x
    G0, G1, G2 = k3 * wx0, k3 * wx1, k3 * wx2   # G = k3 (w x x)

    # raised spin: space part u = G S_0 - S, and Tu = T . S^s
    s_time = -(v0 * s0 + v1 * s1 + v2 * s2)
    u0, u1, u2 = G0 * s_time - s0, G1 * s_time - s1, G2 * s_time - s2
    Tu = lapse * lapse * s_time
    Tw = 1.0 + (G0 * v0 + G1 * v1 + G2 * v2)   # T . xdot
    xv = x0 * v0 + x1 * v1 + x2 * v2
    xu = x0 * u0 + x1 * u1 + x2 * u2
    wxv = wx0 * v0 + wx1 * v1 + wx2 * v2
    wxu = wx0 * u0 + wx1 * u1 + wx2 * u2
    uw0, uw1, uw2 = u1 * w2 - u2 * w1, u2 * w0 - u0 * w2, u0 * w1 - u1 * w0

    # the bracket's terms, grouped by the vector each multiplies
    pk = phi * k5_3
    dG = phi * (2.0 * k3 * (uw0 * v0 + uw1 * v1 + uw2 * v2)
                + k5_3 * (xu * wxv - xv * wxu))
    a = 0.5 * (Tu * Tw * dphi - pk * (Tu * wxv + Tw * wxu))
    b = 0.5 * ((Tu * xv - Tw * xu) * (k3 * dphi - pk) + k3 * dG)
    c = phi * k3 * Tw
    return [a * x0 + b * wx0 + c * uw0,
            a * x1 + b * wx1 + c * uw1,
            a * x2 + b * wx2 + c * uw2]


def _check_against_connection(spec: RotatingFieldSpec, x: Sequence[float],
                              velocity: Sequence[float],
                              s: Sequence[float]) -> None:
    """Compare transport_rhs with the contraction of the full connection.

    The tolerance is 1e-12 of the largest sum of absolute contraction terms
    |Gamma^lam_{i nu}| |S_lam| |xdot^nu|, the scale of the rounding error of
    either route, so a rate that vanishes by cancellation still passes.
    """
    import numpy as np
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
                   position: Callable[[float], Sequence[float]],
                   velocity: Callable[[float], Sequence[float]],
                   s_initial: Sequence[float],
                   t_span: Tuple[float, float],
                   tol: float = 1e-12) -> DenseOutput:
    """Parallel-transport a spin along a prescribed orbit.

    ``position`` and ``velocity`` map coordinate time to float 3-sequences.
    Returns the dense output, a callable from coordinate time to the
    covariant spatial spin.  At the initial point the direct rate is checked
    once against the full connection (``rotating_connections``);
    NumericalFailure if they differ, or for a span that does not
    increase.
    """
    import numpy as np

    from .ode import _sum_of_squares, dop853

    s0 = np.asarray(s_initial, dtype=float)
    t0, t1 = t_span
    if not t1 > t0:
        raise NumericalFailure(
            f"spin transport span ({t0}, {t1}) does not increase")
    _check_against_connection(spec, position(t0), velocity(t0), s0.tolist())

    def rhs(t, s):
        return transport_rhs(spec, position(t), velocity(t), s)

    # |s0| with the generic ddot's sums, so that atol is the same on every
    # CPU, where np.linalg.norm rounds by BLAS kernel
    norm = math.sqrt(_sum_of_squares(s0.tolist()))
    run = dop853(rhs, t_span, s0, rtol=tol, atol=tol * max(norm, 1e-300))
    if run.failure:
        raise NumericalFailure(f"spin transport failed: {run.failure}")
    return run.dense


def frame_dragging(spec: RotatingFieldSpec, x: Sequence[float]
                   ) -> Tuple[float, float, float]:
    """Drag rate (I/r^3) * (3*rhat*(w . rhat) - w): half the curl of G.

    I/r^3 is formed in the units of ``_scaled.in_units``, and each
    component of 3*rhat*(w . rhat) - w is split by ``frexp``, so the rate
    keeps its digits where I/r^3 would leave the normal float range.
    """
    r, r3 = _radius(x)
    _, r3, e = in_units(x, r3)
    m_i, e_i = math.frexp(spec.inertia)
    w0, w1, w2 = spec.omega
    h0, h1, h2 = h = (x[0] / r, x[1] / r, x[2] / r)
    wh = w0 * h0 + w1 * h1 + w2 * h2
    return tuple(ldexp(m_i / r3 * m, e_i - 3 * e + k) for m, k in map(
        math.frexp, (3.0 * c * wh - w for c, w in zip(h, spec.omega))))


def geodetic(spec: RotatingFieldSpec, x: Sequence[float],
             velocity: Sequence[float]) -> Tuple[float, float, float]:
    """Orbital precession rate -(v/2 - G) x grad(G0) of a moving gyroscope.

    grad(G0) is r_o*x/r^3 and G = (2I/r^3)(w x x), each formed in the
    units of ``_scaled.in_units``, with each component of w x x split by
    ``frexp``.  G is rescaled before it is subtracted from v/2; a = v/2 - G
    is split as x is, and grad(G0) is rescaled after the cross product, so
    the rate keeps its digits wherever it and G are normal floats.
    """
    (s0, s1, s2), r3, e = in_units(x, _radius(x)[1])
    m_o, e_o = math.frexp(spec.r_o)
    m_i, e_i = math.frexp(spec.inertia)
    w0, w1, w2 = spec.omega
    k = 2.0 * m_i / r3
    wx = map(math.frexp, (w1 * s2 - w2 * s1, w2 * s0 - w0 * s2,
                          w0 * s1 - w1 * s0))
    b0, b1, b2 = (m_o * c / r3 for c in (s0, s1, s2))     # grad(G0)
    (a0, a1, a2), e_a = split([v / 2.0 - ldexp(k * m, e_i - 2 * e + j)
                               for v, (m, j) in zip(velocity, wx)])
    return tuple(ldexp(c, e_o - 2 * e + e_a) for c in (
        a2 * b1 - a1 * b2, a0 * b2 - a2 * b0, a1 * b0 - a0 * b1))


def frame_dragging_rate(spec: RotatingFieldSpec,
                        x: Sequence[float]) -> np.ndarray:
    """``frame_dragging`` as an array, which perfbench's spin check and
    acceptance criterion 7 add to ``geodetic_rate``; it can go once
    perfbench reads the tuples."""
    import numpy as np
    return np.array(frame_dragging(spec, x))


def geodetic_rate(spec: RotatingFieldSpec, x: Sequence[float],
                  velocity: Sequence[float]) -> np.ndarray:
    """``geodetic`` as an array, which perfbench's spin check and
    acceptance criterion 7 add to ``frame_dragging_rate``; it can go once
    perfbench reads the tuples."""
    import numpy as np
    return np.array(geodetic(spec, x, velocity))


def de_sitter_rate(r_o: float, x: Sequence[float], velocity: Sequence[float]
                   ) -> Tuple[float, float, float]:
    """Textbook geodetic comparison rate (3/2) * (r_o/r^3) * (x cross v).

    r is sqrt(x.x), its squares summed left to right.  The factor and the
    cross product are formed in the units of ``_scaled.in_units``, each
    component of the cross product split by ``frexp``, so the rate keeps
    its digits wherever it is a normal float.  NumericalFailure at the
    center.
    """
    x0, x1, x2 = x
    v0, v1, v2 = velocity
    if not any(x):
        raise NumericalFailure("rate evaluated at the center")
    (s0, s1, s2), r3, e = in_units(
        x, cube(math.sqrt(x0 * x0 + x1 * x1 + x2 * x2)))
    m_o, e_o = math.frexp(r_o)
    f = 1.5 * m_o / r3
    return tuple(ldexp(f * m, e_o - 2 * e + k) for m, k in map(math.frexp, (
        s1 * v2 - s2 * v1, s2 * v0 - s0 * v2, s0 * v1 - s1 * v0)))


def circular_polar_orbit(radius: float, r_o: float
                         ) -> Tuple[Callable, Callable, float, float]:
    """Circular orbit in the x-z plane (through the poles of a z-aligned spin).

    Returns (position, velocity, orbital rate nu, period) with
    nu = sqrt(r_o/r^3) and x(t) = r*(cos(nu t), 0, sin(nu t)).  The closures
    take a scalar t and return float 3-tuples from ``math`` cos and sin, as
    cheap as the per-stage transport rate they feed.  This is a Newtonian
    circle, not a geodesic of the metric, so ``spin_norm_invariant`` drifts
    along it by ~3 (r_o/r)^2 (up to ~3e-8) whatever the tolerance.
    nu is formed in the units of ``_scaled.in_units``, so it keeps its
    digits where r_o/r^3 is subnormal.  NumericalFailure unless radius > 0 and
    r_o > 0, and where r_o/radius^3 underflows to 0, which would leave no
    orbital rate.
    """
    if not radius > 0.0:
        raise NumericalFailure(f"radius must be > 0, got {radius}")
    if not r_o > 0.0:
        raise NumericalFailure(f"r_o must be > 0 for an orbit, got {r_o}")
    _, r3, e = in_units((radius,), cube(radius))
    m_o, n = math.frexp(r_o)
    n -= 3 * e
    if n % 2:                       # an even exponent halves exactly
        m_o, n = 2.0 * m_o, n - 1
    if ldexp(m_o / r3, n) == 0.0:
        raise NumericalFailure(f"orbital rate underflows: r_o/radius^3 = 0 "
                               f"for r_o {r_o!r} at radius {radius!r}")
    nu = ldexp(math.sqrt(m_o / r3), n // 2)
    speed = radius * nu

    def position(t: float) -> Tuple[float, float, float]:
        angle = nu * t
        return (radius * math.cos(angle), 0.0, radius * math.sin(angle))

    def velocity(t: float) -> Tuple[float, float, float]:
        angle = nu * t
        return (-speed * math.sin(angle), 0.0, speed * math.cos(angle))

    return position, velocity, nu, 2.0 * math.pi / nu
