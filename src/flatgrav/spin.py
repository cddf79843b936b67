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
in units of the orbit radius (``_in_units``), with r_o, I and each factor
they multiply split into mantissa and exponent: it keeps the plain closed
form's bits wherever that stays in the normal float range, and its digits
wherever the rate and the products of w and v with x/2^e are normal floats.
The module imports numpy only inside its array routes: the transport, its
check against the connection, the spin-norm invariant and the array
wrappers ``frame_dragging_rate`` and ``geodetic_rate``.

Geometric units: lengths in meters, time in meters, angular velocity in 1/m,
moment of inertia in m^3.
"""
from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING, Callable, List, Sequence, Tuple

from .errors import GeometryInvalid, NonPositiveRadius, NumericalFailure
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
    and the two first-derivative forms of G, all from ``spec.at``.  It runs
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
    NumericalFailure if they differ.  GeometryInvalid for a span that does
    not increase.
    """
    import numpy as np

    from .ode import dop853

    s0 = np.asarray(s_initial, dtype=float)
    t0, t1 = t_span
    if not t1 > t0:
        raise GeometryInvalid(f"spin transport span ({t0}, {t1}) does not "
                              f"increase")
    _check_against_connection(spec, position(t0), velocity(t0), s0.tolist())

    def rhs(t, s):
        return transport_rhs(spec, position(t), velocity(t), s)

    run = dop853(rhs, t_span, s0, rtol=tol,
                 atol=tol * max(np.linalg.norm(s0), 1e-300))
    if run.failure:
        raise NumericalFailure(f"spin transport failed: {run.failure}")
    return run.dense


def _split(v: Sequence[float]) -> Tuple[Tuple[float, ...], int]:
    """v/2^e and e, where 2^(e-1) <= max|v_i| < 2^e (e = 0 for v = 0).

    A component below 2^-1074 of the largest one becomes 0.
    """
    e = math.frexp(max(map(abs, v)))[1]
    return tuple(math.ldexp(c, -e) for c in v), e


def _cube(r: float) -> float:
    """r**3, infinite where it overflows (r above ~5.6e102)."""
    try:
        return r**3
    except OverflowError:
        return math.inf


def _in_units(x: Sequence[float], r3: float
              ) -> Tuple[Tuple[float, ...], float, int]:
    """x/2^e and e of ``_split(x)``, and r^3/2^(3e), given r3 = r**3.

    Dividing by a power of two is exact, so a closed form of length
    dimension -n, evaluated in these units and rescaled by 2^(-n*e) with one
    ``_ldexp``, rounds as it does in x wherever both stay in the normal
    range; only that last factor leaves it.  r^3/2^(3e) is pow's own r**3
    scaled where that is a normal float (pow is not exactly
    scale-invariant, so the cube of a scaled r would move the last digit),
    and the cube of the scaled x's norm elsewhere.
    """
    xs, e = _split(x)
    if sys.float_info.min <= r3 < math.inf:
        return xs, math.ldexp(r3, -3 * e), e
    return xs, math.hypot(*xs) ** 3, e


def _ldexp(m: float, k: int) -> float:
    """``m`` times 2^k; beyond the largest float it is infinite, as a
    float product is, where ``math.ldexp`` raises.  ``carriers._ldexp``'s
    twin, so that ``gyro`` imports neither carriers nor quadrature."""
    try:
        return math.ldexp(m, k)
    except OverflowError:
        return math.copysign(math.inf, m)


def frame_dragging(spec: RotatingFieldSpec, x: Sequence[float]
                   ) -> Tuple[float, float, float]:
    """Drag rate (I/r^3) * (3*rhat*(w . rhat) - w): half the curl of G.

    I/r^3 is formed in the units of ``_in_units``, and each component of
    3*rhat*(w . rhat) - w is split by ``frexp``, so the rate keeps its
    digits where I/r^3 would leave the normal float range.
    """
    r, r3 = _radius(x)
    _, r3, e = _in_units(x, r3)
    m_i, e_i = math.frexp(spec.inertia)
    w0, w1, w2 = spec.omega
    h0, h1, h2 = h = (x[0] / r, x[1] / r, x[2] / r)
    wh = w0 * h0 + w1 * h1 + w2 * h2
    return tuple(_ldexp(m_i / r3 * m, e_i - 3 * e + k) for m, k in map(
        math.frexp, (3.0 * c * wh - w for c, w in zip(h, spec.omega))))


def geodetic(spec: RotatingFieldSpec, x: Sequence[float],
             velocity: Sequence[float]) -> Tuple[float, float, float]:
    """Orbital precession rate -(v/2 - G) x grad(G0) of a moving gyroscope.

    grad(G0) is r_o*x/r^3 and G = (2I/r^3)(w x x), each formed in the
    units of ``_in_units``, with each component of w x x split by
    ``frexp``.  G is rescaled before it is subtracted from v/2; a = v/2 - G
    is split as x is, and grad(G0) is rescaled after the cross product, so
    the rate keeps its digits wherever it and G are normal floats.
    """
    (s0, s1, s2), r3, e = _in_units(x, _radius(x)[1])
    m_o, e_o = math.frexp(spec.r_o)
    m_i, e_i = math.frexp(spec.inertia)
    w0, w1, w2 = spec.omega
    k = 2.0 * m_i / r3
    wx = map(math.frexp, (w1 * s2 - w2 * s1, w2 * s0 - w0 * s2,
                          w0 * s1 - w1 * s0))
    b0, b1, b2 = (m_o * c / r3 for c in (s0, s1, s2))     # grad(G0)
    (a0, a1, a2), e_a = _split([v / 2.0 - _ldexp(k * m, e_i - 2 * e + j)
                                for v, (m, j) in zip(velocity, wx)])
    return tuple(_ldexp(c, e_o - 2 * e + e_a) for c in (
        a2 * b1 - a1 * b2, a0 * b2 - a2 * b0, a1 * b0 - a0 * b1))


def frame_dragging_rate(spec: RotatingFieldSpec,
                        x: Sequence[float]) -> np.ndarray:
    """``frame_dragging`` as an array, so that two rates add as vectors.

    perfbench's spin check and acceptance criterion 7 add it to
    ``geodetic_rate``; the wrapper can go once perfbench reads the tuples
    (ROADMAP item 5).
    """
    import numpy as np
    return np.array(frame_dragging(spec, x))


def geodetic_rate(spec: RotatingFieldSpec, x: Sequence[float],
                  velocity: Sequence[float]) -> np.ndarray:
    """``geodetic`` as an array, so that two rates add as vectors.

    perfbench's spin check and acceptance criterion 7 add it to
    ``frame_dragging_rate``; the wrapper can go once perfbench reads the
    tuples (ROADMAP item 5).
    """
    import numpy as np
    return np.array(geodetic(spec, x, velocity))


def de_sitter_rate(r_o: float, x: Sequence[float], velocity: Sequence[float]
                   ) -> Tuple[float, float, float]:
    """Textbook geodetic comparison rate (3/2) * (r_o/r^3) * (x cross v).

    r is sqrt(x.x), its squares summed left to right.  The factor and the
    cross product are formed in the units of ``_in_units``, each component
    of the cross product split by ``frexp``, so the rate keeps its digits
    wherever it is a normal float.  NonPositiveRadius at the center.
    """
    x0, x1, x2 = x
    v0, v1, v2 = velocity
    if not any(x):
        raise NonPositiveRadius("rate evaluated at the center")
    (s0, s1, s2), r3, e = _in_units(
        x, _cube(math.sqrt(x0 * x0 + x1 * x1 + x2 * x2)))
    m_o, e_o = math.frexp(r_o)
    f = 1.5 * m_o / r3
    return tuple(_ldexp(f * m, e_o - 2 * e + k) for m, k in map(math.frexp, (
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
    nu is formed in the units of ``_in_units``, so it keeps its digits
    where r_o/r^3 is subnormal.  NonPositiveRadius unless radius > 0 and
    r_o > 0; NumericalFailure where r_o/radius^3 underflows to 0, which
    would leave no orbital rate.
    """
    if not radius > 0.0:
        raise NonPositiveRadius(f"radius must be > 0, got {radius}")
    if not r_o > 0.0:
        raise NonPositiveRadius(f"r_o must be > 0 for an orbit, got {r_o}")
    _, r3, e = _in_units((radius,), _cube(radius))
    m_o, n = math.frexp(r_o)
    n -= 3 * e
    if n % 2:                       # an even exponent halves exactly
        m_o, n = 2.0 * m_o, n - 1
    if _ldexp(m_o / r3, n) == 0.0:
        raise NumericalFailure(f"orbital rate underflows: r_o/radius^3 = 0 "
                               f"for r_o {r_o!r} at radius {radius!r}")
    nu = _ldexp(math.sqrt(m_o / r3), n // 2)
    speed = radius * nu

    def position(t: float) -> Tuple[float, float, float]:
        angle = nu * t
        return (radius * math.cos(angle), 0.0, radius * math.sin(angle))

    def velocity(t: float) -> Tuple[float, float, float]:
        angle = nu * t
        return (-speed * math.sin(angle), 0.0, speed * math.cos(angle))

    return position, velocity, nu, 2.0 * math.pi / nu
