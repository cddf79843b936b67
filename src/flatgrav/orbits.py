"""Massive-particle motion in the central field.

The bound planar motion is integrated in the polar angle using the rosette
equation, the exact derivative of the weak-field energy integral

    (1 - 2*r_o*u)/L^2 + (1 - 3*r_o*u)*(u'^2 + u^2) = (E_m/m)^2/L^2,

with u = 1/r, integrated as the slowly varying unit elements of an epicycle
about the circular orbit u_c of the same L:
u = u_c + alpha0*(alpha*cos(phi) + beta*sin(phi)).  Perihelion advance is
extracted three independent ways: the closed form 6*pi*r_o/(a*(1-e^2)),
the turn of the integrated epicycle over one radial period, and quadrature
of d(phi)/du between turning points.

Geometric units throughout (c = 1, lengths in meters).
"""
from __future__ import annotations

import math
import sys
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple, Optional, Tuple

from .constants import ARCSEC_PER_RAD, C_SI, SECONDS_PER_CENTURY
from .errors import NumericalFailure
from .quadrature import gauss_legendre, legendre_antiderivative

if TYPE_CHECKING:  # the array and ODE routes import them where they run
    import numpy as np

    from .ode import DenseOutput

DEFAULT_TOL = 1e-12
# Turning points fall Phi/2 > pi apart and the event test compares the signs
# of u' at step ends only, so no leg step may be longer than this.
LEG_MAX_STEP = 0.5 * math.pi


class OrbitIntegrals(NamedTuple):
    """First integrals of the bound motion."""

    energy_ratio: float  # E_m/m
    L: float             # specific angular momentum r^2 dphi/ds (length)


class PrecessionResult(NamedTuple):
    delta_phi_per_orbit: float        # radians
    arcsec_per_century: Optional[float]


def energy_integral(u: float, uprime: float, r_o: float, L: float) -> float:
    """Left side of the orbit energy integral; equals (E_m/m)^2/L^2 on shell."""
    return (1.0 - 2.0 * r_o * u) / L**2 + (1.0 - 3.0 * r_o * u) * (
        uprime**2 + u**2
    )


def rosette_rhs(u: float, uprime: float, r_o: float, L: float) -> float:
    """Second derivative u'' of the rosette equation, solved algebraically:

    u'' + u - r_o/L^2 = (9/2)*r_o*u^2 + 3*r_o*u''*u + (3/2)*r_o*u'^2.
    """
    den = 1.0 - 3.0 * r_o * u
    if den <= 0.0:
        raise NumericalFailure(f"3*r_o*u = {3.0 * r_o * u} >= 1")
    return (r_o / L**2 - u + 4.5 * r_o * u**2 + 1.5 * r_o * uprime**2) / den


def orbit_from_elements(r_o: float, a: float, ecc: float
                        ) -> Tuple[float, OrbitIntegrals]:
    """Epicycle amplitude alpha0 and integrals from Keplerian elements.

    Uses the Newtonian closure L^2 = r_o*a*(1 - ecc^2); the energy ratio
    then follows from the orbit energy integral at the turning point
    r = a*(1 - ecc), which is u = c*(1 + ecc) with c = r_o/L^2.  The
    launch is alpha0 = ecc*c - delta, that point's offset from the circular
    orbit u_c = c + delta of the same L (``_circle_offset``).  alpha0 < 0
    where the point is the outer turning point: in strong fields at small
    ecc, and in weak fields at ecc below ~4.5*r_o/a.  Without a field
    (L = 0) alpha0 is 0, which ``integrate_orbit`` refuses.  Raises
    NumericalFailure where the orbit plunges (no second turning point)
    or where the energy integral is not finite: a
    subnormal L^2 (r_o below ~1e-319 for Mercury's a) overflows 1/L^2.
    """
    if ecc < 0.0:
        raise ValueError(f"eccentricity must be >= 0, got {ecc}")
    if ecc >= 1.0:
        raise NumericalFailure(f"ecc = {ecc} >= 1")
    if a <= 0.0:
        raise NumericalFailure(f"semi-major axis must be > 0, got {a}")
    if r_o < 0.0:
        raise NumericalFailure(f"r_o must be >= 0, got {r_o}")

    L = math.sqrt(r_o * a * (1.0 - ecc**2))
    r_p = a * (1.0 - ecc)
    u_p = 1.0 / r_p
    if 3.0 * r_o * u_p >= 1.0:
        raise NumericalFailure(
            f"r = {r_p} is not outside 3*r_o: the field is too strong")
    if not L > 0.0:
        return 0.0, OrbitIntegrals(energy_ratio=1.0, L=L)
    e2 = L**2 * energy_integral(u_p, 0.0, r_o, L)
    if not math.isfinite(e2):
        raise NumericalFailure(
            f"the energy integral at r = {r_p} is not finite: "
            f"L^2 = {L**2:.3g} {'is subnormal' if L < 1.0 else 'overflows'}")
    if not e2 > 0.0:
        raise NumericalFailure(
            f"no bound orbit turns at r = {r_p}: the field is too strong")
    if rosette_rhs(u_p, 0.0, r_o, L) > 0.0:
        # r_p is the outer turning point: the inner one must exist
        _second_turning_point(r_o, u_p, L)
    c = r_o / L**2
    return (ecc * c - _circle_offset(r_o, c),
            OrbitIntegrals(energy_ratio=math.sqrt(e2), L=L))


def _circle_offset(r_o: float, c: float) -> float:
    """delta = u_c - c of the circular orbit u_c of the same L, c = r_o/L^2.

    u'' = u' = 0 leaves 4.5*r_o*u^2 - u + c = 0, whose smaller root is
    u_c = c + 18*r_o*c^2/(1 + s)^2 with s = sqrt(1 - 18*r_o*c): no
    cancellation.  Without a circular orbit (18*r_o*c > 1) no orbit is
    bound: NumericalFailure.
    """
    x = 18.0 * r_o * c
    if x > 1.0:
        raise NumericalFailure(
            f"no circular orbit at r_o/L^2 = {c}: the field is too strong")
    return x * c / (1.0 + math.sqrt(1.0 - x)) ** 2


def _second_turning_point(r_o: float, u_known: float, L: float) -> float:
    """The other turning root of the cubic, given one turning root u_known.

    Dividing 3*r_o*u^3 - u^2 + 2*r_o*u/L^2 + (A - B) by (u - u_known)
    leaves a quadratic whose roots have sum S = 1/(3*r_o) - u_known and
    product P = (2*r_o/L^2 - u_known*(1 - 3*r_o*u_known))/(3*r_o); A - B
    is eliminated through the cubic at u_known, so no cancellation enters.
    The smaller root is the other turning point, the larger one the third
    root near 1/(3*r_o).  Unlike ``turning_points`` this stays accurate for
    near-circular orbits, where the two turning points almost coincide.
    """
    # Python floats: a numpy scalar's s*s warns where it overflows
    r_o, u_known, L = float(r_o), float(u_known), float(L)
    s = 1.0 / (3.0 * r_o) - u_known
    p = ((2.0 * r_o / L**2 - u_known * (1.0 - 3.0 * r_o * u_known))
         / (3.0 * r_o))
    disc, scale = s * s - 4.0 * p, 1.0
    if not math.isfinite(disc):     # r_o below ~2.5e-155: s*s overflows
        disc, scale = 1.0 - 4.0 * (p / s) / s, s
    if disc < 0.0 or p <= 0.0:
        raise NumericalFailure(f"no second turning point for u = {u_known}")
    u_other = p / (0.5 * (s + scale * math.sqrt(disc)))
    if not 0.0 < u_other < 1.0 / (3.0 * r_o):
        raise NumericalFailure(f"no second turning point for u = {u_known}")
    return u_other


def turning_points_from_elements(r_o: float, a: float, ecc: float
                                 ) -> Tuple[float, float]:
    """Turning points (r_min, r_max) of the orbit ``orbit_from_elements`` sets up.

    One root of the turning cubic is known, u = 1/(a*(1 - ecc)); the other
    follows by deflation, which keeps near-circular orbits (ecc -> 0) apart
    where ``turning_points`` loses the near-double root.
    """
    _, integrals = orbit_from_elements(r_o, a, ecc)
    if not (r_o > 0.0 and integrals.L > 0.0):
        raise NumericalFailure("need r_o > 0 and L > 0 for a bound orbit")
    u_known = 1.0 / (a * (1.0 - ecc))
    u_other = _second_turning_point(r_o, u_known, integrals.L)
    return 1.0 / max(u_known, u_other), 1.0 / min(u_known, u_other)


def turning_points(r_o: float, integrals: OrbitIntegrals) -> Tuple[float, float]:
    """Radial turning points (r_min, r_max) of the bound motion.

    The turning condition u'^2 = 0 factors through the cubic
    3*r_o*u^3 - u^2 + 2*B*r_o*u + (A - B) = 0 with A = (E_m/m)^2/L^2 and
    B = 1/L^2; the two roots inside (0, 1/(3*r_o)) bracket the orbit.  The
    inner root from ``np.roots`` is polished by Newton steps on the cubic,
    with A - B = (E_m/m - 1)*(E_m/m + 1)*B free of cancellation, and the
    outer one follows by deflation at it (``_second_turning_point``).
    """
    import numpy as np
    L = integrals.L
    if L <= 0 or r_o <= 0:
        raise NumericalFailure("need r_o > 0 and L > 0")
    e = integrals.energy_ratio
    B = 1.0 / L**2
    k = (e - 1.0) * (e + 1.0) * B
    roots = np.roots([3.0 * r_o, -1.0, 2.0 * B * r_o, k])
    real = roots[np.abs(roots.imag) <= 1e-9 * np.max(np.abs(roots))].real
    cand = np.sort(real[(0.0 < real) & (real < 1.0 / (3.0 * r_o))])
    if len(cand) < 2:
        raise NumericalFailure(
            f"no bound radial range for E/m={e}, L={L}")
    u = float(cand[1])
    for _ in range(3):
        u -= ((((3.0 * r_o * u - 1.0) * u + 2.0 * B * r_o) * u + k)
              / ((9.0 * r_o * u - 2.0) * u + 2.0 * B * r_o))
    return 1.0 / u, 1.0 / _second_turning_point(r_o, u, L)


class Trajectory:
    """Orbit over a span of polar angle, tiled from one integrated period.

    The solver carries the unit elements alpha, beta of the epicycle
    u = u_c + alpha0*(alpha*cos(phi) + beta*sin(phi)) about the circular
    orbit u_c, over one radial period from the launch turning point at
    phi = 0 (where t = p = 0) to the next of its kind, which ``sample``
    tiles: whole periods of phi, t and p.  ``sol`` holds (alpha, beta) over
    phi, ``advance`` is Delta(phi) per period and ``drift`` is
    ``integral_drift()``, which ``integrate_orbit`` sets.
    """

    phi_start = 0.0                  # every run starts at its launch

    def __init__(self, r_o: float, integrals: OrbitIntegrals, u_c: float,
                 alpha0: float, sol: DenseOutput, phi_end: float,
                 advance: float = 0.0, drift: Optional[float] = None):
        self.r_o, self.integrals, self.sol = r_o, integrals, sol
        self.u_c = u_c                   # the circular orbit of the same L
        self.alpha0 = alpha0             # the epicycle amplitude at launch
        self.phi_end, self.advance, self.drift = phi_end, advance, drift

    @property
    def period(self) -> float:
        """Apsidal period Phi = 2*pi + advance in phi, turn to like turn."""
        return self.sol.ts[-1]

    @property
    def period_clocks(self) -> np.ndarray:
        """T_r and P_r, the t and p that one period adds."""
        return self._segment_clocks[:, -1]

    def _u(self, phi, seg=None) -> Tuple[np.ndarray, np.ndarray]:
        """u and u' at ``phi`` from the interpolated elements."""
        import numpy as np
        alpha, beta = self.sol(phi, seg)
        cos, sin = np.cos(phi), np.sin(phi)
        return (self.u_c + self.alpha0 * (alpha * cos + beta * sin),
                self.alpha0 * (beta * cos - alpha * sin))

    def _clock_rates(self, phi, seg) -> np.ndarray:
        """dt/dphi and dp/dphi, stacked on a new first axis."""
        import numpy as np
        e, L = self.integrals.energy_ratio, self.integrals.L
        u = self._u(phi, seg)[0]
        inv = 1.0 / (L * u**2)
        return np.stack([e * (1.0 + self.r_o * u) ** 2 * inv, inv / e])

    @cached_property
    def _segment_clocks(self) -> np.ndarray:
        """t and p at each solver breakpoint ``sol.ts``, shape (2, n + 1),
        which ``sample`` stores where it runs first."""
        return self._clocks((), ())[0]

    def _clocks(self, phis, seg) -> Tuple[np.ndarray, np.ndarray]:
        """The breakpoint clocks, which it stores, and the t and p that each
        angle ``phis[j]`` adds to the clocks at the start of its step
        ``seg[j]``: one ``legendre_antiderivative`` pass over every step."""
        import numpy as np
        ts = self.sol.ts
        steps = np.arange(self.sol.n_segments)[:, None]
        whole, part = legendre_antiderivative(
            lambda x: self._clock_rates(x, steps), ts[:-1], ts[1:], phis, seg)
        self._segment_clocks = np.concatenate(
            [np.zeros((2, 1)), np.cumsum(whole, axis=1)], axis=1)
        return self._segment_clocks, part

    def sample(self, phis):
        """u, u', t and p at the angles ``phis`` (scalar or 1-D).

        t and p are the clocks at the start of the sample's solver step plus
        the integral of dt/dphi, dp/dphi from there, read off one Legendre
        series per step.  The breakpoint clocks come from the same
        ``legendre_antiderivative`` pass, whose whole-step integrals settle
        at their own rule, so they are bitwise the clocks of a pass without
        samples; ``sample`` stores them for ``period_clocks``.
        """
        import numpy as np
        phis = np.asarray(phis, dtype=float)
        flat = phis.reshape(-1)
        # whole periods past the integrated one
        k = np.maximum(np.floor(flat / self.period), 0.0)
        flat = flat - k * self.period
        seg = self.sol.segments(flat)
        u, up = self._u(flat, seg)
        clocks, part = self._clocks(flat, seg)
        # a sample on a step's end gets that breakpoint's clocks exactly
        t, p = (np.where(flat == self.sol.ts[seg + 1], clocks[:, seg + 1],
                         clocks[:, seg] + part)
                + k * clocks[:, -1:])
        return tuple(v.reshape(phis.shape) for v in (u, up, t, p))

    def integral_drift(self) -> float:
        """Max relative drift of the energy integral at 512 points of the
        period."""
        import numpy as np
        phis = np.linspace(0.0, self.period, 512)
        u, up = self._u(phis)
        c = energy_integral(u, up, self.r_o, self.integrals.L)
        c0 = (self.integrals.energy_ratio / self.integrals.L) ** 2
        return float(np.max(np.abs(c - c0)) / c0)


def _element_rhs(phi, y, r_o, u_c, alpha0):
    """alpha' = -g*sin(phi), beta' = g*cos(phi) (variation of constants).

    With d = alpha*cos(phi) + beta*sin(phi) and its derivative d',
    g = r_o*(6*u_c*d + 1.5*alpha0*(d^2 + d'^2))/(1 - 3*r_o*u) is the
    rosette forcing about the circular orbit, (F(u, u') - F(u_c, 0))/alpha0
    for F = u'' + u - r_o/L^2, written without cancellation.
    """
    alpha, beta = y
    cos, sin = math.cos(phi), math.sin(phi)
    d, dprime = alpha * cos + beta * sin, beta * cos - alpha * sin
    u = u_c + alpha0 * d
    if 3.0 * r_o * u >= 1.0:
        raise NumericalFailure(f"3*r_o*u = {3.0 * r_o * u} >= 1")
    g = r_o * (6.0 * u_c * d + 1.5 * alpha0 * (d * d + dprime * dprime)) \
        / (1.0 - 3.0 * r_o * u)
    return [-g * sin, g * cos]


def _dprime(phi, y):
    """d' = beta*cos(phi) - alpha*sin(phi), u'/alpha0: zero at the turning
    points."""
    return y[1] * math.cos(phi) - y[0] * math.sin(phi)


def integrate_orbit(r_o: float, alpha0: float, integrals: OrbitIntegrals,
                    n_orbits: float, tol: float = DEFAULT_TOL) -> Trajectory:
    """The bound motion over ``n_orbits`` revolutions of phi, from one period.

    The rosette equation is integrated by variation of constants
    (Brouwer & Clemence 1961) as an epicycle about the circular orbit u_c
    of the same L: the unit elements alpha, beta of
    u = u_c + alpha0*(alpha*cos(phi) + beta*sin(phi)) obey
    alpha' = -g*sin(phi), beta' = g*cos(phi) (``_element_rhs``), by DOP853
    with dense output at rtol = tol/2, atol = rtol*2*pi*|g0|, g0 the
    forcing at launch.  The run starts at phi = 0 with t = p = u' = 0 and
    (alpha, beta) = (1, 0): a turning point, the outer one where
    alpha0 < 0, and the circular limit where alpha0 = 0.  Two legs, each
    ended by an event on d' = u'/alpha0, run to the other turning point and
    back to the launch's kind.  The equation is autonomous in phi, so that
    radial period tiles the span; its advance is the turn of atan2(beta,
    alpha) across it, so no 2*pi is subtracted.  Raises ValueError unless
    alpha0 is finite, and NumericalFailure if n_orbits <= 0, if r_o > 0 but
    the forcing at launch is subnormal or 0, if atol underflows to 0, if a
    step falls below the float spacing, if a leg finds no turning point
    within 2*max(n_orbits, 1) revolutions or if the energy-integral drift
    over the period tops 1000*tol*n_orbits.
    """
    from .ode import DenseOutput, dop853

    if not n_orbits > 0:
        raise NumericalFailure(f"cannot integrate over {n_orbits} orbits")
    if integrals.L <= 0:
        raise NumericalFailure("degenerate orbit: need L > 0")
    if not math.isfinite(alpha0):
        raise ValueError(f"alpha0 must be finite, got {alpha0}")
    c = r_o / integrals.L**2
    u_c = c + _circle_offset(r_o, c)
    y = [1.0, 0.0]
    g0 = _element_rhs(0.0, y, r_o, u_c, alpha0)[1]
    # a weak field's forcing can underflow to a subnormal or to 0.0
    if r_o > 0.0 and not abs(g0) >= sys.float_info.min:
        raise NumericalFailure(
            f"field forcing {g0:.3g} at launch is below the smallest normal "
            f"float: the elements lose digits")
    # each tiled period repeats this one's phase error: at rtol = tol, u of
    # 30 orbits at r_min = 20*r_o departs ~2e-10 from a run through them
    rtol = 0.5 * tol
    atol = rtol * 2.0 * math.pi * abs(g0)
    # scipy's DOP853 steps on nan without end where atol is 0 and a
    # component is 0
    if not atol > 0.0:
        raise NumericalFailure(f"tol = {tol!r} sets atol = tol*pi*|g0| to 0")
    reach = 4.0 * math.pi * max(n_orbits, 1.0)  # the longest leg
    legs, phi = [], 0.0
    # d' rises through the other turning point and falls through the next
    # of the launch's kind
    for direction in (1.0, -1.0):
        run = dop853(lambda p, v: _element_rhs(p, v, r_o, u_c, alpha0),
                     (phi, phi + reach), y, rtol=rtol, atol=atol,
                     event=(_dprime, direction), max_step=LEG_MAX_STEP)
        if run.failure:
            raise NumericalFailure(run.failure)
        if not run.event:
            raise NumericalFailure(
                f"no radial turning point within {reach:.6g} rad")
        legs.append(run.dense)
        phi, y = run.t, run.y
    turned = math.atan2(y[1], y[0])
    advance = turned + 2.0 * math.pi * round(
        (phi - 2.0 * math.pi - turned) / (2.0 * math.pi))
    traj = Trajectory(r_o=r_o, integrals=integrals, u_c=u_c, alpha0=alpha0,
                      sol=DenseOutput.join(legs),
                      phi_end=2.0 * math.pi * n_orbits, advance=advance)
    traj.drift = traj.integral_drift()
    if traj.drift > 1000.0 * tol * max(n_orbits, 1.0):
        raise NumericalFailure(
            f"energy-integral drift {traj.drift:.3e} too large")
    return traj


def precession_numeric(traj: Trajectory) -> PrecessionResult:
    """Perihelion advance from the integrated radial period of a trajectory.

    Delta(phi) is the period's ``advance``, the turn of the argument of
    perihelion across it; the orbital period in coordinate time (for the
    century conversion) is the t the period adds.  The span must hold one
    whole radial period.
    """
    if traj.phi_end < traj.period:
        raise NumericalFailure(
            f"the span of {traj.phi_end:.6g} rad holds no whole radial "
            f"period of {traj.period:.6g} rad")
    period_s = float(traj.period_clocks[0]) / C_SI
    arcsec = traj.advance * ARCSEC_PER_RAD * SECONDS_PER_CENTURY / period_s
    return PrecessionResult(delta_phi_per_orbit=traj.advance,
                            arcsec_per_century=arcsec)


def kepler_period_seconds(r_o: float, a: float) -> float:
    """Keplerian orbital period 2*pi*sqrt(a^3/r_o), converted to seconds.

    Where a^3/r_o overflows (a weak field: r_o below ~1e-276 for Mercury's
    a), the root is taken as a*sqrt(a/r_o), which stays finite as long as
    the period does; elsewhere that form would move the last digit.
    """
    if r_o <= 0 or a <= 0:
        raise NumericalFailure("need r_o > 0 and a > 0")
    a, r_o = float(a), float(r_o)
    try:
        ratio = a**3 / r_o
    except OverflowError:               # a**3 alone: a above ~5.6e102
        ratio = math.inf
    root = math.sqrt(ratio) if ratio < math.inf else a * math.sqrt(a / r_o)
    return 2.0 * math.pi * root / C_SI


def precession_analytic(r_o: float, a: float, ecc: float
                        ) -> PrecessionResult:
    """Closed-form perihelion advance 6*pi*r_o/(a*(1-ecc^2)) per orbit.

    The century rate uses the Keplerian period of the same elements.
    """
    if a <= 0.0:
        raise NumericalFailure(f"semi-major axis must be > 0, got {a}")
    dphi = 6.0 * math.pi * r_o / (a * (1.0 - ecc**2))
    arcsec = None
    if r_o > 0.0:
        period = kepler_period_seconds(r_o, a)
        # a period that underflows to 0 gives the infinite rate of IEEE
        # division, not ZeroDivisionError
        arcsec = (dphi * ARCSEC_PER_RAD * SECONDS_PER_CENTURY / period
                  if period > 0.0 else math.inf)
    return PrecessionResult(delta_phi_per_orbit=dphi,
                            arcsec_per_century=arcsec)


def precession_quadrature(r_o: float, r_min: float, r_max: float) -> float:
    """Perihelion advance by quadrature of d(phi)/du between turning points.

    The turning cubic factors as u'^2*(1 - 3*r_o*u) =
    3*r_o*(u1 - u)*(u - u2)*(u3 - u); substituting
    u = (u1+u2)/2 - (u1-u2)/2*cos(theta) removes both endpoint
    singularities, leaving a smooth integrand over [0, pi] for the
    Gauss-Legendre helper.  r_min == r_max is the circular limit.
    """
    if not (r_o > 0.0 and 0.0 < r_min <= r_max):
        raise NumericalFailure(
            f"need r_o > 0 and 0 < r_min <= r_max, got {r_o}, {r_min}, {r_max}")
    u1, u2 = 1.0 / r_min, 1.0 / r_max
    u3 = 1.0 / (3.0 * r_o) - u1 - u2
    if u3 <= u1:
        raise NumericalFailure("third root inside orbit: field too strong")
    return _cosine_map_advance(u1, u2, u3, 0.0)


def _cosine_map_advance(u1: float, u2: float, u3: float, k: float) -> float:
    """Perihelion advance 2*int_0^pi (f - 1) dtheta between turning points.

    u = (u1+u2)/2 - (u1-u2)/2*cos(theta) maps the turning points u2 < u1 to
    theta = 0, pi, and d(phi)/d(theta) = f with f^2 - 1 =
    (u1 + u2 + k*u)/(u3 - u), u3 the third root of the turning cubic:
    k = 0 for the flat model, k = 1 for the Schwarzschild orbit.  f - 1 is
    integrated as (f^2 - 1)/(f + 1), so no 2*pi is subtracted from the
    result and the advance keeps its relative precision in weak fields,
    down to a subnormal advance (r_o near 1e-300 for Mercury), where the
    rule's terms lose digits: that raises NumericalFailure.
    """
    mid, half = 0.5 * (u1 + u2), 0.5 * (u1 - u2)

    def integrand(theta):
        u = mid - half * math.cos(theta)
        g = (u1 + u2 + k * u) / (u3 - u)
        return g / (math.sqrt(1.0 + g) + 1.0)

    advance = 2.0 * gauss_legendre(integrand, 0.0, math.pi)
    if not advance >= sys.float_info.min:
        raise NumericalFailure(
            f"perihelion advance {advance:.3g} is subnormal: the quadrature "
            "loses digits")
    return advance
