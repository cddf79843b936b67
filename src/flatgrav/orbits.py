"""Massive-particle motion in the central field.

The bound planar motion is integrated in the polar angle using the rosette
equation, the exact derivative of the weak-field energy integral

    (1 - 2*r_o*u)/L^2 + (1 - 3*r_o*u)*(u'^2 + u^2) = (E_m/m)^2/L^2,

with u = 1/r, integrated as the slowly varying osculating elements of
u = r_o/L^2 + alpha*cos(phi) + beta*sin(phi).  Perihelion advance is
extracted three independent ways: the closed form 6*pi*r_o/(a*(1-e^2)),
the perihelion passages of the integrated trajectory, and quadrature of
d(phi)/du between turning points.

Geometric units throughout (c = 1, lengths in meters).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from .constants import ARCSEC_PER_RAD, C_SI, SECONDS_PER_CENTURY
from .errors import (
    DenominatorVanishes,
    InsufficientOrbits,
    NonPositiveRadius,
    NumericalFailure,
    ToleranceNotMet,
    TurningPointNotFound,
    UnboundOrbit,
)
from .quadrature import gauss_legendre, legendre_antiderivative

if TYPE_CHECKING:  # the ODE routes import it: closed-form runs skip it
    from .ode import DenseOutput

DEFAULT_TOL = 1e-12
# One radial period is integrated at rtol = tol/100: each tiled revolution
# repeats its error, which a run through n revolutions averaged over n.
PERIOD_RTOL_DIVISOR = 100.0
# Turning points fall Phi/2 > pi apart and the event test compares the signs
# of u' at step ends only, so no leg step may be longer than this.
LEG_MAX_STEP = 0.5 * np.pi


@dataclass(frozen=True)
class OrbitIntegrals:
    """First integrals of the bound motion."""

    energy_ratio: float  # E_m/m
    L: float             # specific angular momentum r^2 dphi/ds (length)

    @property
    def J_phi(self) -> float:
        """Angular momentum r^2 dphi/dp of the parametric form."""
        return self.L / self.energy_ratio


@dataclass(frozen=True)
class GeodesicState:
    """Snapshot of the planar motion against the affine-like parameter p."""

    p: float
    t: float
    r: float
    phi: float
    drdp: float
    dphidp: float

    def constraint_residual(self, r_o: float, integrals: OrbitIntegrals) -> float:
        """Residual of the radial constraint

        (dr/dp)^2 + (J_phi/r)^2 - (1 + r_o/r)^2 + (m/E_m)^2,

        which vanishes along the trajectory up to terms quadratic in the
        field strength and the orbital speed.
        """
        j = integrals.J_phi
        inv_e = 1.0 / integrals.energy_ratio
        return (
            self.drdp**2
            + (j / self.r) ** 2
            - (1.0 + r_o / self.r) ** 2
            + inv_e**2
        )


@dataclass(frozen=True)
class PrecessionResult:
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
        raise DenominatorVanishes(f"3*r_o*u = {3.0 * r_o * u} >= 1")
    return (r_o / L**2 - u + 4.5 * r_o * u**2 + 1.5 * r_o * uprime**2) / den


def orbit_from_elements(r_o: float, a: float, ecc: float
                        ) -> Tuple[GeodesicState, OrbitIntegrals]:
    """Initial perihelion state and integrals from Keplerian elements.

    Uses the Newtonian closure L^2 = r_o*a*(1 - ecc^2); the energy ratio
    then follows from the orbit energy integral at the turning point
    r = a*(1 - ecc).  In strong fields at small ecc that point is the outer
    turning point (u'' > 0 there); the state then starts at the inner one.
    """
    if ecc < 0.0:
        raise ValueError(f"eccentricity must be >= 0, got {ecc}")
    if ecc >= 1.0:
        raise UnboundOrbit(f"ecc = {ecc} >= 1")
    if a <= 0.0:
        raise NonPositiveRadius(f"semi-major axis must be > 0, got {a}")
    if r_o < 0.0:
        raise NonPositiveRadius(f"r_o must be >= 0, got {r_o}")

    L = float(np.sqrt(r_o * a * (1.0 - ecc**2)))
    r_p = a * (1.0 - ecc)
    u_p = 1.0 / r_p
    if 3.0 * r_o * u_p >= 1.0:
        raise TurningPointNotFound(
            f"r = {r_p} is not outside 3*r_o: the field is too strong")
    if L > 0.0:
        e2 = L**2 * energy_integral(u_p, 0.0, r_o, L)
        if not e2 > 0.0:
            raise TurningPointNotFound(
                f"no bound orbit turns at r = {r_p}: the field is too strong")
        energy_ratio = float(np.sqrt(e2))
    else:
        energy_ratio = 1.0
    integrals = OrbitIntegrals(energy_ratio=energy_ratio, L=L)
    if L > 0.0 and rosette_rhs(u_p, 0.0, r_o, L) > 0.0:
        u_peri = _second_turning_point(r_o, u_p, L)
        if u_peri < u_p:
            raise TurningPointNotFound(
                f"no inner turning point inside u = {u_p}")
        u_p = u_peri
        r_p = 1.0 / u_p
    dphidp = integrals.J_phi * u_p**2 if L > 0.0 else 0.0
    state = GeodesicState(p=0.0, t=0.0, r=r_p, phi=0.0, drdp=0.0, dphidp=dphidp)
    return state, integrals


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
    s = 1.0 / (3.0 * r_o) - u_known
    p = ((2.0 * r_o / L**2 - u_known * (1.0 - 3.0 * r_o * u_known))
         / (3.0 * r_o))
    disc, scale = s * s - 4.0 * p, 1.0
    if not math.isfinite(disc):     # r_o below ~2.5e-155: s*s overflows
        disc, scale = 1.0 - 4.0 * (p / s) / s, s
    if disc < 0.0 or p <= 0.0:
        raise TurningPointNotFound(f"no second turning point for u = {u_known}")
    u_other = p / (0.5 * (s + scale * np.sqrt(disc)))
    if not 0.0 < u_other < 1.0 / (3.0 * r_o):
        raise TurningPointNotFound(f"no second turning point for u = {u_known}")
    return float(u_other)


def turning_points_from_elements(r_o: float, a: float, ecc: float
                                 ) -> Tuple[float, float]:
    """Turning points (r_min, r_max) of the orbit ``orbit_from_elements`` sets up.

    One root of the turning cubic is known, u = 1/(a*(1 - ecc)); the other
    follows by deflation, which keeps near-circular orbits (ecc -> 0) apart
    where ``turning_points`` loses the near-double root.
    """
    _, integrals = orbit_from_elements(r_o, a, ecc)
    if not (r_o > 0.0 and integrals.L > 0.0):
        raise TurningPointNotFound("need r_o > 0 and L > 0 for a bound orbit")
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
    L = integrals.L
    if L <= 0 or r_o <= 0:
        raise TurningPointNotFound("need r_o > 0 and L > 0")
    e = integrals.energy_ratio
    B = 1.0 / L**2
    k = (e - 1.0) * (e + 1.0) * B
    roots = np.roots([3.0 * r_o, -1.0, 2.0 * B * r_o, k])
    real = roots[np.abs(roots.imag) <= 1e-9 * np.max(np.abs(roots))].real
    cand = np.sort(real[(0.0 < real) & (real < 1.0 / (3.0 * r_o))])
    if len(cand) < 2:
        raise TurningPointNotFound(
            f"no bound radial range for E/m={e}, L={L}")
    u = float(cand[1])
    for _ in range(3):
        u -= ((((3.0 * r_o * u - 1.0) * u + 2.0 * B * r_o) * u + k)
              / ((9.0 * r_o * u - 2.0) * u + 2.0 * B * r_o))
    return 1.0 / u, 1.0 / _second_turning_point(r_o, u, L)


@dataclass
class Trajectory:
    """Orbit over a span of polar angle, tiled from one integrated period.

    The solver carries the osculating elements alpha, beta of
    u = r_o/L^2 + alpha*cos(phi) + beta*sin(phi), u' = beta*cos(phi) -
    alpha*sin(phi), from the launch ``sol.ts[0]`` (where t, p = t0, p0) to
    the first perihelion ``sol.ts[period_start]`` and one radial period on,
    which ``sample`` tiles: whole periods of phi, t and p.
    """

    r_o: float
    integrals: OrbitIntegrals
    sol: DenseOutput                 # (alpha, beta) over phi
    phi_start: float
    phi_end: float
    t0: float = 0.0
    p0: float = 0.0
    period_start: int = 0            # index in sol.ts of the perihelion
    advance: float = 0.0             # Delta(phi) per period, set by integrate_orbit
    drift: Optional[float] = None    # integral_drift(), set by integrate_orbit

    @property
    def period(self) -> float:
        """Apsidal period Phi = 2*pi + advance in phi, perihelion to perihelion."""
        return self.sol.ts[-1] - self.sol.ts[self.period_start]

    @property
    def period_clocks(self) -> np.ndarray:
        """T_r and P_r, the t and p that one period adds."""
        clocks = self._segment_clocks
        return clocks[:, -1] - clocks[:, self.period_start]

    def _u(self, phi, seg=None) -> Tuple[np.ndarray, np.ndarray]:
        """u and u' at ``phi`` from the interpolated elements."""
        alpha, beta = self.sol(phi, seg)
        cos, sin = np.cos(phi), np.sin(phi)
        return (self.r_o / self.integrals.L**2 + alpha * cos + beta * sin,
                beta * cos - alpha * sin)

    def _clock_rates(self, phi, seg) -> np.ndarray:
        """dt/dphi and dp/dphi, stacked on a new first axis."""
        e, L = self.integrals.energy_ratio, self.integrals.L
        u = self._u(phi, seg)[0]
        inv = 1.0 / (L * u**2)
        return np.stack([e * (1.0 + self.r_o * u) ** 2 * inv, inv / e])

    @cached_property
    def _segment_clocks(self) -> np.ndarray:
        """t and p at each solver breakpoint ``sol.ts``, shape (2, n + 1)."""
        ts, n = self.sol.ts, self.sol.n_segments
        seg = np.arange(n)[:, None]
        whole = gauss_legendre(lambda x: self._clock_rates(x, seg),
                               ts[:-1], ts[1:])
        start = np.array([[self.t0], [self.p0]])
        return np.concatenate([start, start + np.cumsum(whole, axis=1)],
                              axis=1)

    def sample(self, phis):
        """u, u', t and p at the angles ``phis`` (scalar or 1-D).

        t and p are the clocks at the start of the sample's solver step plus
        the integral of dt/dphi, dp/dphi from there, read off one Legendre
        series per step (``legendre_antiderivative``).
        """
        phis = np.asarray(phis, dtype=float)
        flat = phis.reshape(-1)
        # whole periods past the integrated perihelion
        peri = self.sol.ts[self.period_start]
        k = np.maximum(np.floor((flat - peri) / (self.sol.ts[-1] - peri)), 0.0)
        flat = flat - k * (self.sol.ts[-1] - peri)
        seg = self.sol.segments(flat)
        u, up = self._u(flat, seg)
        # one Legendre series per step that holds a sample
        steps, which = np.unique(seg, return_inverse=True)
        ts, clocks = self.sol.ts, self._segment_clocks
        part = legendre_antiderivative(
            lambda x: self._clock_rates(x, steps[:, None]),
            ts[steps], ts[steps + 1], flat, which)
        # a sample on a step's end gets that breakpoint's clocks exactly
        t, p = (np.where(flat == ts[seg + 1], clocks[:, seg + 1],
                         clocks[:, seg] + part)
                + k * self.period_clocks[:, None])
        return tuple(v.reshape(phis.shape) for v in (u, up, t, p))

    def state(self, phi: float) -> GeodesicState:
        u, up, t, p = (float(v) for v in self.sample(phi))
        j = self.integrals.J_phi
        return GeodesicState(p=p, t=t, r=1.0 / u, phi=float(phi),
                             drdp=-j * up, dphidp=j * u**2)

    def integral_drift(self) -> float:
        """Max relative drift of the energy integral at 512 points of the
        legs."""
        phis = np.linspace(self.sol.ts[0], self.sol.ts[-1], 512)
        u, up = self._u(phis)
        c = energy_integral(u, up, self.r_o, self.integrals.L)
        c0 = (self.integrals.energy_ratio / self.integrals.L) ** 2
        return float(np.max(np.abs(c - c0)) / c0)


def _forcing(u, uprime, r_o: float, c: float):
    """F = u'' + u - r_o/L^2 of the rosette equation, with c = r_o/L^2.

    Solving the rosette equation for u'' and subtracting u - c leaves
    F*(1 - 3*r_o*u) = r_o*(3*c*u + 1.5*u^2 + 1.5*u'^2), which has no
    cancellation: F is small where the field is weak.
    """
    return r_o * (3.0 * c * u + 1.5 * (u * u + uprime * uprime)) \
        / (1.0 - 3.0 * r_o * u)


def _element_rhs(phi, y, r_o, c):
    """alpha' = -F*sin(phi), beta' = F*cos(phi) (variation of constants)."""
    alpha, beta = y.tolist()
    cos, sin = math.cos(phi), math.sin(phi)
    u = c + alpha * cos + beta * sin
    if 3.0 * r_o * u >= 1.0:
        raise DenominatorVanishes(f"3*r_o*u = {3.0 * r_o * u} >= 1")
    f = _forcing(u, beta * cos - alpha * sin, r_o, c)
    return [-f * sin, f * cos]


def _uprime(phi, y):
    """u' = beta*cos(phi) - alpha*sin(phi): zero at the turning points."""
    return y[1] * math.cos(phi) - y[0] * math.sin(phi)


def integrate_orbit(r_o: float, state: GeodesicState, integrals: OrbitIntegrals,
                    n_orbits: float, tol: float = DEFAULT_TOL) -> Trajectory:
    """The bound motion over ``n_orbits`` revolutions of phi, from one period.

    The rosette equation is integrated by variation of constants
    (Brouwer & Clemence 1961): the slowly varying elements alpha, beta of
    u = r_o/L^2 + alpha*cos(phi) + beta*sin(phi) obey alpha' = -F*sin(phi),
    beta' = F*cos(phi) with F = ``_forcing``, by DOP853 with dense output at
    rtol = tol/100, atol = rtol*(hypot(alpha, beta) or u) at launch.  Legs
    run from turning point to turning point, each ended by an event on u':
    to the first perihelion (unless the launch is one), then to the aphelion
    and the next perihelion.  The equation is autonomous in phi, so that radial
    period tiles the span; its advance is the turn of the argument of
    perihelion atan2(beta, alpha) across it, so no 2*pi is subtracted.
    Raises ToleranceNotMet if the energy-integral drift over the legs tops
    1000*tol*n_orbits, InsufficientOrbits if n_orbits <= 0 or a leg finds
    no turning point within 2*max(n_orbits, 1) revolutions, and
    NumericalFailure if r_o > 0 but the forcing at launch is subnormal or 0.
    """
    from .ode import DenseOutput, dop853

    if not n_orbits > 0:
        raise InsufficientOrbits(f"cannot integrate over {n_orbits} orbits")
    if integrals.L <= 0:
        raise TurningPointNotFound("degenerate orbit: need L > 0")
    if state.r <= 0:
        raise NonPositiveRadius(f"r must be > 0, got {state.r}")
    u0 = 1.0 / state.r
    up0 = -state.drdp / integrals.J_phi
    c = r_o / integrals.L**2
    f0 = _forcing(u0, up0, r_o, c)
    # a weak field's forcing can underflow to a subnormal or to 0.0; a
    # negative one (3*r_o*u0 > 1) is left to _element_rhs to refuse
    if r_o > 0.0 and not abs(f0) >= np.finfo(float).tiny:
        raise NumericalFailure(
            f"field forcing {f0:.3g} at launch is below the smallest normal "
            f"float: the elements lose digits")
    phi0, phi1 = state.phi, state.phi + 2.0 * np.pi * n_orbits
    cos0, sin0 = np.cos(phi0), np.sin(phi0)
    y0 = np.array([(u0 - c) * cos0 - up0 * sin0,
                   (u0 - c) * sin0 + up0 * cos0])
    rtol = tol / PERIOD_RTOL_DIVISOR
    # alpha = beta = 0 only where u = r_o/L^2, an aphelion: u0 sets the scale
    atol = rtol * (math.hypot(*y0) or u0)
    reach = 4.0 * np.pi * max(n_orbits, 1.0)   # the longest leg
    # u' falls through a perihelion and rises through an aphelion; a
    # perihelion event would fire at a perihelion launch (u' = 0,
    # u'' = F - (u - c) < 0): start there
    to_peri = [] if up0 == 0.0 and f0 < u0 - c else [-1.0]
    legs, ends = [], [(phi0, y0)]
    for direction in to_peri + [1.0, -1.0]:
        phi, y = ends[-1]
        run = dop853(lambda p, v: _element_rhs(p, v, r_o, c),
                     (phi, phi + reach), y, rtol=rtol, atol=atol,
                     events=[(_uprime, direction)], max_step=LEG_MAX_STEP)
        if run.failure:
            raise ToleranceNotMet(run.failure)
        if run.event is None:
            raise InsufficientOrbits(
                f"no radial turning point within {reach:.6g} rad")
        legs.append(run.dense)
        ends.append((run.dense.ts[-1], run.y))
    (phi_p, y_p), (phi, y) = ends[-3], ends[-1]
    turned = math.atan2(y[1], y[0]) - math.atan2(y_p[1], y_p[0])
    advance = turned + 2.0 * np.pi * round(
        (phi - phi_p - 2.0 * np.pi - turned) / (2.0 * np.pi))
    traj = Trajectory(r_o=r_o, integrals=integrals,
                      sol=DenseOutput.join(legs), phi_start=phi0,
                      phi_end=phi1, t0=state.t, p0=state.p,
                      period_start=sum(d.n_segments for d in legs[:-2]),
                      advance=advance)
    traj.drift = traj.integral_drift()
    if traj.drift > 1000.0 * tol * max(n_orbits, 1.0):
        raise ToleranceNotMet(f"energy-integral drift {traj.drift:.3e} too large")
    return traj


def perihelion_angles(traj: Trajectory) -> np.ndarray:
    """Polar angles of the perihelion passages (maxima of u) inside the
    span, ascending: the integrated perihelion plus whole periods."""
    peri, period = traj.sol.ts[traj.period_start], traj.period
    j = np.arange(math.ceil((traj.phi_start - peri) / period),
                  math.floor((traj.phi_end - peri) / period) + 1)
    return peri + j * period


def precession_numeric(traj: Trajectory) -> PrecessionResult:
    """Perihelion advance from the integrated radial period of a trajectory.

    Delta(phi) is the period's ``advance``, the turn of the argument of
    perihelion across it; the orbital period in coordinate time (for the
    century conversion) is the t the period adds.  The span must hold at
    least two perihelion passages.
    """
    n_peri = len(perihelion_angles(traj))
    if n_peri < 2:
        raise InsufficientOrbits(
            f"found {n_peri} perihelion passages, need at least 2")
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
        raise NonPositiveRadius("need r_o > 0 and a > 0")
    a, r_o = float(a), float(r_o)
    try:
        ratio = a**3 / r_o
    except OverflowError:               # a**3 alone: a above ~5.6e102
        ratio = math.inf
    root = np.sqrt(ratio) if ratio < math.inf else a * np.sqrt(a / r_o)
    return 2.0 * np.pi * root / C_SI


def precession_analytic(r_o: float, a: float, ecc: float
                        ) -> PrecessionResult:
    """Closed-form perihelion advance 6*pi*r_o/(a*(1-ecc^2)) per orbit.

    The century rate uses the Keplerian period of the same elements.
    """
    if a <= 0.0:
        raise NonPositiveRadius(f"semi-major axis must be > 0, got {a}")
    dphi = 6.0 * np.pi * r_o / (a * (1.0 - ecc**2))
    arcsec = None
    if r_o > 0.0:
        arcsec = (dphi * ARCSEC_PER_RAD * SECONDS_PER_CENTURY
                  / kepler_period_seconds(r_o, a))
    return PrecessionResult(delta_phi_per_orbit=float(dphi),
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
        raise TurningPointNotFound(
            f"need r_o > 0 and 0 < r_min <= r_max, got {r_o}, {r_min}, {r_max}")
    u1, u2 = 1.0 / r_min, 1.0 / r_max
    u3 = 1.0 / (3.0 * r_o) - u1 - u2
    if u3 <= u1:
        raise DenominatorVanishes("third root inside orbit: field too strong")
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
        u = mid - half * np.cos(theta)
        g = (u1 + u2 + k * u) / (u3 - u)
        return g / (np.sqrt(1.0 + g) + 1.0)

    advance = 2.0 * gauss_legendre(integrand, 0.0, np.pi)
    if not advance >= np.finfo(float).tiny:
        raise NumericalFailure(
            f"perihelion advance {advance:.3g} is subnormal: the quadrature "
            "loses digits")
    return advance
