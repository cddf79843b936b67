"""Massive-particle motion in the central field.

The bound planar motion is integrated in the polar angle using the rosette
equation, the exact derivative of the weak-field energy integral

    (1 - 2*r_o*u)/L^2 + (1 - 3*r_o*u)*(u'^2 + u^2) = (E_m/m)^2/L^2,

with u = 1/r.  Perihelion advance is extracted three independent ways:
the closed form 6*pi*r_o/(a*(1-e^2)), root-finding on the integrated
trajectory, and quadrature of d(phi)/du between turning points.

Geometric units throughout (c = 1, lengths in meters).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .constants import ARCSEC_PER_RAD, C_SI, SECONDS_PER_CENTURY
from .errors import (
    DenominatorVanishes,
    InsufficientOrbits,
    NonPositiveRadius,
    ToleranceNotMet,
    TurningPointNotFound,
    UnboundOrbit,
)
from .quadrature import gauss_legendre

DEFAULT_TOL = 1e-12


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
    method: str                       # "analytic" | "numeric"


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


def resonant_forcing_amplitude(r_o: float, L: float) -> float:
    """Coefficient of the resonant eps*cos(phi) forcing term, 6*r_o^3/L^4.

    Keeping only terms proportional to eps*cos(phi) after inserting the
    Newtonian solution turns the rosette equation into
    u'' + u - r_o/L^2 = 6*r_o^3*L^-4*eps*cos(phi).
    """
    return 6.0 * r_o**3 / L**4


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
    if L > 0.0:
        e2 = L**2 * energy_integral(u_p, 0.0, r_o, L)
        if not e2 > 0.0:
            raise TurningPointNotFound(
                f"no bound orbit turns at r = {r_p}: the field is too strong")
        energy_ratio = float(np.sqrt(e2))
    else:
        energy_ratio = 1.0
    integrals = OrbitIntegrals(energy_ratio=energy_ratio, L=L)
    if (L > 0.0 and 3.0 * r_o * u_p < 1.0
            and rosette_rhs(u_p, 0.0, r_o, L) > 0.0):
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
    disc = s * s - 4.0 * p
    if disc < 0.0 or p <= 0.0:
        raise TurningPointNotFound(f"no second turning point for u = {u_known}")
    u_other = p / (0.5 * (s + np.sqrt(disc)))
    if not u_other < 1.0 / (3.0 * r_o):
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
    if r_o <= 0.0:
        raise TurningPointNotFound("need r_o > 0 for a bound orbit")
    u_known = 1.0 / (a * (1.0 - ecc))
    u_other = _second_turning_point(r_o, u_known, integrals.L)
    return 1.0 / max(u_known, u_other), 1.0 / min(u_known, u_other)


def turning_points(r_o: float, integrals: OrbitIntegrals) -> Tuple[float, float]:
    """Radial turning points (r_min, r_max) of the bound motion.

    The turning condition u'^2 = 0 factors through the cubic
    3*r_o*u^3 - u^2 + 2*B*r_o*u + (A - B) = 0 with A = (E_m/m)^2/L^2 and
    B = 1/L^2; the two roots inside (0, 1/(3*r_o)) bracket the orbit.
    """
    L = integrals.L
    if L <= 0 or r_o <= 0:
        raise TurningPointNotFound("need r_o > 0 and L > 0")
    A = (integrals.energy_ratio / L) ** 2
    B = 1.0 / L**2
    coeffs = [3.0 * r_o, -1.0, 2.0 * B * r_o, A - B]
    roots = np.roots(coeffs)
    real = roots[np.abs(roots.imag) <= 1e-9 * np.max(np.abs(roots))].real
    # polish with Newton steps: np.roots loses digits on this scale spread
    poly = np.polynomial.Polynomial(coeffs[::-1])
    dpoly = poly.deriv()
    for _ in range(3):
        real = real - poly(real) / dpoly(real)
    real = np.sort(real)
    cand = [u for u in real if 0.0 < u < 1.0 / (3.0 * r_o)]
    if len(cand) < 2:
        raise TurningPointNotFound(
            f"no bound radial range for E/m={integrals.energy_ratio}, L={L}"
        )
    u_apo, u_peri = cand[0], cand[1]
    return 1.0 / u_peri, 1.0 / u_apo


def orbit_from_integrals(r_o: float, energy_ratio: float, L: float
                         ) -> Tuple[GeodesicState, OrbitIntegrals]:
    """Perihelion state for directly specified (E_m/m, L); strong-field entry."""
    integrals = OrbitIntegrals(energy_ratio=energy_ratio, L=L)
    r_min, _ = turning_points(r_o, integrals)
    u_p = 1.0 / r_min
    state = GeodesicState(p=0.0, t=0.0, r=r_min, phi=0.0, drdp=0.0,
                          dphidp=integrals.J_phi * u_p**2)
    return state, integrals


def integrals_from_turning_points(r_o: float, r_min: float, r_max: float
                                  ) -> OrbitIntegrals:
    """Solve the two turning-point conditions for (E_m/m, L)."""
    if not 0.0 < r_min < r_max:
        raise TurningPointNotFound(f"need 0 < r_min < r_max, got {r_min}, {r_max}")
    u1, u2 = 1.0 / r_min, 1.0 / r_max
    # A - B*(1 - 2*r_o*u_k) = (1 - 3*r_o*u_k)*u_k^2 at both turning points;
    # the difference quotient is factored by (u1 - u2) to dodge cancellation
    c1 = 1.0 - 2.0 * r_o * u1
    d1 = (1.0 - 3.0 * r_o * u1) * u1**2
    B = ((u1 + u2) - 3.0 * r_o * (u1**2 + u1 * u2 + u2**2)) / (2.0 * r_o)
    A = d1 + B * c1
    if B <= 0 or A <= 0:
        raise TurningPointNotFound("turning points do not define a bound orbit")
    L = 1.0 / np.sqrt(B)
    return OrbitIntegrals(energy_ratio=float(np.sqrt(A / B)), L=float(L))


@dataclass
class Trajectory:
    """Densely integrated orbit over a span of polar angle."""

    r_o: float
    integrals: OrbitIntegrals
    sol: object                      # scipy OdeSolution over phi
    phi_start: float
    phi_end: float
    drift: Optional[float] = None    # integral_drift(), set by integrate_orbit

    def u(self, phi):
        return self.sol(phi)[0]

    def uprime(self, phi):
        return self.sol(phi)[1]

    def state(self, phi: float) -> GeodesicState:
        u, up, t, p = self.sol(phi)
        j = self.integrals.J_phi
        return GeodesicState(p=float(p), t=float(t), r=1.0 / float(u),
                             phi=float(phi), drdp=-j * float(up),
                             dphidp=j * float(u) ** 2)

    def states(self, n: int = 512) -> Sequence[GeodesicState]:
        phis = np.linspace(self.phi_start, self.phi_end, n)
        return [self.state(ph) for ph in phis]

    def integral_drift(self, n: int = 512) -> float:
        """Max relative drift of the energy integral over the span."""
        phis = np.linspace(self.phi_start, self.phi_end, n)
        u, up = self.sol(phis)[:2]
        c = energy_integral(u, up, self.r_o, self.integrals.L)
        c0 = (self.integrals.energy_ratio / self.integrals.L) ** 2
        return float(np.max(np.abs(c - c0)) / c0)


def _rhs(phi, y, r_o, integrals):
    u, up = y[0], y[1]
    L = integrals.L
    e = integrals.energy_ratio
    upp = rosette_rhs(u, up, r_o, L)
    dt = e * (1.0 + r_o * u) ** 2 / (L * u**2)
    dp = 1.0 / (e * L * u**2)
    return [up, upp, dt, dp]


def integrate_orbit(r_o: float, state: GeodesicState, integrals: OrbitIntegrals,
                    n_orbits: float, tol: float = DEFAULT_TOL,
                    backward: bool = False) -> Trajectory:
    """Integrate the bound motion over ``n_orbits`` revolutions of phi.

    Adaptive embedded Runge-Kutta (DOP853) with dense output.  The drift
    of the energy integral is stored on the trajectory; ToleranceNotMet is
    raised if it exceeds 1000 * tol * n_orbits.
    """
    from scipy.integrate import solve_ivp

    if integrals.L <= 0:
        raise TurningPointNotFound("degenerate orbit: need L > 0")
    if state.r <= 0:
        raise NonPositiveRadius(f"r must be > 0, got {state.r}")
    u0 = 1.0 / state.r
    up0 = -state.drdp / integrals.J_phi
    phi0 = state.phi
    phi1 = phi0 + (-1.0 if backward else 1.0) * 2.0 * np.pi * n_orbits
    atol = tol * np.array([u0, u0, max(abs(state.t), 1.0), 1.0])
    sol = solve_ivp(_rhs, (phi0, phi1), [u0, up0, state.t, state.p],
                    args=(r_o, integrals), method="DOP853",
                    rtol=tol, atol=atol, dense_output=True)
    if not sol.success:
        raise ToleranceNotMet(sol.message)
    traj = Trajectory(r_o=r_o, integrals=integrals, sol=sol.sol,
                      phi_start=min(phi0, phi1), phi_end=max(phi0, phi1))
    traj.drift = traj.integral_drift()
    if traj.drift > 1000.0 * tol * max(n_orbits, 1.0):
        raise ToleranceNotMet(f"energy-integral drift {traj.drift:.3e} too large")
    return traj


def perihelion_angles(traj: Trajectory, refine_tol: float = 1e-12) -> np.ndarray:
    """Polar angles of the radial minima (maxima of u) along a trajectory.

    Sign changes of u' are bracketed on a fine grid and refined by Brent
    root-finding (bisection plus secant-type steps) to ``refine_tol`` in phi.
    """
    from scipy.optimize import brentq

    n = max(int((traj.phi_end - traj.phi_start) / (2.0 * np.pi)) * 720, 1440)
    phis = np.linspace(traj.phi_start, traj.phi_end, n)
    up = traj.sol(phis)[1]
    found = []
    # include the start point if the trajectory is launched exactly at perihelion
    if abs(up[0]) < 1e-13 * max(abs(up).max(), 1e-300):
        if traj.sol(phis[0] + 1e-6)[1] < 0.0:
            found.append(traj.phi_start)
    sign = np.sign(up)
    for i in np.nonzero(np.diff(sign) < 0)[0]:  # u' goes + -> -: maximum of u
        a, b = phis[i], phis[i + 1]
        if up[i] == 0.0:
            continue
        root = brentq(lambda ph: traj.sol(ph)[1], a, b, xtol=refine_tol)
        found.append(root)
    return np.asarray(found)


def precession_numeric(traj: Trajectory) -> PrecessionResult:
    """Perihelion advance from successive radial minima of a trajectory.

    Delta(phi) is the mean angular spacing between perihelion passages minus
    2*pi; the orbital period in coordinate time (for the century conversion)
    is the mean spacing of t at the same passages.
    """
    peri = perihelion_angles(traj)
    if len(peri) < 2:
        raise InsufficientOrbits(
            f"found {len(peri)} perihelion passages, need at least 2"
        )
    dphi = float(np.mean(np.diff(peri))) - 2.0 * np.pi
    t_peri = np.array([traj.sol(ph)[2] for ph in peri])
    period_s = float(np.mean(np.diff(t_peri))) / C_SI
    arcsec = dphi * ARCSEC_PER_RAD * SECONDS_PER_CENTURY / period_s
    return PrecessionResult(delta_phi_per_orbit=dphi,
                            arcsec_per_century=arcsec, method="numeric")


def kepler_period_seconds(r_o: float, a: float) -> float:
    """Keplerian orbital period 2*pi*sqrt(a^3/r_o), converted to seconds."""
    if r_o <= 0 or a <= 0:
        raise NonPositiveRadius("need r_o > 0 and a > 0")
    return 2.0 * np.pi * np.sqrt(a**3 / r_o) / C_SI


def precession_analytic(r_o: float, a: float, ecc: float,
                        period_seconds: Optional[float] = None
                        ) -> PrecessionResult:
    """Closed-form perihelion advance 6*pi*r_o/(a*(1-ecc^2)) per orbit.

    The century rate uses ``period_seconds`` when supplied, otherwise the
    Keplerian period of the same elements.
    """
    if a <= 0.0:
        raise NonPositiveRadius(f"semi-major axis must be > 0, got {a}")
    dphi = 6.0 * np.pi * r_o / (a * (1.0 - ecc**2))
    arcsec = None
    if r_o > 0.0:
        if period_seconds is None:
            period_seconds = kepler_period_seconds(r_o, a)
        arcsec = dphi * ARCSEC_PER_RAD * SECONDS_PER_CENTURY / period_seconds
    return PrecessionResult(delta_phi_per_orbit=float(dphi),
                            arcsec_per_century=arcsec, method="analytic")


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
    mid, half = 0.5 * (u1 + u2), 0.5 * (u1 - u2)

    def integrand(theta):
        u = mid - half * np.cos(theta)
        return np.sqrt((1.0 - 3.0 * r_o * u) / (3.0 * r_o * (u3 - u)))

    return 2.0 * gauss_legendre(integrand, 0.0, np.pi) - 2.0 * np.pi


def geodesic_force(r_o: float, E_m: float, x: np.ndarray, v: np.ndarray
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """Central-field 3-force on an energy charge and its acceleration.

    f = E_m * grad(1/sqrt(g00)) = -r_o * E_m * rhat / r^2 and
    dv/dt = [f - v (v . f)] / E_m.  The acceleration path cancels E_m
    algebraically, so free fall at v = 0 is exactly charge-independent.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    r = float(np.linalg.norm(x))
    if r <= 0.0:
        raise NonPositiveRadius("force evaluated at the center")
    accel_unit = -r_o * x / r**3          # f / E_m, closed form
    force = E_m * accel_unit
    accel = accel_unit - v * (v @ accel_unit)
    return force, accel
