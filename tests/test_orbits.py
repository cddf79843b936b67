"""Bound-orbit dynamics, turning points, and perihelion advance."""
import functools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from flatgrav.errors import NumericalFailure
from flatgrav import orbits
from flatgrav.cli import main
from flatgrav.constants import C_SI
from flatgrav.orbits import (
    energy_integral,
    integrate_orbit,
    kepler_period_seconds,
    orbit_from_elements,
    precession_analytic,
    precession_numeric,
    precession_quadrature,
    rosette_rhs,
    turning_points,
    turning_points_from_elements,
)
from flatgrav.quadrature import legendre_antiderivative
from generic_blas import generic_oracle, hexes

R_O = 1480.0
A = 5.79e10
ECC = 0.2056
# perihelion angles over 30 orbits, tiled against integrated through: the
# sweep's worst is ~1e-12 relative (r_min = 20 r_o at ecc 0, where u' has
# the smallest amplitude and a root of it the least precision)
PERI_RTOL = 1e-11


def circle(r_o, integrals):
    """u_c, the circular orbit of the integrals' L."""
    c = r_o / integrals.L**2
    return c + orbits._circle_offset(r_o, c)


class TestDynamicsConsistency:
    def test_rhs_is_derivative_of_energy_integral(self):
        # d/dphi of the energy integral must vanish along solutions
        r_o, L = 1.0, 30.0
        u, up = 1e-2, 3e-3
        upp = rosette_rhs(u, up, r_o, L)
        h = 1e-7
        c_plus = energy_integral(u + h * up, up + h * upp, r_o, L)
        c_minus = energy_integral(u - h * up, up - h * upp, r_o, L)
        assert abs(c_plus - c_minus) / (2 * h) < 1e-10 * abs(c_plus)

    def test_rhs_denominator_guard(self):
        with pytest.raises(NumericalFailure, match=r"3\*r_o\*u = 3.0 >= 1"):
            rosette_rhs(1.0, 0.0, 1.0, 10.0)

    def test_newtonian_limit_circular(self):
        # r_o -> 0: u'' + u = r_o/L^2, circular orbit at u = r_o/L^2
        r_o, L = 1e-9, 5.0
        u_c = r_o / L**2
        assert rosette_rhs(u_c, 0.0, r_o, L) == pytest.approx(0.0, abs=1e-22)


class TestElementsAndTurningPoints:
    def test_turning_points_match_elements(self):
        alpha0, integrals = orbit_from_elements(R_O, A, ECC)
        r_min, r_max = turning_points(R_O, integrals)
        assert r_min == pytest.approx(A * (1 - ECC), rel=1e-6)
        assert r_max == pytest.approx(A * (1 + ECC), rel=1e-6)
        # the launch u_c + alpha0 is the turning point a*(1 - ecc)
        assert 1.0 / (circle(R_O, integrals) + alpha0) == pytest.approx(
            A * (1 - ECC), rel=1e-15)

    def test_outer_root_start_moves_to_perihelion(self):
        # strong field, small ecc: a*(1 - ecc) is the apocentre, so the
        # epicycle is launched with alpha0 < 0 and its first leg ends at
        # the perihelion
        alpha0, integrals = orbit_from_elements(R_O, 33835.0, 0.0517)
        r_min, r_max = turning_points(R_O, integrals)
        assert r_max == pytest.approx(33835.0 * (1 - 0.0517), rel=1e-12)
        assert alpha0 < 0.0
        traj = integrate_orbit(R_O, alpha0, integrals, 3)
        half = brentq(lambda phi: traj.sample(phi)[1],
                      0.25 * traj.period, 0.75 * traj.period, xtol=1e-13)
        u, up, _, _ = traj.sample([0.0, half])
        assert 1.0 / u[0] == pytest.approx(r_max, rel=1e-12)
        assert 1.0 / u[1] == pytest.approx(r_min, rel=1e-12)
        assert up[0] == 0.0 and rosette_rhs(u[1], 0.0, R_O, integrals.L) < 0

    def test_near_circular_start_on_shell(self):
        # the turning points nearly coincide; the start stays on shell
        alpha0, integrals = orbit_from_elements(R_O, A, 0.0)
        c = energy_integral(circle(R_O, integrals) + alpha0, 0.0, R_O,
                            integrals.L)
        assert c == pytest.approx((integrals.energy_ratio / integrals.L) ** 2,
                                  rel=1e-14)

    @pytest.mark.parametrize("r_o", [1e-6, 1e-12, 1e-20, 1e-100, 1e-200])
    def test_sub_ulp_circle_launches_at_a_perihelion(self, r_o):
        # at ecc 0 the turning points lie ~9*r_o/a apart, within an ulp
        # here: alpha0 = -delta carries the epicycle that no float radius
        # could
        alpha0, integrals = orbit_from_elements(r_o, A, 0.0)
        assert alpha0 == -orbits._circle_offset(r_o, r_o / integrals.L**2)
        assert alpha0 < 0.0
        traj = integrate_orbit(r_o, alpha0, integrals, 3)
        assert traj.drift <= 1e-15
        assert traj.advance == pytest.approx(6.0 * np.pi * r_o / A,
                                             rel=1e-12)

    def test_unbound_rejected(self):
        with pytest.raises(NumericalFailure, match="ecc = 1.0 >= 1"):
            orbit_from_elements(R_O, A, 1.0)

    def test_bad_elements_rejected(self):
        with pytest.raises(NumericalFailure,
                           match="semi-major axis must be > 0, got -1.0"):
            orbit_from_elements(R_O, -1.0, 0.1)
        with pytest.raises(ValueError):
            orbit_from_elements(R_O, A, -0.2)

    def test_subnormal_angular_momentum_refused(self):
        # L^2 ~ 5.5e-310 is subnormal: 1/L^2 overflows the energy integral
        with pytest.raises(NumericalFailure, match="L\\^2 = .* subnormal"):
            orbit_from_elements(1e-320, A, ECC)

    def test_overflowing_angular_momentum_refused(self):
        # r_o*a overflows, so L^2 = inf: the same refusal, named as such
        with pytest.raises(NumericalFailure, match="L\\^2 = inf overflows"):
            orbit_from_elements(R_O, 1.7e308, ECC)

    @pytest.mark.parametrize("a, ecc", [(A, ECC), (33835.0, 0.0517),
                                        (1e5, 0.3), (A, 0.0), (A, 1e-9),
                                        (A, 1e-7)])
    def test_deflated_turning_points_are_roots(self, a, ecc):
        # near-circular cases are where turning_points loses the pair
        _, integrals = orbit_from_elements(R_O, a, ecc)
        r_min, r_max = turning_points_from_elements(R_O, a, ecc)
        assert r_min < r_max
        assert min(abs(r - a * (1.0 - ecc)) for r in (r_min, r_max)) \
            <= 1e-15 * a
        c0 = (integrals.energy_ratio / integrals.L) ** 2
        for r in (r_min, r_max):
            c = energy_integral(1.0 / r, 0.0, R_O, integrals.L)
            assert c == pytest.approx(c0, rel=1e-14)
        if ecc > 1e-3:
            assert (r_min, r_max) == pytest.approx(
                turning_points(R_O, integrals), rel=1e-6)

    @pytest.mark.parametrize("a, ecc", [(A, ECC), (A, 0.01), (1e5, 0.3),
                                        (33835.0, 0.0517)])
    def test_turning_points_are_the_cubic_roots(self, a, ecc):
        # in exact arithmetic the turning cubic of the given integrals
        # changes sign within 1e-14 relative of each returned root
        _, integrals = orbit_from_elements(R_O, a, ecc)
        e, L, r_o = (Fraction(v) for v in (integrals.energy_ratio,
                                           integrals.L, R_O))

        def cubic(u):
            u = Fraction(u)
            return 3 * r_o * u**3 - u**2 + (2 * r_o * u + e * e - 1) / L**2

        for r in turning_points(R_O, integrals):
            u = 1.0 / r
            assert cubic(u * (1.0 - 1e-14)) * cubic(u * (1.0 + 1e-14)) < 0

    @pytest.mark.parametrize("r_o", [1e-155, 1e-200, 1e-290])
    def test_numpy_scalar_inputs(self, r_o):
        # a numpy scalar's s*s would warn "overflow encountered in scalar
        # multiply" below r_o ~ 2.5e-155, an error under this suite's
        # error::RuntimeWarning; the turning points are a Python float's
        want = turning_points_from_elements(r_o, A, ECC)
        assert turning_points_from_elements(np.float64(r_o), A, ECC) == want

    def test_quadrature_accepts_circular_limit(self):
        r = 1e10
        value = precession_quadrature(R_O, r, r)
        closed = precession_analytic(R_O, r, 0.0).delta_phi_per_orbit
        assert value == pytest.approx(closed, rel=20.0 * R_O / r)


class TestIntegration:
    def test_energy_integral_drift_small(self):
        alpha0, integrals = orbit_from_elements(R_O, A, ECC)
        traj = integrate_orbit(R_O, alpha0, integrals, 5)
        assert traj.integral_drift() < 1e-12
        assert traj.drift == traj.integral_drift()

    def test_constraint_residual_weak_field(self):
        # the radial constraint (dr/dp)^2 + (J/r)^2 - (1 + r_o/r)^2 +
        # (m/E_m)^2, with J = r^2 dphi/dp = L/(E_m/m), dr/dp = -J*u' and
        # r = 1/u, vanishes along the trajectory up to terms quadratic in
        # the field strength and the orbital speed
        alpha0, integrals = orbit_from_elements(R_O, A, ECC)
        traj = integrate_orbit(R_O, alpha0, integrals, 1)
        u, up, _, _ = traj.sample(np.linspace(0.0, 2 * np.pi, 17))
        j = integrals.L / integrals.energy_ratio
        r = 1.0 / u
        res = ((j * up) ** 2 + (j / r) ** 2 - (1.0 + R_O / r) ** 2
               + (1.0 / integrals.energy_ratio) ** 2)
        assert np.all(np.abs(res) < 1e-9)

    def test_insufficient_orbits(self):
        alpha0, integrals = orbit_from_elements(R_O, A, ECC)
        traj = integrate_orbit(R_O, alpha0, integrals, 0.25)
        with pytest.raises(NumericalFailure,
                           match="rad holds no whole radial period of"):
            precession_numeric(traj)
        # phi only increases: a negative span is refused, as 0 is
        for n in (0, -1.0):
            with pytest.raises(NumericalFailure,
                               match=f"cannot integrate over {n} orbits"):
                integrate_orbit(R_O, alpha0, integrals, n)

    @pytest.mark.parametrize("alpha0", [math.nan, math.inf, -math.inf])
    def test_non_finite_launch_refused(self, alpha0):
        _, integrals = orbit_from_elements(R_O, A, ECC)
        with pytest.raises(ValueError, match="alpha0 must be finite"):
            integrate_orbit(R_O, alpha0, integrals, 2)

    def test_circular_limit_is_the_near_circles_limit(self):
        # alpha0 = 0 integrates the infinitesimal epicycle of the circle
        alpha0, integrals = orbit_from_elements(R_O, A, 0.0)
        circular = integrate_orbit(R_O, 0.0, integrals, 3)
        near = integrate_orbit(R_O, alpha0, integrals, 3)
        assert np.all(circular.sample(np.linspace(0.0, 6.0 * np.pi, 7))[0]
                      == circular.u_c)
        assert circular.advance == pytest.approx(near.advance, rel=1e-14)


def u_form_solve(r_o, alpha0, integrals, n_orbits, tol=1e-12):
    """The rosette equation integrated for (u, u', t, p) directly from the
    launch turning point u_c + alpha0 at phi = 0: the form the engine used
    before the osculating elements, kept as an oracle."""
    L, e = integrals.L, integrals.energy_ratio

    def rhs(phi, y):
        u, up = y[0], y[1]
        return [up, rosette_rhs(u, up, r_o, L),
                e * (1.0 + r_o * u) ** 2 / (L * u**2), 1.0 / (e * L * u**2)]

    u0 = circle(r_o, integrals) + alpha0
    atol = tol * np.array([u0, u0, 1.0, 1.0])
    sol = solve_ivp(rhs, (0.0, 2.0 * np.pi * n_orbits), [u0, 0.0, 0.0, 0.0],
                    method="DOP853", rtol=tol, atol=atol, dense_output=True)
    assert sol.success
    return sol.sol


LEG_TOL = 0.5e-12     # integrate_orbit's rtol at the default tol


def element_legs(r_o, alpha0, integrals, n_orbits):
    """The ``solve_ivp`` runs of ``integrate_orbit``'s legs, with their
    OdeSolutions: from the launch turning point at phi = 0 to the other,
    and on to the next of the launch's kind."""
    u_c = circle(r_o, integrals)
    phi, y = 0.0, np.array([1.0, 0.0])
    atol = LEG_TOL * 2.0 * np.pi * abs(
        orbits._element_rhs(0.0, y, r_o, u_c, alpha0)[1])
    sols = []
    for back in (False, True):
        def event(p, v, *args):
            return orbits._dprime(p, v)
        event.terminal = True
        event.direction = -1.0 if back else 1.0
        run = solve_ivp(orbits._element_rhs,
                        (phi, phi + 4.0 * np.pi * max(n_orbits, 1)),
                        y, args=(r_o, u_c, alpha0), method="DOP853",
                        rtol=LEG_TOL, atol=atol, dense_output=True,
                        events=event, max_step=orbits.LEG_MAX_STEP)
        assert run.status == 1
        sols.append(run.sol)
        phi, y = run.t[-1], run.y[:, -1]
    return sols


@functools.lru_cache(maxsize=None)
def through_solve(r_min_over_ro, ecc):
    """alpha, beta, t and p integrated by ``solve_ivp`` through 30
    revolutions at rtol 1e-13: the form the tiled trajectory replaces, kept
    as its oracle.  Returns the launch, the integrals and the OdeSolution."""
    alpha0, integrals = orbit_from_elements(
        R_O, r_min_over_ro * R_O / (1.0 - ecc), ecc)
    L, e = integrals.L, integrals.energy_ratio
    u_c = circle(R_O, integrals)

    def rhs(phi, y):
        u = u_c + alpha0 * (y[0] * np.cos(phi) + y[1] * np.sin(phi))
        return [*orbits._element_rhs(phi, y[:2], R_O, u_c, alpha0),
                e * (1.0 + R_O * u) ** 2 / (L * u * u), 1.0 / (e * L * u * u)]

    rates = np.abs(rhs(0.0, np.array([1.0, 0.0])))[2:]
    atol = 1e-13 * np.array([1.0, 1.0, *rates])
    sol = solve_ivp(rhs, (0.0, 60.0 * np.pi), [1.0, 0.0, 0.0, 0.0],
                    method="DOP853", rtol=1e-13, atol=atol, dense_output=True)
    assert sol.success
    return alpha0, integrals, sol.sol


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype \
        and a.tobytes() == b.tobytes()


SWEEP = [(r, e) for r in (20.0, 1e3, 1e5, 3.1e7) for e in (0.0, 0.05, 0.6)]


def gauss_rules(f, a, b):
    """Integral of the vectorized ``f`` over each [a, b] by numpy's
    ``leggauss`` rules, doubled from 32 nodes until two agree to 1e-13
    relative on every interval."""
    half, mid = 0.5 * (b - a), 0.5 * (a + b)
    prev = None
    for n in (32, 64, 128, 256, 512, 1024):
        x, w = np.polynomial.legendre.leggauss(n)
        val = half * (f(mid[:, None] + half[:, None] * x) * w).sum(axis=-1)
        if prev is not None and np.all(abs(val - prev) <= 1e-13 * abs(val)):
            return val
        prev = val
    raise AssertionError("the Gauss rules disagree at 1024 nodes")


def per_sample_clocks(traj, phis):
    """t and p at ``phis`` by Gauss rules alone: over each whole solver step
    for the clocks at the breakpoints, and from the start of each sample's
    step to the sample, the route ``Trajectory.sample`` took before its
    per-step Legendre series, kept as its oracle."""
    ts = traj.sol.ts
    steps = np.arange(traj.sol.n_segments)[:, None]
    whole = gauss_rules(lambda x: traj._clock_rates(x, steps), ts[:-1], ts[1:])
    clocks = np.concatenate([np.zeros((2, 1)), np.cumsum(whole, axis=1)],
                            axis=1)
    k = np.maximum(np.floor(phis / traj.period), 0.0)
    flat = phis - k * traj.period
    seg = traj.sol.segments(flat)
    part = gauss_rules(lambda x: traj._clock_rates(x, seg[:, None]),
                       ts[seg], flat)
    return clocks[:, seg] + part + k * clocks[:, -1:]


LEG_CASES = [(A, ECC), (1e5, 0.3)]


def legs_oracle() -> dict:
    """scipy's legs, from the child on OpenBLAS's generic kernel
    (``generic_blas``): for each of LEG_CASES over 3 orbits, each probe as
    (points, their shape, the legs' values, their shape); for A, ECC over 2
    orbits, the breakpoints of both legs."""
    probes = {}
    for a, ecc in LEG_CASES:
        alpha0, integrals = orbit_from_elements(R_O, a, ecc)
        legs = element_legs(R_O, alpha0, integrals, 3)
        rng = np.random.default_rng(7)
        pairs = []
        for i, sol in enumerate(legs):
            # a breakpoint two legs share belongs to the one before it
            ts = sol.ts if i == 0 else sol.ts[1:]
            inside = rng.uniform(sol.ts[0], sol.ts[-1], 100)
            mids = 0.5 * (sol.ts[1:] + sol.ts[:-1])
            pairs += [(sol, phis) for phis in (
                inside, ts, mids, ts[::-1], np.concatenate([ts, inside]),
                ts[0], ts[-1], inside[0], mids[-1])]
        pairs += [(legs[0], legs[0].ts[0] - 0.1),
                  (legs[-1], legs[-1].ts[-1] + 0.1)]
        probes[repr((a, ecc))] = [
            (hexes(phis), np.shape(phis), hexes(sol(phis)),
             np.shape(sol(phis))) for sol, phis in pairs]
    alpha0, integrals = orbit_from_elements(R_O, A, ECC)
    legs = element_legs(R_O, alpha0, integrals, 2)
    return {"probes": probes, "ts": [hexes(sol.ts) for sol in legs]}


@pytest.fixture(scope="module")
def scipy_legs():
    return generic_oracle(__file__)


class TestElementEngine:
    @pytest.mark.parametrize("a, ecc", LEG_CASES)
    def test_evaluator_is_bitwise_the_legs(self, scipy_legs, a, ecc):
        alpha0, integrals = orbit_from_elements(R_O, a, ecc)
        dense = integrate_orbit(R_O, alpha0, integrals, 3).sol
        for points, shape, values, values_shape in \
                scipy_legs["probes"][repr((a, ecc))]:
            phis = np.array([float.fromhex(x) for x in points]).reshape(shape)
            got = dense(phis)
            assert list(got.shape) == values_shape and hexes(got) == values

    def test_trajectory_keeps_the_legs(self, scipy_legs):
        alpha0, integrals = orbit_from_elements(R_O, A, ECC)
        traj = integrate_orbit(R_O, alpha0, integrals, 2)
        first, second = scipy_legs["ts"]
        assert hexes(traj.sol.ts) == first + second[1:]
        assert traj.period == \
            float.fromhex(second[-1]) - float.fromhex(first[0])

    @pytest.mark.parametrize("a, ecc, n", [(A, ECC, 10), (1e5, 0.3, 6),
                                           (33835.0, 0.0517, 3)])
    def test_columns_match_u_form(self, a, ecc, n):
        alpha0, integrals = orbit_from_elements(R_O, a, ecc)
        traj = integrate_orbit(R_O, alpha0, integrals, n)
        oracle = u_form_solve(R_O, alpha0, integrals, n)
        phis = np.linspace(traj.phi_start, traj.phi_end, 512)
        u, up, t, p = traj.sample(phis)
        u_ref, up_ref, t_ref, p_ref = oracle(phis)
        np.testing.assert_allclose(1.0 / u, 1.0 / u_ref, rtol=1e-10)
        np.testing.assert_allclose(t[1:], t_ref[1:], rtol=1e-10)
        np.testing.assert_allclose(p[1:], p_ref[1:], rtol=1e-10)
        assert np.max(np.abs(up - up_ref)) <= 1e-10 * np.max(np.abs(u_ref))
        assert t[0] == 0.0 and p[0] == 0.0

    @pytest.mark.parametrize("n", [2, 30])
    @pytest.mark.parametrize("r_min_over_ro, ecc", SWEEP)
    def test_tiling_matches_integration_through(self, r_min_over_ro, ecc, n):
        alpha0, integrals, oracle = through_solve(r_min_over_ro, ecc)
        traj = integrate_orbit(R_O, alpha0, integrals, n)
        phis = np.linspace(traj.phi_start, traj.phi_end, 301)[1:]
        u, _, t, p = traj.sample(phis)
        alpha, beta, t_ref, p_ref = oracle(phis)
        u_ref = traj.u_c + traj.alpha0 * (alpha * np.cos(phis)
                                          + beta * np.sin(phis))
        np.testing.assert_allclose(u, u_ref, rtol=1e-10)
        np.testing.assert_allclose(t, t_ref, rtol=1e-10)
        np.testing.assert_allclose(p, p_ref, rtol=1e-10)

    @pytest.mark.parametrize("n", [2, 30])
    @pytest.mark.parametrize("r_min_over_ro, ecc", SWEEP)
    def test_clocks_match_per_sample_quadrature(self, r_min_over_ro, ecc, n):
        alpha0, integrals, _ = through_solve(r_min_over_ro, ecc)
        traj = integrate_orbit(R_O, alpha0, integrals, n)
        phis = np.linspace(traj.phi_start, traj.phi_end, 512)
        _, _, t, p = traj.sample(phis)
        np.testing.assert_allclose([t, p], per_sample_clocks(traj, phis),
                                   rtol=1e-14, atol=0.0)

    def test_sample_on_a_breakpoint_gets_its_clocks(self):
        alpha0, integrals = orbit_from_elements(R_O, 1e5, 0.3)
        traj = integrate_orbit(R_O, alpha0, integrals, 3)
        # an inner breakpoint is the end of the step before it; the series
        # there is the step's own rule, not the whole-step quadrature
        _, _, t, p = traj.sample(traj.sol.ts)
        assert same_bits(np.stack([t, p]), traj._segment_clocks)

    def test_period_clocks_do_not_depend_on_the_order(self):
        # 5 samples of this run would move the clocks if the samples' and
        # the whole steps' quadrature stopped at one rule
        a, ecc = 228965973.88285884, 0.9867718779769822
        alpha0, integrals = orbit_from_elements(R_O, a, ecc)
        phis = np.linspace(0.0, 60.0 * np.pi, 5)
        sampled = integrate_orbit(R_O, alpha0, integrals, 30)
        sampled.sample(phis)
        after = precession_numeric(sampled)
        alone = integrate_orbit(R_O, alpha0, integrals, 30)
        before = precession_numeric(alone)
        clocks = alone.period_clocks
        alone.sample(phis)
        assert same_bits(sampled.period_clocks, clocks)
        assert same_bits(alone.period_clocks, clocks)
        assert after == before

    def test_orbit_report_makes_one_quadrature_pass(self, monkeypatch,
                                                    capsys):
        calls = []

        def counted(*args):
            calls.append(args)
            return legendre_antiderivative(*args)

        monkeypatch.setattr(orbits, "legendre_antiderivative", counted)
        assert main(["orbit", "--samples", "5"]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("r_min_over_ro, ecc", SWEEP)
    def test_perihelia_are_roots_of_the_oracle(self, r_min_over_ro, ecc):
        alpha0, integrals, oracle = through_solve(r_min_over_ro, ecc)
        traj = integrate_orbit(R_O, alpha0, integrals, 30)
        # the launch turning point plus whole periods; where alpha0 < 0
        # these are the aphelia
        peri = traj.period * np.arange(
            math.floor(traj.phi_end / traj.period) + 1)
        assert len(peri) > 10

        def dprime(phi):
            alpha, beta = oracle(phi)[:2]
            return beta * np.cos(phi) - alpha * np.sin(phi)

        ref = [brentq(dprime, phi - 0.5, phi + 0.5, xtol=1e-13)
               for phi in peri[1:]]
        np.testing.assert_allclose(peri[1:], ref, rtol=PERI_RTOL)

    def test_sample_shapes(self):
        alpha0, integrals = orbit_from_elements(R_O, A, ECC)
        traj = integrate_orbit(R_O, alpha0, integrals, 1)
        assert all(np.shape(v) == () for v in traj.sample(1.0))
        assert all(np.shape(v) == (3,) for v in traj.sample([0.0, 1.0, 2.0]))

    @pytest.mark.parametrize("r_min_over_ro", [20.0, 1e3, 1e5, 3.1e7])
    @pytest.mark.parametrize("ecc", [0.05, 0.6])
    def test_sweep_within_floor_of_quadrature(self, r_min_over_ro, ecc):
        a = r_min_over_ro * R_O / (1.0 - ecc)
        alpha0, integrals = orbit_from_elements(R_O, a, ecc)
        traj = integrate_orbit(R_O, alpha0, integrals, 6)
        num = precession_numeric(traj).delta_phi_per_orbit
        ref = precession_quadrature(
            R_O, *turning_points_from_elements(R_O, a, ecc))
        # 100 times the 2*pi*tol per orbit that an integration at tol leaves
        assert abs(num - ref) <= 100.0 * 2.0 * np.pi * 1e-12


class TestPrecession:
    def test_analytic_value(self):
        res = precession_analytic(R_O, A, ECC)
        expected = 6 * np.pi * R_O / (A * (1 - ECC**2))
        assert res.delta_phi_per_orbit == pytest.approx(expected, rel=1e-15)

    def test_quadrature_matches_analytic_weak_field(self):
        _, integrals = orbit_from_elements(R_O, A, ECC)
        r_min, r_max = turning_points(R_O, integrals)
        quad_val = precession_quadrature(R_O, r_min, r_max)
        analytic = precession_analytic(R_O, A, ECC).delta_phi_per_orbit
        assert quad_val == pytest.approx(analytic, rel=1e-3)

    def test_numeric_matches_quadrature(self):
        alpha0, integrals = orbit_from_elements(R_O, A, ECC)
        traj = integrate_orbit(R_O, alpha0, integrals, 6)
        num = precession_numeric(traj).delta_phi_per_orbit
        r_min, r_max = turning_points(R_O, integrals)
        assert num == pytest.approx(precession_quadrature(R_O, r_min, r_max),
                                    rel=1e-6, abs=0.0)

    @pytest.mark.parametrize("ecc", [0.0, 1e-7, 1e-3, ECC])
    def test_numeric_matches_quadrature_near_circular(self, ecc):
        # integrated through 3 orbits at atol = tol*u0, ecc 0 was 59% off;
        # the bound is the weak-field one of the reference fixture
        alpha0, integrals = orbit_from_elements(R_O, A, ecc)
        traj = integrate_orbit(R_O, alpha0, integrals, 3)
        num = precession_numeric(traj).delta_phi_per_orbit
        ref = precession_quadrature(R_O,
                                    *turning_points_from_elements(R_O, A, ecc))
        assert num == pytest.approx(ref, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("r_o", [1e-3, 1e-6, 1e-20])
    def test_numeric_matches_quadrature_in_weak_fields(self, r_o):
        # uncapped, the legs stepped several radians at once here and
        # crossed turning points unseen: r_o 1e-6 gave an advance of 4*pi
        alpha0, integrals = orbit_from_elements(r_o, A, ECC)
        traj = integrate_orbit(r_o, alpha0, integrals, 3)
        assert np.max(np.diff(traj.sol.ts)) <= orbits.LEG_MAX_STEP
        num = precession_numeric(traj).delta_phi_per_orbit
        ref = precession_quadrature(r_o,
                                    *turning_points_from_elements(r_o, A, ECC))
        # the weak-field bound of the reference fixture
        assert num == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_scaling_with_field_strength(self):
        # advance per orbit is linear in r_o in the weak field
        one = precession_analytic(R_O, A, ECC).delta_phi_per_orbit
        two = precession_analytic(2 * R_O, A, ECC).delta_phi_per_orbit
        assert two == pytest.approx(2 * one, rel=1e-14)

    def test_kepler_period(self):
        # Mercury: about 88 days
        period = kepler_period_seconds(R_O, A)
        assert period == pytest.approx(88 * 86400, rel=0.01)

    @pytest.mark.parametrize("r_o, a", [(1e-290, A), (1e-100, 3e150)])
    def test_kepler_period_of_a_weak_field_is_finite(self, r_o, a):
        # a**3/r_o overflows (and a**3 alone raises for the larger a)
        period = kepler_period_seconds(r_o, a)
        assert period == pytest.approx(
            2.0 * math.pi * a * math.sqrt(a / r_o) / C_SI, rel=4e-16)

    def test_kepler_period_keeps_its_digits(self):
        # the root of a**3/r_o, not a*sqrt(a/r_o) (which ends in ...89)
        assert kepler_period_seconds(R_O, A) == 7589885.561223888

    def test_zero_field_no_precession(self):
        res = precession_analytic(0.0, A, ECC)
        assert res.delta_phi_per_orbit == 0.0
        assert res.arcsec_per_century is None


if __name__ == "__main__":
    print(json.dumps(legs_oracle()))
