"""Bound-orbit dynamics, turning points, and perihelion advance."""
import functools
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from flatgrav.errors import (
    DenominatorVanishes,
    InsufficientOrbits,
    NonPositiveRadius,
    TurningPointNotFound,
    UnboundOrbit,
)
from flatgrav import orbits
from flatgrav.quadrature import gauss_legendre
from flatgrav.orbits import (
    energy_integral,
    geodesic_force,
    integrals_from_turning_points,
    integrate_orbit,
    kepler_period_seconds,
    orbit_from_elements,
    orbit_from_integrals,
    perihelion_angles,
    precession_analytic,
    precession_numeric,
    precession_quadrature,
    resonant_forcing_amplitude,
    rosette_rhs,
    turning_points,
    turning_points_from_elements,
)

R_O = 1480.0
A = 5.79e10
ECC = 0.2056
EPS = np.finfo(float).eps
# perihelion angles over 30 orbits, tiled against integrated through: the
# sweep's worst is ~1e-12 relative (r_min = 20 r_o at ecc 0, where u' has
# the smallest amplitude and a root of it the least precision)
PERI_RTOL = 1e-11


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
        with pytest.raises(DenominatorVanishes):
            rosette_rhs(1.0, 0.0, 1.0, 10.0)

    def test_resonant_amplitude(self):
        assert resonant_forcing_amplitude(2.0, 3.0) == pytest.approx(
            6.0 * 2.0**3 / 3.0**4, rel=1e-15
        )

    def test_newtonian_limit_circular(self):
        # r_o -> 0: u'' + u = r_o/L^2, circular orbit at u = r_o/L^2
        r_o, L = 1e-9, 5.0
        u_c = r_o / L**2
        assert rosette_rhs(u_c, 0.0, r_o, L) == pytest.approx(0.0, abs=1e-22)


class TestElementsAndTurningPoints:
    def test_turning_points_match_elements(self):
        state, integrals = orbit_from_elements(R_O, A, ECC)
        r_min, r_max = turning_points(R_O, integrals)
        assert r_min == pytest.approx(A * (1 - ECC), rel=1e-6)
        assert r_max == pytest.approx(A * (1 + ECC), rel=1e-6)
        assert state.r == pytest.approx(A * (1 - ECC), rel=1e-15)

    def test_integrals_roundtrip(self):
        _, integrals = orbit_from_elements(R_O, A, ECC)
        r_min, r_max = turning_points(R_O, integrals)
        back = integrals_from_turning_points(R_O, r_min, r_max)
        assert back.L == pytest.approx(integrals.L, rel=1e-12)
        assert back.energy_ratio == pytest.approx(integrals.energy_ratio,
                                                  rel=1e-12)

    def test_orbit_from_integrals_starts_at_perihelion(self):
        _, integrals = orbit_from_elements(R_O, A, ECC)
        state, _ = orbit_from_integrals(R_O, integrals.energy_ratio,
                                        integrals.L)
        assert state.drdp == 0.0
        assert state.r == pytest.approx(A * (1 - ECC), rel=1e-6)

    def test_outer_root_start_moves_to_perihelion(self):
        # strong field, small ecc: a*(1 - ecc) is the apocentre
        state, integrals = orbit_from_elements(R_O, 33835.0, 0.0517)
        r_min, r_max = turning_points(R_O, integrals)
        assert r_max == pytest.approx(33835.0 * (1 - 0.0517), rel=1e-12)
        assert state.r == pytest.approx(r_min, rel=1e-12)
        assert state.drdp == 0.0
        assert state.dphidp == pytest.approx(integrals.J_phi / r_min**2,
                                             rel=1e-12)

    def test_near_circular_start_on_shell(self):
        # the turning points nearly coincide; the start stays on shell
        state, integrals = orbit_from_elements(R_O, A, 0.0)
        assert state.r < A
        c = energy_integral(1.0 / state.r, 0.0, R_O, integrals.L)
        assert c == pytest.approx((integrals.energy_ratio / integrals.L) ** 2,
                                  rel=1e-14)
        assert rosette_rhs(1.0 / state.r, 0.0, R_O, integrals.L) < 0.0

    def test_unbound_rejected(self):
        with pytest.raises(UnboundOrbit):
            orbit_from_elements(R_O, A, 1.0)

    def test_bad_elements_rejected(self):
        with pytest.raises(NonPositiveRadius):
            orbit_from_elements(R_O, -1.0, 0.1)
        with pytest.raises(ValueError):
            orbit_from_elements(R_O, A, -0.2)

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

    def test_quadrature_accepts_circular_limit(self):
        r = 1e10
        value = precession_quadrature(R_O, r, r)
        closed = precession_analytic(R_O, r, 0.0).delta_phi_per_orbit
        assert value == pytest.approx(closed, rel=20.0 * R_O / r)

    def test_circular_orbit_has_no_radial_range(self):
        # matched turning points collapse the bracket
        with pytest.raises(TurningPointNotFound):
            integrals_from_turning_points(R_O, 1e10, 1e10)


class TestIntegration:
    def test_energy_integral_drift_small(self):
        state, integrals = orbit_from_elements(R_O, A, ECC)
        traj = integrate_orbit(R_O, state, integrals, 5)
        assert traj.integral_drift() < 1e-12
        assert traj.drift == traj.integral_drift()

    def test_constraint_residual_weak_field(self):
        state, integrals = orbit_from_elements(R_O, A, ECC)
        traj = integrate_orbit(R_O, state, integrals, 1)
        for phi in np.linspace(0.0, 2 * np.pi, 17):
            res = traj.state(phi).constraint_residual(R_O, integrals)
            assert abs(res) < 1e-9

    def test_perihelion_count(self):
        state, integrals = orbit_from_elements(R_O, A, ECC)
        traj = integrate_orbit(R_O, state, integrals, 4)
        peri = perihelion_angles(traj)
        # launch perihelion plus three full returns; the fourth return sits
        # just past phi_end because of the positive advance
        assert len(peri) == 4

    def test_time_reversal(self):
        state, integrals = orbit_from_elements(R_O, A, ECC)
        fwd = integrate_orbit(R_O, state, integrals, 1)
        end = fwd.state(fwd.phi_end)
        back = integrate_orbit(R_O, end, integrals, 1, backward=True)
        assert back.state(0.0).r == pytest.approx(state.r, rel=1e-10)

    def test_insufficient_orbits(self):
        state, integrals = orbit_from_elements(R_O, A, ECC)
        traj = integrate_orbit(R_O, state, integrals, 0.25)
        with pytest.raises(InsufficientOrbits):
            precession_numeric(traj)
        with pytest.raises(InsufficientOrbits):
            integrate_orbit(R_O, state, integrals, 0)


def u_form_solve(r_o, state, integrals, n_orbits, tol=1e-12):
    """The rosette equation integrated for (u, u', t, p) directly: the form
    the engine used before the osculating elements, kept as an oracle."""
    L, e = integrals.L, integrals.energy_ratio

    def rhs(phi, y):
        u, up = y[0], y[1]
        return [up, rosette_rhs(u, up, r_o, L),
                e * (1.0 + r_o * u) ** 2 / (L * u**2), 1.0 / (e * L * u**2)]

    u0 = 1.0 / state.r
    up0 = -state.drdp / integrals.J_phi
    atol = tol * np.array([u0, u0, max(abs(state.t), 1.0), 1.0])
    sol = solve_ivp(rhs, (state.phi, state.phi + 2.0 * np.pi * n_orbits),
                    [u0, up0, state.t, state.p], method="DOP853", rtol=tol,
                    atol=atol, dense_output=True)
    assert sol.success
    return sol.sol


LEG_TOL = 1e-12 / orbits.PERIOD_RTOL_DIVISOR
LEG_RTOL = max(LEG_TOL, 100.0 * EPS)     # the stepper's floor, without warning


def element_legs(r_o, state, integrals, n_orbits, backward=False):
    """The ``solve_ivp`` runs of ``integrate_orbit``'s legs, with their
    OdeSolutions: to the first perihelion unless the launch is one, then
    perihelion to aphelion and aphelion to perihelion."""
    c = r_o / integrals.L**2
    u0 = 1.0 / state.r
    up0 = -state.drdp / integrals.J_phi
    sign = -1.0 if backward else 1.0
    phi = state.phi
    y = np.array([(u0 - c) * np.cos(phi) - up0 * np.sin(phi),
                  (u0 - c) * np.sin(phi) + up0 * np.cos(phi)])
    atol = LEG_TOL * np.hypot(*y)
    at_perihelion = up0 == 0.0 and orbits._forcing(u0, 0.0, r_o, c) < u0 - c
    sols = []
    for perihelion in ([] if at_perihelion else [True]) + [False, True]:
        def event(p, v, *args):
            return orbits._uprime(p, v)
        event.terminal = True
        event.direction = -sign if perihelion else sign
        run = solve_ivp(orbits._element_rhs,
                        (phi, phi + sign * 4.0 * np.pi * max(n_orbits, 1)),
                        y, args=(r_o, c), method="DOP853", rtol=LEG_RTOL,
                        atol=atol, dense_output=True, events=event,
                        max_step=orbits.LEG_MAX_STEP)
        assert run.status == 1
        sols.append(run.sol)
        phi, y = run.t[-1], run.y[:, -1]
    return sols


@functools.lru_cache(maxsize=None)
def through_solve(r_min_over_ro, ecc):
    """alpha, beta, t and p integrated by ``solve_ivp`` through 30
    revolutions at rtol 1e-13: the form the tiled trajectory replaces, kept
    as its oracle.  Returns the launch, the integrals and the OdeSolution."""
    state, integrals = orbit_from_elements(
        R_O, r_min_over_ro * R_O / (1.0 - ecc), ecc)
    L, e = integrals.L, integrals.energy_ratio
    c = R_O / L**2

    def rhs(phi, y):
        u = c + y[0] * np.cos(phi) + y[1] * np.sin(phi)
        return [*orbits._element_rhs(phi, y[:2], R_O, c),
                e * (1.0 + R_O * u) ** 2 / (L * u * u), 1.0 / (e * L * u * u)]

    u0 = 1.0 / state.r
    rates = np.abs(rhs(0.0, np.array([u0 - c, 0.0])))[2:]
    atol = 1e-13 * np.array([u0 - c, u0 - c, *rates])
    sol = solve_ivp(rhs, (0.0, 60.0 * np.pi), [u0 - c, 0.0, 0.0, 0.0],
                    method="DOP853", rtol=1e-13, atol=atol, dense_output=True)
    assert sol.success
    return state, integrals, sol.sol


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype \
        and a.tobytes() == b.tobytes()


SWEEP = [(r, e) for r in (20.0, 1e3, 1e5, 3.1e7) for e in (0.0, 0.05, 0.6)]


def per_sample_clocks(traj, phis):
    """t and p at ``phis`` by a Gauss-Legendre rule from the start of each
    sample's solver step to the sample: the route ``Trajectory.sample``
    took before its per-step Legendre series, kept as its oracle."""
    peri, end = traj.sol.ts[traj.period_start], traj.sol.ts[-1]
    k = np.maximum(np.floor((phis - peri) / (end - peri)), 0.0)
    flat = phis - k * (end - peri)
    seg = traj.sol.segments(flat)
    part = gauss_legendre(lambda x: traj._clock_rates(x, seg[:, None]),
                          traj.sol.ts[seg], flat)
    return traj._segment_clocks[:, seg] + part + k * traj.period_clocks[:, None]


class TestElementEngine:
    @pytest.mark.parametrize("backward", [False, True])
    @pytest.mark.parametrize("a, ecc, launch", [(A, ECC, 0.0), (1e5, 0.3, 0.0),
                                                (1e5, 0.3, 2.0)])
    def test_evaluator_is_bitwise_the_legs(self, a, ecc, launch, backward):
        state, integrals = orbit_from_elements(R_O, a, ecc)
        if launch:       # between turning points: a leg to perihelion first
            state = integrate_orbit(R_O, state, integrals, 1).state(launch)
        legs = element_legs(R_O, state, integrals, 3, backward=backward)
        assert len(legs) == (3 if launch else 2)
        dense = integrate_orbit(R_O, state, integrals, 3,
                                backward=backward).sol
        rng = np.random.default_rng(7)
        for i, sol in enumerate(legs):
            # a breakpoint two legs share belongs to the one before it
            ts = sol.ts if i == 0 else sol.ts[1:]
            inside = rng.uniform(min(sol.ts[[0, -1]]), max(sol.ts[[0, -1]]),
                                 100)
            mids = 0.5 * (sol.ts[1:] + sol.ts[:-1])
            for phis in (inside, ts, mids, ts[::-1],
                         np.concatenate([ts, inside])):
                assert same_bits(dense(phis), sol(phis))
            for phi in (ts[0], ts[-1], inside[0], mids[-1]):
                assert same_bits(dense(phi), sol(phi))
        sign = -1.0 if backward else 1.0
        before, beyond = legs[0].ts[0] - sign * 0.1, legs[-1].ts[-1] + sign * 0.1
        assert same_bits(dense(before), legs[0](before))
        assert same_bits(dense(beyond), legs[-1](beyond))

    def test_trajectory_keeps_the_legs(self):
        state, integrals = orbit_from_elements(R_O, A, ECC)
        traj = integrate_orbit(R_O, state, integrals, 2)
        legs = element_legs(R_O, state, integrals, 2)
        assert same_bits(traj.sol.ts,
                         np.concatenate([legs[0].ts, legs[1].ts[1:]]))
        assert traj.period_start == 0
        assert traj.period == legs[1].ts[-1] - legs[0].ts[0]
        between = traj.state(1.0)
        later = integrate_orbit(R_O, between, integrals, 2)
        assert later.sol.ts[later.period_start] == element_legs(
            R_O, between, integrals, 2)[0].ts[-1]

    @pytest.mark.parametrize("a, ecc, n", [(A, ECC, 10), (1e5, 0.3, 6),
                                           (33835.0, 0.0517, 3)])
    def test_columns_match_u_form(self, a, ecc, n):
        state, integrals = orbit_from_elements(R_O, a, ecc)
        traj = integrate_orbit(R_O, state, integrals, n)
        oracle = u_form_solve(R_O, state, integrals, n)
        phis = np.linspace(traj.phi_start, traj.phi_end, 512)
        u, up, t, p = traj.sample(phis)
        u_ref, up_ref, t_ref, p_ref = oracle(phis)
        np.testing.assert_allclose(1.0 / u, 1.0 / u_ref, rtol=1e-10)
        np.testing.assert_allclose(t[1:], t_ref[1:], rtol=1e-10)
        np.testing.assert_allclose(p[1:], p_ref[1:], rtol=1e-10)
        assert np.max(np.abs(up - up_ref)) <= 1e-10 * np.max(np.abs(u_ref))
        assert t[0] == state.t and p[0] == state.p

    @pytest.mark.parametrize("n", [2, 30])
    @pytest.mark.parametrize("r_min_over_ro, ecc", SWEEP)
    def test_tiling_matches_integration_through(self, r_min_over_ro, ecc, n):
        state, integrals, oracle = through_solve(r_min_over_ro, ecc)
        traj = integrate_orbit(R_O, state, integrals, n)
        phis = np.linspace(traj.phi_start, traj.phi_end, 301)[1:]
        u, _, t, p = traj.sample(phis)
        alpha, beta, t_ref, p_ref = oracle(phis)
        u_ref = R_O / integrals.L**2 + alpha * np.cos(phis) \
            + beta * np.sin(phis)
        np.testing.assert_allclose(u, u_ref, rtol=1e-10)
        np.testing.assert_allclose(t, t_ref, rtol=1e-10)
        np.testing.assert_allclose(p, p_ref, rtol=1e-10)

    @pytest.mark.parametrize("backward", [False, True])
    @pytest.mark.parametrize("n", [2, 30])
    @pytest.mark.parametrize("r_min_over_ro, ecc", SWEEP)
    def test_clocks_match_per_sample_quadrature(self, r_min_over_ro, ecc, n,
                                                backward):
        state, integrals, _ = through_solve(r_min_over_ro, ecc)
        traj = integrate_orbit(R_O, state, integrals, n, backward=backward)
        phis = np.linspace(traj.phi_start, traj.phi_end, 512)
        _, _, t, p = traj.sample(phis)
        np.testing.assert_allclose([t, p], per_sample_clocks(traj, phis),
                                   rtol=1e-14, atol=0.0)

    def test_sample_on_a_breakpoint_gets_its_clocks(self):
        state, integrals = orbit_from_elements(R_O, 1e5, 0.3)
        traj = integrate_orbit(R_O, state, integrals, 3)
        # an inner breakpoint is the end of the step before it; the series
        # there is the step's own rule, not the whole-step quadrature
        _, _, t, p = traj.sample(traj.sol.ts)
        assert same_bits(np.stack([t, p]), traj._segment_clocks)

    @pytest.mark.parametrize("r_min_over_ro, ecc", SWEEP)
    def test_perihelia_are_roots_of_the_oracle(self, r_min_over_ro, ecc):
        state, integrals, oracle = through_solve(r_min_over_ro, ecc)
        traj = integrate_orbit(R_O, state, integrals, 30)
        peri = perihelion_angles(traj)
        assert peri[0] == 0.0 and len(peri) > 10

        def uprime(phi):
            alpha, beta = oracle(phi)[:2]
            return beta * np.cos(phi) - alpha * np.sin(phi)

        ref = [brentq(uprime, phi - 0.5, phi + 0.5, xtol=1e-13)
               for phi in peri[1:]]
        np.testing.assert_allclose(peri[1:], ref, rtol=PERI_RTOL)

    def test_sample_shapes(self):
        state, integrals = orbit_from_elements(R_O, A, ECC)
        traj = integrate_orbit(R_O, state, integrals, 1)
        assert all(np.shape(v) == () for v in traj.sample(1.0))
        assert all(np.shape(v) == (3,) for v in traj.sample([0.0, 1.0, 2.0]))
        assert traj.state(1.0).t == traj.sample([1.0])[2][0]

    def test_clocks_of_a_backward_solve(self):
        state, integrals = orbit_from_elements(R_O, 1e5, 0.3)
        fwd = integrate_orbit(R_O, state, integrals, 2)
        back = integrate_orbit(R_O, fwd.state(fwd.phi_end), integrals, 2,
                               backward=True)
        phis = np.linspace(0.0, fwd.phi_end, 33)
        for got, want in zip(back.sample(phis), fwd.sample(phis)):
            # t and p run back to ~0 at phi = 0: compare on the column's scale
            np.testing.assert_allclose(got, want, rtol=1e-9,
                                       atol=1e-11 * np.max(np.abs(want)))

    @pytest.mark.parametrize("r_min_over_ro", [20.0, 1e3, 1e5, 3.1e7])
    @pytest.mark.parametrize("ecc", [0.05, 0.6])
    def test_sweep_within_floor_of_quadrature(self, r_min_over_ro, ecc):
        a = r_min_over_ro * R_O / (1.0 - ecc)
        state, integrals = orbit_from_elements(R_O, a, ecc)
        traj = integrate_orbit(R_O, state, integrals, 6)
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
        state, integrals = orbit_from_elements(R_O, A, ECC)
        traj = integrate_orbit(R_O, state, integrals, 6)
        num = precession_numeric(traj).delta_phi_per_orbit
        r_min, r_max = turning_points(R_O, integrals)
        assert num == pytest.approx(precession_quadrature(R_O, r_min, r_max),
                                    rel=1e-6, abs=0.0)

    @pytest.mark.parametrize("ecc", [0.0, 1e-7, 1e-3, ECC])
    def test_numeric_matches_quadrature_near_circular(self, ecc):
        # integrated through 3 orbits at atol = tol*u0, ecc 0 was 59% off
        state, integrals = orbit_from_elements(R_O, A, ecc)
        traj = integrate_orbit(R_O, state, integrals, 3)
        num = precession_numeric(traj).delta_phi_per_orbit
        ref = precession_quadrature(R_O,
                                    *turning_points_from_elements(R_O, A, ecc))
        assert num == pytest.approx(ref, rel=1e-7, abs=0.0)

    @pytest.mark.parametrize("r_o", [1e-3, 1e-6, 1e-20])
    def test_numeric_matches_quadrature_in_weak_fields(self, r_o):
        # uncapped, the legs stepped several radians at once here and
        # crossed turning points unseen: r_o 1e-6 gave an advance of 4*pi
        state, integrals = orbit_from_elements(r_o, A, ECC)
        traj = integrate_orbit(r_o, state, integrals, 3)
        assert np.max(np.diff(traj.sol.ts)) <= orbits.LEG_MAX_STEP
        num = precession_numeric(traj).delta_phi_per_orbit
        ref = precession_quadrature(r_o,
                                    *turning_points_from_elements(r_o, A, ECC))
        # the floor atol = (tol/100)*hypot(alpha, beta) puts on an advance
        # of ~1e-13 rad or less
        assert num == pytest.approx(ref, rel=1e-4, abs=0.0)

    def test_scaling_with_field_strength(self):
        # advance per orbit is linear in r_o in the weak field
        one = precession_analytic(R_O, A, ECC).delta_phi_per_orbit
        two = precession_analytic(2 * R_O, A, ECC).delta_phi_per_orbit
        assert two == pytest.approx(2 * one, rel=1e-14)

    def test_kepler_period(self):
        # Mercury: about 88 days
        period = kepler_period_seconds(R_O, A)
        assert period == pytest.approx(88 * 86400, rel=0.01)

    def test_zero_field_no_precession(self):
        res = precession_analytic(0.0, A, ECC)
        assert res.delta_phi_per_orbit == 0.0
        assert res.arcsec_per_century is None


class TestGeodesicForce:
    def test_inverse_square_direction(self):
        x = np.array([3.0, 4.0, 0.0])
        force, _ = geodesic_force(2.0, 5.0, x, np.zeros(3))
        r = 5.0
        assert np.allclose(force, -2.0 * 5.0 * x / r**3, atol=1e-16)

    def test_free_fall_charge_independent(self):
        x = np.array([1.0, -2.0, 0.5])
        v = np.array([0.01, 0.0, -0.02])
        _, a1 = geodesic_force(0.1, 1.0, x, v)
        _, a2 = geodesic_force(0.1, 1e12, x, v)
        assert np.array_equal(a1, a2)

    def test_center_rejected(self):
        with pytest.raises(NonPositiveRadius):
            geodesic_force(1.0, 1.0, np.zeros(3), np.zeros(3))
