"""Bound-orbit dynamics, turning points, and perihelion advance."""
import numpy as np
import pytest

from flatgrav.errors import (
    DenominatorVanishes,
    InsufficientOrbits,
    NonPositiveRadius,
    TurningPointNotFound,
    UnboundOrbit,
)
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
)

R_O = 1480.0
A = 5.79e10
ECC = 0.2056


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
                                    rel=1e-4)

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
