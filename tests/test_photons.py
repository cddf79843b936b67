"""Light propagation: echo delay, deflection and rays."""
import numpy as np
import pytest

from flatgrav.constants import ARCSEC_PER_RAD, C_SI
from flatgrav.errors import GeometryInvalid, NonPositiveRadius, RayCaptured
from flatgrav.photons import (
    EchoGeometry,
    closed_form_ray,
    coordinate_speed,
    deflection_integral,
    fermat_ray_integrate,
    ray_launch,
    shapiro_delay,
)
from flatgrav.presets import (
    EARTH_SUN_DISTANCE,
    MERCURY_SUN_DISTANCE,
    SOLAR_R_O,
    SOLAR_RADIUS,
    solar_echo_geometry,
)


class TestCoordinateSpeed:
    def test_double_slowing(self):
        # coordinate speed carries the square of the local slowing,
        # 1/n = (1 + r_o/r)^-1
        r_o, r = 1480.0, 7e8
        assert coordinate_speed(r_o, r) == pytest.approx(
            (1.0 + r_o / r) ** -2, rel=1e-15
        )

    def test_unit_speed_far_away(self):
        assert coordinate_speed(1480.0, 1e30) == pytest.approx(1.0, abs=1e-15)

    def test_radius_guard(self):
        with pytest.raises(NonPositiveRadius):
            coordinate_speed(1.0, 0.0)


class TestEchoDelay:
    def test_solar_value_microseconds(self):
        res = shapiro_delay(solar_echo_geometry())
        delay_us = res.quadrature / C_SI * 1e6
        assert delay_us == pytest.approx(220.0, rel=0.02)

    def test_quadrature_vs_closed_form(self):
        res = shapiro_delay(solar_echo_geometry())
        assert res.quadrature == pytest.approx(res.closed_form, rel=0.02)

    def test_zero_field_no_delay(self):
        geom = EchoGeometry(r_es=EARTH_SUN_DISTANCE,
                            r_ms=MERCURY_SUN_DISTANCE,
                            R_s=SOLAR_RADIUS, r_o=0.0)
        res = shapiro_delay(geom)
        assert res.quadrature == pytest.approx(0.0, abs=1e-12)
        assert res.closed_form == 0.0

    def test_geometry_validation(self):
        with pytest.raises(GeometryInvalid):
            EchoGeometry(r_es=1.0, r_ms=1.0, R_s=2.0, r_o=0.1)
        with pytest.raises(GeometryInvalid):
            EchoGeometry(r_es=-1.0, r_ms=1.0, R_s=0.5, r_o=0.1)


class TestDeflection:
    def test_solar_arcsec(self):
        res = deflection_integral(SOLAR_R_O, SOLAR_RADIUS)
        assert res.closed_form * ARCSEC_PER_RAD == pytest.approx(-1.75,
                                                                 rel=0.01)
        assert res.quadrature == pytest.approx(res.closed_form, rel=1e-4)

    def test_closed_form_expression(self):
        res = deflection_integral(3.0, 1000.0)
        assert res.closed_form == pytest.approx(-4.0 * 3.0 / 1000.0,
                                                rel=1e-15)

    def test_inverse_distance_scaling(self):
        one = deflection_integral(SOLAR_R_O, SOLAR_RADIUS).quadrature
        two = deflection_integral(SOLAR_R_O, 2 * SOLAR_RADIUS).quadrature
        # exact only to the O(r_o/R_s) correction of the grazing integral
        assert two == pytest.approx(one / 2.0, rel=1e-5)


class TestFermatRay:
    def test_closed_form_solves_ode(self):
        # u'' + u = 2*r_o*u0^2 must hold identically for the closed form
        u0, r_o = 1e-9, 1200.0
        phi = np.linspace(0.1, np.pi - 0.1, 101)
        u = closed_form_ray(u0, r_o, phi)
        h = 1e-4
        upp = (closed_form_ray(u0, r_o, phi + h)
               - 2 * u + closed_form_ray(u0, r_o, phi - h)) / h**2
        assert np.max(np.abs(upp + u - 2 * r_o * u0**2)) < 1e-6 * np.max(u)

    def test_ray_matches_closed_form(self):
        u0 = 1.0 / SOLAR_RADIUS
        traj, _ = fermat_ray_integrate(ray_launch(u0), SOLAR_R_O)
        phi = np.linspace(0.2, np.pi - 0.2, 33)
        assert np.max(np.abs(traj.u(phi) - closed_form_ray(u0, SOLAR_R_O,
                                                           phi))) < 1e-10 * u0

    def test_deflection_value(self):
        u0 = 1.0 / SOLAR_RADIUS
        _, angle = fermat_ray_integrate(ray_launch(u0), SOLAR_R_O)
        assert angle == pytest.approx(-4.0 * SOLAR_R_O * u0, rel=1e-4)

    def test_first_integral_residual(self):
        u0 = 1.0 / SOLAR_RADIUS
        traj, _ = fermat_ray_integrate(ray_launch(u0), SOLAR_R_O)
        assert traj.max_invariant_residual() < 1e-10 * u0**2

    def test_undeflected_without_field(self):
        u0 = 1e-9
        traj, angle = fermat_ray_integrate(ray_launch(u0), 0.0)
        assert angle == pytest.approx(0.0, abs=1e-12)
        assert traj.u(np.pi / 2) == pytest.approx(u0, rel=1e-12)

    def test_capture_detection(self):
        # impact parameter comparable to r_o: leaves the weak-field regime
        with pytest.raises(RayCaptured):
            fermat_ray_integrate(ray_launch(1.0), 1.0)

    def test_launch_validation(self):
        with pytest.raises(GeometryInvalid):
            ray_launch(0.0)
        assert ray_launch(2e-9) == 2e-9

    @pytest.mark.parametrize("u0", [0.0, -1e-9, float("nan"), float("inf")])
    def test_integration_refuses_a_bad_launch(self, u0):
        with pytest.raises(GeometryInvalid, match="inverse impact parameter"):
            fermat_ray_integrate(u0, SOLAR_R_O)
