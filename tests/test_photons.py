"""Light propagation: echo delay, deflection and rays."""
import numpy as np
import pytest

from flatgrav.constants import ARCSEC_PER_RAD, C_SI
from flatgrav.errors import (GeometryInvalid, NonPositiveRadius,
                             NumericalFailure, RayCaptured)
from flatgrav.photons import (
    EchoGeometry,
    coordinate_speed,
    deflection_integral,
    fermat_ray_integrate,
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
        # the closed form is the exact antiderivative, so the two differ by
        # the rule's 1e-13 stopping test at most
        res = shapiro_delay(solar_echo_geometry())
        assert res.quadrature == pytest.approx(res.closed_form, rel=1e-13)

    def test_zero_field_no_delay(self):
        geom = EchoGeometry(r_es=EARTH_SUN_DISTANCE,
                            r_ms=MERCURY_SUN_DISTANCE,
                            R_s=SOLAR_RADIUS, r_o=0.0)
        res = shapiro_delay(geom)
        assert res.quadrature == pytest.approx(0.0, abs=1e-12)
        assert res.closed_form == 0.0

    def test_a_grazing_ratio_beyond_the_float_range(self):
        # x/R_s overflows, the delay does not: 2*sum of
        # 2*r_o*asinh(x/R_s) + (r_o^2/R_s)*atan(x/R_s) over both sides, to
        # 50 digits with mpmath
        geom = EchoGeometry(r_es=EARTH_SUN_DISTANCE,
                            r_ms=MERCURY_SUN_DISTANCE,
                            R_s=1e-300, r_o=SOLAR_R_O)
        res = shapiro_delay(geom)
        exact = 1.3762689096846165e+307
        assert res.closed_form == pytest.approx(exact, rel=1e-15)
        assert res.quadrature == pytest.approx(exact, rel=1e-13)

    @pytest.mark.parametrize("R_s", [1e-303, 5e-324])
    def test_an_overflowing_delay_names_R_s(self, R_s):
        geom = EchoGeometry(r_es=EARTH_SUN_DISTANCE,
                            r_ms=MERCURY_SUN_DISTANCE, R_s=R_s,
                            r_o=SOLAR_R_O)
        with pytest.raises(NumericalFailure,
                           match=f"overflows at R_s = {R_s!r} with "
                                 f"endpoint distance"):
            shapiro_delay(geom)

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
        # the closed form is the integral's first order: the quadrature is
        # 1 - (3*pi/4)*b + 4*b^2 - ... times it, b = r_o/R_s
        b = SOLAR_R_O / SOLAR_RADIUS
        assert res.quadrature / res.closed_form == pytest.approx(
            1.0 - 0.75 * np.pi * b, abs=5.0 * b * b)

    def test_closed_form_expression(self):
        res = deflection_integral(3.0, 1000.0)
        assert res.closed_form == pytest.approx(-4.0 * 3.0 / 1000.0,
                                                rel=1e-15)

    def test_inverse_distance_scaling(self):
        one = deflection_integral(SOLAR_R_O, SOLAR_RADIUS).quadrature
        two = deflection_integral(SOLAR_R_O, 2 * SOLAR_RADIUS).quadrature
        # exact only to the O(r_o/R_s) correction of the grazing integral
        assert two == pytest.approx(one / 2.0, rel=1e-5)

    @pytest.mark.parametrize("R_s", [5e-324, 1e-320])
    def test_overflowing_ratio_raises(self, R_s):
        # r_o/R_s is inf: the integrand falls to 0 and -4*r_o/R_s*0 is NaN
        with pytest.raises(NumericalFailure, match="overflows"):
            deflection_integral(1480.0, R_s)


class TestFermatRay:
    def test_ray_matches_closed_form(self):
        # the linearised ray u = u0*sin(psi) + 2*r_o*u0^2*(1 - cos(psi)),
        # psi from the entry; the Fermat ray departs from it at second
        # order, ~2.3*(2*r_o*u0)^2*u0 at the Sun (measured 4.1e-11*u0)
        u0 = 1.0 / SOLAR_RADIUS
        traj, _ = fermat_ray_integrate(u0, SOLAR_R_O)
        psi = np.linspace(0.2, np.pi - 0.2, 33)
        p, q = traj.sol(psi)
        g0 = 2.0 * SOLAR_R_O * u0
        u = u0 * (g0 * p * np.cos(psi) + (1.0 + g0 * q) * np.sin(psi))
        linear = u0 * np.sin(psi) + 2.0 * SOLAR_R_O * u0**2 * (1.0
                                                              - np.cos(psi))
        assert np.max(np.abs(u - linear)) < 1e-10 * u0

    def test_deflection_value(self):
        # -4*r_o*u0 to first order; the reference fixture holds the rest
        u0 = 1.0 / SOLAR_RADIUS
        _, angle = fermat_ray_integrate(u0, SOLAR_R_O)
        b = SOLAR_R_O * u0
        assert angle / (-4.0 * b) == pytest.approx(1.0 + 0.75 * np.pi * b,
                                                   abs=7.0 * b * b)

    def test_first_integral_residual(self):
        # the Fermat invariant u'^2 + u^2 = u0^2*(1 + r_o*u)^4 along the
        # dense output (the reference tests hold its field part tighter)
        u0 = 1.0 / SOLAR_RADIUS
        traj, _ = fermat_ray_integrate(u0, SOLAR_R_O)
        psi = np.linspace(0.0, traj.sol.ts[-1], 2001)
        p, q = traj.sol(psi)
        g0 = 2.0 * SOLAR_R_O * u0
        a, b = g0 * p, 1.0 + g0 * q
        u = u0 * (a * np.cos(psi) + b * np.sin(psi))
        uprime = u0 * (b * np.cos(psi) - a * np.sin(psi))
        res = uprime**2 + u**2 - u0**2 * (1.0 + SOLAR_R_O * u) ** 4
        assert np.max(np.abs(res)) < 1e-10 * u0**2

    def test_undeflected_without_field(self):
        u0 = 1e-9
        traj, angle = fermat_ray_integrate(u0, 0.0)
        assert angle == 0.0
        assert traj.sol.ts[-1] == pytest.approx(np.pi, rel=1e-15)

    def test_capture_detection(self):
        # r*n(r) = (r + r_o)^2/r is 4*r_o at its minimum r = r_o: a ray
        # aimed inside that never turns back
        with pytest.raises(RayCaptured):
            fermat_ray_integrate(1.0, 1.0)
        with pytest.raises(RayCaptured, match="4\\*r_o\\*u0 = 1.0 >= 1"):
            fermat_ray_integrate(0.25, 1.0)
        _, angle = fermat_ray_integrate(1.0 / np.nextafter(4.0, 5.0), 1.0)
        # it winds about r = r_o (-50.2 rad exactly; the row's floor grows
        # as tol/(1 - 4*r_o/R_s) this close to capture)
        assert angle < -30.0

    def test_launch_validation(self):
        for r_o in (-1.0, float("nan"), float("inf")):
            with pytest.raises(GeometryInvalid, match="r_o must be"):
                fermat_ray_integrate(2e-9, r_o)
        assert fermat_ray_integrate(2e-9, SOLAR_R_O)[0].u0 == 2e-9

    @pytest.mark.parametrize("u0", [0.0, -1e-9, float("nan"), float("inf")])
    def test_integration_refuses_a_bad_launch(self, u0):
        with pytest.raises(GeometryInvalid, match="inverse impact parameter"):
            fermat_ray_integrate(u0, SOLAR_R_O)
