"""Spin transport, exact connections, and precession rates."""
import re

import numpy as np
import pytest
from scipy.integrate import quad

from flatgrav import ode, spin
from flatgrav.errors import NumericalFailure
from flatgrav.metric import christoffels_numeric
from flatgrav.presets import earth_spin_parameters
from flatgrav.spin import (
    RotatingFieldSpec,
    circular_polar_orbit,
    de_sitter_rate,
    frame_dragging,
    frame_dragging_rate,
    geodetic,
    geodetic_rate,
    rotating_connections,
    spin_norm_invariant,
    transport_rhs,
    transport_spin,
)

RNG = np.random.default_rng(7)


def generic_spec():
    return RotatingFieldSpec(r_o=0.01, inertia=2e-4,
                             omega=np.array([0.1, -0.05, 0.2]))


class TestExactConnections:
    def test_against_finite_difference_oracle(self):
        spec = generic_spec()
        for _ in range(5):
            x = RNG.normal(0.0, 1.0, 3) + np.array([2.0, 0.0, 0.0])
            exact = rotating_connections(spec, x)
            fd = christoffels_numeric(spec, x, h=1e-6)
            scale = max(np.max(np.abs(exact)), 1e-6)
            assert np.max(np.abs(exact - fd)) < 1e-7 * scale

    def test_gradients_match_finite_difference(self):
        # the kernel's grad(G0) = r_o x/r^3 and
        # dG[k, i] = k (w x e_k)_i - (3k/r^2) x_k (w x x)_i
        spec = generic_spec()
        x = np.array([1.3, -0.7, 0.4])
        r, k, k_3, wx = spec.at(x)
        exact_grad0 = spec.r_o * x / r**3
        exact_jac = (k * np.cross(spec.omega, np.eye(3))
                     - k_3 * np.outer(x, wx))
        h = 1e-7
        jac = np.empty((3, 3))
        grad0 = np.empty(3)
        for j in range(3):
            dx = np.zeros(3)
            dx[j] = h
            jac[j] = (spec.gi(x + dx) - spec.gi(x - dx)) / (2 * h)
            grad0[j] = (spec.g0(x + dx) - spec.g0(x - dx)) / (2 * h)
        assert np.max(np.abs(jac - exact_jac)) < 1e-10
        assert np.max(np.abs(grad0 - exact_grad0)) < 1e-10
        assert np.array_equal(spec.gi(x), k * np.array(wx))
        assert spec.g0(x) == -spec.r_o / r

    def test_static_limit_reduces_to_central(self):
        spec = RotatingFieldSpec(r_o=0.01, inertia=0.0,
                                 omega=np.zeros(3))
        x = np.array([3.0, 0.0, 0.0])
        gamma = rotating_connections(spec, x)
        # no time-space mixing without rotation
        assert np.max(np.abs(gamma[1:, 1:, 0])) < 1e-16


class TestDragAndGeodeticRates:
    def test_polar_rate(self):
        r, inertia, w = 1.0, 1e-2, 1e-7
        spec = RotatingFieldSpec(r_o=1e-8, inertia=inertia,
                                 omega=np.array([0.0, 0.0, w]))
        rate = frame_dragging_rate(spec, np.array([0.0, 0.0, r]))
        assert rate[2] == pytest.approx(2.0 * inertia * w / r**3, rel=1e-14)
        assert abs(rate[0]) == 0.0 and abs(rate[1]) == 0.0

    def test_equatorial_rate(self):
        r, inertia, w = 2.0, 1e-2, 1e-7
        spec = RotatingFieldSpec(r_o=1e-8, inertia=inertia,
                                 omega=np.array([0.0, 0.0, w]))
        rate = frame_dragging_rate(spec, np.array([r, 0.0, 0.0]))
        assert rate[2] == pytest.approx(-inertia * w / r**3, rel=1e-14)

    def test_geodetic_is_third_of_de_sitter(self):
        # point-spin rate v/2 x grad vs the 3/2 textbook factor
        spec = RotatingFieldSpec(r_o=1e-8, inertia=0.0, omega=0)
        x = (1.0, 0.0, 0.0)
        v = (0.0, 1e-4, 0.0)
        ours = geodetic(spec, x, v)
        textbook = de_sitter_rate(spec.r_o, x, v)
        assert type(textbook) is tuple
        assert all(type(c) is float for c in textbook)
        assert np.allclose(3.0 * np.array(ours), textbook, rtol=1e-12)

    def test_de_sitter_is_the_cross_product_formula(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            x = rng.normal(0.0, 1.0, 3) * 10.0 ** rng.uniform(-3.0, 6.0)
            v = rng.normal(0.0, 1e-4, 3)
            r_o = 10.0 ** rng.uniform(-9.0, -1.0)
            expected = 1.5 * r_o / np.linalg.norm(x)**3 * np.cross(x, v)
            got = de_sitter_rate(r_o, tuple(x.tolist()), tuple(v.tolist()))
            assert np.allclose(got, expected, rtol=1e-14, atol=0.0)

    def test_de_sitter_scales_a_radius_beyond_the_float_range(self):
        # x.x overflows to inf here, and r**3 raises above ~5.6e102
        got = de_sitter_rate(1e300, (1e200, 0.0, 0.0), (0.0, 1.0, 0.0))
        assert got[:2] == (0.0, 0.0)
        assert got[2] == pytest.approx(1.5e-100, rel=1e-15, abs=0.0)
        # r^3 is normal here, but 1.5*r_o/r^3 overflows
        got = de_sitter_rate(1e10, (1e-102, 0.0, 0.0), (0.0, 1.0, 0.0))
        assert got[2] == pytest.approx(1.5e214, rel=1e-15, abs=0.0)
        # the rate is r_o/r^2 times a direction: scaling r_o by k^2 and x by
        # k keeps it, and r^3 overflows at k = 2^400, is subnormal at
        # k = 2^-360 and underflows to 0 at k = 2^-400
        rng = np.random.default_rng(8)
        for _ in range(20):
            x = tuple((rng.normal(0.0, 1.0, 3) * 1e3).tolist())
            v = tuple(rng.normal(0.0, 1e-4, 3).tolist())
            r_o = 10.0 ** rng.uniform(-9.0, -1.0)
            want = de_sitter_rate(r_o, x, v)
            for k in (2.0**400, 2.0**-360, 2.0**-400):
                got = de_sitter_rate(r_o * k * k, tuple(c * k for c in x), v)
                assert np.allclose(got, want, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("r_o, inertia, omega, radius, exact", [
        # gyro printed 0.0 for both: in the first grad(G0) is subnormal
        # and lost the rate's digits before the product with v/2 - G; in
        # the second the rate is exact but its squares underflow
        (1e-300, 71997587754.12419, (0.0, 0.0, 1e100), 7.02e6,
         5.9292463237128834e-217),
        (1.6798580437847986e-67, 3.9348961475096244e+86,
         (1.5532166443607105e-206, 0.0, 8.703073831324973e-141),
         7.331598625769354e+56, 2.365277913140378e-243),
        # r_o*x_0 underflows to 0 though x_0 is not 0: gyro printed 0.0
        (1e-300, 0.0, (0.0, 0.0, 2.4322881921280855e-13), 1e-100,
         5.0000000000000000e-201),
        # grad(G0) overflows: the rate was nan
        (8.214811644313858e+254, 0.0,
         (-1.5018961327648297e-214, 1.2241686626873702e-167, 0.0),
         4.106095085917503e+99, 1.0896672888570354e+133),
        # w_2*x_0 underflows to -0.0 where k*w_2*x_0 is ~1e33 times v/2:
        # gyro printed 3.30310045322767e-258 rad/s
        (1.7889261424574756e-266, 8.229826771855882e+97,
         (1.2270897191570304e+60, 0.0, -7.385362409664923e-278),
         6.520897698131097e-54, 1.2026946087430301546e-232),
        # r_o/radius^3 is subnormal: nu, so the speed, lost digits
        (7.391679491995395e-53, 9.331431581215678e-273,
         (-1.4645312756457603e+152, -5.912103544167774e-97,
          -2.2979967708796533e-259),
         6.435800703607409e+89, 9.5626492841568259206e-304),
        # G ~ 1.5e308: a = v/2 - G times grad(G0) in units of x overflows
        # unless a is split too
        (1e-300, 0.75e8, (0.0, -1e300, 0.0), 1.0, 150000000.00000001163),
        # |w| ~ 1.5e308: 2I/r^3 in units of x times w x (x/2^e) overflows
        # unless each component of w x (x/2^e) is split too
        (1e-300, 0.5, (0.0, -1.5e308, 0.0), 1.0, 150000000.00000000541),
    ])
    def test_geodetic_keeps_its_digits_where_grad_G0_leaves_the_range(
            self, r_o, inertia, omega, radius, exact):
        # exact: |rate| at the orbit's start, to 80 digits with mpmath
        spec = RotatingFieldSpec(r_o=r_o, inertia=inertia, omega=omega)
        position, velocity, _, _ = circular_polar_orbit(radius, r_o)
        rate = geodetic(spec, position(0.0), velocity(0.0))
        assert np.hypot.reduce(rate) == pytest.approx(exact, rel=1e-15,
                                                      abs=0.0)

    @pytest.mark.parametrize("rate, r_o, inertia, omega, radius, exact", [
        # I/r^3 = 1e-330 underflows to 0 where the rate is normal: gyro
        # printed frame_dragging_equatorial -0.0
        (lambda spec, x, v: frame_dragging(spec, x), 1.0, 1e-300,
         (0.0, 0.0, 1e100), 1e10, 1.000000000000000041e-230),
        # 1.5*r_o/r^3 and r_o/radius^3 are subnormal: the rate was 0.3% off
        (lambda spec, x, v: de_sitter_rate(spec.r_o, x, v),
         7.391679491995395e-53, 9.331431581215678e-273,
         (-1.4645312756457603e+152, -5.912103544167774e-97,
          -2.2979967708796533e-259),
         6.435800703607409e+89, 2.8687947852470477762e-303),
    ], ids=["frame_dragging", "de_sitter_rate"])
    def test_rates_keep_their_digits_where_a_factor_leaves_the_range(
            self, rate, r_o, inertia, omega, radius, exact):
        # exact: |rate| at the orbit's start, to 80 digits with mpmath
        spec = RotatingFieldSpec(r_o=r_o, inertia=inertia, omega=omega)
        position, velocity, _, _ = circular_polar_orbit(radius, r_o)
        got = rate(spec, position(0.0), velocity(0.0))
        assert np.hypot.reduce(got) == pytest.approx(exact, rel=1e-15,
                                                     abs=0.0)

    def test_arrays_are_the_float_kernels(self):
        # the array wrappers add as vectors; their entries are the kernels'
        rng = np.random.default_rng(6)
        for _ in range(20):
            spec, x, v, _ = random_spec_point(rng)
            x, v = tuple(x.tolist()), tuple(v.tolist())
            for kernel, wrapper, args in (
                    (frame_dragging, frame_dragging_rate, (spec, x)),
                    (geodetic, geodetic_rate, (spec, x, v))):
                rate = kernel(*args)
                assert type(rate) is tuple and len(rate) == 3
                assert all(type(c) is float for c in rate)
                array = wrapper(*args)
                assert isinstance(array, np.ndarray)
                assert array.tolist() == list(rate)

    def test_center_guard(self):
        spec = generic_spec()
        field = "^field evaluated at the center$"
        with pytest.raises(NumericalFailure, match=field):
            frame_dragging(spec, (0.0, 0.0, 0.0))
        with pytest.raises(NumericalFailure, match=field):
            frame_dragging_rate(spec, np.zeros(3))
        with pytest.raises(NumericalFailure, match=field):
            geodetic(spec, (0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
        with pytest.raises(NumericalFailure,
                           match="^rate evaluated at the center$"):
            de_sitter_rate(1.0, (0.0, 0.0, 0.0), (1.0, 1.0, 1.0))

    @pytest.mark.parametrize("r, how", [(1e-150, "underflows to 0"),
                                        (1e103, "overflows")])
    def test_a_cube_beyond_the_float_range_names_r(self, r, how):
        # r**3 is 0 below ~1.1e-108 and raises above ~5.6e102: the field's
        # failure names r, not a bare ZeroDivisionError or OverflowError
        spec = generic_spec()
        message = re.escape(f"r**3 {how} at r = {r!r}")
        for x in ((0.0, 0.0, r), (r, 0.0, 0.0)):
            with pytest.raises(NumericalFailure, match=message):
                frame_dragging(spec, x)
            with pytest.raises(NumericalFailure, match=message):
                geodetic(spec, x, (0.0, 1e-5, 0.0))


class TestTransport:
    def test_central_field_transport_identity(self):
        # without rotation: dS_i/dt = -S_j v^j d_i ln(1/sqrt(g00))
        spec = RotatingFieldSpec(r_o=1e-5, inertia=0.0, omega=np.zeros(3))
        x = np.array([2.0, 1.0, -0.5])
        v = np.array([1e-4, -2e-4, 5e-5])
        s = np.array([0.3, -0.7, 1.1])
        rhs = transport_rhs(spec, x, v, s)
        r = np.linalg.norm(x)
        # d_i ln sqrt(g00) = -r_o x_i / (r^3 (1 + r_o/r))
        dlog = -spec.r_o * x / (r**3 * (1.0 + spec.r_o / r))
        expected = np.dot(v, s) * dlog
        assert np.allclose(rhs, expected, atol=1e-16)

    def test_norm_invariant_conserved(self):
        r, r_o = 1.0, 1e-8
        spec = RotatingFieldSpec(r_o=r_o, inertia=1e-2,
                                 omega=np.array([0.0, 0.0, 1e-7]))
        pos, vel, _, period = circular_polar_orbit(r, r_o)
        s0 = np.array([0.6, -0.2, 0.5])
        sol = transport_spin(spec, pos, vel, s0, (0.0, period))
        n0 = spin_norm_invariant(spec, pos(0.0), vel(0.0), s0)
        nT = spin_norm_invariant(spec, pos(period), vel(period), sol(period))
        assert nT == pytest.approx(n0, rel=1e-12)

    def test_norm_invariant_names_an_overflowing_r_o_over_r(self):
        # (1 - g0)^2 overflows past r_o/r ~ 1.3e154: a bare OverflowError
        with pytest.raises(NumericalFailure, match=re.escape(
                "(1 - g0)**2 overflows at r_o/r = 1e+200")):
            spin_norm_invariant(RotatingFieldSpec(1e200), (1.0, 0.0, 0.0),
                                (0.0, 1e-3, 0.0), (1.0, 0.0, 0.0))

    @pytest.mark.parametrize("earth", [False, True])
    def test_integrates_exactly_transport_rhs(self, earth, monkeypatch):
        # one kernel: the solver sees transport_rhs, read at call time
        if earth:
            p = earth_spin_parameters()
            spec = RotatingFieldSpec(r_o=p["r_o"], inertia=p["inertia"],
                                     omega=p["omega"])
            pos, vel, _, period = circular_polar_orbit(7.02e6, p["r_o"])
        else:
            spec = RotatingFieldSpec(r_o=1e-6, inertia=3e-3,
                                     omega=np.array([0.0, 0.0, 1e-7]))
            pos, vel, _, period = circular_polar_orbit(1.0, 1e-6)
        s0, tol = np.array([0.6, -0.2, 0.5]), 1e-12
        calls = []

        def counted(*args):
            calls.append(args)
            return transport_rhs(*args)

        monkeypatch.setattr(spin, "transport_rhs", counted)
        dense = transport_spin(spec, pos, vel, s0, (0.0, period), tol=tol)
        assert len(calls) > 1
        ref = ode.dop853(lambda t, s: transport_rhs(spec, pos(t), vel(t), s),
                         (0.0, period), s0, rtol=tol,
                         atol=tol * np.linalg.norm(s0)).dense
        for name in ("ts", "F", "y_old"):
            a, b = np.asarray(getattr(dense, name)), \
                np.asarray(getattr(ref, name))
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name

    def test_linearized_matches_exact_short_time(self):
        r, r_o = 1.0, 1e-8
        spec = RotatingFieldSpec(r_o=r_o, inertia=1e-2,
                                 omega=np.array([0.0, 0.0, 1e-7]))
        pos, vel, _, period = circular_polar_orbit(r, r_o)
        s0 = np.array([1.0, 0.0, 0.0])
        t_short = period / 50.0
        sol = transport_spin(spec, pos, vel, s0, (0.0, t_short))
        exact_delta = sol(t_short) - s0

        def linearized(t):
            # leading-order transport dS/dt = (Omega_fd + Omega_geo) x S
            rate = (frame_dragging_rate(spec, pos(t))
                    + geodetic_rate(spec, pos(t), vel(t)))
            return np.cross(rate, s0)

        lin_delta = np.array([
            quad(lambda t: linearized(t)[i], 0.0, t_short, epsrel=1e-10)[0]
            for i in range(3)
        ])
        assert np.linalg.norm(exact_delta - lin_delta) < 0.02 * \
            np.linalg.norm(lin_delta)


def connection_contraction(spec, x, v, s):
    """The einsum route: Gamma^lam_{i nu} S_lam xdot^nu from the full array."""
    gamma = rotating_connections(spec, x)
    s4 = np.concatenate(([-float(np.dot(v, s))], s))
    xdot = np.concatenate(([1.0], v))
    return np.einsum("liv,l,v->i", gamma[:, 1:, :], s4, xdot)


def random_spec_point(rng):
    spec = RotatingFieldSpec(
        r_o=10.0 ** rng.uniform(-8.0, -1.0),
        inertia=10.0 ** rng.uniform(-6.0, -1.0),
        omega=rng.normal(0.0, 1.0, 3) * 10.0 ** rng.uniform(-7.0, -1.0))
    x = rng.normal(0.0, 1.0, 3)
    x *= rng.uniform(1.0, 5.0) / np.linalg.norm(x)
    v = rng.normal(0.0, 1.0, 3) * 10.0 ** rng.uniform(-5.0, -0.5)
    return spec, x, v, rng.normal(0.0, 1.0, 3)


class TestDirectContraction:
    """transport_rhs against the contraction of rotating_connections."""

    @staticmethod
    def assert_agrees(spec, x, v, s):
        direct = transport_rhs(spec, x, v, s)
        oracle = connection_contraction(spec, x, v, s)
        assert np.max(np.abs(direct - oracle)) <= \
            1e-13 * np.max(np.abs(oracle))

    def test_random_specs(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            self.assert_agrees(*random_spec_point(rng))

    def test_zero_rotation(self):
        spec = RotatingFieldSpec(r_o=1e-3, inertia=0.0, omega=np.zeros(3))
        rng = np.random.default_rng(12)
        for _ in range(20):
            _, x, v, s = random_spec_point(rng)
            self.assert_agrees(spec, x, v, s)

    def test_earth_preset_scales(self):
        p = earth_spin_parameters()
        spec = RotatingFieldSpec(r_o=p["r_o"], inertia=p["inertia"],
                                 omega=p["omega"])
        pos, vel, _, period = circular_polar_orbit(7.02e6, p["r_o"])
        for t in np.linspace(0.0, period, 7):
            self.assert_agrees(spec, pos(t), vel(t),
                               np.array([0.6, -0.2, 0.5]))

    def test_center_guard(self):
        with pytest.raises(NumericalFailure,
                           match="field evaluated at the center"):
            transport_rhs(generic_spec(), np.zeros(3), np.ones(3) * 1e-3,
                          np.ones(3))

    def test_initial_cross_check_catches_disagreement(self, monkeypatch):
        exact = spin.rotating_connections

        def skewed(spec, x):
            gamma = exact(spec, x).copy()
            gamma[1, 2, 0] *= 1.0 + 1e-9
            return gamma

        monkeypatch.setattr(spin, "rotating_connections", skewed)
        r_o = 1e-8
        spec = RotatingFieldSpec(r_o=r_o, inertia=1e-2,
                                 omega=np.array([0.0, 0.0, 1e-7]))
        pos, vel, _, period = circular_polar_orbit(1.0, r_o)
        with pytest.raises(NumericalFailure, match="direct transport rate "
                           "differs from the connection contraction by"):
            transport_spin(spec, pos, vel, np.array([1.0, 0.0, 0.0]),
                           (0.0, period))

    def test_empty_span_rejected(self):
        spec = RotatingFieldSpec(r_o=1e-8, inertia=1e-2,
                                 omega=np.array([0.0, 0.0, 1e-7]))
        pos, vel, _, _ = circular_polar_orbit(1.0, 1e-8)
        for t_span in ((2.0, 2.0), (2.0, 1.0)):
            with pytest.raises(NumericalFailure, match=re.escape(
                    f"spin transport span {t_span} does not increase")):
                transport_spin(spec, pos, vel, np.array([1.0, 0.0, 0.0]),
                               t_span)


class TestPolarOrbit:
    def test_kinematics(self):
        pos, vel, nu, period = circular_polar_orbit(2.0, 8e-8)
        assert nu == pytest.approx(np.sqrt(8e-8 / 8.0), rel=1e-15)
        assert period == pytest.approx(2 * np.pi / nu, rel=1e-15)
        t = 123.4
        h = 1e-3
        fd = (np.array(pos(t + h)) - np.array(pos(t - h))) / (2 * h)
        assert np.allclose(fd, vel(t), atol=1e-9)
        assert all(type(c) is float for c in pos(t) + vel(t))

    def test_radius_guard(self):
        with pytest.raises(NumericalFailure,
                           match="radius must be > 0, got 0.0"):
            circular_polar_orbit(0.0, 1.0)

    @pytest.mark.parametrize("radius, r_o", [(np.nan, 1.0), (1.0, 0.0),
                                             (1.0, -1.0), (1.0, np.nan)])
    def test_refuses_nan_radius_and_r_o_not_above_zero(self, radius, r_o):
        # a NaN radius gave a nan rate and period, and r_o <= 0 a numpy
        # RuntimeWarning
        message = (f"r_o must be > 0 for an orbit, got {r_o}"
                   if radius > 0.0 else f"radius must be > 0, got {radius}")
        with pytest.raises(NumericalFailure, match=message):
            circular_polar_orbit(radius, r_o)

    @pytest.mark.parametrize("radius, r_o", [(1e9, 1e-300), (7.02e6, 5e-324),
                                             (1e100, 1e-30)])
    def test_underflowing_rate_is_a_numerical_failure(self, radius, r_o):
        # r_o/radius^3 = 0 gave nu = 0, and the period 2 pi/nu a bare
        # "float division by zero"
        with pytest.raises(NumericalFailure) as info:
            circular_polar_orbit(radius, r_o)
        assert str(info.value) == (
            f"orbital rate underflows: r_o/radius^3 = 0 for r_o {r_o!r} "
            f"at radius {radius!r}")

    def test_subnormal_rate_squared_still_orbits(self):
        # r_o/radius^3 is subnormal but not 0: nu keeps its digits.  The
        # float r_o = 1e-310 is itself subnormal, 3e-15 from 1e-310;
        # r_o = 1e-300 is normal, and the quotient held only ~12 digits.
        # exact: sqrt(r_o/radius^3) of the float inputs, 80-digit mpmath
        for radius, r_o, exact in ((1.0, 1e-310, 9.9999999999999847247e-156),
                                   (1e4, 1e-300, 1.0000000000000000125e-156)):
            _, _, nu, period = circular_polar_orbit(radius, r_o)
            assert nu == pytest.approx(exact, rel=1e-15, abs=0.0)
            assert period == pytest.approx(2 * np.pi / nu, rel=1e-15)
