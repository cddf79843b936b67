"""Radial carrier fields: densities, potentials, integrals, electric analog."""
import numpy as np
import pytest

from flatgrav.carriers import (
    ElectricCarrier,
    RadialCarrier,
    density_identities,
    displacement_divergence_residual,
    electric_profile,
    enclosed_charge,
    enclosed_energy,
    enclosed_energy_quadrature,
    energy_density,
    field_divergence,
    field_intensity,
    log_potential,
    ricci_density,
    self_energy_quadrature,
    total_charge_quadrature,
    total_energy_quadrature,
)
from flatgrav.errors import NumericalFailure


class TestEnergyDensity:
    def test_value_at_energy_radius(self):
        c = RadialCarrier(r_o=2.0)
        expected = c.total_energy / (16.0 * np.pi * c.r_o**3)
        assert float(energy_density(c, 2.0)) == pytest.approx(expected,
                                                              rel=1e-14)

    def test_far_field_power_law(self):
        c = RadialCarrier(r_o=1.0)
        r = 1e6
        ratio = float(energy_density(c, 2 * r) / energy_density(c, r))
        assert ratio == pytest.approx(2.0**-4, rel=1e-5)

    def test_scaling_law(self):
        # eps(lambda*r; lambda*r_o) = eps(r; r_o) / lambda^4 at fixed E_M*r_o
        lam = 3.0
        c1 = RadialCarrier(r_o=1.0, newton_constant=1.0)
        c2 = RadialCarrier(r_o=lam, newton_constant=lam**2)  # same E_M*r_o
        assert float(energy_density(c2, lam * 0.7)) == pytest.approx(
            float(energy_density(c1, 0.7)) / lam**4, rel=1e-14
        )

    def test_radius_guard(self):
        with pytest.raises(NumericalFailure, match="r must be > 0"):
            energy_density(RadialCarrier(r_o=1.0), 0.0)


@pytest.mark.parametrize("r", [0.0, -1.0, np.nan])
@pytest.mark.parametrize("form", [
    energy_density, field_intensity, field_divergence, log_potential,
    ricci_density, electric_profile])
def test_closed_forms_refuse_a_radius_not_above_zero(form, r):
    carrier = (ElectricCarrier(e=1.0, r_e=1.0, r_o=1.0)
               if form is electric_profile else RadialCarrier(r_o=1.0))
    with pytest.raises(NumericalFailure, match="^r must be > 0$"):
        form(carrier, r)


class TestFieldAndPotential:
    def test_newtonian_far_field(self):
        c = RadialCarrier(r_o=1.0)
        r = 1e8
        assert float(field_intensity(c, r)) == pytest.approx(-c.r_o / r**2,
                                                             rel=1e-7)

    def test_soft_center(self):
        c = RadialCarrier(r_o=1.0)
        r = 1e-9
        assert float(field_intensity(c, r)) == pytest.approx(-1.0 / r,
                                                             rel=1e-8)

    def test_gradient_relation(self):
        # w_r = -dW/dr by finite differences
        c = RadialCarrier(r_o=1.0)
        r, h = 2.5, 1e-6
        fd = -(log_potential(c, r + h) - log_potential(c, r - h)) / (2 * h)
        assert float(fd) == pytest.approx(float(field_intensity(c, r)),
                                          rel=1e-8)


class TestDensityIdentities:
    def test_active_equals_passive_everywhere(self):
        c = RadialCarrier(r_o=1.0)
        four_pi_g = 4.0 * np.pi * c.newton_constant
        for r in np.geomspace(1e-3, 1e3, 1000).tolist():
            eps_a = -field_divergence(c, r) / four_pi_g
            eps_p = field_intensity(c, r) ** 2 / four_pi_g
            assert abs(eps_a - eps_p) / energy_density(c, r) < 1e-12

    def test_richardson_halving(self):
        res = density_identities(RadialCarrier(r_o=1.0), 3.0, 1e-2)
        ratio = res.fd_divergence_error / res.fd_divergence_error_half
        assert 3.5 < ratio < 4.5

    def test_curvature_density_is_twice_each(self):
        c = RadialCarrier(r_o=1.0)
        r = 1.7
        res = density_identities(c, r, 1e-3)
        assert res.equality_residual < 1e-12 * float(energy_density(c, r))
        four_pi_g = 4.0 * np.pi * c.newton_constant
        eps_p = float(field_intensity(c, r)) ** 2 / four_pi_g
        assert float(ricci_density(c, r)) == pytest.approx(2.0 * eps_p,
                                                           rel=1e-14)

    def test_step_guard(self):
        with pytest.raises(NumericalFailure,
                           match="step must satisfy 0 < h < r, got 2.0"):
            density_identities(RadialCarrier(r_o=1.0), 1.0, 2.0)


class TestFarField:
    """At r = 1e200 the closed forms only underflow to 0; none may overflow,
    as r**2 does above ~1e154."""

    R = 1e200

    @pytest.fixture(autouse=True)
    def raise_on_float_errors(self):
        # underflow is the true result here, so it alone passes
        with np.errstate(all="raise", under="ignore"):
            yield

    def test_field_divergence(self):
        assert field_divergence(RadialCarrier(r_o=1.0), self.R) == 0.0

    def test_ricci_density(self):
        assert ricci_density(RadialCarrier(r_o=1.0), self.R) == 0.0

    def test_density_identities(self):
        res = density_identities(RadialCarrier(r_o=1.0), self.R, 1e-2 * self.R)
        assert tuple(res) == (0.0,) * 5

    def test_displacement_divergence_residual(self):
        c = ElectricCarrier(e=1.0, r_e=1.0, r_o=1.0)
        assert displacement_divergence_residual(c, self.R) == 0.0


# (r_o, r): deep inside r_o, and (1e-300, 1e-200) far outside a tiny r_o,
# where the density ~ 8e198 is large although r_o^2/(r + r_o) underflows
DEEP_INSIDE = [(1.0, 1e-100), (1e100, 1e-100), (1e200, 1e-100),
               (1e150, 1e-150), (1e100, 1e-120), (1e-300, 1e-200)]


class TestDeepInside:
    """Deep inside the energy radius div(w) ~ -1/r^2, the density ~ 1/r^2
    and the field ~ 1/r are finite; none may overflow on the way, as a
    squared r_o (even in units of r) would above r_o/r ~ 1e154, or
    E_M*r_o and e*r_o would where r_o is large; nor may the density
    underflow on the way, as E_M*r_o/(r + r_o) would where r_o is tiny."""

    @pytest.fixture(autouse=True)
    def raise_on_float_errors(self):
        with np.errstate(all="raise"):
            yield

    @pytest.mark.parametrize("r_o, r", DEEP_INSIDE)
    def test_density_and_field(self, r_o, r):
        # eps = inner^2/(4*pi*r^2), E_M = r_o, where inner = r_o/(r + r_o)
        # rounds to 1 deep inside; the electric carrier with e = r_e = r_o
        # has rho = eps, E = -w
        inner = r_o / (r + r_o)
        eps = inner * inner / (4.0 * np.pi) / r / r
        assert float(energy_density(RadialCarrier(r_o=r_o), r)) == \
            pytest.approx(eps, rel=1e-15)
        rho, e_field, _ = electric_profile(
            ElectricCarrier(e=r_o, r_e=r_o, r_o=r_o), r)
        assert float(rho) == pytest.approx(eps, rel=1e-15)
        assert float(e_field) == pytest.approx(inner / r, rel=1e-15)

    @pytest.mark.parametrize("r_o, r", DEEP_INSIDE)
    def test_divergence_and_curvature(self, r_o, r):
        c = RadialCarrier(r_o=r_o)
        inner = (r_o / (r + r_o)) ** 2     # 1 to the last bits inside
        div = float(field_divergence(c, r))
        assert div == pytest.approx(-inner / r / r, rel=1e-15)
        assert float(ricci_density(c, r)) == pytest.approx(
            -div / (2.0 * np.pi), rel=1e-15)


class TestEnclosedEnergy:
    def test_half_at_energy_radius(self):
        c = RadialCarrier(r_o=1.0)
        assert enclosed_energy(c, c.r_o) == pytest.approx(
            c.total_energy / 2.0, abs=1e-12
        )

    def test_fractions(self):
        c = RadialCarrier(r_o=1.0)
        for k, frac in ((1, 0.5), (2, 2 / 3), (9, 0.9)):
            assert enclosed_energy(c, k * c.r_o) == pytest.approx(
                frac * c.total_energy, rel=1e-14
            )

    def test_monotonic(self):
        c = RadialCarrier(r_o=1.0)
        radii = np.geomspace(1e-3, 1e3, 200)
        vals = [enclosed_energy(c, r) for r in radii]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_quadrature_agreement(self):
        c = RadialCarrier(r_o=1.0)
        for R in (0.3, 1.0, 50.0):
            assert enclosed_energy_quadrature(c, R) == pytest.approx(
                enclosed_energy(c, R), rel=1e-10
            )

    def test_total_with_tail(self):
        c = RadialCarrier(r_o=2.5, newton_constant=0.8)
        assert total_energy_quadrature(c) == pytest.approx(c.total_energy,
                                                           rel=1e-8)

    def test_zero_radius(self):
        c = RadialCarrier(r_o=1.0)
        assert enclosed_energy(c, 0.0) == 0.0
        assert enclosed_energy_quadrature(c, 0.0) == 0.0


class TestElectricAnalog:
    def test_total_charge(self):
        c = ElectricCarrier(e=1.0, r_e=1.0, r_o=1.0)
        assert total_charge_quadrature(c) == pytest.approx(c.e, rel=1e-8)

    def test_half_charge_radius(self):
        c = ElectricCarrier(e=-2.0, r_e=1.0, r_o=1.0)
        assert enclosed_charge(c, c.r_o) == pytest.approx(c.e / 2.0,
                                                          rel=1e-14)

    def test_self_energy(self):
        c = ElectricCarrier(e=1.5, r_e=0.5, r_o=0.5)
        assert self_energy_quadrature(c) == pytest.approx(c.e**2 / c.r_e,
                                                          rel=1e-8)

    def test_displacement_divergence(self):
        c = ElectricCarrier(e=1.0, r_e=1.0, r_o=1.0)
        for r in (0.1, 1.0, 10.0):
            rho, _, _ = electric_profile(c, r)
            assert displacement_divergence_residual(c, r) < 1e-12 * \
                4.0 * np.pi * float(rho)

    def test_field_from_potential(self):
        c = ElectricCarrier(e=1.0, r_e=2.0, r_o=1.0)
        r, h = 1.3, 1e-6
        _, e_field, _ = electric_profile(c, r)
        _, _, wp = electric_profile(c, r + h)
        _, _, wm = electric_profile(c, r - h)
        assert -(wp - wm) / (2 * h) == pytest.approx(float(e_field),
                                                     rel=1e-8)

    def test_field_deep_inside_a_small_carrier(self):
        # r_e*r*(r + r_o) ~ 5e-315 is subnormal: a field formed through it
        # loses digits
        c = ElectricCarrier(e=1.0)
        r = 1e-200
        with np.errstate(over="ignore"):    # rho ~ 1e455 is not finite
            _, e_field, _ = electric_profile(c, r)
        assert float(e_field) == pytest.approx(
            (c.e / c.r_e) * (c.r_o / (r + c.r_o)) / r, rel=1e-15)

    def test_preset_radius(self):
        assert ElectricCarrier(e=1.0).r_e == pytest.approx(7e-58)

