"""Metric construction, connection components, and the proper-time rate."""
import re

import numpy as np
import pytest

from flatgrav import metric
from flatgrav.errors import NumericalFailure
from flatgrav.metric import (
    CentralField,
    FourPotential,
    build_metric,
    christoffels,
    christoffels_numeric,
    gauge_shift,
    proper_time_rate,
)
from flatgrav.presets import earth_spin_parameters

RNG = np.random.default_rng(20260823)


def random_potential():
    """Constant-valued potential with bounded scalar part."""
    g0_val = RNG.uniform(-5.0, 0.9)
    gi_val = RNG.normal(0.0, 1.0, 3)
    return FourPotential(g0=lambda x: g0_val, gi=lambda x: gi_val.copy())


class TestMetricAssembly:
    def test_central_g00_value(self):
        pot = CentralField(1480.0)
        r = 7e8
        m = build_metric(pot, np.array([r, 0.0, 0.0]))
        assert m.g00 == pytest.approx((1.0 + 1480.0 / r) ** -2, rel=1e-15)

    def test_metric_times_inverse_is_identity(self):
        for _ in range(50):
            pot = random_potential()
            m = build_metric(pot, RNG.normal(0.0, 2.0, 3))
            assert np.max(np.abs(m.g @ m.ginv - np.eye(4))) < 1e-12

    def test_three_metric_euclidean(self):
        for _ in range(50):
            pot = random_potential()
            m = build_metric(pot, RNG.normal(0.0, 2.0, 3))
            assert np.max(np.abs(m.gamma - np.eye(3))) < 1e-12

    def test_tetrad_reconstructs_metric(self):
        pot = random_potential()
        m = build_metric(pot, np.array([1.0, 2.0, -0.5]))
        eta = np.diag([1.0, -1.0, -1.0, -1.0])
        rebuilt = m.tetrad.T @ eta @ m.tetrad
        assert np.allclose(rebuilt, m.g, atol=1e-14)

    def test_potential_out_of_range(self):
        pot = FourPotential(g0=lambda x: 1.0)
        with pytest.raises(NumericalFailure, match="g0=1.0 >= 1 at"):
            build_metric(pot, np.zeros(3))

    def test_center_rejected(self):
        pot = CentralField(1.0)
        with pytest.raises(NumericalFailure,
                           match="field evaluated at the center"):
            build_metric(pot, np.zeros(3))

    def test_gauge_shift_preserves_flatness(self):
        pot = CentralField(0.5)

        def phi(x):
            return 0.3 * x[0] - 0.2 * x[1] * x[2] + 0.1 * x[2] ** 2

        shifted = gauge_shift(pot, phi)
        for _ in range(20):
            x = RNG.normal(0.0, 1.0, 3) + np.array([3.0, 0.0, 0.0])
            m = build_metric(shifted, x)
            assert np.max(np.abs(m.gamma - np.eye(3))) < 1e-12
            assert np.max(np.abs(m.g @ m.ginv - np.eye(4))) < 1e-12

    def test_gauge_shift_leaves_g00(self):
        pot = CentralField(0.5)
        shifted = gauge_shift(pot, lambda x: x[0] * x[1])
        x = np.array([2.0, 1.0, -1.0])
        assert build_metric(shifted, x).g00 == pytest.approx(
            build_metric(pot, x).g00, rel=1e-15
        )


def radial_closed_forms(r_o, r):
    """Gamma^r_tt = (r_o/r^2)(1 + r_o/r)^-3 and Gamma^t_tr = r_o/(r(r + r_o))
    of the static central field g00 = (1 + r_o/r)^-2."""
    return r_o / r**2 * (1.0 + r_o / r) ** -3, r_o / (r * (r + r_o))


def per_axis_christoffels(field, at):
    """The exact connection assembled one spatial axis at a time, with
    ``np.cross`` and ``np.outer``: the oracle of christoffels' broadcast
    assembly, product for product."""
    r, k, k_3, wx = field.at(at)
    x = np.asarray(at, dtype=float)
    G0 = -field.r_o / r
    Gi = k * np.array(wx)
    dG0 = field.r_o * x / r**3                          # dG0[k]
    dGi = (k * np.cross(field.omega, np.eye(3))         # dGi[k, i]
           - k_3 * np.outer(x, wx))
    warp = 1.0 / (1.0 - G0)
    g00 = warp**2
    dg00 = 2.0 * warp**3 * dG0        # dg00[k]
    dg = np.zeros((4, 4, 4))          # dg[sigma, mu, nu]
    for j in range(3):
        s = j + 1
        dg[s, 0, 0] = dg00[j]
        row = dg00[j] * Gi + g00 * dGi[j]
        dg[s, 0, 1:] = dg[s, 1:, 0] = row
        dg[s, 1:, 1:] = (dg00[j] * np.outer(Gi, Gi)
                         + g00 * (np.outer(dGi[j], Gi)
                                  + np.outer(Gi, dGi[j])))
    return metric._christoffel(metric._inverse(G0, Gi), dg)


class TestChristoffels:
    def test_central_against_finite_difference(self):
        r_o, r = 100.0, 1.0e4
        pot = CentralField(r_o)
        x = np.array([r, 0.0, 0.0])
        num = christoffels_numeric(pot, x, h=1e-2)
        gamma_r_tt, gamma_t_tr = radial_closed_forms(r_o, r)
        # radial direction is x: Gamma^x_tt and Gamma^t_tx map onto the
        # radial components directly on the x-axis
        assert num[1, 0, 0] == pytest.approx(gamma_r_tt, rel=1e-8)
        assert num[0, 0, 1] == pytest.approx(gamma_t_tr, rel=1e-8)

    def test_vanishes_without_field(self):
        pot = CentralField(0.0)
        num = christoffels_numeric(pot, np.array([2.0, 1.0, 0.5]), h=1e-5)
        assert np.max(np.abs(num)) < 1e-10

    def test_rotating_potential_is_divergence_free_shift(self):
        pot = CentralField(0.1, 0.01, np.array([0.0, 0.0, 0.3]))
        x = np.array([1.0, 0.5, -0.2])
        m = build_metric(pot, x)
        assert np.max(np.abs(m.gamma - np.eye(3))) < 1e-13


class TestCentralField:
    def test_guards(self):
        for r_o, inertia in ((-1.0, 0.0), (1.0, -1.0)):
            with pytest.raises(NumericalFailure,
                               match="r_o and inertia must be >= 0"):
                CentralField(r_o, inertia)
        field = CentralField(1.0, 0.1, [0.0, 0.0, 1.0])
        for method in (field.at, field.g0, field.gi):
            with pytest.raises(NumericalFailure,
                               match="field evaluated at the center"):
                method(np.zeros(3))

    def test_omega_is_a_vector_or_zero(self):
        assert CentralField(1.0, 0.1, 0).omega == (0.0, 0.0, 0.0)
        assert CentralField(1.0, 0.1, np.array([0, 1, 2])).omega == \
            (0.0, 1.0, 2.0)
        for omega in (7.29e-5, [0.0, 1.0], [[0.0, 0.0, 1.0]], None):
            with pytest.raises(ValueError):
                CentralField(1.0, 0.1, omega)

    @pytest.mark.parametrize("r_o, inertia", [(np.nan, 0.0), (1.0, np.nan)])
    def test_refuses_nan_r_o_and_inertia(self, r_o, inertia):
        # a NaN r_o gave g0 = nan everywhere
        with pytest.raises(NumericalFailure,
                           match="r_o and inertia must be >= 0"):
            CentralField(r_o, inertia)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_refuses_a_non_finite_omega_entry(self, bad):
        # [0, 0, inf] gave +-inf in gi
        with pytest.raises(ValueError, match="finite"):
            CentralField(1.0, 0.1, [0.0, 0.0, bad])

    def test_static_exact_against_finite_difference(self):
        field = CentralField(0.01)
        for _ in range(5):
            x = RNG.normal(0.0, 1.0, 3) + np.array([2.0, 0.0, 0.0])
            exact = christoffels(field, x)
            fd = christoffels_numeric(field, x, h=1e-6)
            assert np.max(np.abs(exact - fd)) < 1e-7 * np.max(np.abs(exact))

    def test_earth_scale_exact_against_finite_difference(self):
        # g00 sits ~1e-9 below 1, so a central difference of g loses digits
        # to rounding as eps/h: h = 1e4 m keeps both that and the O(h^2)
        # truncation near 1e-5 of the largest component of each block
        p = earth_spin_parameters()
        field = CentralField(p["r_o"], p["inertia"], p["omega"])
        x = np.array([4.1e6, -3.3e6, 4.6e6])
        exact = christoffels(field, x)
        fd = christoffels_numeric(field, x, h=1e4)
        static = np.zeros(exact.shape, dtype=bool)
        static[1:, 0, 0] = static[0, 0, 1:] = static[0, 1:, 0] = True
        for block, rtol in ((static, 1e-4), (~static, 1e-5)):
            scale = np.max(np.abs(exact[block]))
            assert scale > 0.0
            assert np.max(np.abs(exact - fd)[block]) < rtol * scale

    def test_default_step_at_earth_scale(self):
        # h = 1e-6*r lost the static block to rounding (6.9% off here)
        p = earth_spin_parameters()
        field = CentralField(p["r_o"], p["inertia"], p["omega"])
        x = np.array([4.1e6, -3.3e6, 4.6e6])
        exact = christoffels(field, x)
        fd = christoffels_numeric(field, x)
        static = np.zeros(exact.shape, dtype=bool)
        static[1:, 0, 0] = static[0, 0, 1:] = static[0, 1:, 0] = True
        for block in (static, ~static):
            scale = np.max(np.abs(exact[block]))
            assert np.max(np.abs(exact - fd)[block]) < 1e-4 * scale

    def test_raised_with_build_metrics_inverse(self, monkeypatch):
        # christoffels reads the inverse alone: bit for bit the ginv that
        # build_metric gives at the same point, over random rotating fields
        raised = []
        contract = metric._christoffel

        def recording(ginv, dg):
            raised.append(ginv)
            return contract(ginv, dg)

        monkeypatch.setattr(metric, "_christoffel", recording)
        rng = np.random.default_rng(3)
        for _ in range(3000):
            field = CentralField(
                10.0 ** rng.uniform(-8.0, 2.0), 10.0 ** rng.uniform(-8.0, 3.0),
                rng.normal(0.0, 1.0, 3) * 10.0 ** rng.uniform(-9.0, 0.0))
            x = rng.normal(0.0, 1.0, 3) * 10.0 ** rng.uniform(-1.0, 8.0)
            christoffels(field, x)
            assert raised.pop().tobytes() == \
                build_metric(field, x).ginv.tobytes()

    @pytest.mark.parametrize("family", range(4))
    def test_equals_the_per_axis_assembly(self, family):
        # 600 seeded configs per family, 2,400 in all: mixed, w = 0, I = 0,
        # and every input at 1e+-100; nan, inf and zero entries included
        rng = np.random.default_rng(family)
        for _ in range(600):
            if family == 3:
                r_o, inertia = 10.0 ** rng.uniform(-100.0, 100.0, 2)
                omega, x = (rng.choice([-1.0, 1.0], (2, 3))
                            * 10.0 ** rng.uniform(-100.0, 100.0, (2, 3)))
            else:
                r_o = 10.0 ** rng.uniform(-8.0, 2.0)
                inertia = 10.0 ** rng.uniform(-8.0, 3.0) * (family != 2)
                omega = (rng.normal(0.0, 1.0, 3) * (rng.random(3) > 0.2)
                         * 10.0 ** rng.uniform(-9.0, 0.0) * (family != 1))
                x = rng.normal(0.0, 1.0, 3) * 10.0 ** rng.uniform(-1.0, 8.0)
            x[rng.random(3) < 0.1] = 0.0
            if not x.any():
                x[0] = 1.0
            field = CentralField(r_o, inertia, omega)
            with np.errstate(all="ignore"):
                try:
                    want = per_axis_christoffels(field, x)
                except (ArithmeticError, NumericalFailure) as exc:
                    with pytest.raises(type(exc),
                                       match=re.escape(str(exc))):
                        christoffels(field, x)
                    continue
                assert np.array_equal(christoffels(field, x), want,
                                      equal_nan=True)

    @pytest.mark.parametrize("route", [christoffels, build_metric])
    def test_an_overflowing_inverse_names_r_o_over_r(self, route):
        # (1 - g0)^2 overflows past r_o/r ~ 1.3e154: a bare OverflowError
        # before, and build_metric's gamma divided by an underflowed g00
        with pytest.raises(NumericalFailure, match=re.escape(
                "(1 - g0)**2 overflows at r_o/r = 1e+200")):
            route(CentralField(1e200), [1.0, 0.0, 0.0])

    def test_equality_is_identity_and_hashable(self):
        field = CentralField(0.5, 0.1, [0.0, 0.0, 0.2])
        assert field == field and field != CentralField(0.5, 0.1,
                                                        [0.0, 0.0, 0.2])
        assert CentralField(0.5) != CentralField(0.5)
        assert {field: 1}[field] == 1

    @pytest.mark.parametrize("r_o, r", [(100.0, 1.0e4), (2.0, 2.0)])
    def test_radial_closed_forms_on_the_x_axis(self, r_o, r):
        gamma = christoffels(CentralField(r_o), np.array([r, 0.0, 0.0]))
        gamma_r_tt, gamma_t_tr = radial_closed_forms(r_o, r)
        assert gamma[1, 0, 0] == pytest.approx(gamma_r_tt, rel=1e-14)
        assert gamma[0, 0, 1] == pytest.approx(gamma_t_tr, rel=1e-14)

    def test_gauge_shifted_field_is_flat_and_refused(self):
        field = CentralField(0.5, 0.1, [0.0, 0.3, 0.2])
        shifted = gauge_shift(field, lambda x: x[0] * x[1] - 0.2 * x[2] ** 2)
        assert type(shifted) is FourPotential
        x = np.array([2.0, 1.0, -1.0])
        m = build_metric(shifted, x)
        assert np.max(np.abs(m.gamma - np.eye(3))) < 1e-12
        assert m.g00 == build_metric(field, x).g00
        # its gi moved, but no exact gradient came along: refuse rather
        # than return the unshifted field's connection
        with pytest.raises(TypeError):
            christoffels(shifted, x)


class TestProperTimeRate:
    def test_static_fixed_point(self):
        for q in (0.1, 0.3, 0.5):
            x = proper_time_rate(0.0, q, 1.0 / (1.0 + q))
            assert x == pytest.approx(1.0 / (1.0 + q), abs=1e-13)

    def test_moving_consistent_fixed_point(self):
        q = 0.4
        ldot = 1e-3
        v = ldot * (1.0 + q)           # physical speed at the fixed point
        energy_ratio = (1.0 / (1.0 + q)) / np.sqrt(1.0 - v**2)
        x = proper_time_rate(ldot, q, energy_ratio)
        assert x == pytest.approx(1.0 / (1.0 + q), abs=1e-12)

    def test_invalid_speed(self):
        with pytest.raises(NumericalFailure,
                           match=r"ldot must satisfy 0 <= ldot < 1, got 1.0"):
            proper_time_rate(1.0, 0.1, 1.0)
        with pytest.raises(NumericalFailure,
                           match=r"ldot must satisfy 0 <= ldot < 1, got -0.1"):
            proper_time_rate(-0.1, 0.1, 1.0)

    def test_superluminal_mid_iteration(self):
        # strong field drags dtau/dt below ldot: implied v exceeds 1
        with pytest.raises(NumericalFailure, match=r"implied physical "
                           r"speed exceeds 1 \(ldot=0.9, dtau/dt="):
            proper_time_rate(0.9, 0.5, 2.0)
