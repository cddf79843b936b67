"""Metric construction, connection components, and the proper-time rate."""
import numpy as np
import pytest

from flatgrav.errors import (
    InvalidSpeed,
    NonPositiveRadius,
    PotentialOutOfRange,
)
from flatgrav.metric import (
    FourPotential,
    build_metric,
    central_potential,
    christoffels_central,
    christoffels_numeric,
    dg00_dr_central,
    g00_central,
    gauge_shift,
    proper_time_rate,
    rotating_central_potential,
)

RNG = np.random.default_rng(20260823)


def random_potential():
    """Constant-valued potential with bounded scalar part."""
    g0_val = RNG.uniform(-5.0, 0.9)
    gi_val = RNG.normal(0.0, 1.0, 3)
    return FourPotential(g0=lambda x: g0_val, gi=lambda x: gi_val.copy())


class TestMetricAssembly:
    def test_central_g00_value(self):
        pot = central_potential(1480.0)
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
        with pytest.raises(PotentialOutOfRange):
            build_metric(pot, np.zeros(3))

    def test_center_rejected(self):
        pot = central_potential(1.0)
        with pytest.raises(NonPositiveRadius):
            build_metric(pot, np.zeros(3))

    def test_gauge_shift_preserves_flatness(self):
        pot = central_potential(0.5)

        def phi(x):
            return 0.3 * x[0] - 0.2 * x[1] * x[2] + 0.1 * x[2] ** 2

        shifted = gauge_shift(pot, phi)
        for _ in range(20):
            x = RNG.normal(0.0, 1.0, 3) + np.array([3.0, 0.0, 0.0])
            m = build_metric(shifted, x)
            assert np.max(np.abs(m.gamma - np.eye(3))) < 1e-12
            assert np.max(np.abs(m.g @ m.ginv - np.eye(4))) < 1e-12

    def test_gauge_shift_leaves_g00(self):
        pot = central_potential(0.5)
        shifted = gauge_shift(pot, lambda x: x[0] * x[1])
        x = np.array([2.0, 1.0, -1.0])
        assert build_metric(shifted, x).g00 == pytest.approx(
            build_metric(pot, x).g00, rel=1e-15
        )


class TestChristoffels:
    def test_central_against_finite_difference(self):
        r_o, r = 100.0, 1.0e4
        pot = central_potential(r_o)
        x = np.array([r, 0.0, 0.0])
        num = christoffels_numeric(pot, x, h=1e-2)
        cs = christoffels_central(r_o, r)
        # radial direction is x: Gamma^x_tt and Gamma^t_tx map onto the
        # radial components directly on the x-axis
        assert num[1, 0, 0] == pytest.approx(cs.gamma_r_tt, rel=1e-8)
        assert num[0, 0, 1] == pytest.approx(cs.gamma_t_tr, rel=1e-8)

    def test_central_closed_forms(self):
        r_o = 2.0
        r = r_o  # probe radius equal to the energy radius
        cs = christoffels_central(r_o, r)
        assert cs.gamma_r_tt == pytest.approx(1.0 / (8.0 * r_o), rel=1e-14)
        assert g00_central(r_o, r) == pytest.approx(0.25, rel=1e-15)
        g00 = g00_central(r_o, r)
        assert cs.gamma_t_tr == pytest.approx(
            dg00_dr_central(r_o, r) / (2.0 * g00), rel=1e-14
        )

    def test_vanishes_without_field(self):
        pot = central_potential(0.0)
        num = christoffels_numeric(pot, np.array([2.0, 1.0, 0.5]), h=1e-5)
        assert np.max(np.abs(num)) < 1e-10

    def test_rotating_potential_is_divergence_free_shift(self):
        pot = rotating_central_potential(0.1, 0.01,
                                         np.array([0.0, 0.0, 0.3]))
        x = np.array([1.0, 0.5, -0.2])
        m = build_metric(pot, x)
        assert np.max(np.abs(m.gamma - np.eye(3))) < 1e-13


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
        with pytest.raises(InvalidSpeed):
            proper_time_rate(1.0, 0.1, 1.0)
        with pytest.raises(InvalidSpeed):
            proper_time_rate(-0.1, 0.1, 1.0)

    def test_superluminal_mid_iteration(self):
        # strong field drags dtau/dt below ldot: implied v exceeds 1
        with pytest.raises(InvalidSpeed):
            proper_time_rate(0.9, 0.5, 2.0)
