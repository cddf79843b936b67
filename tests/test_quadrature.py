"""Gauss-Legendre helper, the quadrature routes built on it, the
scipy-free import of the closed-form and quadrature paths, and the modules
each subcommand loads."""
import importlib
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad

from flatgrav import quadrature
from flatgrav.baseline import schwarzschild_precession_quadrature
from flatgrav.carriers import (
    ElectricCarrier,
    RadialCarrier,
    enclosed_energy,
    enclosed_energy_quadrature,
    total_charge_quadrature,
    total_energy_quadrature,
)
from flatgrav.cli import main
from flatgrav.errors import NumericalFailure
from flatgrav.orbits import precession_quadrature
from flatgrav.photons import EchoGeometry, deflection_integral, shapiro_delay
from flatgrav.presets import solar_echo_geometry
from flatgrav.quadrature import gauss_legendre, legendre_antiderivative

SRC = Path(__file__).resolve().parents[1] / "src"


class TestGaussLegendre:
    def test_polynomial_exact(self):
        val = gauss_legendre(lambda x: 5 * x**4 - 3 * x**2, -1.0, 2.0)
        assert val == pytest.approx(33.0 - 9.0, rel=1e-14)

    def test_analytic_integrand(self):
        val = gauss_legendre(np.exp, 0.0, 3.0)
        assert val == pytest.approx(np.expm1(3.0), rel=1e-14)

    def test_empty_interval(self):
        assert gauss_legendre(np.cos, 1.0, 1.0) == 0.0

    def test_no_convergence_raises(self, monkeypatch):
        # |x - 0.3|^-1/2 is integrable but not analytic: the rules keep
        # disagreeing, so the helper must refuse rather than return a value
        monkeypatch.setattr(quadrature, "MAX_NODES", 128)
        with pytest.raises(NumericalFailure, match=r"Gauss-Legendre rules "
                           r"disagree at 128 nodes on \[0.0, 1.0\]"):
            gauss_legendre(lambda x: np.abs(x - 0.3) ** -0.5, 0.0, 1.0)

    def test_no_convergence_exits_3(self, capsys):
        # r_min = 7.5 r_o with r_max = 2 r_min puts the third root of the
        # turning cubic on the orbit; just outside it the integrand is
        # nearly singular, where adaptive quad warned and returned a value
        assert main(["compare", "--strong-rmin", "7.5000001"]) == 3
        assert "1024 nodes" in capsys.readouterr().err

    def test_non_finite_raises(self):
        with pytest.raises(NumericalFailure,
                           match=r"integrand is not finite on \[0.0, 1.0\]"):
            gauss_legendre(lambda x: np.full_like(x, np.nan), 0.0, 1.0)

    def test_float_route_needs_no_numpy(self):
        val = gauss_legendre(math.exp, 0.0, 3.0)
        assert type(val) is float
        assert val == pytest.approx(math.expm1(3.0), rel=1e-15)
        assert gauss_legendre(lambda x: x * x, -1, 2) == \
            pytest.approx(3.0, rel=1e-15)

    @pytest.mark.parametrize("a, b", [(0.0, math.inf), (-math.inf, 0.0),
                                      (0.0, math.nan),
                                      (-1.7e308, 1.7e308)])
    def test_float_route_refuses_a_non_finite_interval(self, a, b):
        # math.cos(inf) would raise ValueError at the nodes
        with pytest.raises(NumericalFailure, match=re.escape(
                f"the interval [{a!r}, {b!r}] is not finite")):
            gauss_legendre(math.cos, a, b)

    def test_float_route_refuses_opposite_infinities(self):
        # fsum raises ValueError on +inf and -inf terms
        with pytest.raises(NumericalFailure,
                           match=r"integrand is not finite on \[-1.0, 1.0\]"):
            gauss_legendre(lambda x: math.copysign(math.inf, x), -1.0, 1.0)

    def test_nodes_are_shared_and_read_only(self):
        x, w = quadrature._rule(32)
        assert quadrature._rule(32)[0] is x
        with pytest.raises(ValueError):
            w[0] = 0.0


class TestLegendreAntiderivative:
    A = np.array([0.0, 2.0, 1.5])
    B = np.array([2.0, 0.5, 1.5])        # forward, backward and empty
    X = np.array([0.0, 0.3, 1.7, 2.0, 2.0, 1.2, 0.5, 1.5])
    WHICH = np.array([0, 0, 0, 0, 1, 1, 1, 2])

    def test_array_endpoints_match_scalar_calls(self):
        a = np.array([0.0, 0.5, 2.0, 1.0])
        b = np.array([1.0, 3.0, 2.5, 1.0])
        whole, part = legendre_antiderivative(np.exp, a, b)
        assert whole.shape == (4,) and part.shape == (0,)
        for lo, hi, val in zip(a, b, whole):
            assert val == pytest.approx(gauss_legendre(math.exp, lo, hi),
                                        rel=1e-15, abs=0.0)

    def test_several_integrands_on_shared_nodes(self):
        a, b = np.zeros(3), np.array([1.0, 2.0, 3.0])
        whole, _ = legendre_antiderivative(lambda x: np.stack([x, x**2]),
                                           a, b)
        assert whole.shape == (2, 3)
        np.testing.assert_allclose(whole, [b**2 / 2, b**3 / 3], rtol=1e-14)

    def test_one_bad_interval_fails_the_call(self, monkeypatch):
        monkeypatch.setattr(quadrature, "MAX_NODES", 128)
        with pytest.raises(NumericalFailure, match="Legendre series disagree "
                           r"at 128 nodes on 2 interval\(s\)"):
            legendre_antiderivative(lambda x: np.abs(x - 0.3) ** -0.5,
                                    np.array([2.0, 0.0]), np.array([3.0, 1.0]))
        # a pole inside [-1, 2]; over [-1, 1] the odd terms would cancel to
        # exactly 0 at every rule, as they do in gauss_legendre's fsum
        with pytest.raises(NumericalFailure, match="Legendre series disagree "
                           r"at 128 nodes on 2 interval\(s\)"):
            legendre_antiderivative(lambda x: 1.0 / x, np.array([1.0, -1.0]),
                                    np.array([2.0, 2.0]))

    def test_polynomial_exact(self):
        got = legendre_antiderivative(lambda x: 5 * x**4 - 3 * x**2,
                                      self.A, self.B, self.X, self.WHICH)[1]
        prim = lambda x: x**5 - x**3
        want = prim(self.X) - prim(self.A[self.WHICH])
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-14)

    def test_analytic_integrand_on_shared_nodes(self):
        whole, got = legendre_antiderivative(
            lambda x: np.stack([np.exp(x), x]), self.A, self.B, self.X,
            self.WHICH)
        lo = self.A[self.WHICH]
        assert whole.shape == (2, len(self.A))
        assert got.shape == (2, len(self.X))
        np.testing.assert_allclose(got[0], np.exp(self.X) - np.exp(lo),
                                   rtol=1e-14)
        np.testing.assert_allclose(got[1], (self.X**2 - lo**2) / 2,
                                   rtol=1e-14)

    def test_start_is_exactly_zero_end_is_the_rule(self):
        whole, got = legendre_antiderivative(np.exp, self.A, self.B, self.X,
                                             self.WHICH)
        at_start = self.X == self.A[self.WHICH]
        assert (got[at_start] == 0.0).all()
        assert got[3] == whole[0]
        assert got[3] == pytest.approx(gauss_legendre(math.exp, 0.0, 2.0),
                                       rel=1e-15)

    def test_no_convergence_raises(self, monkeypatch):
        monkeypatch.setattr(quadrature, "MAX_NODES", 128)
        with pytest.raises(NumericalFailure, match="Legendre series disagree "
                           r"at 128 nodes on 1 interval\(s\)"):
            legendre_antiderivative(lambda x: np.abs(x - 0.3) ** -0.5,
                                    np.array([0.0]), np.array([1.0]),
                                    np.array([0.5, 1.0]), np.array([0, 0]))

    def test_non_finite_raises(self):
        with pytest.raises(NumericalFailure,
                           match="^integrand is not finite on an interval$"):
            legendre_antiderivative(lambda x: np.full_like(x, np.nan),
                                    np.array([0.0]), np.array([1.0]),
                                    np.array([0.5]), np.array([0]))


def _clustered(seed):
    """Seeded intervals of a Runge-like integrand, whose whole integrals
    settle at 32 to 128 nodes, and points clustered in a few of them."""
    rng = np.random.default_rng(seed)
    lo = np.cumsum(rng.uniform(0.0, 3.0, 12)) - 6.0
    hi = lo + rng.uniform(0.1, 3.0, 12)
    held = rng.choice(12, size=3, replace=False)
    which = np.sort(rng.choice(held, size=9))
    # a third of the points near their interval's start
    frac = np.concatenate([rng.uniform(0.0, 1e-3, 3),
                           rng.uniform(0.0, 1.0, 6)])
    x = lo[which] + frac * (hi[which] - lo[which])
    return lo, hi, x, which


def _runge(x):
    return np.stack([1.0 / (1.0 + 4.0 * x**2), np.exp(-x) * x])


class TestOnePass:
    """``whole`` and ``part`` settle at their own rules in one pass."""

    @pytest.mark.parametrize("seed", range(8))
    def test_whole_does_not_depend_on_the_points(self, seed):
        lo, hi, x, which = _clustered(seed)
        alone, _ = legendre_antiderivative(_runge, lo, hi)
        whole, _ = legendre_antiderivative(_runge, lo, hi, x, which)
        assert alone.tobytes() == whole.tobytes()

    @pytest.mark.parametrize("seed", range(8))
    def test_part_is_a_call_over_the_intervals_that_hold_points(self, seed):
        lo, hi, x, which = _clustered(seed)
        _, part = legendre_antiderivative(_runge, lo, hi, x, which)
        steps, local = np.unique(which, return_inverse=True)
        _, want = legendre_antiderivative(_runge, lo[steps], hi[steps], x,
                                          local)
        assert part.tobytes() == want.tobytes()

    def test_a_point_settles_with_its_intervals_whole_integral(self,
                                                                monkeypatch):
        # so near the start, a point's part agrees at fewer nodes than its
        # interval's whole integral, which first agrees from 64 to 128
        lo, hi, near = np.array([0.0]), np.array([12.0]), np.array([1e-12])
        _, part = legendre_antiderivative(_runge, lo, hi, near, [0])
        monkeypatch.setattr(quadrature, "SERIES_START_NODES", 64)
        monkeypatch.setattr(quadrature, "MAX_NODES", 128)
        _, at_128 = legendre_antiderivative(_runge, lo, hi, near, [0])
        assert part.tobytes() == at_128.tobytes()


def _old_turning_quadrature(r_o, r_min, r_max, k):
    """The adaptive-quad form of both turning-point quadratures (k = 3 flat,
    k = 2 Schwarzschild), with their strong-field guard."""
    u1, u2 = 1.0 / r_min, 1.0 / r_max
    u3 = 1.0 / (k * r_o) - u1 - u2
    if u3 <= u1:
        raise NumericalFailure("third root inside orbit")
    mid, half = 0.5 * (u1 + u2), 0.5 * (u1 - u2)

    def integrand(theta):
        u = mid - half * np.cos(theta)
        if k == 3:
            return np.sqrt((1.0 - 3.0 * r_o * u) / (3.0 * r_o * (u3 - u)))
        return 1.0 / np.sqrt(2.0 * r_o * (u3 - u))

    val, _ = quad(integrand, 0.0, np.pi, epsrel=1e-12, epsabs=0.0, limit=200)
    return 2.0 * val - 2.0 * np.pi


class TestRoutesAgainstReferences:
    @pytest.mark.parametrize("func,k", [
        (precession_quadrature, 3),
        (schwarzschild_precession_quadrature, 2),
    ])
    def test_turning_point_quadratures_match_quad(self, func, k):
        compared = 0
        for r_min in np.geomspace(8.0, 3.1e7, 25):
            for ecc in np.linspace(0.05, 0.9, 18):
                r_max = r_min * (1.0 + ecc) / (1.0 - ecc)
                try:
                    with warnings.catch_warnings():
                        warnings.simplefilter("error", IntegrationWarning)
                        ref = _old_turning_quadrature(1.0, r_min, r_max, k)
                except (NumericalFailure, IntegrationWarning):
                    continue
                assert abs(func(1.0, r_min, r_max) - ref) <= 5e-14
                compared += 1
        assert compared > 400

    @pytest.mark.parametrize("func,k", [
        (precession_quadrature, 3),
        (schwarzschild_precession_quadrature, 2),
    ])
    @pytest.mark.parametrize("r_min", [20.0, 1e5, 3.1e7])
    def test_turning_point_quadratures_keep_relative_digits(self, func, k,
                                                            r_min):
        # 2*int(f) - 2*pi in 40-digit arithmetic: the float form lost the
        # advance's leading digits to the 2*pi it subtracts in weak fields
        r_max = 3.0 * r_min
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp
        with mpmath.workdps(40):
            u1, u2 = mp.mpf(1) / r_min, mp.mpf(1) / (3.0 * r_min)
            u3 = 1 / mp.mpf(k) - u1 - u2
            mid, half = (u1 + u2) / 2, (u1 - u2) / 2

            def f(theta):
                u = mid - half * mp.cos(theta)
                if k == 3:
                    return mp.sqrt((1 - 3 * u) / (3 * (u3 - u)))
                return 1 / mp.sqrt(2 * (u3 - u))

            ref = float(2 * mp.quad(f, [0, mp.pi]) - 2 * mp.pi)
        assert func(1.0, r_min, r_max) == pytest.approx(ref, rel=1e-13, abs=0.0)

    def test_echo_delay_matches_antiderivative(self):
        geom = solar_echo_geometry()
        r_o, R_s = geom.r_o, geom.R_s

        def antiderivative(x):
            return 2.0 * r_o * np.arcsinh(x / R_s) \
                + r_o**2 / R_s * np.arctan(x / R_s)

        exact = 2.0 * sum(antiderivative(np.sqrt(r**2 - R_s**2))
                          for r in (geom.r_es, geom.r_ms))
        assert shapiro_delay(geom).quadrature == pytest.approx(exact,
                                                               rel=1e-13)

    def test_echo_delay_strong_field(self):
        geom = EchoGeometry(r_es=50.0, r_ms=20.0, R_s=2.0, r_o=1.0)
        x_e, x_m = np.sqrt(50.0**2 - 4.0), np.sqrt(20.0**2 - 4.0)
        exact = 2.0 * sum(2.0 * np.arcsinh(x / 2.0) + np.arctan(x / 2.0) / 2.0
                          for x in (x_e, x_m))
        assert shapiro_delay(geom).quadrature == pytest.approx(exact,
                                                               rel=1e-13)

    @pytest.mark.parametrize("b", [1e-8, 2.1e-6, 1e-5, 1e-4])
    def test_deflection_matches_closed_form_series(self, b):
        # quadrature / (-4 r_o/R_s) = int_0^{pi/2} cos/(1 + b cos)^3, b = r_o/R_s,
        # = 1 - 3 pi b/4 + 4 b^2 - 15 pi b^3/8 + 8 b^4 + O(b^5)
        res = deflection_integral(b * 7e8, 7e8)
        series = 1.0 - 0.75 * np.pi * b + 4.0 * b**2 \
            - 1.875 * np.pi * b**3 + 8.0 * b**4
        assert res.quadrature / res.closed_form == pytest.approx(series,
                                                                 rel=1e-15)

    @pytest.mark.parametrize("b", [0.1, 1.0, 100.0])
    def test_deflection_strong_field_matches_quad(self, b):
        ref, _ = quad(lambda th: np.cos(th) / (1.0 + b * np.cos(th)) ** 3,
                      0.0, np.pi / 2.0, epsrel=1e-13, epsabs=0.0)
        res = deflection_integral(b, 1.0)
        assert res.quadrature == pytest.approx(-4.0 * b * ref, rel=1e-13)

    @pytest.mark.parametrize("R", [1e-6, 0.5, 1.0, 37.0, 1e3, 1e8])
    def test_enclosed_energy_closed_form(self, R):
        c = RadialCarrier(r_o=2.5)
        assert enclosed_energy_quadrature(c, R * 2.5) == pytest.approx(
            enclosed_energy(c, R * 2.5), rel=1e-14)

    def test_carrier_totals_closed_form(self):
        assert total_energy_quadrature(RadialCarrier(r_o=3.0)) == \
            pytest.approx(3.0, rel=1e-14)
        assert total_charge_quadrature(ElectricCarrier(e=2.0, r_e=1.0,
                                                       r_o=1.0)) == \
            pytest.approx(2.0, rel=1e-14)


def test_closed_form_paths_do_not_import_scipy():
    code = (
        "import contextlib, io, json, sys\n"
        "import flatgrav\n"
        "from flatgrav import cli\n"
        "codes = []\n"
        "for sub in ('precession', 'echo-delay', 'gyro', 'density',\n"
        "            'electric', 'compare'):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        codes.append(cli.main([sub]))\n"
        "print(json.dumps({'codes': codes, 'scipy': sorted(\n"
        "    m for m in sys.modules if m.split('.')[0] == 'scipy')}))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env,
        capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["codes"] == [0] * 6
    assert result["scipy"] == []


# flatgrav modules that `python -m flatgrav.cli <subcommand>` imports (the
# CLI itself runs as __main__); nothing else may load.
CLI_BASE = {"flatgrav", "flatgrav.constants", "flatgrav.errors",
            "flatgrav.presets"}
SUBCOMMAND_MODULES = {
    "orbit": {"orbits", "_scaled", "quadrature", "ode"},
    "precession": {"orbits", "_scaled", "quadrature"},
    "light-deflect": {"photons", "quadrature", "ode"},
    "echo-delay": {"photons", "quadrature"},
    "gyro": {"spin", "metric", "_scaled"},
    "density": {"carriers", "_scaled", "quadrature"},
    "electric": {"carriers", "_scaled", "quadrature"},
    "compare": {"baseline", "orbits", "_scaled", "photons", "quadrature"},
}
# What `flatgrav` exports, by home module.
PACKAGE_EXPORTS = {
    "errors": ("FlatgravError",),
    "metric": ("CentralField", "FourPotential", "SpacetimeMetric",
               "build_metric", "proper_time_rate"),
    "orbits": ("OrbitIntegrals", "integrate_orbit", "orbit_from_elements",
               "precession_analytic", "precession_numeric",
               "precession_quadrature"),
    "photons": ("EchoGeometry", "deflection_integral", "fermat_ray_integrate",
                "shapiro_delay"),
    "spin": ("RotatingFieldSpec", "transport_spin"),
    "carriers": ("ElectricCarrier", "RadialCarrier"),
}


def _flatgrav_imports(*args):
    """Exit code and the flatgrav modules a fresh ``python -X importtime
    <args>`` imports."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args], env=env,
        capture_output=True, text=True, timeout=120,
    )
    names = {line.rsplit("|", 1)[1].strip()
             for line in proc.stderr.splitlines()
             if line.startswith("import time:")}
    return proc.returncode, {n for n in names if n.split(".")[0] == "flatgrav"}


@pytest.mark.parametrize("sub", sorted(SUBCOMMAND_MODULES))
def test_subcommand_loads_only_its_modules(sub):
    code, loaded = _flatgrav_imports("-m", "flatgrav.cli", sub)
    assert code == 0
    assert loaded == CLI_BASE | {f"flatgrav.{m}"
                                 for m in SUBCOMMAND_MODULES[sub]}


def test_bare_package_import_loads_no_submodule():
    assert _flatgrav_imports("-c", "import flatgrav") == (0, {"flatgrav"})


@pytest.mark.parametrize("table, name, home", [
    (table, name, home) for table in ("flatgrav", "flatgrav.cli")
    for name, home in importlib.import_module("flatgrav")._HOME.items()])
def test_export_table_entry_is_its_home_modules_object(table, name, home):
    # a stale entry (a name its home module no longer defines) fails here;
    # cli forwards every one of the package's lazy exports
    module = importlib.import_module(f"flatgrav.{home}")
    assert hasattr(module, name)
    assert getattr(importlib.import_module(table), name) \
        is getattr(module, name)


class TestLazyExports:
    def test_names_are_the_home_modules_objects(self):
        import flatgrav
        names = [name for names in PACKAGE_EXPORTS.values() for name in names]
        assert sorted(flatgrav.__all__) == sorted(["__version__", *names])
        for home, names in PACKAGE_EXPORTS.items():
            module = importlib.import_module(f"flatgrav.{home}")
            for name in names:
                assert getattr(flatgrav, name) is getattr(module, name)

    def test_star_import_and_dir(self):
        import flatgrav
        namespace = {}
        exec("from flatgrav import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(flatgrav.__all__)
        assert set(flatgrav.__all__) <= set(dir(flatgrav))

    def test_unknown_name_raises_attribute_error(self):
        import flatgrav
        from flatgrav import cli
        for module in (flatgrav, cli):
            with pytest.raises(AttributeError, match="no_such_name"):
                module.no_such_name
            assert not hasattr(module, "no_such_name")

    def test_cli_names_read_the_home_module(self, monkeypatch):
        from flatgrav import cli, orbits
        assert cli.integrate_orbit is orbits.integrate_orbit
        monkeypatch.setattr(orbits, "integrate_orbit", len)
        assert cli.integrate_orbit is len
