"""The light routes against one high-precision reference.

``reference/light_reference.json`` holds Fermat-ray deflections and exact
straight-path echoes, written by ``reference/make_light_reference.py`` with
mpmath to 50 digits; reading it needs no mpmath.  Each ray is defined as the
integrator sees it, u0 = 1/R_s in floats.
"""
import json
import math
from pathlib import Path

import numpy as np
import pytest

from flatgrav.cli import main
from flatgrav.photons import (
    EchoGeometry,
    deflection_integral,
    fermat_ray_integrate,
    shapiro_delay,
)

REFERENCE = json.loads((Path(__file__).parent / "reference"
                        / "light_reference.json").read_text())
RAYS, ECHOES = REFERENCE["rays"], REFERENCE["echoes"]
RAY_IDS = [f"{c['r_o']:g}-{c['R_s']:g}" for c in RAYS]
EPS = np.finfo(float).eps
# the first-order regime, where the closed form and the bending quadrature
# are held to their first-order gaps
FIRST_ORDER = [c for c in RAYS if c["r_o"] / c["R_s"] <= 1e-3]


def ray_bound(case):
    """The bound on the integrated deflection's relative error."""
    if case["r_o"] / case["R_s"] >= 0.2:
        # toward capture at r_o/R_s = 1/4 the ray winds about r = r_o, and
        # how long it stays there grows as -sqrt(2)*ln(eps), with
        # eps = 1 - 4*r_o/R_s: the steps' error shifts the exit by
        # ~1.2*tol/eps rad (measured 1.2e-12/eps from R_s = 5*r_o to
        # 4.000001*r_o, 2.3e-11 relative at 4.05*r_o)
        eps = 1.0 - 4.0 * case["r_o"] / case["R_s"]
        return max(5e-11, 2e-12 / (eps * abs(case["deflection"])))
    # rtol = tol of the departures from the straight line: measured
    # <= 8.1e-13 on every other case here
    return 1e-12


def fermat_residual(traj, psi):
    """(u'^2 + u^2 - u0^2*(1 + r_o*u)^4)/u0^2 at ``psi`` from the dense
    output, relative to the field's share 2*g0 of it (g0 = 2*r_o*u0)."""
    k = traj.r_o * traj.u0
    p, q = traj.sol(psi)
    w = k * (2.0 * k * p * np.cos(psi) + (1.0 + 2.0 * k * q) * np.sin(psi))
    # u'^2 + u^2 = u0^2*(a^2 + b^2) with a = g0*p, b = 1 + g0*q; the 1 of
    # (1 + w)^4 = 1 + w*(4 + 6w + 4w^2 + w^3) cancels it
    field = 2.0 * q + 2.0 * k * (p * p + q * q)
    return (field - w / (2.0 * k) * (4.0 + w * (6.0 + w * (4.0 + w)))) / 2.0


@pytest.mark.parametrize("case", RAYS, ids=RAY_IDS)
def test_ray_integration_matches_reference(case):
    traj, deflection = fermat_ray_integrate(1.0 / case["R_s"], case["r_o"])
    assert deflection == pytest.approx(case["deflection"],
                                       rel=ray_bound(case), abs=0.0)
    # the dense output keeps the invariant u'^2 + u^2 = u0^2*(1 + r_o*u)^4
    # to a few times the deflection's error: measured 2.8 times
    psi = np.linspace(0.0, traj.sol.ts[-1], 2001)
    assert np.max(np.abs(fermat_residual(traj, psi))) < 10.0 * ray_bound(case)


@pytest.mark.parametrize("case", FIRST_ORDER,
                         ids=[f"{c['r_o']:g}-{c['R_s']:g}" for c in FIRST_ORDER])
def test_first_order_routes_gap(case):
    # b = r_o/R_s.  The Fermat ray bends (1 + (3*pi/4)*b + 6.7*b^2 + ...)
    # times -4*b (the closed form), and the bending quadrature is
    # (1 - (3*pi/4)*b + 4*b^2 - ...) times it, so the reference is
    # (1 + (3*pi/2)*b + 13.8*b^2 + ...) times the quadrature.  Both gaps are
    # held to their first order, plus the measured second order and the
    # floats' rounding.
    b = case["r_o"] / case["R_s"]
    ref = case["deflection"]
    res = deflection_integral(case["r_o"], case["R_s"])
    assert abs(ref / res.closed_form - 1.0 - 0.75 * math.pi * b) \
        <= 7.0 * b * b + 4.0 * EPS
    assert abs(ref / res.quadrature - 1.0 - 1.5 * math.pi * b) \
        <= 14.0 * b * b + 4.0 * EPS


def echo_id(case):
    """R_s, and r_ms where it is not the first echo's."""
    r_ms = case["r_ms"]
    return f"{case['R_s']:g}" + (
        "" if r_ms == ECHOES[0]["r_ms"] else f"-r_ms-{r_ms:g}")


@pytest.mark.parametrize("case", ECHOES, ids=map(echo_id, ECHOES))
def test_echo_matches_reference(case):
    res = shapiro_delay(EchoGeometry(r_es=case["r_es"], r_ms=case["r_ms"],
                                     R_s=case["R_s"], r_o=case["r_o"]))
    # the exact antiderivative, a few rounded libm calls: measured 2.2e-16
    assert res.closed_form == pytest.approx(case["delay"], rel=1e-15, abs=0.0)
    # the Gauss-Legendre rule stops at 1e-13 relative
    assert res.quadrature == pytest.approx(case["delay"], rel=1e-13, abs=0.0)


@pytest.mark.parametrize("R_s", [4.05, 4.5, 5.0, 6.0, 10.0])
def test_near_capture_runs_in_the_cli(tmp_path, capsys, R_s):
    case = next(c for c in RAYS if (c["r_o"], c["R_s"]) == (1.0, R_s))
    cfg = tmp_path / "ray.json"
    cfg.write_text(json.dumps({"preset": "solar",
                               "params": {"r_o": 1.0, "R_s": R_s}}))
    out = tmp_path / "ray-report.json"
    assert main(["light-deflect", "--config", str(cfg), "--out", str(out)]) \
        == 0
    assert capsys.readouterr().err == ""
    (ray,) = [r["value"] for r in json.loads(out.read_text())["rows"]
              if r["provenance"] == "ray-integration" and r["unit"] == "rad"]
    assert math.isclose(ray, case["deflection"], rel_tol=ray_bound(case))


@pytest.mark.parametrize("R_s", [4.0, 3.0, 1.0])
def test_captured_ray_exits_3(tmp_path, capsys, R_s):
    cfg = tmp_path / "ray.json"
    cfg.write_text(json.dumps({"preset": "solar",
                               "params": {"r_o": 1.0, "R_s": R_s}}))
    assert main(["light-deflect", "--config", str(cfg)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("numerical error: ") \
        and "captured" in captured.err
