"""The orbit routes against one high-precision reference.

``reference/orbit_advances.json`` holds perihelion advances per orbit,
written by ``reference/make_orbit_advances.py`` in 60-digit arithmetic
(mpmath); reading it needs no mpmath.  Each orbit is defined as the
integrator sees it: c = r_o/L**2 from the float L, and a turning point at
u = c*(1 + ecc).  Where r_o/a < 1e-18 the fixture holds the closed form
6*pi*r_o*c instead: the exact advance departs from 6*pi*r_o/(a*(1 - e^2))
by ~12*r_o/a, which is below 1.2e-17 there.
"""
import json
import math
from pathlib import Path

import pytest

from flatgrav.cli import main
from flatgrav.orbits import (
    integrate_orbit,
    orbit_from_elements,
    precession_numeric,
    precession_quadrature,
    turning_points_from_elements,
)

CASES = json.loads((Path(__file__).parent / "reference"
                    / "orbit_advances.json").read_text())["cases"]
IDS = [f"{c['r_o']:g}-{c['a']:.6g}-{c['ecc']:g}" for c in CASES]
MERCURY_A = 5.79e10


def integration_bound(case):
    """The bound on the integrated advance's relative error."""
    if case["a"] * (1.0 - case["ecc"]) <= 20.0 * case["r_o"]:
        # the forcing is of the unit elements' own size, so rtol = tol/2
        # bounds each of ~50 steps per period: measured 2.9e-12
        return 1e-11
    # atol is sized to the forcing, so each step keeps tol/2 of the
    # forcing's effect: measured <= 3.1e-13 on every other case here
    return 1e-12


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_integration_matches_reference(case):
    alpha0, integrals = orbit_from_elements(case["r_o"], case["a"],
                                            case["ecc"])
    traj = integrate_orbit(case["r_o"], alpha0, integrals, 3)
    num = precession_numeric(traj).delta_phi_per_orbit
    assert num == pytest.approx(case["advance"], rel=integration_bound(case),
                                abs=0.0)


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_quadrature_matches_reference(case):
    # the Gauss-Legendre rule of a smooth periodic integrand converges
    # spectrally past its 1e-13 stopping test: measured 1.1e-15
    r_o, a, ecc = case["r_o"], case["a"], case["ecc"]
    value = precession_quadrature(r_o,
                                  *turning_points_from_elements(r_o, a, ecc))
    assert value == pytest.approx(case["advance"], rel=4e-15, abs=0.0)


def test_near_circle_runs_in_the_cli(tmp_path, capsys):
    # ecc 0 at r_o 1e-60: the turning points lie ~1e-71 relative apart
    case = next(c for c in CASES if (c["r_o"], c["a"], c["ecc"])
                == (1e-60, MERCURY_A, 0.0))
    cfg = tmp_path / "circle.json"
    cfg.write_text(json.dumps({"preset": "mercury",
                               "params": {"r_o": 1e-60, "ecc": 0.0}}))
    for command in ("orbit", "precession"):
        out = tmp_path / f"{command}.json"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
    rows = json.loads((tmp_path / "orbit.json").read_text())["rows"]
    (numeric,) = [r["value"] for r in rows
                  if r["quantity"] == "precession_per_orbit"
                  and r["provenance"] == "orbit-integration"]
    assert math.isclose(numeric, case["advance"],
                        rel_tol=integration_bound(case))
