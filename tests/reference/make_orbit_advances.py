"""Write ``orbit_advances.json``: reference perihelion advances per orbit.

Run from the repository root (mpmath required; the tests that read the
fixture do not need it):

    python tests/reference/make_orbit_advances.py [OUTPUT_DIR]

OUTPUT_DIR defaults to ``tests/reference``, beside this script; another
directory leaves the fixture alone, for a ``diff`` against it.

Each orbit is defined as the integrator sees it: c = r_o/L**2 from the float
L = sqrt(r_o*a*(1 - ecc**2)), and a turning point at u = c*(1 + ecc).  Where
r_o/a > 1e-18 the advance is the flat model's
2*int_0^pi sqrt((1/(3*r_o) - u)/(u3 - u)) d(theta) - 2*pi, with
u = (u1 + u2)/2 - (u1 - u2)/2*cos(theta) between the turning points u2 < u1
and u3 the third root of the turning cubic, in 60-digit arithmetic.  Below
that the closed form 6*pi*r_o*c is written: the exact advance departs from
it by ~12*r_o/a relative, under 1.2e-17 there.
"""
import json
import math
import sys
from pathlib import Path

import mpmath
from mpmath import mp

MERCURY_A = 5.79e10
SOLAR_R_O = 1480.0
WEAK_R_O = (1480.0, 1e-3, 1e-6, 1e-20, 1e-60, 1e-200, 1e-290)
WEAK_ECC = (0.0, 1e-12, 1e-7, 0.05, 0.2056)
# (r_min/r_o, ecc) with a = r_min*r_o/(1 - ecc); at ecc 0 that point is the
# outer turning point
STRONG = ((20.0, 0.0), (20.0, 0.3), (100.0, 0.6), (1e5, 0.05), (3.1e7, 0.05))
CLOSED_FORM_BELOW = 1e-18


def advance(r_o: float, a: float, ecc: float):
    """The advance per orbit, and how it was obtained."""
    L = math.sqrt(r_o * a * (1.0 - ecc**2))
    with mpmath.workdps(60):
        r_o_mp = mp.mpf(r_o)
        c = r_o_mp / mp.mpf(L) ** 2
        if r_o / a < CLOSED_FORM_BELOW:
            return float(6 * mp.pi * r_o_mp * c), "closed-form"
        u_p = c * (1 + mp.mpf(ecc))
        # 3*r_o*u^3 - u^2 + 2*c*u + k has the root u_p; deflated, it
        # leaves 3*r_o*u^2 + b*u + d
        b = 3 * r_o_mp * u_p - 1
        d = 2 * c + b * u_p
        u_other = 2 * d / (-b + mp.sqrt(b * b - 12 * r_o_mp * d))
        u1, u2 = max(u_p, u_other), min(u_p, u_other)
        u3 = 1 / (3 * r_o_mp) - u1 - u2
        mid, half = (u1 + u2) / 2, (u1 - u2) / 2

        def dphi(theta):
            u = mid - half * mp.cos(theta)
            return mp.sqrt((1 / (3 * r_o_mp) - u) / (u3 - u))

        return float(2 * mp.quad(dphi, [0, mp.pi]) - 2 * mp.pi), "mpmath-60"


def main(out: Path = Path(__file__).parent) -> None:
    cases = [(r_o, MERCURY_A, ecc) for r_o in WEAK_R_O for ecc in WEAK_ECC]
    cases += [(SOLAR_R_O, r_min * SOLAR_R_O / (1.0 - ecc), ecc)
              for r_min, ecc in STRONG]
    rows = []
    for r_o, a, ecc in cases:
        value, method = advance(r_o, a, ecc)
        rows.append({"r_o": r_o, "a": a, "ecc": ecc, "advance": value,
                     "method": method})
    out.mkdir(parents=True, exist_ok=True)
    (out / "orbit_advances.json").write_text(
        json.dumps({"cases": rows}, indent=1) + "\n")


if __name__ == "__main__":
    main(*(Path(arg).resolve() for arg in sys.argv[1:2]))
