"""Write ``light_reference.json``: reference light deflections and echoes.

Run from the repository root (mpmath required; the tests that read the
fixture do not need it):

    python tests/reference/make_light_reference.py [OUTPUT_DIR]

OUTPUT_DIR defaults to ``tests/reference``, beside this script; another
directory leaves the fixture alone, for a ``diff`` against it.

Each ray is defined as the integrator sees it: u0 = 1/R_s in floats.  Its
deflection is that of the Fermat ray of the index n = (1 + r_o/r)**2,
pi - 2*int_0^u_t du/sqrt(u0**2*(1 + r_o*u)**4 - u**2), with u_t the turning
point, u0*(1 + r_o*u_t)**2 = u_t.  With u = u_t*sin(theta) and
u0*(1 + r_o*u)**2 - u = (u_t - u)*(1 - r_o*u0*(2 + r_o*(u + u_t))) the
integrand is smooth and free of cancellation on [0, pi/2].  The sum is
taken to 50 digits beyond the ones that pi - sweep cancels.

Each echo is the exact straight-path excess delay, round trip, in meters:
2*sum(2*r_o*asinh(x/R_s) + (r_o**2/R_s)*atan(x/R_s)) over
x = sqrt(r**2 - R_s**2) for r = r_es and r_ms, in 50-digit arithmetic: the
Earth-Mercury radar at three grazing distances, and at the solar limb with
r_ms = 1e300, where r_ms**2 overflows a float.
"""
import json
import math
import sys
from pathlib import Path

import mpmath
from mpmath import mp

SOLAR_RADIUS = 0.7e9
SOLAR_R_O = 1480.0
EARTH_SUN = 149.5e9
MERCURY_SUN = 57.9e9
DIGITS = 50
# (r_o, R_s): r_o/R_s = 1e-300, 1e-20, 7e-7, the Sun's 2.1e-6 and 1e-3 at
# the solar limb, then r_o = 1 toward capture at R_s = 4*r_o, to 1e-6 of it
RAYS = [(q * SOLAR_RADIUS, SOLAR_RADIUS) for q in (1e-300, 1e-20, 7e-7)]
RAYS += [(SOLAR_R_O, SOLAR_RADIUS), (1e-3 * SOLAR_RADIUS, SOLAR_RADIUS)]
RAYS += [(1.0, R_s) for R_s in (10.0, 6.0, 5.0, 4.5, 4.05, 4.000001)]
# (R_s, r_es, r_ms)
ECHOES = [(R_s, EARTH_SUN, MERCURY_SUN) for R_s in (SOLAR_RADIUS, 7e9, 3.5e10)]
ECHOES += [(SOLAR_RADIUS, EARTH_SUN, 1e300)]


def deflection(r_o: float, R_s: float) -> float:
    """The Fermat ray's deflection (negative: toward the body)."""
    u0_float = 1.0 / R_s
    lost = max(0, -math.floor(math.log10(r_o * u0_float)))
    with mpmath.workdps(DIGITS + lost):
        r, u0 = mp.mpf(r_o), mp.mpf(u0_float)
        # the smaller root of u0*r^2*u^2 + (2*u0*r - 1)*u + u0
        b = 1 - 2 * u0 * r
        u_t = 2 * u0 / (b + mp.sqrt(b * b - 4 * u0 * u0 * r * r))

        def dpsi(theta):
            s = mp.sin(theta)
            u = u_t * s
            far = 1 - r * u0 * (2 + r * (u + u_t))
            return mp.sqrt(u_t * (1 + s) / (far * (u0 * (1 + r * u) ** 2 + u)))

        return float(mp.pi - 2 * mp.quad(dpsi, [0, mp.pi / 2]))


def echo(r_o: float, R_s: float, r_es: float, r_ms: float) -> float:
    """The exact round-trip excess delay along the straight path."""
    with mpmath.workdps(DIGITS):
        r, y = mp.mpf(r_o), mp.mpf(R_s)
        total = 0
        for far in (r_es, r_ms):
            x = mp.sqrt(mp.mpf(far) ** 2 - y * y)
            total += 2 * r * mp.asinh(x / y) + r * r / y * mp.atan(x / y)
        return float(2 * total)


def main(out: Path = Path(__file__).parent) -> None:
    rays = [{"r_o": r_o, "R_s": R_s, "deflection": deflection(r_o, R_s)}
            for r_o, R_s in RAYS]
    echoes = [{"r_o": SOLAR_R_O, "R_s": R_s, "r_es": r_es, "r_ms": r_ms,
               "delay": echo(SOLAR_R_O, R_s, r_es, r_ms)}
              for R_s, r_es, r_ms in ECHOES]
    out.mkdir(parents=True, exist_ok=True)
    (out / "light_reference.json").write_text(
        json.dumps({"rays": rays, "echoes": echoes}, indent=1) + "\n")


if __name__ == "__main__":
    main(*(Path(arg).resolve() for arg in sys.argv[1:2]))
