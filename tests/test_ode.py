"""The DOP853 integrator against scipy's, bit for bit, and the library
without scipy installed.

scipy's runs, and its brentq, are made once in a child process on
OpenBLAS's generic kernel (``generic_blas``: this file run as a script),
and every run here must match them bit for bit.
"""
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.integrate._ivp import dop853_coefficients
from scipy.optimize import brentq as scipy_brentq

from flatgrav import ode, orbits, photons
from flatgrav.orbits import orbit_from_elements
from flatgrav.presets import (MERCURY_ECCENTRICITY, MERCURY_SEMI_MAJOR,
                              SOLAR_R_O, SOLAR_RADIUS, earth_spin_parameters)
from flatgrav.spin import RotatingFieldSpec, circular_polar_orbit, transport_rhs
from generic_blas import SRC, generic_oracle, hexes

EPS = np.finfo(float).eps
SUBCOMMANDS = ("orbit", "precession", "light-deflect", "echo-delay", "gyro",
               "density", "electric", "compare")
N_BRACKETS = 1200


def orbit_leg(r_min_over_ro, ecc, rtol=0.5e-12):
    """The first leg of integrate_orbit, with its event, at the default
    tol unless ``rtol`` is given."""
    r_o = SOLAR_R_O
    alpha0, integrals = orbit_from_elements(
        r_o, r_min_over_ro * r_o / (1.0 - ecc), ecc)
    c = r_o / integrals.L**2
    u_c = c + orbits._circle_offset(r_o, c)
    g0 = orbits._element_rhs(0.0, [1.0, 0.0], r_o, u_c, alpha0)[1]
    return dict(fun=lambda phi, y: orbits._element_rhs(phi, y, r_o, u_c,
                                                       alpha0),
                t_span=(0.0, 4.0 * np.pi), y0=[1.0, 0.0], rtol=rtol,
                atol=rtol * 2.0 * np.pi * abs(g0),
                event=(orbits._dprime, 1.0), max_step=orbits.LEG_MAX_STEP)


def ray(r_o, impact, captured):
    """fermat_ray_integrate's run to the exit, at the default tol; a
    captured ray, which fermat_ray_integrate refuses, is run to r = r_o,
    where r*n(r) is least."""
    k = r_o * (1.0 / impact)        # r_o*u0, as fermat_ray_integrate forms it
    assert (4.0 * k >= 1.0) == captured
    if captured:
        event = (lambda psi, y: k * photons._exit(psi, y, k) - 1.0, 1.0)
    else:
        event = (lambda psi, y: photons._exit(psi, y, k), -1.0)
    return dict(fun=lambda psi, y: photons._ray_rhs(psi, y, k),
                t_span=(0.0, 4.0 * np.pi), y0=[0.0, 0.0], rtol=1e-12,
                atol=1e-12 * 2.0 * np.pi, event=event)


def spin_run(r_o, inertia, radius):
    """One period of spin transport along a polar circle."""
    if r_o is None:
        p = earth_spin_parameters()
        spec = RotatingFieldSpec(r_o=p["r_o"], inertia=p["inertia"],
                                 omega=p["omega"])
        r_o = p["r_o"]
    else:
        spec = RotatingFieldSpec(r_o=r_o, inertia=inertia,
                                 omega=np.array([0.0, 0.0, 1e-7]))
    pos, vel, _, period = circular_polar_orbit(radius, r_o)
    s0 = np.array([0.6, -0.2, 0.5])
    return dict(fun=lambda t, s: transport_rhs(spec, pos(t), vel(t), s),
                t_span=(0.0, period), y0=s0, rtol=1e-12,
                atol=1e-12 * np.linalg.norm(s0))


def chain(n):
    """A nonlinear cyclic chain of n components, y_i' = y_{i+1} - 0.3*y_i^2
    + sin(t)*y_{i-1}: its norms add past ddot's four and eight lanes."""
    def fun(t, y):
        s = math.sin(t)
        return [y[(i + 1) % n] - 0.3 * (y[i] * y[i]) + s * y[i - 1]
                for i in range(n)]
    return dict(fun=fun, t_span=(0.0, 5.0),
                y0=[0.1 * (i + 1) * (-1) ** i for i in range(n)],
                rtol=1e-11, atol=1e-12)


ORBIT_LEGS = [(r, e) for r in (20.0, 1e3, 1e5, 3.1e7) for e in (0.05, 0.6)]
CHAINS = [4, 8, 9, 12, 16]
MERCURY_R_MIN_OVER_RO = (MERCURY_SEMI_MAJOR * (1.0 - MERCURY_ECCENTRICITY)
                         / SOLAR_R_O)
RAYS = [(SOLAR_R_O, SOLAR_RADIUS, False), (SOLAR_R_O, 3.0 * SOLAR_RADIUS, False),
        (1.0, 10.0, False), (1.0, 1.5, True)]
SPINS = [(1e-8, 1e-2, 1.0), (1e-5, 3e-3, 1.0), (None, None, 7.02e6)]
RUNS = {
    **{f"orbit {r!r} {e!r}": (orbit_leg, (r, e)) for r, e in ORBIT_LEGS},
    **{f"ray {c!r} {i!r}": (ray, (c, i, x)) for c, i, x in RAYS},
    **{f"spin {c!r} {i!r} {r!r}": (spin_run, (c, i, r)) for c, i, r in SPINS},
    **{f"chain {n}": (chain, (n,)) for n in CHAINS},
    # rtol below 100*eps is floored, as scipy does (with a warning)
    "rtol floor": (lambda: dict(fun=lambda t, y: [y[1], -y[0]],
                                t_span=(0.0, 3.0), y0=[1.0, 0.0],
                                rtol=1e-16, atol=1e-16), ()),
    # a finite-time blow-up drives the step below the float spacing
    "blow-up": (lambda: dict(fun=lambda t, y: [y[0] ** 2, y[1] ** 2],
                             t_span=(0.0, 2.0), y0=[1.0, 0.5], rtol=1e-12,
                             atol=1e-12), ()),
    # f0/scale overflows the initial step's norm: h0 = 0, and the run ends
    # before its first step
    "tiny atol": (orbit_leg, (MERCURY_R_MIN_OVER_RO, MERCURY_ECCENTRICITY,
                              0.5e-300)),
}


def scipy_record(fun, t_span, y0, rtol, atol, event=None, max_step=np.inf):
    """solve_ivp(DOP853)'s run, every float as float.hex, and whether it
    warned."""
    scipy_event = None
    if event is not None:
        def scipy_event(t, y):
            return event[0](t, y)
        scipy_event.terminal = True
        scipy_event.direction = event[1]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ref = solve_ivp(fun, t_span, y0, method="DOP853", rtol=rtol,
                        atol=atol, dense_output=True, events=scipy_event,
                        max_step=max_step)
    parts = ref.sol.interpolants
    return {"failure": None if ref.success else ref.message,
            "ts": hexes(ref.sol.ts),
            "t_old": hexes([p.t_old for p in parts]),
            "h": hexes([p.h for p in parts]),
            "F": hexes([p.F for p in parts]),
            "y_old": hexes([p.y_old for p in parts]),
            "y": hexes(ref.y[:, -1]),
            "t_events": hexes(ref.t_events[0]) if event else [],
            }, any(issubclass(w.category, UserWarning) for w in caught)


def record(fun, t_span, y0, rtol, atol, event=None, max_step=np.inf):
    """dop853's run in the form of ``scipy_record``: a step starts at its
    breakpoint, so scipy's t_old is ts[:-1]."""
    run = ode.dop853(fun, t_span, y0, rtol=rtol, atol=atol, event=event,
                     max_step=max_step)
    dense = run.dense
    if dense is None:               # not one step was accepted
        ts, h, F, y_old = [run.t], [], [], []
    else:
        ts, h = dense.ts, dense.h
        F, y_old = dense.F[::-1].transpose(2, 0, 1), dense.y_old.T
    assert run.t == ts[-1]
    return {"failure": run.failure,
            "ts": hexes(ts),
            "t_old": hexes(ts[:-1]),
            "h": hexes(h),
            "F": hexes(F),
            "y_old": hexes(y_old),
            "y": hexes(run.y),
            "t_events": hexes([run.t]) if run.event else [],
            }


def scipy_oracle() -> dict:
    """Every run of RUNS and every bracket's root, from scipy."""
    runs, warned = {}, {}
    for key, (build, args) in RUNS.items():
        runs[key], warned[key] = scipy_record(**build(*args))
    roots = [float(scipy_brentq(f, a, b, xtol=4 * EPS, rtol=4 * EPS)).hex()
             for f, a, b in seeded_brackets(N_BRACKETS)]
    return {"runs": runs, "warned": warned, "brentq": roots}


@pytest.fixture(scope="module")
def oracle():
    return generic_oracle(__file__)


def assert_same_run(oracle, key):
    build, args = RUNS[key]
    assert record(**build(*args)) == oracle["runs"][key]


@pytest.mark.parametrize("r_min_over_ro, ecc", ORBIT_LEGS)
def test_orbit_leg_run_is_scipys(oracle, r_min_over_ro, ecc):
    assert_same_run(oracle, f"orbit {r_min_over_ro!r} {ecc!r}")
    assert oracle["runs"][f"orbit {r_min_over_ro!r} {ecc!r}"]["t_events"]


@pytest.mark.parametrize("r_o, impact, captured", RAYS)
def test_ray_run_is_scipys(oracle, r_o, impact, captured):
    key = f"ray {r_o!r} {impact!r}"
    assert_same_run(oracle, key)
    assert oracle["runs"][key]["t_events"]
    if not captured:
        traj, _ = photons.fermat_ray_integrate(1.0 / impact, r_o)
        assert hexes(traj.sol.ts) == oracle["runs"][key]["ts"]


@pytest.mark.parametrize("r_o, inertia, radius", SPINS)
def test_spin_transport_run_is_scipys(oracle, r_o, inertia, radius):
    assert_same_run(oracle, f"spin {r_o!r} {inertia!r} {radius!r}")


@pytest.mark.parametrize("n", CHAINS)
def test_chain_run_is_scipys(oracle, n):
    assert_same_run(oracle, f"chain {n}")


def test_rtol_floor_and_step_failure_are_scipys(oracle):
    assert oracle["warned"]["rtol floor"]
    assert_same_run(oracle, "rtol floor")
    for key in ("blow-up", "tiny atol"):
        assert oracle["runs"][key]["failure"] == ode.TOO_SMALL_STEP
        assert_same_run(oracle, key)
    assert not oracle["runs"]["tiny atol"]["h"]     # no step was accepted


@pytest.mark.parametrize("t_span, event", [
    ((1.0, 1.0), None),
    ((1.0, 0.0), None),
    ((0.0, 1.0), (lambda t, y: y[0], 0)),
], ids=["empty-span", "reversed-span", "direction-0"])
def test_bad_span_or_event_direction_rejected(t_span, event):
    with pytest.raises(ValueError):
        ode.dop853(lambda t, y: [y[1], -y[0]], t_span, [1.0, 0.0],
                   rtol=1e-10, atol=1e-10, event=event)


@pytest.mark.parametrize("atol", [0.0, -1e-10, math.nan, math.inf])
def test_atol_must_be_positive(atol):
    # over atol = 0, the 0 component divided by 0 in the first step's norm;
    # over atol = inf, every error scale is infinite and no step is refused
    with pytest.raises(ValueError, match="atol must be finite and > 0"):
        ode.dop853(lambda t, y: [y[1], -y[0]], (0, 1), [1.0, 0.0],
                   rtol=1e-10, atol=atol)


def test_tables_are_scipys():
    def dense(rows, shape):
        out = np.zeros(shape)
        for i, row in enumerate(rows):
            for j, value in row:
                out[i, j] = value
        return out

    n = dop853_coefficients.N_STAGES
    assert ode.N_STAGES == n
    assert np.array(ode.C).tobytes() == dop853_coefficients.C.tobytes()
    A = dense([()] + ode._A[1:], (16, 16))
    for want, got in ((dop853_coefficients.A, A),
                      (dop853_coefficients.B, dense([ode.B], (1, n))[0]),
                      (dop853_coefficients.E3, dense([ode.E3], (1, n + 1))[0]),
                      (dop853_coefficients.E5, dense([ode.E5], (1, n + 1))[0]),
                      (dop853_coefficients.D, dense(ode.D, (4, 16)))):
        assert got.tobytes() == want.tobytes()


def seeded_brackets(n):
    """(f, a, b) with f(a), f(b) of opposite signs, over many scales."""
    rng = np.random.default_rng(20240613)
    out = []
    for k in range(n):
        scale = 10.0 ** rng.uniform(-170, 170)
        root = rng.uniform(-5.0, 5.0) * 10.0 ** rng.uniform(-8, 8)
        a = root - rng.uniform(1e-3, 3.0) * (abs(root) + 1e-3)
        b = root + rng.uniform(1e-3, 3.0) * (abs(root) + 1e-3)
        kind, width = k % 4, abs(root) + 1e-3
        c1, c2 = rng.uniform(0.1, 3.0, 2)
        if kind == 0:
            def f(x, r=root, s=scale, c=c1, w=width):
                return s * (x - r) / w * (1.0 + c * ((x - r) / w) ** 2)
        elif kind == 1:
            def f(x, r=root, s=scale, c=c1, w=width):
                return s * np.expm1(c * (x - r) / w)
        elif kind == 2:
            def f(x, r=root, s=scale, c=c1, d=c2, w=width):
                return s * (np.tanh(c * (x - r) / w) + d * ((x - r) / w) ** 3)
        else:
            def f(x, r=root, s=scale, c=c1, w=width):
                return -s * np.cbrt(x - r) * (1.0 + c * abs(x - r) / w)
        if rng.uniform() < 0.5:
            a, b = b, a
        out.append((f, a, b))
    return out


def test_brentq_is_scipys(oracle):
    brackets = seeded_brackets(N_BRACKETS)
    assert [float(ode.brentq(f, a, b)).hex() for f, a, b in brackets] \
        == oracle["brentq"]


def test_brentq_rejects_a_bracket_without_sign_change():
    with pytest.raises(ValueError):
        ode.brentq(lambda x: x * x + 1.0, -1.0, 1.0)


_NO_SCIPY = (
    "import sys\n"
    "class NoScipy:\n"
    "    def find_spec(self, name, path=None, target=None):\n"
    "        if name.split('.')[0] == 'scipy':\n"
    "            raise ImportError(f'{name} is not installed')\n"
    "sys.meta_path.insert(0, NoScipy())\n"
)
_RUN_ALL = (
    "import contextlib, io, json\n"
    "import numpy as np\n"
    "from flatgrav import cli, spin\n"
    "out = {}\n"
    "for sub in %r:\n"
    "    for fmt in ('json', 'csv'):\n"
    "        buf = io.StringIO()\n"
    "        with contextlib.redirect_stdout(buf):\n"
    "            code = cli.main([sub, '--format', fmt])\n"
    "        out[sub + ' ' + fmt] = [code, buf.getvalue()]\n"
    "spec = spin.RotatingFieldSpec(r_o=1e-8, inertia=1e-2,\n"
    "                              omega=np.array([0.0, 0.0, 1e-7]))\n"
    "pos, vel, _, period = spin.circular_polar_orbit(1.0, 1e-8)\n"
    "sol = spin.transport_spin(spec, pos, vel, np.array([0.6, -0.2, 0.5]),\n"
    "                          (0.0, period))\n"
    "out['transport_spin'] = [0, sol(period).tobytes().hex()]\n"
    "print(json.dumps(out))\n"
) % (SUBCOMMANDS,)


def _run_all(prelude: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", prelude + _RUN_ALL],
                          env=env, capture_output=True, text=True,
                          timeout=300, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_runs_without_scipy():
    without, with_scipy = _run_all(_NO_SCIPY), _run_all("")
    assert len(without) == 2 * len(SUBCOMMANDS) + 1
    assert all(code == 0 for code, _ in without.values())
    assert without == with_scipy


if __name__ == "__main__":
    print(json.dumps(scipy_oracle()))
