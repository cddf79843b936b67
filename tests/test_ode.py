"""The DOP853 integrator against scipy's, bit for bit, and the library
without scipy installed."""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.integrate._ivp import dop853_coefficients
from scipy.optimize import brentq as scipy_brentq

from flatgrav import ode, orbits, photons
from flatgrav.orbits import orbit_from_elements
from flatgrav.presets import SOLAR_R_O, SOLAR_RADIUS, earth_spin_parameters
from flatgrav.spin import RotatingFieldSpec, circular_polar_orbit, transport_rhs

SRC = Path(__file__).resolve().parent.parent / "src"
EPS = np.finfo(float).eps
SUBCOMMANDS = ("orbit", "precession", "light-deflect", "echo-delay", "gyro",
               "density", "electric", "compare")


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype \
        and a.tobytes() == b.tobytes()


def assert_same_run(fun, t_span, y0, rtol, atol, event=None,
                    max_step=np.inf):
    """dop853 and solve_ivp(DOP853) agree bitwise on every output."""
    run = ode.dop853(fun, t_span, y0, rtol=rtol, atol=atol, event=event,
                     max_step=max_step)
    scipy_event = None
    if event is not None:
        def scipy_event(t, y):
            return event[0](t, y)
        scipy_event.terminal = True
        scipy_event.direction = event[1]
    ref = solve_ivp(fun, t_span, y0, method="DOP853", rtol=rtol, atol=atol,
                    dense_output=True, events=scipy_event,
                    max_step=max_step)
    assert ref.success and run.failure is None
    dense, parts = run.dense, ref.sol.interpolants
    assert same_bits(dense.ts, ref.sol.ts)
    assert dense.n_segments == len(parts)
    assert same_bits(dense.t_old, np.array([p.t_old for p in parts]))
    assert same_bits(dense.h, np.array([p.h for p in parts]))
    assert same_bits(dense.F[::-1], np.stack([p.F for p in parts], axis=-1))
    assert same_bits(dense.y_old, np.stack([p.y_old for p in parts], axis=-1))
    assert same_bits(run.y, ref.y[:, -1])
    if event is not None:
        expected = dense.ts[-1:] if run.event else np.array([])
        assert same_bits(ref.t_events[0], expected)
    return run


@pytest.mark.parametrize("ecc", [0.05, 0.6])
@pytest.mark.parametrize("r_min_over_ro", [20.0, 1e3, 1e5, 3.1e7])
def test_orbit_leg_run_is_scipys(r_min_over_ro, ecc):
    # the first leg of integrate_orbit, with its event, at the default tol
    r_o = SOLAR_R_O
    alpha0, integrals = orbit_from_elements(
        r_o, r_min_over_ro * r_o / (1.0 - ecc), ecc)
    c = r_o / integrals.L**2
    u_c = c + orbits._circle_offset(r_o, c)
    rtol = 0.5e-12
    g0 = orbits._element_rhs(0.0, np.array([1.0, 0.0]), r_o, u_c, alpha0)[1]
    run = assert_same_run(
        lambda phi, y: orbits._element_rhs(phi, y, r_o, u_c, alpha0),
        (0.0, 4.0 * np.pi), [1.0, 0.0], rtol=rtol,
        atol=rtol * 2.0 * np.pi * abs(g0), event=(orbits._dprime, 1.0),
        max_step=orbits.LEG_MAX_STEP)
    assert run.event


@pytest.mark.parametrize("r_o, impact, captured", [
    (SOLAR_R_O, SOLAR_RADIUS, False),
    (SOLAR_R_O, 3.0 * SOLAR_RADIUS, False),
    (1.0, 10.0, False),
    (1.0, 1.5, True),
])
def test_ray_run_is_scipys(r_o, impact, captured):
    # fermat_ray_integrate's run to the exit, at the default tol; a captured
    # ray, which fermat_ray_integrate refuses, is run to r = r_o, where
    # r*n(r) is least
    k = r_o * (1.0 / impact)        # r_o*u0, as fermat_ray_integrate forms it
    assert (4.0 * k >= 1.0) == captured
    rtol = 1e-12
    if captured:
        event = (lambda psi, y: k * photons._exit(psi, y, k) - 1.0, 1.0)
    else:
        event = (lambda psi, y: photons._exit(psi, y, k), -1.0)
    run = assert_same_run(lambda psi, y: photons._ray_rhs(psi, y, k),
                          (0.0, 4.0 * np.pi), [0.0, 0.0], rtol=rtol,
                          atol=rtol * 2.0 * np.pi, event=event)
    assert run.event
    if not captured:
        traj, _ = photons.fermat_ray_integrate(1.0 / impact, r_o)
        assert same_bits(traj.sol.ts, run.dense.ts)


@pytest.mark.parametrize("r_o, inertia, radius", [
    (1e-8, 1e-2, 1.0),
    (1e-5, 3e-3, 1.0),
    (None, None, 7.02e6),
])
def test_spin_transport_run_is_scipys(r_o, inertia, radius):
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
    assert_same_run(lambda t, s: transport_rhs(spec, pos(t), vel(t), s),
                    (0.0, period), s0, rtol=1e-12,
                    atol=1e-12 * np.linalg.norm(s0))


def test_rtol_floor_and_step_failure_are_scipys():
    # rtol below 100*eps is floored, as scipy does (without its warning)
    with pytest.warns(UserWarning):
        assert_same_run(lambda t, y: [y[1], -y[0]], (0.0, 3.0), [1.0, 0.0],
                        rtol=1e-16, atol=1e-16)
    # a finite-time blow-up drives the step below the float spacing
    run = ode.dop853(lambda t, y: [y[0] ** 2], (0.0, 2.0), [1.0],
                     rtol=1e-12, atol=1e-12)
    ref = solve_ivp(lambda t, y: [y[0] ** 2], (0.0, 2.0), [1.0],
                    method="DOP853", rtol=1e-12, atol=1e-12,
                    dense_output=True)
    assert not ref.success and run.failure == ref.message
    assert same_bits(run.dense.ts, ref.sol.ts)


@pytest.mark.parametrize("t_span, event", [
    ((1.0, 1.0), None),
    ((1.0, 0.0), None),
    ((0.0, 1.0), (lambda t, y: y[0], 0)),
], ids=["empty-span", "reversed-span", "direction-0"])
def test_bad_span_or_event_direction_rejected(t_span, event):
    with pytest.raises(ValueError):
        ode.dop853(lambda t, y: [y[1], -y[0]], t_span, [1.0, 0.0],
                   rtol=1e-10, atol=1e-10, event=event)


def test_tables_are_scipys():
    n = dop853_coefficients.N_STAGES
    assert same_bits(ode.A, dop853_coefficients.A)
    assert same_bits(ode.C, dop853_coefficients.C)
    assert same_bits(ode.B, dop853_coefficients.B)
    assert same_bits(ode.E3, dop853_coefficients.E3)
    assert same_bits(ode.E5, dop853_coefficients.E5)
    assert same_bits(ode.D, dop853_coefficients.D)
    assert ode.N_STAGES == n


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


def test_brentq_is_scipys():
    for f, a, b in seeded_brackets(1200):
        got = ode.brentq(f, a, b)
        want = scipy_brentq(f, a, b, xtol=4 * EPS, rtol=4 * EPS)
        assert same_bits(got, want), (a, b)


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
