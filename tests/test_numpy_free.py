"""Every subcommand but ``orbit`` runs without numpy: ``precession``,
``echo-delay``, ``compare``, ``density``, ``electric``, ``light-deflect``
and ``gyro``.  Their modules import none, and with numpy blocked every
golden case of theirs prints and writes its stored bytes.  So do the
carriers' residuals and profile at a float radius, the DOP853 stepper, and
the float routes of ``metric`` and ``spin``: the field, the gyroscope
rates, the orbit and the transport rate.  ``gyro`` loads none of
``carriers``, ``quadrature`` and ``ode``, and ``density`` and ``electric``
neither ``spin`` nor ``metric``.

One child process with numpy blocked replays every golden case of these
subcommands; each test reads its cases' entries of that one replay."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from golden_cases import CASES

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
NUMPY_FREE = ("precession", "echo-delay", "compare", "density", "electric",
              "light-deflect", "gyro")


def _python(code, *args, cwd=None):
    """``python -c code args``, its output decoded as written: the CRLF
    line ends of a CSV report stay."""
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True,
        timeout=120, cwd=cwd, env=dict(os.environ, PYTHONPATH=str(SRC)))
    return subprocess.CompletedProcess(proc.args, proc.returncode,
                                       proc.stdout.decode(),
                                       proc.stderr.decode())


def test_modules_and_subcommands_leave_numpy_unloaded():
    # gyro compiles none of the carriers' and the integrators' modules, and
    # density and electric none of the field's: each pair shares only the
    # numpy-free float helpers of flatgrav._scaled
    code = (
        "import contextlib, io, json, sys\n"
        "import flatgrav.cli\n"
        "def run(sub):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        return flatgrav.cli.main([sub])\n"
        "def loaded(*names):\n"
        "    return [name for name in names if name in sys.modules]\n"
        "gyro = run('gyro'), loaded('flatgrav.carriers',\n"
        "    'flatgrav.quadrature', 'flatgrav.ode')\n"
        "# unloaded, so that density's or electric's import of either shows\n"
        "for name in ('spin', 'metric'):\n"
        "    del sys.modules['flatgrav.' + name]\n"
        "    delattr(flatgrav, name)\n"
        "carriers = run('density'), run('electric'), loaded('flatgrav.spin',\n"
        "    'flatgrav.metric')\n"
        "import flatgrav.baseline, flatgrav.carriers\n"
        "import flatgrav.orbits, flatgrav.photons, flatgrav.presets\n"
        "import flatgrav.ode, flatgrav.quadrature\n"
        "import flatgrav.metric, flatgrav.spin\n"
        "from flatgrav.carriers import (ElectricCarrier, RadialCarrier,\n"
        "    density_identities, electric_profile)\n"
        "from flatgrav.metric import CentralField, proper_time_rate\n"
        "from flatgrav.spin import (circular_polar_orbit, de_sitter_rate,\n"
        "    frame_dragging, geodetic, transport_rhs)\n"
        "imported = 'numpy' in sys.modules\n"
        "codes = []\n"
        f"for sub in {NUMPY_FREE!r}:\n"
        "    codes.append(run(sub))\n"
        "density_identities(RadialCarrier(r_o=1.0), 3.0, 1e-2)\n"
        "electric_profile(ElectricCarrier(e=1.0, r_e=1.0, r_o=1.0), 3.0)\n"
        "field = CentralField(1e-6, 1e-3, [0.0, 0.0, 1e-7])\n"
        "pos, vel, _, _ = circular_polar_orbit(1.0, 1e-6)\n"
        "x, v = pos(0.3), vel(0.3)\n"
        "field.at(x), field.g0(x), frame_dragging(field, x)\n"
        "geodetic(field, x, v), de_sitter_rate(1e-6, x, v)\n"
        "transport_rhs(field, x, v, (1.0, 0.0, 0.0))\n"
        "proper_time_rate(0.0, 0.1, 1.0 / 1.1)\n"
        "print(json.dumps([gyro, carriers, imported, 'numpy' in sys.modules,\n"
        "                  codes]))\n")
    proc = _python(code)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[0, []], [0, 0, []], False, False,
                                       [0] * len(NUMPY_FREE)]


def blocked_replay(module, names):
    """{name: True, False or the error raised} for the golden cases
    ``names``, each replayed through ``cli.main`` as tests/test_golden.py
    replays it, all in one child with ``module`` blocked (a None entry in
    ``sys.modules`` halts its import).  True is a match: the stored exit
    code, stdout, stderr and written files."""
    code = (
        "import json, sys\n"
        "sys.modules[{module!r}] = None\n"
        "sys.path.insert(0, {tests!r})\n"
        "from golden_cases import replay, stored\n"
        "def match(name):\n"
        "    try:\n"
        "        return replay(name) == stored(name)\n"
        "    except Exception as exc:\n"
        "        return repr(exc)\n"
        "print(json.dumps({{name: match(name) for name in {names!r}}}))\n"
    ).format(module=module, tests=str(TESTS), names=list(names))
    proc = _python(code)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def replayed():
    return blocked_replay("numpy", [name for name, case in CASES.items()
                                    if case["args"][0] in NUMPY_FREE])


def _default_case(sub, out, fmt):
    """The golden case of ``sub``'s default run in ``fmt``, to stdout or
    to ``--out report.<fmt>``."""
    return f"{sub}_out.{fmt}" if out else f"{sub}.{fmt}"


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("out", [False, True], ids=["stdout", "out"])
@pytest.mark.parametrize("sub", NUMPY_FREE)
def test_output_without_numpy_is_the_in_process_output(replayed, sub, out,
                                                       fmt):
    # the stored bytes are the in-process output: tests/test_golden.py
    assert replayed[_default_case(sub, out, fmt)] is True


# Edge cases of these subcommands, by golden name.  Each id is the
# ``<exit>-args<i>-<config>`` that the case has kept since it was a row of
# an inline (exit code, argv, config) table.
EDGE_CASES = {
    "0-args0-config0": "precession_weak_r_o.json",
    "0-args1-config1": "precession_weaker_r_o.json",
    "0-args2-config2": "precession_huge_a_weak.json",
    "0-args3-config3": "precession_near_circle.json",
    "3-args4-config4": "precession_tiny_r_o.json",
    "3-args5-config5": "precession_tiny_a.json",
    "3-args6-config6": "precession_subnormal_r_o.json",
    "2-args7-config7": "precession_run_keys.json",
    "3-args8-config8": "echo-delay_huge_r_ms.json",
    "3-args9-config9": "echo-delay_tiny_R_s.json",
    "3-args10-None": "compare_strong-rmin_3.json",
    "3-args11-None": "compare_strong-rmin_7.500001.json",
    "2-args12-None": "compare_strong-rmin_inf.json",
    '2-args13-{"preset": "mercury", "params": {"a": 1e400}}':
        "compare_huge_a.json",
    "2-args14-config14": "compare_no_field.json",
    "2-args15-config15": "compare_model.json",
    "3-args16-None": "density_r-over-ro_1e-200.json",
    "0-args17-None": "density_r-over-ro_1e160.json",
    "0-args18-None": "density_r-over-ro_1e300.json",
    "0-args19-None": "density_samples_1.json",
    "2-args20-None": "density_samples_0.json",
    "0-args21-None": "electric_samples_1000.json",
    "3-args22-config22": "compare_tiny_a.json",
    "3-args23-config23": "light-deflect_tiny_R_s.json",
    "3-args24-config24": "light-deflect_subnormal_R_s.json",
    "2-args25-config25": "light-deflect_deflect_orbits.json",
    "0-args26-config26": "light-deflect_near_capture.json",
    "3-args27-config27": "light-deflect_captured.json",
    "0-args28-None": "light-deflect_tol_1e-9.json",
    "2-args29-None": "gyro_orbit-radius_1e-3.json",
    "3-args30-None": "gyro_orbit-radius_1e103.json",
    "3-args31-config31": "gyro_rate_underflow.json",
    "3-args32-config32": "gyro_subnormal_r_o.json",
    "0-args33-None": "gyro_orbit-radius_1e12.json",
    "0-args34-config34": "gyro_geodetic_fma.json",
}


@pytest.mark.parametrize("name", EDGE_CASES.values(), ids=list(EDGE_CASES))
def test_exit_codes_without_numpy(replayed, name):
    # the exit code is the stored one, and tests/test_golden.py holds it
    # to the CLI contract
    assert replayed[name] is True


def test_golden_cases_replay_with_numpy_blocked(replayed):
    # every other golden case of the numpy-free subcommands too
    assert [name for name, match in replayed.items() if match is not True] \
        == []
