"""Every subcommand but ``orbit`` runs without numpy: ``precession``,
``echo-delay``, ``compare``, ``density``, ``electric``, ``light-deflect``
and ``gyro``.  Their modules import none, and with numpy blocked each
prints what it prints with numpy importable, and keeps its exit code on
edge input.  So do the carriers' residuals at a float radius, the DOP853
stepper, and the float routes of ``metric`` and ``spin``: the field, the
gyroscope rates, the orbit and the transport rate."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from flatgrav.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"
NUMPY_FREE = ("precession", "echo-delay", "compare", "density", "electric",
              "light-deflect", "gyro")
# ``import numpy`` raises in the child: a None entry halts the import
BLOCKED = "import sys; sys.modules['numpy'] = None; "


def _python(code, *args, cwd=None):
    """``python -c code args``, its output decoded as written: the CRLF
    line ends of a CSV report stay."""
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True,
        timeout=120, cwd=cwd, env=dict(os.environ, PYTHONPATH=str(SRC)))
    return subprocess.CompletedProcess(proc.args, proc.returncode,
                                       proc.stdout.decode(),
                                       proc.stderr.decode())


def _blocked_cli(args, cwd):
    """``flatgrav <args>`` as a fresh process in which numpy cannot load."""
    return _python(BLOCKED + "from flatgrav.cli import run; "
                   "sys.exit(run())", *args, cwd=cwd)


def test_modules_and_subcommands_leave_numpy_unloaded():
    code = (
        "import contextlib, io, json, sys\n"
        "import flatgrav.baseline, flatgrav.carriers, flatgrav.cli\n"
        "import flatgrav.orbits, flatgrav.photons, flatgrav.presets\n"
        "import flatgrav.ode, flatgrav.quadrature\n"
        "import flatgrav.metric, flatgrav.spin\n"
        "from flatgrav.carriers import (ElectricCarrier, RadialCarrier,\n"
        "    density_identities, displacement_divergence_residual)\n"
        "from flatgrav.metric import CentralField, proper_time_rate\n"
        "from flatgrav.spin import (circular_polar_orbit, de_sitter_rate,\n"
        "    frame_dragging, geodetic, transport_rhs)\n"
        "imported = 'numpy' in sys.modules\n"
        "codes = []\n"
        f"for sub in {NUMPY_FREE!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        codes.append(flatgrav.cli.main([sub]))\n"
        "density_identities(RadialCarrier(r_o=1.0), 3.0, 1e-2)\n"
        "displacement_divergence_residual(\n"
        "    ElectricCarrier(e=1.0, r_e=1.0, r_o=1.0), 3.0)\n"
        "field = CentralField(1e-6, 1e-3, [0.0, 0.0, 1e-7])\n"
        "pos, vel, _, _ = circular_polar_orbit(1.0, 1e-6)\n"
        "x, v = pos(0.3), vel(0.3)\n"
        "field.at(x), field.g0(x), frame_dragging(field, x)\n"
        "geodetic(field, x, v), de_sitter_rate(1e-6, x, v)\n"
        "transport_rhs(field, x, v, (1.0, 0.0, 0.0))\n"
        "proper_time_rate(0.0, 0.1, 1.0 / 1.1)\n"
        "print(json.dumps([imported, 'numpy' in sys.modules, codes]))\n")
    proc = _python(code)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [False, False, [0] * len(NUMPY_FREE)]


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("out", [False, True], ids=["stdout", "out"])
@pytest.mark.parametrize("sub", NUMPY_FREE)
def test_output_without_numpy_is_the_in_process_output(tmp_path, capsys,
                                                       sub, fmt, out):
    args = [sub, "--format", fmt] + (["--out", "report.txt"] if out else [])
    here, child = tmp_path / "here", tmp_path / "child"
    here.mkdir()
    child.mkdir()
    cwd = Path.cwd()
    os.chdir(here)
    try:
        assert main(args) == 0
    finally:
        os.chdir(cwd)
    captured = capsys.readouterr()
    proc = _blocked_cli(args, child)
    assert (proc.returncode, proc.stdout, proc.stderr) == \
        (0, captured.out, "")
    assert sorted(p.name for p in child.iterdir()) == \
        sorted(p.name for p in here.iterdir())
    for path in here.iterdir():
        assert (child / path.name).read_bytes() == path.read_bytes()


# Edge rows of these subcommands: exit code, argv, config (or None).  The
# defaults, in json and csv, are the byte-equality test's above.
ROWS = [
    (0, ["precession"], {"preset": "mercury", "params": {"r_o": 1e-200}}),
    (0, ["precession"], {"preset": "mercury", "params": {"r_o": 1e-290}}),
    (0, ["precession"], {"preset": "mercury",
                         "params": {"r_o": 1e-100, "a": 3e150}}),
    (0, ["precession"], {"preset": "mercury",
                         "params": {"r_o": 1e-60, "ecc": 0.0}}),
    (3, ["precession"], {"preset": "mercury", "params": {"r_o": 1e-300}}),
    (3, ["precession"], {"preset": "mercury", "params": {"a": 1e-300}}),
    (3, ["precession"], {"preset": "mercury", "params": {"r_o": 1e-320}}),
    (2, ["precession"], {"preset": "mercury", "tol": 1e-3, "n_orbits": 99}),
    (3, ["echo-delay"], {"preset": "solar", "params": {"r_ms": 1e300}}),
    (3, ["echo-delay"], {"preset": "solar", "params": {"R_s": 1e-300}}),
    (3, ["compare", "--strong-rmin", "3"], None),
    (3, ["compare", "--strong-rmin", "7.500001"], None),
    (2, ["compare", "--strong-rmin", "inf"], None),
    (2, ["compare"], '{"preset": "mercury", "params": {"a": 1e400}}'),
    (2, ["compare"], {"preset": "mercury", "params": {"r_o": 0}}),
    (2, ["compare"], {"model": "flatspace-weber"}),
    (3, ["density", "--r-over-ro", "1e-200"], None),
    (0, ["density", "--r-over-ro", "1e160"], None),
    (0, ["density", "--r-over-ro", "1e300"], None),
    (0, ["density", "--samples", "1"], None),
    (2, ["density", "--samples", "0"], None),
    (0, ["electric", "--samples", "1000"], None),
    (3, ["compare"], {"preset": "mercury", "params": {"a": 1e-300}}),
    (3, ["light-deflect"], {"preset": "solar", "params": {"R_s": 1e-300}}),
    (3, ["light-deflect"], {"preset": "solar", "params": {"R_s": 5e-324}}),
    (2, ["light-deflect"], {"preset": "solar", "n_orbits": 3}),
    (0, ["light-deflect"], {"preset": "solar",
                            "params": {"r_o": 1.0, "R_s": 4.5}}),
    (3, ["light-deflect"], {"preset": "solar",
                            "params": {"r_o": 1.0, "R_s": 4.0}}),
    (0, ["light-deflect", "--tol", "1e-9"], None),
    (2, ["gyro", "--orbit-radius", "1e-3"], None),
    (3, ["gyro", "--orbit-radius", "1e103"], None),
    (3, ["gyro", "--orbit-radius", "1e9"],
     {"preset": "earth", "params": {"r_o": 1e-300}}),
    (3, ["gyro"], {"preset": "earth", "params": {"r_o": 5e-324}}),
    (0, ["gyro", "--orbit-radius", "1e12"], None),
    (0, ["gyro", "--orbit-radius", "36332272.11646175"],
     {"preset": "earth", "params": {"r_o": 2.686716799982485e-09,
                                    "inertia": 1.428173803976335e+18,
                                    "omega": [0.0, 0.0,
                                              -8.080411199299936e-07]}}),
]


@pytest.mark.parametrize("code, args, config", ROWS)
def test_exit_codes_without_numpy(tmp_path, monkeypatch, capsys, code, args,
                                  config):
    if config is not None:
        text = config if isinstance(config, str) else json.dumps(config)
        (tmp_path / "cfg.json").write_text(text)
        args = args + ["--config", "cfg.json"]
    proc = _blocked_cli(args, tmp_path)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
    if code:
        assert proc.stdout == "" and proc.stderr.count("\n") == 1
        assert proc.stderr.startswith(("config error: ", "numerical error: "))
    else:
        monkeypatch.chdir(tmp_path)
        assert main(args) == 0
        assert proc.stdout == capsys.readouterr().out
