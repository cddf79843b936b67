"""No subcommand imports ``dataclasses``: its import and the ``exec`` of
each record's methods would cost a fresh process ~6 ms.  After ``cli.run()``
in a fresh process it is not loaded, and with it blocked each subcommand
prints what it prints in-process, with the same exit code."""
import json

import pytest
from test_numpy_free import _python

from flatgrav.cli import main

SUBCOMMANDS = ("orbit", "precession", "light-deflect", "echo-delay", "gyro",
               "density", "electric", "compare")
# ``import dataclasses`` raises in the child: a None entry halts the import
BLOCKED = "import sys; sys.modules['dataclasses'] = None; "


@pytest.mark.parametrize("sub", SUBCOMMANDS)
def test_run_leaves_dataclasses_unloaded(tmp_path, sub):
    proc = _python(
        "import json, sys\n"
        "from flatgrav.cli import run\n"
        "code = run()\n"
        "print(json.dumps([code, 'dataclasses' in sys.modules]))\n",
        sub, "--out", "report.json", cwd=tmp_path)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout) == [0, False]


# argv, each subcommand's default run in json on stdout and csv to files,
# and edge input that exits 2 or 3
ARGS = [[sub, *fmt] for sub in SUBCOMMANDS
        for fmt in ([], ["--format", "csv", "--out", "report.csv"])] + [
    ["orbit", "--orbits", "1"],
    ["gyro", "--orbit-radius", "1e-3"],
    ["orbit", "--tol", "5e-324"],
    ["compare", "--strong-rmin", "3"],
]


@pytest.mark.parametrize("args", ARGS, ids=" ".join)
def test_output_without_dataclasses_is_the_in_process_output(
        tmp_path, monkeypatch, capsys, args):
    here, child = tmp_path / "here", tmp_path / "child"
    here.mkdir()
    child.mkdir()
    monkeypatch.chdir(here)
    code = main(args)
    captured = capsys.readouterr()
    proc = _python(BLOCKED + "from flatgrav.cli import run; sys.exit(run())",
                   *args, cwd=child)
    assert (proc.returncode, proc.stdout, proc.stderr) == \
        (code, captured.out, captured.err)
    assert sorted(p.name for p in child.iterdir()) == \
        sorted(p.name for p in here.iterdir())
    for path in here.iterdir():
        assert (child / path.name).read_bytes() == path.read_bytes()
