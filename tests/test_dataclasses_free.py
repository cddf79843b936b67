"""No subcommand imports ``dataclasses``: its import and the ``exec`` of
each record's methods would cost a fresh process ~6 ms.  After ``cli.run()``
in a fresh process it is not loaded, and one child with it blocked replays
every golden case, ``orbit``'s included, to its stored bytes."""
import json

import pytest
from golden_cases import CASES
from test_numpy_free import _python, blocked_replay

SUBCOMMANDS = ("orbit", "precession", "light-deflect", "echo-delay", "gyro",
               "density", "electric", "compare")


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


@pytest.fixture(scope="module")
def replayed():
    return blocked_replay("dataclasses", CASES)


def test_golden_cases_replay_with_dataclasses_blocked(replayed):
    assert [name for name, match in replayed.items() if match is not True] \
        == []


# Each subcommand's default run in json on stdout and in csv to files, and
# edge input that exits 2 or 3, by golden name.  Each id is the argv that
# the case has kept since it was run here in a child of its own.
NAMED = {
    **{sub: f"{sub}.json" for sub in SUBCOMMANDS},
    **{f"{sub} --format csv --out report.csv": f"{sub}_out.csv"
       for sub in SUBCOMMANDS},
    "orbit --orbits 1": "orbit_orbits_1.json",
    "gyro --orbit-radius 1e-3": "gyro_orbit-radius_1e-3.json",
    "orbit --tol 5e-324": "orbit_tol_5e-324.json",
    "compare --strong-rmin 3": "compare_strong-rmin_3.json",
}


@pytest.mark.parametrize("name", NAMED.values(), ids=list(NAMED))
def test_output_without_dataclasses_is_the_in_process_output(replayed, name):
    # the stored bytes are the in-process output: tests/test_golden.py
    assert replayed[name] is True
