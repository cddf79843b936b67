"""Every golden case prints and writes the stored bytes, and keeps the CLI
contract.

``golden/`` is written by ``reference/make_golden.py`` from fresh
``flatgrav`` processes, and is the one table of CLI cases.  Each case is
replayed here in-process through ``cli.main``, in an empty directory that
holds its config as ``config.json``: the exit code, the stdout, the stderr
and every file the run writes there must be the stored ones.  Each stored
case is also held to the contract: exit 0, 2 or 3; a nonzero exit prints
nothing on stdout and one stderr line naming its kind; no traceback or
warning.  A change that moves a report on purpose writes the corpus again,
so the diff of ``golden/`` shows every moved byte.
"""
import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest

from flatgrav.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


def stored(name):
    """(exit code, stdout, stderr, {written file: bytes}) of case ``name``
    as the corpus holds it."""
    case = CASES[name]
    files = GOLDEN / f"{name}.files"
    return (case["exit"], (GOLDEN / name).read_bytes(), case["stderr"],
            {file: (files / file).read_bytes()
             for file in case.get("files", [])})


def replay(name):
    """(exit code, stdout, stderr, {written file: bytes}) of case ``name``
    run through ``cli.main`` in an empty directory."""
    case = CASES[name]
    out, err = io.StringIO(), io.StringIO()
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as cwd:
        if "config" in case:
            Path(cwd, "config.json").write_text(case["config"])
        os.chdir(cwd)
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main(case["args"])
        finally:
            os.chdir(home)
        files = {path.name: path.read_bytes()
                 for path in Path(cwd).iterdir() if path.name != "config.json"}
    return code, out.getvalue().encode(), err.getvalue(), files


@pytest.mark.parametrize("name", CASES)
def test_case_prints_the_golden_bytes(name):
    assert replay(name) == stored(name)


@pytest.mark.parametrize("name", CASES)
def test_case_keeps_the_cli_contract(name):
    code, out, err, _ = stored(name)
    assert code in (0, 2, 3)
    assert "Traceback" not in err and "Warning" not in err
    if code:
        assert out == b"" and err.count("\n") == 1 and err.endswith("\n")
        assert err.startswith(("config error: ", "numerical error: "))
    else:
        assert err == ""


def test_every_case_has_its_files_and_every_file_a_case():
    expected = {"cases.json", *CASES}
    for name, case in CASES.items():
        expected.update(f"{name}.files/{file}"
                        for file in case.get("files", []))
    found = {path.relative_to(GOLDEN).as_posix()
             for path in GOLDEN.rglob("*") if path.is_file()}
    assert found == expected
