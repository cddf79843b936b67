"""The golden corpus, read and replayed: ``CASES``, ``stored`` and
``replay``.

No pytest here: a child process with ``numpy`` or ``dataclasses`` blocked
imports this module to replay the corpus (tests/test_numpy_free.py,
tests/test_dataclasses_free.py), and pytest itself imports dataclasses.
"""
import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

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
