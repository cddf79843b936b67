"""Every golden case prints the stored bytes: stdout, stderr and exit code.

``golden/`` is written by ``reference/make_golden.py`` from fresh
``flatgrav`` processes; each case is replayed here in-process through
``cli.main``, a case with a config in a directory that holds it as
``config.json``.  A change that moves a report on purpose writes the corpus
again, so the diff of ``golden/`` shows every moved byte.
"""
import json
from pathlib import Path

import pytest

from flatgrav.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


@pytest.mark.parametrize("name", CASES)
def test_case_prints_the_golden_bytes(name, capsys, tmp_path, monkeypatch):
    case = CASES[name]
    if "config" in case:
        (tmp_path / "config.json").write_text(case["config"])
        monkeypatch.chdir(tmp_path)
    code = main(case["args"])
    out, err = capsys.readouterr()
    assert (code, err) == (case["exit"], case["stderr"])
    assert out.encode() == (GOLDEN / name).read_bytes()
