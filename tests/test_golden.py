"""Every golden case prints and writes the stored bytes, and keeps the CLI
contract.

``golden/`` is written by ``reference/make_golden.py`` from fresh
``flatgrav`` processes, and is the one table of CLI cases.  Each case is
replayed here in-process through ``cli.main``, in an empty directory that
holds its config as ``config.json``: the exit code, the stdout, the stderr
and every file the run writes there must be the stored ones.  Each stored
case is also held to the contract: exit 0, 2 or 3; a nonzero exit prints
nothing on stdout and one stderr line naming its kind; no traceback or
warning; and each exit 3 is a NumericalFailure, whose message names its
cause.  A change that moves a report on purpose writes the corpus again,
so the diff of ``golden/`` shows every moved byte.
"""
import sys

import pytest
from golden_cases import CASES, GOLDEN, replay, stored

from flatgrav.cli import _emit, build_parser
from flatgrav.errors import NumericalFailure


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


@pytest.mark.parametrize(
    "name", [name for name, case in CASES.items() if case["exit"] == 3])
def test_every_numerical_error_is_a_numerical_failure(name):
    # main also ends a bare ArithmeticError, math's domain error and a
    # MemoryError with exit 3, as a safety net: no stored case may reach it
    def run(argv):
        args = build_parser().parse_args(argv)
        with pytest.raises(NumericalFailure) as failure:
            _emit(args.func(args), args.format, args.out)
        print(f"numerical error: {failure.value}", file=sys.stderr)
        return 3

    assert replay(name, run) == stored(name)


def test_every_case_has_its_files_and_every_file_a_case():
    expected = {"cases.json", *CASES}
    for name, case in CASES.items():
        expected.update(f"{name}.files/{file}"
                        for file in case.get("files", []))
    found = {path.relative_to(GOLDEN).as_posix()
             for path in GOLDEN.rglob("*") if path.is_file()}
    assert found == expected
