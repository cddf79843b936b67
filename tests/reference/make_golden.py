"""Write ``tests/golden/``: the bytes that each golden CLI case prints.

Run from the repository root:

    python tests/reference/make_golden.py

Each case is one ``flatgrav`` argument list, run as a fresh process
(``python -m flatgrav.cli``) on the ``src`` of the checkout that holds this
script.  Its stdout is written to ``tests/golden/<name>``, and
``tests/golden/cases.json`` maps each name to the arguments, the exit code
and the stderr text.  ``tests/test_golden.py`` replays every case through
``cli.main`` and compares the bytes.

The cases are every subcommand's default run in json and csv, ``gyro`` at
three more orbit radii, and ``compare --strong-rmin 7.500001``.  The last
one exits 3 on a quadrature that does not converge: a standing defect stays
in the corpus as it is, so that its mend shows as a diff.  A change that moves a report's bytes on purpose
writes the corpus again in the same commit; ``git diff tests/golden`` then
lists every moved report.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = ROOT / "tests" / "golden"
SUBCOMMANDS = ("orbit", "precession", "light-deflect", "echo-delay", "gyro",
               "density", "electric", "compare")


def cases():
    """name -> flatgrav arguments."""
    out = {f"{sub}.{fmt}": [sub, "--format", fmt]
           for sub in SUBCOMMANDS for fmt in ("json", "csv")}
    for radius in ("6.5e6", "1e7", "1e12"):
        out[f"gyro_orbit-radius_{radius}.json"] = [
            "gyro", "--orbit-radius", radius]
    out["compare_strong-rmin_7.500001.json"] = [
        "compare", "--strong-rmin", "7.500001"]
    return out


def main() -> None:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    GOLDEN.mkdir(exist_ok=True)
    index = {}
    for name, args in cases().items():
        proc = subprocess.run([sys.executable, "-m", "flatgrav.cli", *args],
                              capture_output=True, env=env, timeout=300)
        (GOLDEN / name).write_bytes(proc.stdout)
        index[name] = {"args": args, "exit": proc.returncode,
                       "stderr": proc.stderr.decode()}
    lines = [f" {json.dumps(name)}: {json.dumps(case)}"
             for name, case in index.items()]
    (GOLDEN / "cases.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    main()
