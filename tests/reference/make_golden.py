"""Write ``tests/golden/``: the bytes that each golden CLI case prints.

Run from the repository root:

    python tests/reference/make_golden.py [OUTPUT_DIR]

Each case is one ``flatgrav`` argument list, run as a fresh process
(``python -m flatgrav.cli``) on the ``src`` of the checkout that holds this
script.  A case with a config runs in an empty directory that holds only
``config.json``, the config's text.  Its stdout is written to
``<OUTPUT_DIR>/<name>``, and ``<OUTPUT_DIR>/cases.json`` maps each name to
the arguments, the config text (if any), the exit code and the stderr text.
OUTPUT_DIR defaults to ``tests/golden``, the stored corpus, which
``tests/test_golden.py`` replays through ``cli.main`` and compares byte for
byte; another directory leaves the corpus alone, for a ``diff -r`` against
it.

The cases are every subcommand's default run in json and csv, ``gyro`` at
three more orbit radii and at its edge inputs (the exit-code cases of CI,
an overflowing radius, an orbital rate that underflows, and a config whose
geodetic rate is a sum of squares that a fused multiply-add would round
differently), ``orbit`` cases that stress the clock quadrature (two and
three samples, five samples of a near-parabolic 30-orbit run, the strong
orbit r_o = 1, a = 1e3, ecc 0.99, and the weak-field configs of CI), and
``compare --strong-rmin 7.500001``.  The last one exits 3 on a quadrature
that does not converge: a standing defect stays in the corpus as it is, so
that its mend shows as a diff.  A change that moves a report's bytes on
purpose writes the corpus again in the same commit; ``git diff
tests/golden`` then lists every moved report.
"""
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = ROOT / "tests" / "golden"
SUBCOMMANDS = ("orbit", "precession", "light-deflect", "echo-delay", "gyro",
               "density", "electric", "compare")
EARTH = '{"preset": "earth", "params": {%s}}'
MERCURY = '{"preset": "mercury", %s}'
# config cases: name -> (subcommand, config text, extra arguments)
CONFIGS = {
    **{f"gyro_{name}": ("gyro", EARTH % params, [])
       for name, params in (
           ("inertia_str", '"inertia": "x"'),
           ("inertia_neg", '"inertia": -1'),
           ("inertia_inf", '"inertia": 1e400'),
           ("omega_short", '"omega": [0, 0]'),
           ("omega_null", '"omega": null'),
           ("omega_inf", '"omega": [0, 0, 1e400]'),
           ("omega_scalar", '"omega": 7.29e-5'),
           ("omega_nested", '"omega": [[0, 0, 1]]'),
           ("earth_no_field", '"r_o": 0'))},
    "gyro_rate_underflow": ("gyro", EARTH % '"r_o": 1e-300',
                            ["--orbit-radius", "1e9"]),
    "gyro_geodetic_fma": ("gyro", EARTH % ('"r_o": 2.686716799982485e-09, '
                                           '"inertia": 1.428173803976335e+18, '
                                           '"omega": [0.0, 0.0, '
                                           '-8.080411199299936e-07]'),
                          ["--orbit-radius", "36332272.11646175"]),
    "orbit_eccentric_samples_5": (
        "orbit", MERCURY % ('"n_orbits": 30, "params": {"r_o": 1480.0, '
                            '"a": 228965973.88285884, '
                            '"ecc": 0.9867718779769822}'),
        ["--samples", "5"]),
    "orbit_strong": ("orbit", MERCURY % '"params": {"r_o": 1.0, "a": 1e3, '
                                        '"ecc": 0.99}', []),
    "orbit_strong_samples_3": ("orbit", MERCURY % '"params": {"r_o": 1.0, '
                                                  '"a": 1e3, "ecc": 0.99}',
                               ["--samples", "3"]),
    "orbit_near_circle": ("orbit", MERCURY % '"params": {"r_o": 1e-60, '
                                             '"ecc": 0.0}', []),
    "orbit_weaker_r_o": ("orbit", MERCURY % '"params": {"r_o": 1e-290}', []),
}


def cases():
    """name -> (flatgrav arguments, config text or None)."""
    out = {f"{sub}.{fmt}": ([sub, "--format", fmt], None)
           for sub in SUBCOMMANDS for fmt in ("json", "csv")}
    for radius in ("6.5e6", "1e7", "1e12", "nan", "1e-105", "1e-3",
                   "1e103"):
        out[f"gyro_orbit-radius_{radius}.json"] = (
            ["gyro", "--orbit-radius", radius], None)
    out["orbit_samples_2.json"] = (["orbit", "--samples", "2"], None)
    for name, (sub, config, extra) in CONFIGS.items():
        out[f"{name}.json"] = ([sub, "--config", "config.json", *extra],
                               config)
    out["compare_strong-rmin_7.500001.json"] = (
        ["compare", "--strong-rmin", "7.500001"], None)
    return out


def main(out: Path = GOLDEN) -> None:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out.mkdir(parents=True, exist_ok=True)
    index = {}
    for name, (args, config) in cases().items():
        with tempfile.TemporaryDirectory() as cwd:
            if config is not None:
                Path(cwd, "config.json").write_text(config)
            proc = subprocess.run(
                [sys.executable, "-m", "flatgrav.cli", *args],
                capture_output=True, env=env, cwd=cwd, timeout=300)
        (out / name).write_bytes(proc.stdout)
        index[name] = {"args": args, "exit": proc.returncode,
                       "stderr": proc.stderr.decode()}
        if config is not None:
            index[name]["config"] = config
    lines = [f" {json.dumps(name)}: {json.dumps(case)}"
             for name, case in index.items()]
    (out / "cases.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    main(*(Path(arg).resolve() for arg in sys.argv[1:2]))
