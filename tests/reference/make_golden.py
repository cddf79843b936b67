"""Write ``tests/golden/``: the one table of flatgrav's CLI cases, and the
bytes each case prints and writes.

Run from the repository root:

    python tests/reference/make_golden.py [OUTPUT_DIR]

Each case is one ``flatgrav`` argument list, run as a fresh process
(``python -m flatgrav.cli``) on the ``src`` of the checkout that holds this
script, in an empty directory that holds only ``config.json``, the config's
text, if the case has one.  Its stdout is written to ``<OUTPUT_DIR>/<name>``
and each file the run writes there (an ``--out`` report and its
``<stem>_<table>.csv`` tables) to ``<OUTPUT_DIR>/<name>.files/``.
``<OUTPUT_DIR>/cases.json`` maps each name to the arguments, the config text
(if any), the exit code, the stderr text and the written files (if any).
OUTPUT_DIR defaults to ``tests/golden``, the stored corpus; another
directory leaves the corpus alone, for a ``diff -r`` against it.

``tests/test_golden.py`` replays every case through ``cli.main`` and
compares the bytes, ``tests/test_numpy_free.py`` replays the cases of the
numpy-free subcommands with numpy blocked, and
``tests/test_dataclasses_free.py`` every case with ``dataclasses`` blocked.  Every case is held to the
CLI contract: exit 0, 2 (invalid configuration) or 3 (numerical failure);
a nonzero exit prints nothing on stdout and one stderr line that starts
``config error: `` or ``numerical error: ``; no stderr holds ``Traceback``
or ``Warning``.  So writing the corpus again cannot approve a traceback.

The cases: every subcommand's default run, in csv too, and with ``--out``
in json and in csv; the edge values of flags (``FLAGS``); and config files
(``CONFIGS``): weak but valid fields, invalid input, and configs that have
moved bytes before (an orbital rate that underflows, a sum of squares that
a fused multiply-add would round differently, near-parabolic and strong
orbits that stress the clock quadrature).  Standing defects stay in the
corpus as they are, such as ``compare --strong-rmin 7.500001`` exiting 3 on
a quadrature that does not converge, so that a mend shows as a diff.

To add a case, add its flag value to ``FLAGS`` or its config to
``CONFIGS`` (an ``--out`` path goes in a config case's extra arguments),
and run this script.  A change that moves a report's bytes on purpose
writes the corpus again in the same commit; ``git diff tests/golden`` then
lists every moved report.
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
# (subcommand, flag, values): case <subcommand>_<flag>_<value>.json
FLAGS = (
    ("orbit", "samples", ("2",)),
    ("orbit", "orbits", ("1",)),
    ("orbit", "tol", ("0", "1", "1e-300", "5e-324")),
    ("light-deflect", "tol", ("1e-9", "1e308")),
    ("gyro", "orbit-radius", ("6.5e6", "1e7", "1e12", "nan", "1e-105",
                              "1e-3", "1e103")),
    ("density", "r-over-ro", ("1e160", "1e200", "1e300", "1e-200", "nan",
                              "-1")),
    ("density", "samples", ("1", "0", "1000001")),
    ("electric", "samples", ("1000", "0")),
    ("compare", "strong-rmin", ("7.500001", "3", "inf")),
)
MERCURY = '{"preset": "mercury", "params": {%s}}'
SOLAR = '{"preset": "solar", "params": {%s}}'
EARTH = '{"preset": "earth", "params": {%s}}'
STRONG = MERCURY % '"r_o": 1.0, "a": 1e3, "ecc": 0.99'
# (subcommands, name, config text, extra arguments): case
# <subcommand>_<name>.json
CONFIGS = (
    (("precession",), "weak_r_o", MERCURY % '"r_o": 1e-200', ()),
    (("precession", "orbit"), "weaker_r_o", MERCURY % '"r_o": 1e-290', ()),
    (("precession",), "huge_a_weak", MERCURY % '"r_o": 1e-100, "a": 3e150',
     ()),
    (("precession", "orbit"), "near_circle",
     MERCURY % '"r_o": 1e-60, "ecc": 0.0', ()),
    (("precession", "orbit"), "tiny_r_o", MERCURY % '"r_o": 1e-300', ()),
    (("precession", "orbit"), "subnormal_r_o", MERCURY % '"r_o": 1e-320',
     ()),
    (("precession", "orbit", "compare"), "tiny_a", MERCURY % '"a": 1e-300',
     ()),
    (("orbit", "compare"), "huge_a", MERCURY % '"a": 1e400', ()),
    (("orbit", "compare"), "no_field", MERCURY % '"r_o": 0', ()),
    (("orbit",), "zero_forcing", MERCURY % '"r_o": 1e-305', ()),
    (("orbit",), "bool_a", MERCURY % '"a": true', ()),
    (("orbit",), "unknown_param", MERCURY % '"zzz": 1', ()),
    (("orbit",), "one_orbit", '{"preset": "mercury", "n_orbits": 1}', ()),
    (("orbit",), "unknown_key", '{"preset": "mercury", "nam": "x"}', ()),
    (("orbit",), "name_int", '{"preset": "mercury", "name": 5}', ()),
    (("precession",), "run_keys",
     '{"preset": "mercury", "tol": 1e-3, "n_orbits": 99}', ()),
    (("compare",), "model", '{"model": "flatspace-weber"}', ()),
    (("orbit",), "strong", STRONG, ()),
    (("orbit",), "strong_samples_3", STRONG, ("--samples", "3")),
    (("orbit",), "eccentric_samples_5",
     '{"preset": "mercury", "n_orbits": 30, "params": {"r_o": 1480.0, '
     '"a": 228965973.88285884, "ecc": 0.9867718779769822}}',
     ("--samples", "5")),
    (("echo-delay",), "huge_r_ms", SOLAR % '"r_ms": 1e300', ()),
    (("echo-delay", "light-deflect"), "tiny_R_s", SOLAR % '"R_s": 1e-300',
     ()),
    (("echo-delay",), "overflowing_delay", SOLAR % '"R_s": 1e-303', ()),
    (("light-deflect",), "subnormal_R_s", SOLAR % '"R_s": 5e-324', ()),
    (("light-deflect",), "deflect_orbits",
     '{"preset": "solar", "n_orbits": 3}', ()),
    (("light-deflect",), "near_capture", SOLAR % '"r_o": 1.0, "R_s": 4.5',
     ()),
    (("light-deflect",), "captured", SOLAR % '"r_o": 1.0, "R_s": 4.0', ()),
    *((("gyro",), name, EARTH % params, ())
      for name, params in (
          ("inertia_str", '"inertia": "x"'),
          ("inertia_neg", '"inertia": -1'),
          ("inertia_inf", '"inertia": 1e400'),
          ("omega_short", '"omega": [0, 0]'),
          ("omega_null", '"omega": null'),
          ("omega_inf", '"omega": [0, 0, 1e400]'),
          ("omega_scalar", '"omega": 7.29e-5'),
          ("omega_nested", '"omega": [[0, 0, 1]]'),
          ("earth_no_field", '"r_o": 0'),
          ("subnormal_r_o", '"r_o": 5e-324'))),
    (("gyro",), "rate_underflow", EARTH % '"r_o": 1e-300',
     ("--orbit-radius", "1e9")),
    (("gyro",), "r_cubed_underflow", EARTH % '"radius": 1e-300',
     ("--orbit-radius", "1e-150")),
    (("gyro",), "geodetic_fma",
     EARTH % ('"r_o": 2.686716799982485e-09, '
              '"inertia": 1.428173803976335e+18, '
              '"omega": [0.0, 0.0, -8.080411199299936e-07]'),
     ("--orbit-radius", "36332272.11646175")),
    # the worst rows of a seeded scan against mpmath: grad(G0) or the
    # rate's squares leave the float range
    (("gyro",), "geodetic_underflow", EARTH % '"r_o": 1e-300, '
     '"omega": [0, 0, 1e100]', ()),
    (("gyro",), "geodetic_squares_underflow",
     EARTH % ('"r_o": 1.6798580437847986e-67, '
              '"inertia": 3.9348961475096244e+86, '
              '"omega": [1.5532166443607105e-206, 0.0, '
              '8.703073831324973e-141]'),
     ("--orbit-radius", "7.331598625769354e+56")),
    # r_o*x_0 underflows to 0 where x_0 is not 0: the rate printed 0.0
    (("gyro",), "geodetic_product_underflow",
     EARTH % '"r_o": 1e-300, "inertia": 0.0, "radius": 1e-200',
     ("--orbit-radius", "1e-100")),
    (("gyro",), "geodetic_overflow",
     EARTH % ('"r_o": 8.214811644313858e+254, "inertia": 0.0, '
              '"omega": [-1.5018961327648297e-214, 1.2241686626873702e-167, '
              '0.0]'),
     ("--orbit-radius", "4.106095085917503e+99")),
    # 2I/r^3 underflows where the drag rates are normal: they printed 0.0
    (("gyro",), "drag_factor_underflow",
     EARTH % ('"r_o": 1.0, "inertia": 1e-300, "omega": [0, 0, 1e100], '
              '"radius": 5e9'),
     ("--orbit-radius", "1e10")),
    # w_2*x_0 underflows where k*w_2*x_0 dominates v/2: the geodetic rate
    # was 3.30310045322767e-258, not 3.6056784370116044e-224
    (("gyro",), "geodetic_field_underflow",
     EARTH % ('"r_o": 1.7889261424574756e-266, '
              '"inertia": 8.229826771855882e+97, '
              '"omega": [1.2270897191570304e+60, 0.0, '
              '-7.385362409664923e-278], "radius": 3.4253583669472663e-140'),
     ("--orbit-radius", "6.520897698131097e-54")),
    # 1.5*r_o/r^3 and r_o/radius^3 are subnormal: the de Sitter rate and
    # the period were 0.3% and 0.11% off
    (("gyro",), "de_sitter_subnormal_factor",
     EARTH % ('"r_o": 7.391679491995395e-53, '
              '"inertia": 9.331431581215678e-273, '
              '"omega": [-1.4645312756457603e+152, -5.912103544167774e-97, '
              '-2.2979967708796533e-259]'),
     ("--orbit-radius", "6.435800703607409e+89")),
)


def cases():
    """name -> (flatgrav arguments, config text or None)."""
    out = {}
    for sub in SUBCOMMANDS:
        out[f"{sub}.json"] = ([sub], None)
        out[f"{sub}.csv"] = ([sub, "--format", "csv"], None)
        for fmt in ("json", "csv"):
            out[f"{sub}_out.{fmt}"] = (
                [sub, "--format", fmt, "--out", f"report.{fmt}"], None)
    for sub, flag, values in FLAGS:
        for value in values:
            out[f"{sub}_{flag}_{value}.json"] = ([sub, f"--{flag}", value],
                                                 None)
    for subs, name, config, extra in CONFIGS:
        for sub in subs:
            out[f"{sub}_{name}.json"] = (
                [sub, "--config", "config.json", *extra], config)
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
            written = sorted(path for path in Path(cwd).iterdir()
                             if path.name != "config.json")
            if written:
                (out / f"{name}.files").mkdir(exist_ok=True)
            for path in written:
                (out / f"{name}.files" / path.name).write_bytes(
                    path.read_bytes())
        (out / name).write_bytes(proc.stdout)
        index[name] = {"args": args, "exit": proc.returncode,
                       "stderr": proc.stderr.decode()}
        if config is not None:
            index[name]["config"] = config
        if written:
            index[name]["files"] = [path.name for path in written]
    lines = [f" {json.dumps(name)}: {json.dumps(case)}"
             for name, case in index.items()]
    (out / "cases.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    main(*(Path(arg).resolve() for arg in sys.argv[1:2]))
