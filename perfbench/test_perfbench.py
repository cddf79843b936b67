"""Tests of the benchmark's own code: inputs, checks, tracing, output.

    python -m pytest perfbench -q
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from collections import Counter
from itertools import islice
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from perfbench import calibration, cases, checks, run, tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# ----------------------------------------------------------------- inputs


@pytest.mark.parametrize("workload", ["orbit-sweep", "spin-transport"])
def test_same_seed_same_inputs(workload):
    first = list(islice(cases.passes(workload, 7), 3))
    again = list(islice(cases.passes(workload, 7), 3))
    other = list(islice(cases.passes(workload, 8), 3))
    assert first == again
    assert first != other
    assert cases.warmup_case(workload, 7) not in first[0]


def test_same_seed_same_cli_pool(tmp_path):
    assert cases.cli_pool(7) == cases.cli_pool(7)
    assert cases.cli_pool(7) != cases.cli_pool(8)
    a = cases.materialize(cases.cli_pool(7), tmp_path / "a")
    b = cases.materialize(cases.cli_pool(7), tmp_path / "b")
    for name in ("orbit.cfg.json", "echo.cfg.json", "compare.cfg.json"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()
    assert len(a) == len(b) == 16


def test_orbit_pass_covers_every_stratum():
    lo, hi = cases.ORBIT_LOG_RMIN
    width = (hi - lo) / cases.ORBIT_PASS
    for p in islice(cases.passes("orbit-sweep", 3), 4):
        assert sorted(c.n_orbits for c in p) == list(range(3, 31))
        bins = sorted(int((math.log(c.r_min_over_ro) - lo) // width)
                      for c in p)
        assert bins == list(range(cases.ORBIT_PASS))
        e_lo, e_hi = cases.ORBIT_ECC
        e_bins = sorted(int((c.ecc - e_lo) // ((e_hi - e_lo)
                                                / cases.ORBIT_PASS))
                        for c in p)
        assert e_bins == list(range(cases.ORBIT_PASS))


# ----------------------------------------------------------------- checks


def _echo_report(quad=220.4818755744672, closed=220.48264014786426):
    rows = [{"scenario": "solar", "model": "flatspace-weber",
             "quantity": "echo_delay", "value": v, "unit": "us",
             "tolerance": 0.02, "provenance": p}
            for v, p in ((quad, "path-quadrature"), (closed, "closed-form"))]
    return {"rows": rows, "tables": {}}


ECHO = cases.CliCase(("echo-delay",), "echo-delay", "json", True, {})


def test_checker_accepts_good_report(tmp_path):
    assert checks.check_cli(ECHO, _echo_report(), tmp_path,
                            None)["failures"] == []


def test_checker_rejects_perturbed_value(tmp_path):
    res = checks.check_cli(ECHO, _echo_report(closed=220.48 * 1.05),
                           tmp_path, None)
    assert any("echo routes" in f for f in res["failures"])
    res = checks.check_cli(ECHO, _echo_report(quad=221.0, closed=221.0),
                           tmp_path, None)
    assert res["failures"]


def test_checker_rejects_perturbed_precession():
    report = {"rows": [
        {"quantity": "precession_per_orbit", "provenance": "orbit-integration",
         "value": 5.0309168e-07, "tolerance": 1e-12, "unit": "rad",
         "model": "flatspace-weber"},
        {"quantity": "energy_integral_drift", "provenance": "orbit-integration",
         "value": 3e-16, "tolerance": None, "unit": "relative",
         "model": "flatspace-weber"}], "tables": {}}
    ref = 5.0308566e-07
    assert checks.check_orbit(report, ref, 10, samples=None)["failures"] == []
    assert checks.check_orbit(report, ref * 1.01, 10,
                              samples=None)["failures"]


def test_checker_rejects_nonzero_exit_and_traceback():
    assert checks.process_failures(0, "") == []
    assert checks.process_failures(3, "numerical error: x")
    tb = "Traceback (most recent call last):\n  ...\nValueError: boom\n"
    assert checks.process_failures(0, tb)


def test_in_process_crash_is_a_failure():
    class Crashing:
        @staticmethod
        def main(argv):
            raise ValueError("boom")

    _, rc, _, err = run.call_main(Crashing, ["orbit"])
    assert rc != 0 and checks.process_failures(rc, err)


# ---------------------------------------------------------------- tracing


def test_self_time_subtracts_children():
    S = tracing.Span
    spans = [S("cli.main", 0, 100, -1, 0), S("orbits.integrate_orbit", 10, 70,
                                              0, 0),
             S("orbits.Trajectory.integral_drift", 50, 65, 1, 0),
             S("cli._emit", 80, 95, 0, 0)]
    assert tracing.self_times(spans) == [25, 45, 15, 15]
    assert tracing.layer_self_ms(spans) == pytest.approx(
        {"cli": 40e-6, "orbits": 60e-6})


def test_tracer_installs_and_restores():
    import flatgrav
    from flatgrav import cli, orbits
    original = orbits.integrate_orbit
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert orbits.integrate_orbit is not original
        assert cli.integrate_orbit is orbits.integrate_orbit
        assert flatgrav.integrate_orbit is orbits.integrate_orbit
        tracer.next_case()
        state, integ = orbits.orbit_from_elements(1480.0, 1e6, 0.2)
        orbits.integrate_orbit(1480.0, state, integ, 2)
        with tracer.paused():
            orbits.integrate_orbit(1480.0, state, integ, 2)
    finally:
        tracer.uninstall()
    assert orbits.integrate_orbit is original
    assert cli.integrate_orbit is original
    names = Counter(s.name for s in tracer.closed_spans())
    assert names["orbits.integrate_orbit"] == 1
    assert tracer.counts["orbits.rosette_rhs"] > 0


def test_tail_keeps_ten_samples_beyond():
    t = run.tail([float(i) for i in range(100)])
    assert t["value"] == 89.0 and t["beyond"] == 10
    assert t["percentile"] == pytest.approx(90.0)


def test_calibration_scale_is_reference_over_trimmed_mean():
    cal = calibration.Calibration()
    cal.samples = [calibration.REFERENCE_MS * 2.0] * 18 + [0.001, 1e6]
    assert cal.scale() == pytest.approx(0.5)
    assert cal.scale(around=0) == pytest.approx(0.5)
    cal.samples[:3] = [calibration.REFERENCE_MS] * 3
    assert cal.scale(around=0) == pytest.approx(1.0)
    cal.sample()
    assert len(cal.samples) == 21 and cal.samples[-1] > 0.0


def test_importtime_parse():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 | encodings",
        "import time:      2000 |       2000 |       numpy",
        "import time:      3000 |       3000 |         scipy.integrate",
        "import time:       500 |       5500 |     flatgrav.orbits",
        "import time:       200 |       5700 | flatgrav",
        "import time:       300 |        300 | flatgrav.cli",
    ])
    m = tracing.parse_importtime(text)
    assert m == {"import.total_ms": 6.0, "import.numpy_ms": 2.0,
                 "import.scipy_ms": 3.0, "import.flatgrav_self_ms": 1.0}


# ------------------------------------------------------------ the command


def _result(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


@pytest.mark.parametrize("workload,trace,key", [
    ("spin-transport", "0", "end_to_end"),
    ("cli-suite", "1", "per_layer"),
])
def test_printed_metrics_match_benchmark_json(workload, trace, key):
    proc = _result(["--workload", workload, "--seed", "3", "--seconds", "1",
                    "--trace", trace])
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], float) and math.isfinite(v["value"])
               for v in result["metrics"].values())


def test_fails_without_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _result(["--workload", "orbit-sweep", "--seed", "1", "--seconds",
                    "1", "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
