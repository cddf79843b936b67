"""Baseline observables and end-to-end CLI behavior."""
import csv
import gc
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from flatgrav.baseline import (
    schwarzschild_deflection,
    schwarzschild_delay,
    schwarzschild_precession,
    schwarzschild_precession_quadrature,
)
from flatgrav import carriers, cli
from flatgrav.cli import RunReport, build_parser, main
from flatgrav.errors import ConfigInvalid, NumericalFailure
from flatgrav.orbits import (
    orbit_from_elements,
    precession_quadrature,
    turning_points,
)
from flatgrav.presets import (
    MERCURY_ECCENTRICITY,
    MERCURY_SEMI_MAJOR,
    SOLAR_R_O,
    Scenario,
    check,
    preset_scenario,
)

SRC = Path(__file__).resolve().parents[1] / "src"
SUBCOMMANDS = ("orbit", "precession", "light-deflect", "echo-delay", "gyro",
               "density", "electric", "compare")


class TestBaseline:
    def test_precession_formula(self):
        p = preset_scenario("mercury").params
        val = schwarzschild_precession(p["r_o"], p["a"], p["ecc"])
        expected = 6 * np.pi * SOLAR_R_O / (
            MERCURY_SEMI_MAJOR * (1 - MERCURY_ECCENTRICITY**2)
        )
        assert val == pytest.approx(expected, rel=1e-15)

    def test_deflection_and_delay(self):
        p = preset_scenario("solar").params
        assert schwarzschild_deflection(p["r_o"], p["R_s"]) == \
            pytest.approx(-4 * p["r_o"] / p["R_s"], rel=1e-15)
        assert schwarzschild_delay(p["r_o"], p["r_es"], p["r_ms"],
                                   p["R_s"]) == pytest.approx(
            4 * p["r_o"] * np.log(4 * p["r_ms"] * p["r_es"] / p["R_s"] ** 2),
            rel=1e-15,
        )

    def test_zero_field(self):
        assert schwarzschild_precession(0.0, 1e11, 0.1) == 0.0
        assert schwarzschild_deflection(0.0, 1e9) == 0.0
        assert schwarzschild_delay(0.0, 1e11, 5e10, 1e9) == 0.0

    def test_quadrature_weak_field_limit(self):
        r_min = MERCURY_SEMI_MAJOR * (1 - MERCURY_ECCENTRICITY)
        r_max = MERCURY_SEMI_MAJOR * (1 + MERCURY_ECCENTRICITY)
        quad_val = schwarzschild_precession_quadrature(SOLAR_R_O, r_min,
                                                       r_max)
        closed = 6 * np.pi * SOLAR_R_O / (
            MERCURY_SEMI_MAJOR * (1 - MERCURY_ECCENTRICITY**2)
        )
        assert quad_val == pytest.approx(closed, rel=1e-3)


class TestScenarioValidation:
    def test_bad_tolerance(self):
        with pytest.raises(ConfigInvalid):
            Scenario(name="x", tol=0.0)

    def test_bad_length(self):
        with pytest.raises(ConfigInvalid):
            Scenario(name="x", params={"r_o": -1.0})

    def test_unknown_preset(self):
        with pytest.raises(ConfigInvalid):
            preset_scenario("vulcan")

    @pytest.mark.parametrize("key, value", [
        ("a", True), ("n_orbits", True), ("n_orbits", 1), ("n_orbits", 2.0),
        ("tol", 0.0), ("r_o", float("inf")), ("name", 5), ("zzz", 1),
    ])
    def test_check_refuses_out_of_domain_values(self, key, value):
        with pytest.raises(ConfigInvalid, match=repr(key)):
            check(key, value)

    def test_check_refuses_a_key_outside_its_part(self):
        assert check("tol", 1e-9) == 1e-9
        with pytest.raises(ConfigInvalid, match="unknown key 'tol'"):
            Scenario(name="x", params={"tol": 1e-9})

    def test_rotation_parameters(self):
        earth = preset_scenario("earth").params
        for omega in (earth["omega"], [0, 0, 1e-13], [0.0, 0.0, 0.0]):
            Scenario(name="x", params={"inertia": 0, "omega": omega})
        for omega in ([0.0, 0.0], [[0.0, 0.0, 1.0]], [0, 0, np.inf],
                      np.zeros(3)):
            with pytest.raises(ConfigInvalid):
                Scenario(name="x", params={"omega": omega})


class TestCli:
    def run_json(self, argv, tmp_path):
        out = tmp_path / "report.json"
        code = main(argv + ["--out", str(out)])
        assert code == 0
        return json.loads(out.read_text())

    def test_echo_delay(self, tmp_path):
        report = self.run_json(["echo-delay"], tmp_path)
        values = [row["value"] for row in report["rows"]
                  if row["quantity"] == "echo_delay"]
        assert all(abs(v - 220.0) / 220.0 < 0.02 for v in values)
        assert all(row["unit"] == "us" for row in report["rows"])

    def test_density_enclosed_fraction(self, tmp_path):
        report = self.run_json(["density", "--r-over-ro", "1"], tmp_path)
        frac = next(row["value"] for row in report["rows"]
                    if row["quantity"] == "enclosed_fraction")
        assert frac == pytest.approx(0.5, abs=1e-12)

    def test_orbit_writes_trajectory_table(self, tmp_path):
        out = tmp_path / "orbit.csv"
        code = main(["orbit", "--orbits", "2", "--samples", "8",
                     "--format", "csv", "--out", str(out)])
        assert code == 0
        table = tmp_path / "orbit_trajectory.csv"
        assert table.exists()
        with table.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["phi_rad", "r_m", "t_m", "p_m"]
        assert len(rows) == 9

    def test_csv_has_header(self, tmp_path):
        out = tmp_path / "rows.csv"
        assert main(["precession", "--format", "csv",
                     "--out", str(out)]) == 0
        header = out.read_text().splitlines()[0]
        assert header == ("scenario,model,quantity,value,unit,tolerance,"
                          "provenance")

    def test_deterministic_output(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(["compare", "--out", str(a)]) == 0
        assert main(["compare", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_config_file_round_trip(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "preset": "mercury",
            "name": "mercury-tight",
            "params": {"ecc": 0.1},
        }))
        report = self.run_json(["precession", "--config", str(cfg)],
                               tmp_path)
        assert report["scenario"] == "mercury-tight"
        assert report["config"]["params"]["ecc"] == 0.1

    def test_invalid_preset_exit_code(self, capsys):
        assert main(["orbit", "--preset", "vulcan"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_invalid_config_exit_code(self, tmp_path):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json")
        assert main(["precession", "--config", str(cfg)]) == 2

    def test_numerical_failure_exit_code(self, tmp_path):
        # r_p = 2000 m < 3 r_o: no bound orbit turns there
        cfg = tmp_path / "unbound.json"
        cfg.write_text(json.dumps({"preset": "mercury",
                                   "params": {"a": 4000.0, "ecc": 0.5}}))
        assert main(["orbit", "--config", str(cfg)]) == 3

    @pytest.mark.parametrize("flags", [
        ["--orbits", "0"], ["--orbits", "-3"],
        ["--samples", "0"], ["--samples", "1"],
    ])
    def test_orbit_rejects_bad_counts(self, flags, capsys):
        assert main(["orbit", *flags]) == 2
        assert "config error" in capsys.readouterr().err

    def test_strong_field_low_eccentricity_orbit(self, tmp_path):
        # a*(1 - ecc) is the outer turning point here; starting there left
        # two revolutions with a single perihelion passage (exit 3)
        cfg = tmp_path / "strong.json"
        cfg.write_text(json.dumps({"preset": "mercury", "n_orbits": 2,
                                   "params": {"a": 33835.0, "ecc": 0.0517}}))
        report = self.run_json(["orbit", "--config", str(cfg)], tmp_path)
        numeric = next(row for row in report["rows"]
                       if row["quantity"] == "precession_per_orbit"
                       and row["provenance"] == "orbit-integration")
        _, integrals = orbit_from_elements(1480.0, 33835.0, 0.0517)
        ref = precession_quadrature(1480.0,
                                    *turning_points(1480.0, integrals))
        # the 2*pi cancellation floor of an integration at tol, x100
        floor = 100.0 * 2.0 * np.pi * numeric["tolerance"]
        assert abs(numeric["value"] - ref) <= floor

    def test_compare_reports_divergence(self, tmp_path):
        report = self.run_json(["compare"], tmp_path)
        div = next(row["value"] for row in report["rows"]
                   if row["quantity"] == "strong_field_divergence")
        assert div > 0.01
        models = {row["model"] for row in report["rows"]}
        assert {"flatspace-weber", "schwarzschild", "newtonian"} <= models
        assert [row["value"] for row in report["rows"]
                if row["model"] == "newtonian"] == [0.0, 0.0, 0.0]

    def test_gyro_rates(self, tmp_path):
        report = self.run_json(["gyro"], tmp_path)
        by_q = {row["quantity"]: row["value"] for row in report["rows"]}
        assert by_q["frame_dragging_polar"] == pytest.approx(
            -2.0 * by_q["frame_dragging_equatorial"], rel=1e-12
        )
        assert by_q["geodetic_rate_desitter"] == pytest.approx(
            3.0 * by_q["geodetic_rate"], rel=1e-12
        )

    @staticmethod
    def dump(report):
        """The encoder's text of the report's six fields."""
        return json.dumps({"scenario": report.scenario, "model": report.model,
                           "version": report.version, "config": report.config,
                           "rows": report.rows, "tables": report.tables},
                          indent=2, sort_keys=True)

    @pytest.mark.parametrize("sub", SUBCOMMANDS)
    def test_json_is_the_asdict_dump(self, sub):
        args = build_parser().parse_args([sub])
        report = args.func(args)
        assert report.to_json() == self.dump(report)

    def test_json_writer_is_the_encoder_on_any_layout(self):
        report = RunReport(scenario="s\u00e9\n", model="m", config={
            "params": {"omega": [np.float64(0.5), -0.0, 5e-324, 1e300],
                       "ints": [1, 2], "flags": [True, 1.0], "empty": [],
                       "none": {}, "nested": {"b": [[1.5]], "a": None}},
            "n_orbits": 3})
        report.add("q", 1.25, "1", "closed-form", tolerance=1e-12)
        report.tables = {"t": {"b": [0.1, 2.0], "a": [], "c": [3.0]}}
        assert report.to_json() == self.dump(report)

    def test_parser_is_built_once_and_calls_the_current_command(
            self, monkeypatch, capsys):
        assert build_parser() is build_parser()
        monkeypatch.setattr(cli, "cmd_precession",
                            lambda args: RunReport(scenario="stub", model="m"))
        assert main(["precession"]) == 0
        assert json.loads(capsys.readouterr().out)["scenario"] == "stub"

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0


class TestCliContract:
    """Invalid input exits 2 with a config error, never a traceback."""

    @staticmethod
    def config(tmp_path, raw):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        return str(cfg)

    @pytest.mark.parametrize("command", ["orbit", "precession"])
    @pytest.mark.parametrize("ecc", [-0.2, 1.0, 1.5])
    def test_eccentricity_outside_unit_interval(self, tmp_path, capsys,
                                                command, ecc):
        cfg = self.config(tmp_path, {"preset": "mercury",
                                     "params": {"ecc": ecc}})
        assert main([command, "--config", cfg]) == 2
        assert "eccentricity" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["orbit", "precession"])
    @pytest.mark.parametrize("raw, key", [
        ({"n_orbits": "abc"}, "n_orbits"),
        ({"n_orbits": True}, "n_orbits"),
        ({"n_orbits": 2.5}, "n_orbits"),
        ({"tol": "x"}, "tol"),
        ({"tol": float("nan")}, "tol"),
        ({"tol": float("inf")}, "tol"),
        ({"params": [1, 2]}, "params"),
    ])
    def test_wrongly_typed_config_values(self, tmp_path, capsys, command,
                                         raw, key):
        cfg = self.config(tmp_path, {"preset": "mercury", **raw})
        assert main([command, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and key in err

    @pytest.mark.parametrize("params, key", [
        ({"inertia": "x"}, "inertia"),
        ({"inertia": -1}, "inertia"),
        ({"inertia": 1e400}, "inertia"),
        ({"omega": [0, 0]}, "omega"),
        ({"omega": None}, "omega"),
        ({"omega": [0, 0, 1e400]}, "omega"),
        ({"omega": 7.29e-5}, "omega"),      # not a tilted axis (w, w, w)
        ({"omega": [[0, 0, 1]]}, "omega"),
    ])
    def test_gyro_rotation_parameters(self, tmp_path, capsys, params, key):
        cfg = self.config(tmp_path, {"preset": "earth", "params": params})
        assert main(["gyro", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "config error" in captured.err and key in captured.err

    @pytest.mark.parametrize("argv, missing", [
        (["orbit", "--preset", "solar"], "a, ecc"),
        (["gyro", "--preset", "mercury"], "inertia, omega"),
    ])
    def test_preset_without_parameters(self, capsys, argv, missing):
        assert main(argv) == 2
        assert missing in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["precession", "density"])
    def test_unwritable_out(self, tmp_path, capsys, command):
        out = tmp_path / "missing-dir" / "report.json"
        assert main([command, "--out", str(out)]) == 2
        assert "cannot write" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["orbit", "precession",
                                         "light-deflect", "echo-delay",
                                         "gyro", "compare"])
    def test_flat_only_commands_reject_other_models(self, tmp_path, capsys,
                                                    command):
        # each row names the code that made it: no config can label one
        cfg = self.config(tmp_path, {"model": "flatspace-weber"})
        assert main([command, "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "config error: unknown key 'model'\n"

    @pytest.mark.parametrize("command, key", [
        (command, key) for command in ("precession", "echo-delay", "gyro",
                                       "compare")
        for key in ("tol", "n_orbits")] + [("light-deflect", "n_orbits")])
    def test_config_run_key_only_where_it_is_read(self, tmp_path, capsys,
                                                  command, key):
        # a run key the subcommand has no flag for would be ignored
        preset = {"gyro": "earth", "echo-delay": "solar",
                  "light-deflect": "solar"}.get(command, "mercury")
        cfg = self.config(tmp_path, {"preset": preset,
                                     key: {"tol": 1e-3, "n_orbits": 99}[key]})
        assert main([command, "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: unknown key {key!r}\n"

    def test_zero_field_precession(self, tmp_path):
        cfg = self.config(tmp_path, {"preset": "mercury",
                                     "params": {"r_o": 0.0}})
        assert main(["precession", "--config", cfg]) == 2

    @pytest.mark.parametrize("ecc", [0.0, 1e-9, 1e-7, 1e-5])
    def test_near_circular_precession(self, tmp_path, ecc):
        # np.roots split the near-double turning root into a complex pair
        cfg = self.config(tmp_path, {"preset": "mercury",
                                     "params": {"ecc": ecc}})
        out = tmp_path / "prec.json"
        assert main(["precession", "--config", cfg, "--out", str(out)]) == 0
        by_prov = {r["provenance"]: r["value"]
                   for r in json.loads(out.read_text())["rows"]
                   if r["quantity"] == "precession_per_orbit"}
        closed = by_prov["closed-form"]
        quad = by_prov["turning-point-quadrature"]
        # the flat model departs from 6 pi r_o/(a(1 - e^2)) at O(r_o/a)
        assert abs(quad - closed) <= 20.0 * SOLAR_R_O / MERCURY_SEMI_MAJOR \
            * closed

    @pytest.mark.parametrize("command, params", [
        ("precession", {"r_o": 1e-300}),
        ("orbit", {"r_o": 1e-300}),
        ("orbit", {"r_o": 1e-305}),     # the launch forcing underflows to 0
        ("orbit", {"a": 1e-300}),
        ("precession", {"a": 1e-300}),
    ])
    def test_extreme_scales_fail_without_traceback(self, tmp_path, capsys,
                                                   command, params):
        cfg = self.config(tmp_path, {"preset": "mercury", "params": params})
        assert main([command, "--config", cfg]) in (2, 3)
        captured = capsys.readouterr()
        assert captured.out == "" and "error" in captured.err

    def test_compare_refuses_elements_with_no_bound_orbit(self, tmp_path,
                                                          capsys):
        # a = 1e-300 puts the perihelion inside 3*r_o: compare fails as
        # precession does, not with finite precession rows
        cfg = self.config(tmp_path, {"preset": "mercury",
                                     "params": {"a": 1e-300}})
        errors = []
        for command in ("precession", "compare"):
            assert main([command, "--config", cfg]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            errors.append(captured.err)
        assert errors[0] == errors[1]
        assert errors[1].startswith("numerical error: r = 7.944e-301 is not "
                                    "outside 3*r_o")

    @pytest.mark.parametrize("tol, err", [
        # f0/scale overflows the first step's estimate, so h0 = 0: the run
        # ends as scipy's does, with no step
        ("1e-300", "Required step size is less than spacing between "
                   "numbers."),
        # atol = tol*pi*|g0| underflows to 0, where scipy never ends
        ("5e-324", "tol = 5e-324 sets atol = tol*pi*|g0| to 0"),
    ], ids=["step-failure", "atol-zero"])
    def test_tiny_tol_exits_3(self, capsys, tol, err):
        assert main(["orbit", "--tol", tol]) == 3
        assert capsys.readouterr() == ("", f"numerical error: {err}\n")

    @pytest.mark.parametrize("r_o", [1e-155, 1e-200, 1e-290])
    def test_weak_field_precession(self, tmp_path, r_o):
        # s*s of the deflated turning quadratic overflows at these r_o, and
        # a**3/r_o of the Keplerian period at 1e-290
        cfg = self.config(tmp_path, {"preset": "mercury",
                                     "params": {"r_o": r_o}})
        out = tmp_path / "prec.json"
        assert main(["precession", "--config", cfg, "--out", str(out)]) == 0
        by_prov = {r["provenance"]: r["value"]
                   for r in json.loads(out.read_text())["rows"]
                   if r["quantity"] == "precession_per_orbit"}
        closed = by_prov["closed-form"]
        assert abs(by_prov["turning-point-quadrature"] - closed) \
            <= np.finfo(float).eps * closed

    @pytest.mark.parametrize("argv", [["orbit"], ["orbit", "--format", "csv"],
                                      ["precession"]])
    def test_closed_stdout_exits_1_without_traceback(self, argv):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.Popen([sys.executable, "-m", "flatgrav.cli", *argv],
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env=env)
        proc.stdout.close()             # the reader is gone before any write
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert "Traceback" not in err and "Exception ignored" not in err

    @pytest.mark.parametrize("a", [1e400, 10**400])
    @pytest.mark.parametrize("command", ["orbit", "compare"])
    def test_infinite_length_is_a_config_error(self, tmp_path, capsys,
                                               command, a):
        cfg = self.config(tmp_path, {"preset": "mercury", "params": {"a": a}})
        assert main([command, "--config", cfg]) == 2
        assert "'a' must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["density", "--r-over-ro", "nan"],
        ["density", "--r-over-ro", "-1"],
        ["density", "--samples", "0"],
        ["electric", "--samples", "0"],
        ["density", "--samples", "1000001"],
        ["electric", "--samples", "1000001"],
        ["orbit", "--samples", "1000001"],
        ["compare", "--strong-rmin", "inf"],
        ["gyro", "--orbit-radius", "nan"],
    ])
    def test_out_of_domain_flags(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "config error" in captured.err

    @pytest.mark.parametrize("argv, key, domain, got", [
        (["orbit", "--samples", "0"], "samples",
         "an integer from 2 to 1000000", "0"),
        (["orbit", "--samples", "1"], "samples",
         "an integer from 2 to 1000000", "1"),
        (["orbit", "--samples", "1000001"], "samples",
         "an integer from 2 to 1000000", "1000001"),
        (["gyro", "--orbit-radius", "nan"], "orbit_radius",
         "finite and > the body's 'radius'", "nan"),
        (["gyro", "--orbit-radius", "1e-3"], "orbit_radius",
         "finite and > the body's 'radius'", "0.001"),
        (["density", "--samples", "0"], "samples",
         "an integer from 1 to 1000000", "0"),
    ])
    def test_flag_error_states_the_domain_its_help_states(self, capsys, argv,
                                                          key, domain, got):
        # the parse-time check named DOMAIN's "from 1" for orbit --samples 0,
        # while --help and --samples 1 said "from 2"
        assert main(argv) == 2
        assert capsys.readouterr() == (
            "", f"config error: {key!r} must be {domain}, got {got}\n")
        with pytest.raises(SystemExit):
            main([argv[0], "--help"])
        assert domain in " ".join(capsys.readouterr().out.split())

    @pytest.mark.parametrize("argv, raw, key", [
        (["gyro"], {"preset": "earth", "params": {"r_o": 0}}, "'r_o'"),
        (["gyro", "--orbit-radius", "1e-105"], None, "'orbit_radius'"),
        (["gyro", "--orbit-radius", "1e-3"], None, "'orbit_radius'"),
        (["orbit"], {"params": {"r_o": 0}}, "'r_o'"),
        (["compare"], {"params": {"r_o": 0}}, "'r_o'"),
        (["orbit", "--orbits", "1"], None, "'n_orbits'"),
        (["orbit"], {"n_orbits": 1}, "'n_orbits'"),
        (["orbit"], {"params": {"a": True}}, "'a'"),
        (["orbit", "--tol", "0"], None, "'tol'"),
        (["orbit"], {"nam": "x"}, "'nam'"),
        (["orbit"], {"params": {"zzz": 1}}, "'zzz'"),
        (["orbit"], {"name": 5}, "'name'"),
    ])
    def test_input_outside_its_domain(self, tmp_path, capsys, argv, raw, key):
        if raw is not None:
            argv = argv + ["--config", self.config(tmp_path, raw)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("config error: ") and key in captured.err

    @pytest.mark.parametrize("flags, expected", [
        ([], ["solar", 1e-9, 3]),
        (["--preset", "mercury", "--tol", "1e-10", "--orbits", "2"],
         ["mercury", 1e-10, 2]),
    ])
    def test_flag_over_config_over_preset(self, tmp_path, flags, expected):
        cfg = self.config(tmp_path, {"preset": "solar", "tol": 1e-9,
                                     "n_orbits": 3, "params": {
                                         "a": MERCURY_SEMI_MAJOR,
                                         "ecc": MERCURY_ECCENTRICITY}})
        out = tmp_path / "orbit.json"
        assert main(["orbit", "--config", cfg, *flags, "--samples", "2",
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert [report["scenario"], report["config"]["tol"],
                report["config"]["n_orbits"]] == expected

    @pytest.mark.parametrize("flags, config, tol", [
        ([], None, 1e-12),
        (["--tol", "1e-9"], None, 1e-9),
        ([], {"preset": "solar", "tol": 1e-6}, 1e-6),
    ])
    def test_light_deflect_echoes_its_tol(self, tmp_path, capsys, flags,
                                          config, tol):
        # tol sets the ray-integration row, so the echo must show it
        if config is not None:
            flags = flags + ["--config", self.config(tmp_path, config)]
        assert main(["light-deflect", *flags]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["tol"] == tol

    @pytest.mark.parametrize("command", ["orbit", "light-deflect"])
    @pytest.mark.parametrize("tol", ["1", "1e308"])
    def test_tol_of_1_or_more_exits_2(self, capsys, command, tol):
        # a relative tolerance of 1 bounds nothing, and 1e308 set the ray's
        # atol to inf, which turned the stepper's error control off
        assert main([command, "--tol", tol]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("config error: 'tol' must be ")

    @pytest.mark.parametrize("command", ["precession", "echo-delay", "gyro",
                                         "density", "electric", "compare"])
    def test_tol_only_where_it_is_read(self, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--tol", "1e-9"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command, params, reason", [
        # OverflowError(34, 'Numerical result out of range') of a float **
        ("echo-delay", {"r_ms": 1e300}, "overflow"),
        ("light-deflect", {"R_s": 1e-300}, "overflow"),   # numpy, u0**2
    ])
    def test_arithmetic_failure_exits_3(self, tmp_path, capsys, command,
                                        params, reason):
        cfg = self.config(tmp_path, {"preset": "solar", "params": params})
        assert main([command, "--config", cfg]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("numerical error: ")
        assert reason in captured.err and "(34," not in captured.err

    @pytest.mark.parametrize("r_o, flags, radius", [
        (1e-300, ["--orbit-radius", "1e9"], 1e9),
        (5e-324, [], 7.02e6),
    ])
    def test_underflowing_orbital_rate_names_its_inputs(self, tmp_path, capsys,
                                                        r_o, flags, radius):
        cfg = self.config(tmp_path, {"preset": "earth",
                                     "params": {"r_o": r_o}})
        assert main(["gyro", "--config", cfg, *flags]) == 3
        assert capsys.readouterr() == (
            "", f"numerical error: orbital rate underflows: r_o/radius^3 = 0 "
                f"for r_o {r_o!r} at radius {radius!r}\n")

    def test_zero_division_exits_3(self, monkeypatch, capsys):
        # a float ZeroDivisionError (no known input raises one) ends as one
        # line and exit 3, as the other arithmetic errors do
        def divide(args):
            return 1.0 / 0.0
        monkeypatch.setattr(cli, "cmd_orbit", divide)
        assert main(["orbit"]) == 3
        assert capsys.readouterr() == (
            "", "numerical error: float division by zero\n")

    def test_math_domain_error_exits_3(self, monkeypatch, capsys):
        # math's domain error is the float form of numpy's invalid
        # operation, which the numpy-free subcommands no longer guard
        monkeypatch.setattr(cli, "cmd_precession",
                            lambda args: math.sqrt(-1.0))
        assert main(["precession"]) == 3
        assert capsys.readouterr() == (
            "", "numerical error: math domain error\n")

    def test_other_value_errors_are_not_numerical(self, monkeypatch):
        def fault(args):
            raise ValueError("a fault in flatgrav")
        monkeypatch.setattr(cli, "cmd_precession", fault)
        with pytest.raises(ValueError, match="a fault"):
            main(["precession"])

    def test_math_overflow_names_itself(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "cmd_echo_delay",
                            lambda args: math.cosh(1e3))
        assert main(["echo-delay"]) == 3
        assert capsys.readouterr() == (
            "", "numerical error: overflow (math range error)\n")

    @pytest.mark.parametrize("command", ["orbit", "precession"])
    def test_subnormal_angular_momentum_exits_3(self, tmp_path, capsys,
                                                command):
        # L^2 is subnormal at r_o = 1e-320 and 1/L^2 overflows: both
        # subcommands stop in orbit_from_elements with one message
        cfg = self.config(tmp_path, {"preset": "mercury",
                                     "params": {"r_o": 1e-320}})
        assert main([command, "--config", cfg]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "numerical error: the energy integral at r = 45995760000.0 is "
            "not finite: L^2 = 5.55e-310 is subnormal\n")

    def test_sub_ulp_circle_runs(self, tmp_path, capsys):
        # ecc 0 in a field so weak that both turning points round onto a
        for r_o in (1e-12, 1e-60, 1e-200, 1e-290):
            cfg = self.config(tmp_path, {"preset": "mercury",
                                         "params": {"r_o": r_o, "ecc": 0.0}})
            assert main(["orbit", "--config", cfg]) == 0
            assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("text", [
        b"\xff{}", b"[" * 100_000, b'{"tol": ' + b"1" * 5000 + b"}",
    ], ids=["not-utf-8", "too-deep", "too-many-digits"])
    def test_unreadable_config(self, tmp_path, capsys, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(text)
        assert main(["precession", "--config", str(cfg)]) == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_report_refuses_non_finite_values(self):
        # each number is checked where it enters, and the error names it
        report = RunReport(scenario="s", model="m")
        with pytest.raises(NumericalFailure, match=r"q \(closed-form\)"):
            report.add("q", float("inf"), "1", "closed-form")
        with pytest.raises(NumericalFailure, match=r"t table, column b, "
                                                   r"row 1 = nan"):
            report.table("t", a=[1.0, 2.0], b=np.array([0.5, np.nan]))
        assert report.rows == [] and report.tables == {}

    @pytest.mark.parametrize("flags", [[], ["--format", "csv"],
                                       ["--format", "csv", "--out"]])
    def test_non_finite_result_exits_3(self, tmp_path, monkeypatch, capsys,
                                       flags):
        monkeypatch.setattr(carriers, "enclosed_energy",
                            lambda carrier, r: float("nan"))
        if flags[-1:] == ["--out"]:
            flags = flags + [str(tmp_path / "density.csv")]
        assert main(["density", *flags]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "non-finite" in captured.err
        assert "enclosed_fraction" in captured.err
        assert list(tmp_path.iterdir()) == []

    def test_non_finite_table_value_exits_3(self, tmp_path, monkeypatch,
                                            capsys):
        # finite at the row's r = 1, infinite at the table's radii below it
        monkeypatch.setattr(carriers, "field_intensity",
                            lambda carrier, r: float("inf") if r < 1.0
                            else -0.5)
        out = str(tmp_path / "density.json")
        assert main(["density", "--out", out]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == (
            "numerical error: non-finite result: profile table, column "
            "field_intensity, row 0 = inf\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["density", "electric"])
    def test_out_of_memory_exits_3(self, monkeypatch, capsys, command):
        # the radius grid, the table's first list, cannot be allocated
        def refuse(*args, **kwargs):
            raise MemoryError()

        monkeypatch.setattr(cli, "_geomspace", refuse)
        assert main([command, "--samples", "1000000"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("numerical error: out of memory")
        assert captured.err == "numerical error: out of memory\n"

    def test_out_of_memory_names_a_message_it_has(self, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise MemoryError("cannot allocate 1000000 radii")

        monkeypatch.setattr(cli, "_geomspace", refuse)
        assert main(["density"]) == 3
        assert capsys.readouterr().err == ("numerical error: out of memory "
                                           "(cannot allocate 1000000 radii)\n")

    @pytest.mark.parametrize("r_over_ro", ["1e160", "1e200", "1e300"])
    def test_far_density_underflows_without_error(self, capsys, r_over_ro):
        # r**2 overflowed here, although the density only underflows
        assert main(["density", "--r-over-ro", r_over_ro]) == 0
        rows = {row["quantity"]: row["value"]
                for row in json.loads(capsys.readouterr().out)["rows"]}
        r = float(r_over_ro)
        assert rows["energy_density"] == 0.0
        assert rows["field_intensity"] == pytest.approx(-1.0 / r / r,
                                                        rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("r_over_ro", ["1e-200", "1e-320"])
    def test_near_density_overflow_exits_3(self, capsys, r_over_ro):
        # the density itself, ~1/(4*pi*r^2), is beyond the largest float
        assert main(["density", "--r-over-ro", r_over_ro]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("numerical error: ")
        assert "energy_density" in captured.err


class TestEntryPoint:
    """``flatgrav`` and ``python -m flatgrav.cli`` run ``cli.run``: ``main``,
    then a frozen collector for the interpreter's exit.  ``run`` is only
    ever called in a child process: in this one it would freeze pytest's
    heap."""

    @pytest.mark.parametrize("argv, params, code", [
        (["orbit"], None, 0),
        (["orbit", "--orbits", "1"], None, 2),
        (["orbit"], {"r_o": 1e-305}, 3),    # the launch forcing underflows
    ])
    def test_process_matches_main(self, tmp_path, capsys, argv, params,
                                  code):
        if params is not None:
            argv = argv + ["--config", TestCliContract.config(
                tmp_path, {"preset": "mercury", "params": params})]
        frozen = gc.get_freeze_count()
        assert main(argv) == code
        assert gc.get_freeze_count() == frozen
        captured = capsys.readouterr()
        proc = subprocess.run([sys.executable, "-m", "flatgrav.cli", *argv],
                              capture_output=True, text=True, timeout=120,
                              env=dict(os.environ, PYTHONPATH=str(SRC)))
        assert (proc.returncode, proc.stdout, proc.stderr) == \
            (code, captured.out, captured.err)

    def test_run_freezes_after_main(self):
        script = ("import gc, sys\n"
                  "from flatgrav.cli import run\n"
                  "code = run()\n"
                  "print(code, gc.get_freeze_count() > 0, file=sys.stderr)")
        proc = subprocess.run([sys.executable, "-c", script, "precession"],
                              capture_output=True, text=True, timeout=120,
                              env=dict(os.environ, PYTHONPATH=str(SRC)))
        assert proc.stderr == "0 True\n"
        assert '"precession_per_orbit"' in proc.stdout
