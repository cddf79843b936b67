"""Command-line harness: scenario dispatch and machine-readable reports.

Every subcommand produces a RunReport holding scalar result rows (fixed
schema: scenario, model, quantity, value, unit, tolerance, provenance) and
optional named tables.  Reports serialize deterministically to JSON or CSV;
column layouts are documented in docs/formats.md.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields, replace
from functools import lru_cache
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from . import __version__
from .baseline import (
    newtonian_baseline,
    schwarzschild_baseline,
    schwarzschild_precession_quadrature,
)
from .carriers import (
    ElectricCarrier,
    RadialCarrier,
    electric_profile,
    enclosed_energy,
    energy_density,
    field_intensity,
    log_potential,
    self_energy_quadrature,
    total_charge_quadrature,
)
from .constants import ARCSEC_PER_RAD, C_SI
from .errors import ConfigInvalid, FlatgravError, NumericalFailure
from .orbits import (
    integrate_orbit,
    kepler_period_seconds,
    orbit_from_elements,
    precession_analytic,
    precession_numeric,
    precession_quadrature,
    turning_points_from_elements,
)
from .photons import (
    EchoGeometry,
    deflection_integral,
    fermat_ray_integrate,
    ray_launch,
    shapiro_delay,
)
from .presets import FLAT_MODEL, Scenario, preset_scenario
from .spin import (
    RotatingFieldSpec,
    circular_polar_orbit,
    de_sitter_rate,
    frame_dragging_rate,
    geodetic_rate,
)

ROW_FIELDS = ("scenario", "model", "quantity", "value", "unit",
              "tolerance", "provenance")


@dataclass
class RunReport:
    """Results of one CLI run: scalar rows plus optional named tables."""

    scenario: str
    model: str
    version: str = __version__
    config: Dict[str, Any] = field(default_factory=dict)
    rows: List[Dict[str, Any]] = field(default_factory=list)
    tables: Dict[str, Dict[str, List[float]]] = field(default_factory=dict)

    def add(self, quantity: str, value: float, unit: str,
            provenance: str, tolerance: Optional[float] = None,
            model: Optional[str] = None) -> None:
        self.rows.append({
            "scenario": self.scenario,
            "model": model if model is not None else self.model,
            "quantity": quantity,
            "value": float(value),
            "unit": unit,
            "tolerance": tolerance,
            "provenance": provenance,
        })

    def to_json(self) -> str:
        # the fields as they are: ``asdict`` would deep-copy every table
        report = {f.name: getattr(self, f.name) for f in fields(self)}
        try:
            return _json(report, 0)
        except ValueError as exc:       # NaN or infinity: not JSON
            raise NumericalFailure(f"non-finite result: {exc}") from None

    def rows_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=ROW_FIELDS)
        writer.writeheader()
        for row in self.rows:
            _finite(row["value"])
            writer.writerow(row)
        return buf.getvalue()


def _json(value: Any, level: int) -> str:
    """``json.dumps(value, indent=2, sort_keys=True, allow_nan=False)`` as it
    reads ``level`` objects deep.

    A list of floats, such as a table column, is written by joining
    ``float.__repr__`` values, which is what the encoder writes for each;
    the encoder's pure-Python path (taken for ``indent``) would spend
    several milliseconds on the tables of one ``orbit`` report.
    """
    pad = "\n" + "  " * (level + 1)
    if value and isinstance(value, dict) and all(
            isinstance(key, str) for key in value):
        items = (f"{json.dumps(key)}: {_json(item, level + 1)}"
                 for key, item in sorted(value.items()))
        return "{" + pad + ("," + pad).join(items) + pad[:-2] + "}"
    if value and isinstance(value, list):
        try:
            text = ("," + pad).join(map(float.__repr__, value))
        except TypeError:               # not all floats: the encoder's list
            pass
        else:
            if "n" in text:             # nan or inf: no finite repr has an n
                raise ValueError("Out of range float values are not JSON "
                                 "compliant")
            return "[" + pad + text + pad[:-2] + "]"
    return json.dumps(value, indent=2, sort_keys=True,
                      allow_nan=False).replace("\n", "\n" + "  " * level)


def _finite(value: float) -> float:
    """``value`` as a float; a NaN or infinity is a numerical failure."""
    value = float(value)
    if not math.isfinite(value):
        raise NumericalFailure(f"non-finite result: {value!r}")
    return value


def _emit(report: RunReport, fmt: str, out: Optional[str]) -> None:
    text = report.to_json() if fmt == "json" else report.rows_csv()
    if out:
        # every table value is checked before the first file is written
        tables = {name: [list(table)] + [[repr(_finite(v)) for v in vals]
                                         for vals in zip(*table.values())]
                  for name, table in report.tables.items()}
        stem = Path(out)
        try:
            stem.write_text(text, encoding="utf-8")
            for name, lines in tables.items():
                tpath = stem.with_name(f"{stem.stem}_{name}.csv")
                with tpath.open("w", newline="", encoding="utf-8") as fh:
                    csv.writer(fh).writerows(lines)
        except OSError as exc:
            raise ConfigInvalid(f"cannot write --out {out}: {exc}")
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _load_scenario(args: argparse.Namespace, default_preset: str,
                   needs: Tuple[str, ...], flat_only: bool = True) -> Scenario:
    """Preset or --config scenario, checked for the parameters ``needs``.

    A subcommand that computes only the flat model (``flat_only``) rejects
    any other ``model``, so no row carries a label it was not computed by.
    """
    if getattr(args, "config", None):
        try:
            raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigInvalid(f"cannot read config {args.config}: {exc}")
        if not isinstance(raw, dict):
            raise ConfigInvalid("config root must be a JSON object")
        base = preset_scenario(raw.get("preset", default_preset))
        overrides = raw.get("params", {})
        if not isinstance(overrides, dict):
            raise ConfigInvalid(
                f"config 'params' must be a JSON object, got {overrides!r}")
        params = dict(base.params)
        params.update(overrides)
        scenario = Scenario(
            name=raw.get("name", base.name),
            model=raw.get("model", base.model),
            params=params,
            n_orbits=raw.get("n_orbits", base.n_orbits),
            tol=raw.get("tol", getattr(args, "tol", None) or 1e-12),
        )
    else:
        scenario = preset_scenario(getattr(args, "preset", None)
                                   or default_preset)
        if getattr(args, "tol", None):
            scenario = Scenario(name=scenario.name, model=scenario.model,
                                params=scenario.params,
                                n_orbits=scenario.n_orbits, tol=args.tol)
    missing = [key for key in needs if key not in scenario.params]
    if missing:
        raise ConfigInvalid(f"scenario {scenario.name!r} lacks parameter(s) "
                            f"{', '.join(missing)}")
    if flat_only and scenario.model != FLAT_MODEL:
        raise ConfigInvalid(f"{args.command} computes only the {FLAT_MODEL} "
                            f"model, got model {scenario.model!r}")
    return scenario


def _positive(flag: str, value: float) -> float:
    """A length or ratio flag: finite and > 0, else a config error."""
    if not (math.isfinite(value) and value > 0.0):
        raise ConfigInvalid(f"{flag} must be a finite number > 0, "
                            f"got {value!r}")
    return value


def _count(flag: str, value: int, least: int) -> int:
    if value < least:
        raise ConfigInvalid(f"{flag} must be >= {least}, got {value}")
    return value


# ---------------------------------------------------------------- subcommands


def cmd_orbit(args: argparse.Namespace) -> RunReport:
    sc = _load_scenario(args, "mercury", ("r_o", "a", "ecc"))
    if args.orbits is not None:
        sc = replace(sc, n_orbits=args.orbits)
    _count("samples", args.samples, 2)
    p = sc.params
    report = RunReport(scenario=sc.name, model=sc.model,
                       config={"params": p, "n_orbits": sc.n_orbits,
                               "tol": sc.tol})
    state, integrals = orbit_from_elements(p["r_o"], p["a"], p["ecc"])
    traj = integrate_orbit(p["r_o"], state, integrals, sc.n_orbits,
                           tol=sc.tol)
    numeric = precession_numeric(traj)
    analytic = precession_analytic(p["r_o"], p["a"], p["ecc"])
    report.add("precession_per_orbit", numeric.delta_phi_per_orbit, "rad",
               "orbit-integration", tolerance=sc.tol)
    report.add("precession_per_orbit", analytic.delta_phi_per_orbit, "rad",
               "closed-form")
    report.add("precession_century", numeric.arcsec_per_century,
               "arcsec/century", "orbit-integration", tolerance=sc.tol)
    report.add("energy_integral_drift", traj.drift, "relative",
               "orbit-integration")
    phis = np.linspace(traj.phi_start, traj.phi_end, args.samples)
    u, _, t, par = traj.sample(phis)
    report.tables["trajectory"] = {
        "phi_rad": list(map(float, phis)),
        "r_m": list(map(float, 1.0 / u)),
        "t_m": list(map(float, t)),
        "p_m": list(map(float, par)),
    }
    return report


def cmd_precession(args: argparse.Namespace) -> RunReport:
    sc = _load_scenario(args, "mercury", ("r_o", "a", "ecc"))
    p = sc.params
    if not p["r_o"] > 0:
        raise ConfigInvalid("precession needs r_o > 0: no field, no advance")
    report = RunReport(scenario=sc.name, model=sc.model,
                       config={"params": p})
    analytic = precession_analytic(p["r_o"], p["a"], p["ecc"])
    report.add("precession_per_orbit", analytic.delta_phi_per_orbit, "rad",
               "closed-form")
    report.add("precession_century", analytic.arcsec_per_century,
               "arcsec/century", "closed-form")
    r_min, r_max = turning_points_from_elements(p["r_o"], p["a"], p["ecc"])
    report.add("precession_per_orbit",
               precession_quadrature(p["r_o"], r_min, r_max), "rad",
               "turning-point-quadrature")
    report.add("orbital_period", kepler_period_seconds(p["r_o"], p["a"]),
               "s", "closed-form")
    return report


def cmd_light_deflect(args: argparse.Namespace) -> RunReport:
    sc = _load_scenario(args, "solar", ("r_o", "R_s"))
    p = sc.params
    report = RunReport(scenario=sc.name, model=sc.model,
                       config={"params": p})
    res = deflection_integral(p["r_o"], p["R_s"])
    _, ray_angle = fermat_ray_integrate(ray_launch(1.0 / p["R_s"]), p["r_o"],
                                        tol=sc.tol)
    for value, prov in ((res.quadrature, "bending-quadrature"),
                        (res.closed_form, "closed-form"),
                        (ray_angle, "ray-integration")):
        report.add("deflection", value, "rad", prov)
        report.add("deflection", value * ARCSEC_PER_RAD, "arcsec", prov)
    return report


def cmd_echo_delay(args: argparse.Namespace) -> RunReport:
    sc = _load_scenario(args, "solar", ("r_o", "R_s", "r_es", "r_ms"))
    p = sc.params
    report = RunReport(scenario=sc.name, model=sc.model,
                       config={"params": p})
    geom = EchoGeometry(r_es=p["r_es"], r_ms=p["r_ms"], R_s=p["R_s"],
                        r_o=p["r_o"])
    res = shapiro_delay(geom)
    to_us = 1e6 / C_SI
    report.add("echo_delay", res.quadrature * to_us, "us",
               "path-quadrature", tolerance=0.02)
    report.add("echo_delay", res.closed_form * to_us, "us", "closed-form",
               tolerance=0.02)
    return report


def cmd_gyro(args: argparse.Namespace) -> RunReport:
    _positive("orbit-radius", args.orbit_radius)
    sc = _load_scenario(args, "earth", ("r_o", "inertia", "omega"))
    p = sc.params
    report = RunReport(scenario=sc.name, model=sc.model,
                       config={"params": {k: (list(v) if isinstance(v, np.ndarray)
                                              else v) for k, v in p.items()},
                               "orbit_radius": args.orbit_radius})
    spec = RotatingFieldSpec(r_o=p["r_o"], inertia=p["inertia"],
                             omega=np.asarray(p["omega"]))
    radius = args.orbit_radius
    pole = np.array([0.0, 0.0, radius])
    equator = np.array([radius, 0.0, 0.0])
    to_rad_s = C_SI
    report.add("frame_dragging_polar",
               float(frame_dragging_rate(spec, pole)[2]) * to_rad_s,
               "rad/s", "closed-form")
    report.add("frame_dragging_equatorial",
               float(frame_dragging_rate(spec, equator)[2]) * to_rad_s,
               "rad/s", "closed-form")
    position, velocity, nu, period = circular_polar_orbit(radius, p["r_o"])
    x0, v0 = position(0.0), velocity(0.0)
    report.add("geodetic_rate",
               float(np.linalg.norm(geodetic_rate(spec, x0, v0))) * to_rad_s,
               "rad/s", "closed-form")
    report.add("geodetic_rate_desitter",
               float(np.linalg.norm(de_sitter_rate(p["r_o"], x0, v0)))
               * to_rad_s, "rad/s", "comparison-closed-form")
    report.add("orbital_period", period / C_SI, "s", "closed-form")
    return report


def cmd_density(args: argparse.Namespace) -> RunReport:
    r = _positive("r-over-ro", args.r_over_ro)
    _count("samples", args.samples, 1)
    carrier = RadialCarrier(r_o=1.0)
    report = RunReport(scenario="radial-carrier", model="flatspace-weber",
                       config={"r_over_ro": args.r_over_ro,
                               "samples": args.samples})
    report.add("enclosed_fraction", enclosed_energy(carrier, r), "dimensionless",
               "closed-form")
    report.add("energy_density", float(energy_density(carrier, r)),
               "1/(r_o^3) scaled", "closed-form")
    report.add("field_intensity", float(field_intensity(carrier, r)),
               "1/r_o scaled", "closed-form")
    report.add("log_potential", float(log_potential(carrier, r)),
               "dimensionless", "closed-form")
    radii = np.geomspace(1e-2, 1e2, args.samples)
    report.tables["profile"] = {
        "r_over_ro": list(map(float, radii)),
        "energy_density": list(map(float, energy_density(carrier, radii))),
        "field_intensity": list(map(float, field_intensity(carrier, radii))),
        "log_potential": list(map(float, log_potential(carrier, radii))),
        "enclosed_fraction": [float(enclosed_energy(carrier, rr))
                              for rr in radii],
    }
    return report


def cmd_electric(args: argparse.Namespace) -> RunReport:
    _count("samples", args.samples, 1)
    carrier = ElectricCarrier(e=1.0, r_e=1.0, r_o=1.0)
    report = RunReport(scenario="electric-carrier", model="flatspace-weber",
                       config={"samples": args.samples})
    report.add("total_charge", total_charge_quadrature(carrier), "e",
               "quadrature-plus-tail", tolerance=1e-8)
    report.add("self_energy", self_energy_quadrature(carrier), "e^2/r_e",
               "quadrature-plus-tail", tolerance=1e-8)
    radii = np.geomspace(1e-2, 1e2, args.samples)
    rho, e_field, potential = electric_profile(carrier, radii)
    report.tables["profile"] = {
        "r_over_ro": list(map(float, radii)),
        "charge_density": list(map(float, rho)),
        "field": list(map(float, e_field)),
        "potential": list(map(float, potential)),
    }
    return report


def cmd_compare(args: argparse.Namespace) -> RunReport:
    _positive("strong-rmin", args.strong_rmin)
    mercury = _load_scenario(args, "mercury", ("r_o", "a", "ecc"),
                             flat_only=False)
    solar = preset_scenario("solar")
    report = RunReport(scenario="compare", model="flatspace-weber",
                       config={"mercury": mercury.params,
                               "solar": solar.params,
                               "strong_r_min_over_ro": args.strong_rmin})
    mp, sp = mercury.params, solar.params

    flat_prec = precession_analytic(mp["r_o"], mp["a"], mp["ecc"])
    flat_defl = deflection_integral(sp["r_o"], sp["R_s"])
    geom = EchoGeometry(r_es=sp["r_es"], r_ms=sp["r_ms"], R_s=sp["R_s"],
                        r_o=sp["r_o"])
    flat_delay = shapiro_delay(geom)
    to_us = 1e6 / C_SI

    report.add("precession_per_orbit", flat_prec.delta_phi_per_orbit, "rad",
               "closed-form", model="flatspace-weber")
    report.add("deflection", flat_defl.quadrature, "rad",
               "bending-quadrature", model="flatspace-weber")
    report.add("echo_delay", flat_delay.quadrature * to_us, "us",
               "path-quadrature", model="flatspace-weber")
    for quantity, unit in (("precession", "rad"), ("deflection", "rad"),
                           ("delay", "us")):
        sc_for = mercury if quantity == "precession" else solar
        value = schwarzschild_baseline(quantity, sc_for)
        if quantity == "delay":
            value *= to_us
        name = {"precession": "precession_per_orbit",
                "deflection": "deflection",
                "delay": "echo_delay"}[quantity]
        report.add(name, value, unit, "closed-form", model="schwarzschild")
        report.add(name, newtonian_baseline(quantity, sc_for), unit,
                   "closed-form", model="newtonian")

    # strong-field divergence probe at r_min = strong_rmin * r_o
    r_o = mp["r_o"]
    r_min = args.strong_rmin * r_o
    r_max = 2.0 * r_min
    flat_strong = precession_quadrature(r_o, r_min, r_max)
    schw_strong = schwarzschild_precession_quadrature(r_o, r_min, r_max)
    report.add("strong_field_precession", flat_strong, "rad",
               "turning-point-quadrature", model="flatspace-weber")
    report.add("strong_field_precession", schw_strong, "rad",
               "turning-point-quadrature", model="schwarzschild")
    report.add("strong_field_divergence",
               abs(flat_strong - schw_strong) / abs(schw_strong),
               "relative", "derived")
    return report


# -------------------------------------------------------------------- driver


def _command(name: str):
    """The subcommand ``name``, looked up in this module when it runs: the
    parser is built once, and a later rebinding of ``cmd_*`` (a test's
    monkeypatch, perfbench's layer tracer) must still be the one called."""
    return lambda args: globals()[name](args)


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (8 subparsers)."""
    parser = argparse.ArgumentParser(
        prog="flatgrav",
        description="Flat-space warped-time gravitation: orbits, light, "
                    "spins, and carrier fields.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, preset: Optional[str]) -> None:
        if preset:
            p.add_argument("--preset", default=preset,
                           help=f"named scenario preset (default {preset})")
            p.add_argument("--config", help="JSON config file overriding the preset")
        p.add_argument("--out", help="output file path (stdout if omitted)")
        p.add_argument("--format", choices=("csv", "json"), default="json")
        p.add_argument("--tol", type=float, default=None,
                       help="integration tolerance override")

    p = sub.add_parser("orbit", help="integrate a bound orbit")
    common(p, "mercury")
    p.add_argument("--orbits", type=int, default=None)
    p.add_argument("--samples", type=int, default=512)
    p.set_defaults(func=_command("cmd_orbit"))

    p = sub.add_parser("precession", help="perihelion advance (closed form + quadrature)")
    common(p, "mercury")
    p.set_defaults(func=_command("cmd_precession"))

    p = sub.add_parser("light-deflect", help="grazing light deflection")
    common(p, "solar")
    p.set_defaults(func=_command("cmd_light_deflect"))

    p = sub.add_parser("echo-delay", help="round-trip radar echo delay")
    common(p, "solar")
    p.set_defaults(func=_command("cmd_echo_delay"))

    p = sub.add_parser("gyro", help="gyroscope precession rates")
    common(p, "earth")
    p.add_argument("--orbit-radius", type=float, default=7.02e6,
                   help="circular orbit radius in meters")
    p.set_defaults(func=_command("cmd_gyro"))

    p = sub.add_parser("density", help="radial carrier profile")
    common(p, None)
    p.add_argument("--r-over-ro", type=float, default=1.0)
    p.add_argument("--samples", type=int, default=64)
    p.set_defaults(func=_command("cmd_density"))

    p = sub.add_parser("electric", help="electric carrier analog")
    common(p, None)
    p.add_argument("--samples", type=int, default=64)
    p.set_defaults(func=_command("cmd_electric"))

    p = sub.add_parser("compare", help="flat-space model vs baselines")
    common(p, "mercury")
    p.add_argument("--strong-rmin", type=float, default=20.0,
                   help="strong-field probe perihelion in units of r_o")
    p.set_defaults(func=_command("cmd_compare"))

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _emit(args.func(args), args.format, args.out)
        sys.stdout.flush()
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FlatgravError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # the reader closed stdout (``flatgrav orbit | head -c 1``): point it
        # at devnull, so that the flush at exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
