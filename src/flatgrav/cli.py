"""Command-line harness: scenario dispatch and machine-readable reports.

Every subcommand produces a RunReport holding scalar result rows (fixed
schema: scenario, model, quantity, value, unit, tolerance, provenance) and
optional named tables.  Reports serialize deterministically to JSON or CSV;
column layouts are documented in docs/formats.md.
"""
from __future__ import annotations

import argparse
import csv
import gc
import io
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields, replace
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from . import __version__
from .constants import ARCSEC_PER_RAD, C_SI
from .errors import ConfigInvalid, FlatgravError, NumericalFailure
from .presets import CONFIG_KEYS, DOMAIN, Scenario, check, preset_scenario


def __getattr__(name: str) -> Any:
    # ``cli.<name>`` reads flatgrav's lazy export ``name``: the home module's
    # current binding, which perfbench's tracer wraps and checks through cli
    if name in sys.modules[__package__].__all__:
        return getattr(sys.modules[__package__], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# the paper's model, which computes every row but compare's baselines
FLAT_MODEL = "flatspace-weber"
ROW_FIELDS = ("scenario", "model", "quantity", "value", "unit",
              "tolerance", "provenance")


@dataclass
class RunReport:
    """Results of one CLI run: scalar rows plus optional named tables."""

    scenario: str
    model: str = FLAT_MODEL
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


# A rule narrows an input's domain for one subcommand: (test(value, params),
# description).  A flag is (key in DOMAIN, type, default, help, rule or
# None).  ``_load_scenario`` checks the rules, so only a subcommand with a
# preset has any.
Rule = Tuple[Callable[[Any, Dict[str, Any]], bool], str]
Flag = Tuple[str, Callable[[str], Any], Any, str, Optional[Rule]]
_FIELD: Rule = (lambda r_o, p: r_o > 0, "> 0: no field, no orbit")
_TOL: Flag = ("tol", float, None, "integration tolerance", None)
_SAMPLES: Flag = ("samples", int, 64, "profile table rows", None)

# subcommand -> (help, default preset, needed params -> rule, own flags)
COMMANDS: Dict[str, Tuple[str, Optional[str], Dict[str, Optional[Rule]],
                          Tuple[Flag, ...]]] = {
    "orbit": ("integrate a bound orbit", "mercury",
              {"r_o": _FIELD, "a": None, "ecc": None},
              (("n_orbits", int, None, "orbits to integrate", None), _TOL,
               ("samples", int, 512, "trajectory table rows",
                (lambda n, p: n >= 2, ">= 2")))),
    "precession": ("perihelion advance (closed form + quadrature)",
                   "mercury", {"r_o": _FIELD, "a": None, "ecc": None}, ()),
    "light-deflect": ("grazing light deflection", "solar",
                      {"r_o": None, "R_s": None}, (_TOL,)),
    "echo-delay": ("round-trip radar echo delay", "solar",
                   dict.fromkeys(("r_o", "R_s", "r_es", "r_ms")), ()),
    "gyro": ("gyroscope precession rates", "earth",
             {"r_o": _FIELD, "inertia": None, "omega": None, "radius": None},
             (("orbit_radius", float, 7.02e6, "circular orbit radius in m",
               (lambda r, p: r > p["radius"], "> the body's 'radius'")),)),
    "density": ("radial carrier profile", None, {},
                (("r_over_ro", float, 1.0, "radius of the point values in "
                  "units of r_o", None), _SAMPLES)),
    "electric": ("electric carrier analog", None, {}, (_SAMPLES,)),
    "compare": ("flat-space model vs baselines", "mercury",
                {"r_o": _FIELD, "a": None, "ecc": None},
                (("strong_rmin", float, 20.0, "strong-field probe perihelion "
                  "in units of r_o", None),)),
}


def _load_scenario(args: argparse.Namespace) -> Scenario:
    """The subcommand's scenario: preset < config file < flag.

    Every input lies in its domain, the scenario holds the parameters the
    subcommand needs, and those and the flags keep its narrower rules.
    """
    _, preset, needed, flags = COMMANDS[args.command]
    raw: Dict[str, Any] = {}
    if args.config:
        try:
            raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, ValueError, RecursionError) as exc:
            raise ConfigInvalid(f"cannot read config {args.config}: {exc}")
        if not isinstance(raw, dict):
            raise ConfigInvalid("config root must be a JSON object")
        for key, value in raw.items():
            check(key, value, CONFIG_KEYS)
    base = preset_scenario(args.preset if args.preset is not None
                           else raw.get("preset", preset))
    overrides = {key: value for key, value in raw.items()
                 if key not in ("preset", "params")}
    overrides.update((key, getattr(args, key)) for key, *_ in flags
                     if key in CONFIG_KEYS and getattr(args, key) is not None)
    scenario = replace(base, params={**base.params, **raw.get("params", {})},
                       **overrides)
    p = scenario.params
    missing = [key for key in needed if key not in p]
    if missing:
        raise ConfigInvalid(f"scenario {scenario.name!r} lacks parameter(s) "
                            f"{', '.join(missing)}")
    for key, rule in [*needed.items(), *((k, rule) for k, *_, rule in flags)]:
        value = p[key] if key in p else getattr(args, key)
        if rule and not rule[0](value, p):
            raise ConfigInvalid(f"{key!r} must be {rule[1]}, got {value!r}")
    return scenario


# ---------------------------------------------------------------- subcommands


def cmd_orbit(args: argparse.Namespace) -> RunReport:
    from .orbits import (integrate_orbit, orbit_from_elements,
                         precession_analytic, precession_numeric)
    sc = _load_scenario(args)
    p = sc.params
    report = RunReport(scenario=sc.name,
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
    from .orbits import (kepler_period_seconds, precession_analytic,
                         precession_quadrature, turning_points_from_elements)
    sc = _load_scenario(args)
    p = sc.params
    report = RunReport(scenario=sc.name, config={"params": p})
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
    from .photons import deflection_integral, fermat_ray_integrate, ray_launch
    sc = _load_scenario(args)
    p = sc.params
    report = RunReport(scenario=sc.name,
                       config={"params": p, "tol": sc.tol})
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
    from .photons import EchoGeometry, shapiro_delay
    sc = _load_scenario(args)
    p = sc.params
    report = RunReport(scenario=sc.name, config={"params": p})
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
    from .spin import (RotatingFieldSpec, circular_polar_orbit,
                       de_sitter_rate, frame_dragging_rate, geodetic_rate)
    sc = _load_scenario(args)
    p = sc.params
    report = RunReport(scenario=sc.name,
                       config={"params": p, "orbit_radius": args.orbit_radius})
    spec = RotatingFieldSpec(r_o=p["r_o"], inertia=p["inertia"],
                             omega=p["omega"])
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
    from .carriers import (RadialCarrier, enclosed_energy, energy_density,
                           field_intensity, log_potential)
    r = args.r_over_ro
    carrier = RadialCarrier(r_o=1.0)
    report = RunReport(scenario="radial-carrier",
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
    from .carriers import (ElectricCarrier, electric_profile,
                           self_energy_quadrature, total_charge_quadrature)
    carrier = ElectricCarrier(e=1.0, r_e=1.0, r_o=1.0)
    report = RunReport(scenario="electric-carrier",
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
    from .baseline import (schwarzschild_baseline,
                           schwarzschild_precession_quadrature)
    from .orbits import precession_analytic, precession_quadrature
    from .photons import EchoGeometry, deflection_integral, shapiro_delay
    mercury = _load_scenario(args)
    solar = preset_scenario("solar")
    report = RunReport(scenario="compare",
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
               "closed-form", model=FLAT_MODEL)
    report.add("deflection", flat_defl.quadrature, "rad",
               "bending-quadrature", model=FLAT_MODEL)
    report.add("echo_delay", flat_delay.quadrature * to_us, "us",
               "path-quadrature", model=FLAT_MODEL)
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
        # the Newtonian baseline of each observable is 0
        report.add(name, 0.0, unit, "closed-form", model="newtonian")

    # strong-field divergence probe at r_min = strong_rmin * r_o
    r_o = mp["r_o"]
    r_min = args.strong_rmin * r_o
    r_max = 2.0 * r_min
    flat_strong = precession_quadrature(r_o, r_min, r_max)
    schw_strong = schwarzschild_precession_quadrature(r_o, r_min, r_max)
    report.add("strong_field_precession", flat_strong, "rad",
               "turning-point-quadrature", model=FLAT_MODEL)
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


def _flag_type(key: str, kind: Callable[[str], Any]) -> Callable[[str], Any]:
    """``kind`` of a flag's text, checked against ``key``'s domain: a
    ConfigInvalid passes through argparse to ``main``."""
    def parse(text: str) -> Any:
        return check(key, kind(text))
    parse.__name__ = kind.__name__      # argparse: "invalid int value: 'x'"
    return parse


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process from ``COMMANDS``."""
    parser = argparse.ArgumentParser(
        prog="flatgrav",
        description="Flat-space warped-time gravitation: orbits, light, "
                    "spins, and carrier fields.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_, preset, _, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        if preset:
            p.add_argument("--preset",
                           help=f"named scenario preset (default {preset})")
            p.add_argument("--config",
                           help="JSON config file overriding the preset")
        p.add_argument("--out", help="output file path (stdout if omitted)")
        p.add_argument("--format", choices=("csv", "json"), default="json")
        for key, kind, default, text, rule in flags:
            option = {"n_orbits": "orbits"}.get(key, key.replace("_", "-"))
            text += ": " + DOMAIN[key][1] + (f", {rule[1]}" if rule else "")
            if default is not None:
                text += f" (default {default})"
            p.add_argument(f"--{option}", dest=key, default=default,
                           type=_flag_type(key, kind), help=text)
        p.set_defaults(func=_command("cmd_" + name.replace("-", "_")))
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # numpy overflow and 0/0 end as one error line, as float ones do
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            report = args.func(args)
        _emit(report, args.format, args.out)
        sys.stdout.flush()
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (FlatgravError, ArithmeticError) as exc:
        message = str(exc)
        if isinstance(exc, OverflowError) and len(exc.args) == 2:
            # a float ``**`` overflow reads "(34, 'Numerical result out of
            # range')": errno and text
            message = f"overflow ({exc.args[1]})"
        print(f"numerical error: {message}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        # a table too large to allocate (a huge --samples, say)
        print(f"numerical error: out of memory ({exc})", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # the reader closed stdout (``flatgrav orbit | head -c 1``): point it
        # at devnull, so that the flush at exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return 0


def run() -> int:
    """The process entry point (the ``flatgrav`` script and ``python -m
    flatgrav.cli``): ``main``'s exit code, for ``sys.exit``."""
    code = main()
    # The interpreter's exit runs full cyclic collections over the ~23k
    # objects numpy and flatgrav hold: ~17 ms, to free memory the OS takes
    # back anyway.  Frozen objects are still freed by reference counting;
    # only cycle detection skips them, and ``main`` has closed its files
    # and flushed stdout.  ``main`` itself never freezes, so an in-process
    # caller keeps its collector.
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
