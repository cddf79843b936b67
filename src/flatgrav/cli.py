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
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

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


# the paper's model, which computes every row but compare's baselines and
# gyro's de Sitter rate
FLAT_MODEL = "flatspace-weber"
ROW_FIELDS = ("scenario", "model", "quantity", "value", "unit",
              "tolerance", "provenance")


class RunReport:
    """Results of one CLI run: scalar rows plus optional named tables."""

    __slots__ = ("scenario", "model", "version", "config", "rows", "tables")

    def __init__(self, scenario: str, model: str = FLAT_MODEL,
                 config: Optional[Dict[str, Any]] = None):
        self.scenario, self.model, self.version = scenario, model, __version__
        self.config = {} if config is None else config
        self.rows: List[Dict[str, Any]] = []
        self.tables: Dict[str, Dict[str, List[float]]] = {}

    def add(self, quantity: str, value: float, unit: str,
            provenance: str, tolerance: Optional[float] = None,
            model: Optional[str] = None) -> None:
        """Add a row; a NaN or infinite value fails, named by the row."""
        value = float(value)
        if not math.isfinite(value):
            raise NumericalFailure(f"non-finite result: {quantity} "
                                   f"({provenance}) = {value!r}")
        self.rows.append({
            "scenario": self.scenario,
            "model": model if model is not None else self.model,
            "quantity": quantity,
            "value": value,
            "unit": unit,
            "tolerance": tolerance,
            "provenance": provenance,
        })

    def table(self, name: str, **columns: Any) -> None:
        """Add table ``name``, each column a list of floats (an array's
        ``tolist``); a NaN or infinite value fails, named by its place."""
        table = {}
        for column, values in columns.items():
            values = (values.tolist() if hasattr(values, "tolist")
                      else list(map(float, values)))
            if not all(map(math.isfinite, values)):
                row = next(i for i, v in enumerate(values)
                           if not math.isfinite(v))
                raise NumericalFailure(
                    f"non-finite result: {name} table, column {column}, "
                    f"row {row} = {values[row]!r}")
            table[column] = values
        self.tables[name] = table

    def to_json(self) -> str:
        report = {"scenario": self.scenario, "model": self.model,
                  "version": self.version, "config": self.config,
                  "rows": self.rows, "tables": self.tables}
        return "".join(_json(report, 0))

    def rows_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=ROW_FIELDS)
        writer.writeheader()
        writer.writerows(self.rows)
        return buf.getvalue()


def _json(value: Any, level: int) -> Iterator[str]:
    """The pieces of ``json.dumps(value, indent=2, sort_keys=True,
    allow_nan=False)`` as it reads ``level`` objects deep.

    A report holds only finite floats: ``RunReport.add`` and
    ``RunReport.table`` refuse the others where they enter.  So a list of
    floats, such as a table column, is written by joining
    ``float.__repr__`` values, which is what the encoder writes for each;
    the encoder's pure-Python path (taken for ``indent``) would spend
    several milliseconds on the tables of one ``orbit`` report.  The
    caller joins the pieces once: an object built by concatenation would
    copy each column once per level, ~0.8 s of a 1,000,000-row ``electric``
    report.
    """
    pad = "\n" + "  " * (level + 1)
    if value and isinstance(value, dict) and all(
            isinstance(key, str) for key in value):
        sep = "{" + pad
        for key, item in sorted(value.items()):
            yield f"{sep}{json.dumps(key)}: "
            yield from _json(item, level + 1)
            sep = "," + pad
        yield pad[:-2] + "}"
        return
    if value and isinstance(value, list):
        try:
            text = ("," + pad).join(map(float.__repr__, value))
        except TypeError:               # not all floats: the encoder's list
            pass
        else:
            yield from ("[" + pad, text, pad[:-2] + "]")
            return
    yield json.dumps(value, indent=2, sort_keys=True,
                     allow_nan=False).replace("\n", "\n" + "  " * level)


def _emit(report: RunReport, fmt: str, out: Optional[str]) -> None:
    text = report.to_json() if fmt == "json" else report.rows_csv()
    if out:
        stem = Path(out)
        try:
            stem.write_text(text, encoding="utf-8")
            for name, table in report.tables.items():
                tpath = stem.with_name(f"{stem.stem}_{name}.csv")
                with tpath.open("w", newline="", encoding="utf-8") as fh:
                    writer = csv.writer(fh)
                    writer.writerow(table)
                    writer.writerows(zip(*table.values()))
        except OSError as exc:
            raise ConfigInvalid(f"cannot write --out {out}: {exc}")
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


# A rule narrows an input's domain for one subcommand: (test(value, params),
# description).  A flag is (key in DOMAIN, type, default, help, rule or
# None), and its help states the rule's description, the whole narrowed
# domain, in place of DOMAIN's.  ``_load_scenario`` checks the rules, so only
# a subcommand with a preset has any.
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
                (lambda n, p: n >= 2, "an integer from 2 to 1000000")))),
    "precession": ("perihelion advance (closed form + quadrature)",
                   "mercury", {"r_o": _FIELD, "a": None, "ecc": None}, ()),
    "light-deflect": ("grazing light deflection", "solar",
                      {"r_o": None, "R_s": None}, (_TOL,)),
    "echo-delay": ("round-trip radar echo delay", "solar",
                   dict.fromkeys(("r_o", "R_s", "r_es", "r_ms")), ()),
    "gyro": ("gyroscope precession rates", "earth",
             {"r_o": _FIELD, "inertia": None, "omega": None, "radius": None},
             (("orbit_radius", float, 7.02e6, "circular orbit radius in m",
               (lambda r, p: r > p["radius"],
                "finite and > the body's 'radius'")),)),
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
        # a run key (n_orbits, tol) only where the subcommand has its flag
        known = {"preset", "name", "params",
                 *(key for key, *_ in flags)}.intersection(CONFIG_KEYS)
        for key, value in raw.items():
            check(key, value, known)
    base = preset_scenario(args.preset if args.preset is not None
                           else raw.get("preset", preset))
    settings = {"name": base.name, "n_orbits": base.n_orbits,
                "tol": base.tol}
    settings.update((key, value) for key, value in raw.items()
                    if key not in ("preset", "params"))
    settings.update((key, getattr(args, key)) for key, *_ in flags
                    if key in CONFIG_KEYS and getattr(args, key) is not None)
    scenario = Scenario(params={**base.params, **raw.get("params", {})},
                        **settings)
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
    import numpy as np

    from .orbits import (integrate_orbit, orbit_from_elements,
                         precession_analytic, precession_numeric)
    # numpy's overflow, division by zero and invalid operation end as one
    # error line, as float ones do; only orbit runs numpy
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        sc = _load_scenario(args)
        p = sc.params
        report = RunReport(scenario=sc.name,
                           config={"params": p, "n_orbits": sc.n_orbits,
                                   "tol": sc.tol})
        alpha0, integrals = orbit_from_elements(p["r_o"], p["a"], p["ecc"])
        traj = integrate_orbit(p["r_o"], alpha0, integrals, sc.n_orbits,
                               tol=sc.tol)
        # first: the samples' quadrature pass gives the period's clocks too
        phis = np.linspace(traj.phi_start, traj.phi_end, args.samples)
        u, _, t, par = traj.sample(phis)
        numeric = precession_numeric(traj)
        analytic = precession_analytic(p["r_o"], p["a"], p["ecc"])
        report.add("precession_per_orbit", numeric.delta_phi_per_orbit,
                   "rad", "orbit-integration", tolerance=sc.tol)
        report.add("precession_per_orbit", analytic.delta_phi_per_orbit,
                   "rad", "closed-form")
        report.add("precession_century", numeric.arcsec_per_century,
                   "arcsec/century", "orbit-integration", tolerance=sc.tol)
        report.add("energy_integral_drift", traj.drift, "relative",
                   "orbit-integration")
        report.table("trajectory", phi_rad=phis, r_m=1.0 / u, t_m=t,
                     p_m=par)
    return report


def cmd_precession(args: argparse.Namespace) -> RunReport:
    from .orbits import (kepler_period_seconds, precession_analytic,
                         precession_quadrature, turning_points_from_elements)
    sc = _load_scenario(args)
    p = sc.params
    report = RunReport(scenario=sc.name, config={"params": p})
    # first: elements with no bound orbit fail here, not as infinite rows
    r_min, r_max = turning_points_from_elements(p["r_o"], p["a"], p["ecc"])
    analytic = precession_analytic(p["r_o"], p["a"], p["ecc"])
    report.add("precession_per_orbit", analytic.delta_phi_per_orbit, "rad",
               "closed-form")
    report.add("precession_century", analytic.arcsec_per_century,
               "arcsec/century", "closed-form")
    report.add("precession_per_orbit",
               precession_quadrature(p["r_o"], r_min, r_max), "rad",
               "turning-point-quadrature")
    report.add("orbital_period", kepler_period_seconds(p["r_o"], p["a"]),
               "s", "closed-form")
    return report


def cmd_light_deflect(args: argparse.Namespace) -> RunReport:
    from .photons import deflection_integral, fermat_ray_integrate
    sc = _load_scenario(args)
    p = sc.params
    report = RunReport(scenario=sc.name,
                       config={"params": p, "tol": sc.tol})
    res = deflection_integral(p["r_o"], p["R_s"])
    # where r_o/R_s is finite, a subnormal R_s still overflows u0 = 1/R_s
    u0 = 1.0 / p["R_s"]
    if u0 == math.inf:
        raise NumericalFailure(f"1/R_s overflows at R_s = {p['R_s']!r}")
    _, ray_angle = fermat_ray_integrate(u0, p["r_o"], tol=sc.tol)
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
    from ._scaled import norm
    from .spin import (RotatingFieldSpec, circular_polar_orbit,
                       de_sitter_rate, frame_dragging, geodetic)
    sc = _load_scenario(args)
    p = sc.params
    report = RunReport(scenario=sc.name,
                       config={"params": p, "orbit_radius": args.orbit_radius})
    spec = RotatingFieldSpec(r_o=p["r_o"], inertia=p["inertia"],
                             omega=p["omega"])
    radius = args.orbit_radius
    pole = (0.0, 0.0, radius)
    equator = (radius, 0.0, 0.0)
    to_rad_s = C_SI
    report.add("frame_dragging_polar",
               frame_dragging(spec, pole)[2] * to_rad_s,
               "rad/s", "closed-form")
    report.add("frame_dragging_equatorial",
               frame_dragging(spec, equator)[2] * to_rad_s,
               "rad/s", "closed-form")
    position, velocity, nu, period = circular_polar_orbit(radius, p["r_o"])
    x0, v0 = position(0.0), velocity(0.0)
    report.add("geodetic_rate", norm(geodetic(spec, x0, v0)) * to_rad_s,
               "rad/s", "closed-form")
    report.add("geodetic_rate_desitter",
               norm(de_sitter_rate(p["r_o"], x0, v0)) * to_rad_s,
               "rad/s", "closed-form", model="schwarzschild")
    report.add("orbital_period", period / C_SI, "s", "closed-form")
    return report


def _geomspace(lo: float, hi: float, n: int) -> List[float]:
    """``n`` radii from ``lo`` to ``hi`` evenly spaced in log10, as
    ``numpy.geomspace`` spaces them: radius i is 10**(i*step + log10(lo)),
    step = (log10(hi) - log10(lo))/(n - 1), and the end radii are ``lo``
    and ``hi`` exactly.  Each power is the C library's ``pow``, which is
    what numpy's baseline loop calls and its SIMD loops may miss by an
    ulp."""
    if n == 1:
        return [lo]
    start = math.log10(lo)
    step = (math.log10(hi) - start) / (n - 1)
    radii = [10.0 ** (i * step + start) for i in range(n)]
    radii[0], radii[-1] = lo, hi
    return radii


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
    report.add("energy_density", energy_density(carrier, r),
               "1/(r_o^3) scaled", "closed-form")
    report.add("field_intensity", field_intensity(carrier, r),
               "1/r_o scaled", "closed-form")
    report.add("log_potential", log_potential(carrier, r),
               "dimensionless", "closed-form")
    radii = _geomspace(1e-2, 1e2, args.samples)
    report.table(
        "profile", r_over_ro=radii,
        energy_density=[energy_density(carrier, x) for x in radii],
        field_intensity=[field_intensity(carrier, x) for x in radii],
        log_potential=[log_potential(carrier, x) for x in radii],
        enclosed_fraction=[enclosed_energy(carrier, x) for x in radii])
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
    radii = _geomspace(1e-2, 1e2, args.samples)
    profile = [electric_profile(carrier, x) for x in radii]
    report.table("profile", r_over_ro=radii,
                 charge_density=[rho for rho, _, _ in profile],
                 field=[e_field for _, e_field, _ in profile],
                 potential=[potential for _, _, potential in profile])
    return report


def cmd_compare(args: argparse.Namespace) -> RunReport:
    from .baseline import (schwarzschild_deflection, schwarzschild_delay,
                           schwarzschild_precession,
                           schwarzschild_precession_quadrature)
    from .orbits import (precession_analytic, precession_quadrature,
                         turning_points_from_elements)
    from .photons import EchoGeometry, deflection_integral, shapiro_delay
    mercury = _load_scenario(args)
    solar = preset_scenario("solar")
    report = RunReport(scenario="compare",
                       config={"mercury": mercury.params,
                               "solar": solar.params,
                               "strong_r_min_over_ro": args.strong_rmin})
    mp, sp = mercury.params, solar.params

    # first, as in precession: elements with no bound orbit fail here, not
    # as finite rows of a precession that has no orbit
    turning_points_from_elements(mp["r_o"], mp["a"], mp["ecc"])
    flat_prec = precession_analytic(mp["r_o"], mp["a"], mp["ecc"])
    flat_defl = deflection_integral(sp["r_o"], sp["R_s"])
    geom = EchoGeometry(r_es=sp["r_es"], r_ms=sp["r_ms"], R_s=sp["R_s"],
                        r_o=sp["r_o"])
    flat_delay = shapiro_delay(geom)
    to_us = 1e6 / C_SI

    report.add("precession_per_orbit", flat_prec.delta_phi_per_orbit, "rad",
               "closed-form")
    report.add("deflection", flat_defl.quadrature, "rad", "bending-quadrature")
    report.add("echo_delay", flat_delay.quadrature * to_us, "us",
               "path-quadrature")
    sc_prec = schwarzschild_precession(mp["r_o"], mp["a"], mp["ecc"])
    sc_defl = schwarzschild_deflection(sp["r_o"], sp["R_s"])
    sc_delay = schwarzschild_delay(sp["r_o"], sp["r_es"], sp["r_ms"],
                                   sp["R_s"])
    for name, value, unit in (("precession_per_orbit", sc_prec, "rad"),
                              ("deflection", sc_defl, "rad"),
                              ("echo_delay", sc_delay * to_us, "us")):
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
               "turning-point-quadrature")
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


def _flag_type(key: str, kind: Callable[[str], Any],
               domain: str) -> Callable[[str], Any]:
    """``kind`` of a flag's text, checked against ``key``'s domain: a
    ConfigInvalid passes through argparse to ``main``.  The error states
    ``domain``, the flag's whole domain as its ``--help`` does: the
    narrower rule's description where the flag has one (``_load_scenario``
    then checks the rule)."""
    test = DOMAIN[key][0]

    def parse(text: str) -> Any:
        value = kind(text)
        if not test(value):
            raise ConfigInvalid(f"{key!r} must be {domain}, got {value!r}")
        return value
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
            domain = rule[1] if rule else DOMAIN[key][1]
            text += ": " + domain
            if default is not None:
                text += f" (default {default})"
            p.add_argument(f"--{option}", dest=key, default=default,
                           type=_flag_type(key, kind, domain), help=text)
        p.set_defaults(func=_command("cmd_" + name.replace("-", "_")))
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        report = args.func(args)
        _emit(report, args.format, args.out)
        sys.stdout.flush()
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (FlatgravError, ArithmeticError) as exc:
        message = str(exc)
        if isinstance(exc, OverflowError) and exc.args:
            # a float ``**`` overflow reads "(34, 'Numerical result out of
            # range')", errno and text; a ``math`` one "math range error"
            message = f"overflow ({exc.args[-1]})"
        print(f"numerical error: {message}", file=sys.stderr)
        return 3
    except ValueError as exc:
        # ``math``'s domain error is the float form of numpy's invalid
        # operation; any other ValueError is a fault, with its traceback
        if exc.args != ("math domain error",):
            raise
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        # a table too large to allocate (a huge --samples, say); a list's
        # allocation failure carries no message
        detail = f" ({exc})" if str(exc) else ""
        print(f"numerical error: out of memory{detail}", file=sys.stderr)
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
    # The interpreter's exit runs full cyclic collections over the objects
    # flatgrav and the standard library hold (~13k), and numpy's where the
    # subcommand imports it (~23k in all): ~4 and ~9 ms on a 2-core VM, to
    # free memory the OS takes back anyway.  Frozen objects are still freed
    # by reference counting; only cycle detection skips them, and ``main``
    # has closed its files and flushed stdout.  ``main`` itself never
    # freezes, so an in-process caller keeps its collector.
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
