"""Output checks.  Each returns a list of failure messages; empty means pass.

An operation fails when its process exits non-zero, prints a traceback,
raises, or produces a value that an independent route or a preset
expectation contradicts.  Failed operations over attempted ones is the
benchmark's error rate.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from .cases import (MERCURY_A, MERCURY_ECC, SOLAR_R_O, SOLAR_RADIUS, TOL,
                    CliCase)

ARCSEC_PER_RAD = 180.0 * 3600.0 / math.pi

# Preset expectations: (value, absolute tolerance).
MERCURY_CENTURY = (43.1, 0.1)          # arcsec/century, both routes
ECHO_US = (220.5, 0.2)                 # us, both routes
DEFLECTION_ARCSEC = (-1.744, 0.002)    # all three routes
STRONG_DIVERGENCE = (0.158, 5e-4)      # at r_min = 20 r_o
WEAK_FIELD_AGREEMENT = 1e-3            # flat vs Schwarzschild (criterion 10)

# Integration vs quadrature precession: the advance is what is left of a
# 2*pi(1 + delta) angle after subtracting 2*pi, so an integration at relative
# tolerance tol leaves an absolute error of order 2*pi*tol per orbit (the 2*pi
# cancellation floor).  Measured errors are 0.25-4 floors across the sweep.
PRECESSION_FLOORS = 100.0
# The closed forms are first order in r_o/r; measured quadrature deviations
# are 8-12 (r_o/r), so 20 (r_o/r) bounds the model error, not numerics.
FIRST_ORDER_FACTOR = 20.0
SPIN_ORACLE_MISMATCH = 0.01            # acceptance criterion 7


def rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def process_failures(returncode: int, stderr: str) -> List[str]:
    out = []
    if returncode != 0:
        out.append(f"exit code {returncode}")
    if "Traceback" in stderr:
        out.append("traceback on stderr: "
                   + stderr.strip().splitlines()[-1][:200])
    return out


def parse_report(text: str, fmt: str) -> dict:
    """Rows (with float values) and tables of a JSON or CSV report."""
    if fmt == "json":
        report = json.loads(text)
        return {"rows": report["rows"], "tables": report.get("tables", {})}
    rows = []
    for row in csv.DictReader(io.StringIO(text)):
        row["value"] = float(row["value"])
        row["tolerance"] = float(row["tolerance"]) if row["tolerance"] else None
        rows.append(row)
    return {"rows": rows, "tables": {}}


def values(report: dict, quantity: str, provenance: Optional[str] = None,
           unit: Optional[str] = None, model: Optional[str] = None
           ) -> List[dict]:
    return [r for r in report["rows"] if r["quantity"] == quantity
            and (provenance is None or r["provenance"] == provenance)
            and (unit is None or r["unit"] == unit)
            and (model is None or r["model"] == model)]


def one(report: dict, quantity: str, **kw) -> dict:
    rows = values(report, quantity, **kw)
    if len(rows) != 1:
        raise KeyError(f"expected one {quantity} row {kw}, found {len(rows)}")
    return rows[0]


def near(name: str, value: float, expected: Sequence[float]) -> List[str]:
    target, tol = expected
    if abs(value - target) <= tol:
        return []
    return [f"{name} = {value!r}, expected {target} +- {tol}"]


def within(name: str, value: float, bound: float) -> List[str]:
    return [] if value <= bound else [f"{name} = {value:.3e} > {bound:.3e}"]


# ------------------------------------------------------------------ orbits


def orbit_reference(r_o: float, a: float, ecc: float) -> float:
    """Perihelion advance per orbit by turning-point quadrature."""
    from flatgrav.orbits import (orbit_from_elements, precession_quadrature,
                                 turning_points)
    _, integrals = orbit_from_elements(r_o, a, ecc)
    r_min, r_max = turning_points(r_o, integrals)
    return precession_quadrature(r_o, r_min, r_max)


def check_orbit(report: dict, reference: float, n_orbits: int,
                samples: Optional[int] = 512) -> Dict[str, object]:
    """Integration route against the quadrature reference.

    Returns ``{"failures": [...], "rel_err": float}``.
    """
    numeric = one(report, "precession_per_orbit",
                  provenance="orbit-integration")
    tol = numeric["tolerance"] or TOL
    err = abs(numeric["value"] - reference)
    fails = within("|integration - quadrature| precession", err,
                   PRECESSION_FLOORS * 2.0 * math.pi * tol)
    drift = one(report, "energy_integral_drift")["value"]
    fails += within("energy_integral_drift", drift, 1000.0 * tol * n_orbits)
    table = report["tables"].get("trajectory")
    if samples is not None and table is not None:
        if sorted(table) != ["p_m", "phi_rad", "r_m", "t_m"] or any(
                len(col) != samples for col in table.values()):
            fails.append("trajectory table has the wrong shape")
    return {"failures": fails, "rel_err": err / abs(reference)}


def check_precession(report: dict, r_o: float, a: float, ecc: float
                     ) -> List[str]:
    closed = one(report, "precession_per_orbit", provenance="closed-form")
    quad = one(report, "precession_per_orbit",
               provenance="turning-point-quadrature")
    r_min = a * (1.0 - ecc)
    return within("closed form vs quadrature precession",
                  rel(closed["value"], quad["value"]),
                  FIRST_ORDER_FACTOR * r_o / r_min)


# ------------------------------------------------------------- cli-suite


def check_cli(case: CliCase, report: dict, workdir: Path,
              reference: Optional[float]) -> Dict[str, object]:
    """Checks for one cli-suite report; ``reference`` is the quadrature
    precession (orbit) or enclosed-fraction quadrature (density)."""
    fails: List[str] = []
    rel_err = None
    p = case.params
    k = case.kind
    if k == "orbit":
        out = check_orbit(report, reference,
                          p.get("n_orbits", 10), samples=512)
        fails += out["failures"]
        rel_err = out["rel_err"]
        if case.default:
            fails += near("orbit precession_century", one(
                report, "precession_century",
                provenance="orbit-integration")["value"], MERCURY_CENTURY)
        if case.out:
            fails += _table_file(workdir, case.out, "trajectory", 512)
    elif k == "precession":
        fails += check_precession(report, SOLAR_R_O, p.get("a", MERCURY_A),
                                  p.get("ecc", MERCURY_ECC))
        if case.default:
            fails += near("precession_century closed form", one(
                report, "precession_century",
                provenance="closed-form")["value"], MERCURY_CENTURY)
    elif k == "echo-delay":
        quad = one(report, "echo_delay", provenance="path-quadrature")
        closed = one(report, "echo_delay", provenance="closed-form")
        fails += within("echo routes", rel(quad["value"], closed["value"]),
                        quad["tolerance"])
        if case.default:
            for row in (quad, closed):
                fails += near(f"echo {row['provenance']}", row["value"],
                              ECHO_US)
    elif k == "light-deflect":
        R_s = p.get("R_s", SOLAR_RADIUS)
        closed = -4.0 * SOLAR_R_O / R_s
        for prov in ("bending-quadrature", "closed-form", "ray-integration"):
            rad = one(report, "deflection", provenance=prov, unit="rad")
            arc = one(report, "deflection", provenance=prov, unit="arcsec")
            fails += within(f"deflection {prov} vs -4 r_o/R_s",
                            rel(rad["value"], closed),
                            FIRST_ORDER_FACTOR * SOLAR_R_O / R_s)
            fails += within(f"deflection {prov} arcsec/rad",
                            rel(arc["value"], rad["value"] * ARCSEC_PER_RAD),
                            1e-12)
            if case.default:
                fails += near(f"deflection {prov}", arc["value"],
                              DEFLECTION_ARCSEC)
    elif k == "gyro":
        polar = one(report, "frame_dragging_polar")["value"]
        equat = one(report, "frame_dragging_equatorial")["value"]
        geo = one(report, "geodetic_rate")["value"]
        desitter = one(report, "geodetic_rate_desitter")["value"]
        fails += within("polar / equatorial drag + 2", rel(polar, -2 * equat),
                        1e-12)
        fails += within("geodetic / de Sitter - 1/3", rel(3 * geo, desitter),
                        1e-12)
    elif k == "density":
        frac = one(report, "enclosed_fraction")["value"]
        fails += within("enclosed fraction vs quadrature",
                        rel(frac, reference), 1e-9)
        if case.default:
            fails += near("enclosed fraction at r_o", frac, (0.5, 1e-12))
        if case.out:
            fails += _table_file(workdir, case.out, "profile", 64)
    elif k == "electric":
        for q in ("total_charge", "self_energy"):
            row = one(report, q)
            fails += within(q, rel(row["value"], 1.0), row["tolerance"])
        if case.out:
            fails += _table_file(workdir, case.out, "profile",
                                 p.get("samples", 64))
    elif k == "compare":
        fails += near("strong_field_divergence",
                      one(report, "strong_field_divergence")["value"],
                      STRONG_DIVERGENCE)
        for q in ("precession_per_orbit", "deflection", "echo_delay"):
            flat = values(report, q, model="flatspace-weber")[0]["value"]
            schw = one(report, q, model="schwarzschild")["value"]
            fails += within(f"{q} flat vs schwarzschild", rel(flat, schw),
                            WEAK_FIELD_AGREEMENT)
    else:
        fails.append(f"no checks for subcommand {k!r}")
    return {"failures": fails, "rel_err": rel_err}


def _table_file(workdir: Path, out: str, table: str, rows: int) -> List[str]:
    stem = Path(out)
    path = workdir / f"{stem.stem}_{table}.csv"
    if not path.is_file():
        return [f"table file {path.name} missing"]
    with path.open(newline="", encoding="utf-8") as fh:
        n = sum(1 for _ in csv.reader(fh)) - 1
    return [] if n == rows else [f"{path.name} has {n} rows, expected {rows}"]


def cli_reference(case: CliCase) -> Optional[float]:
    """Independent-route reference a cli-suite check needs, if any."""
    if case.kind == "orbit":
        return orbit_reference(SOLAR_R_O, case.params.get("a", MERCURY_A),
                               case.params.get("ecc", MERCURY_ECC))
    if case.kind == "density":
        from flatgrav.carriers import RadialCarrier, enclosed_energy_quadrature
        carrier = RadialCarrier(r_o=1.0)
        r = case.params.get("r_over_ro", 1.0)
        return enclosed_energy_quadrature(carrier, r) / carrier.total_energy
    return None


def output_digest(stdout: str, workdir: Path, case: CliCase) -> str:
    """Hash of everything one invocation printed or wrote."""
    h = hashlib.sha256(stdout.encode("utf-8"))
    if case.out:
        stem = Path(case.out).stem
        for path in sorted(workdir.glob(f"{stem}*")):
            if path.suffix in (".json", ".csv") and ".cfg." not in path.name:
                h.update(path.name.encode("utf-8"))
                h.update(path.read_bytes())
    return h.hexdigest()


def read_cli_output(case: CliCase, stdout: str, workdir: Path) -> dict:
    text = (workdir / case.out).read_text(encoding="utf-8") if case.out \
        else stdout
    return parse_report(text, case.fmt)


# ------------------------------------------------------------------ spin


def spin_checks(spec, position, velocity, s0, period, sol
                ) -> Dict[str, object]:
    """One-orbit transport against the accumulated-rate oracle (criterion 7)
    and the drift of the transport invariant g^{mu nu} S_mu S_nu."""
    import numpy as np
    from scipy.integrate import quad
    from flatgrav.spin import (frame_dragging_rate, geodetic_rate,
                               spin_norm_invariant)

    def rate(t):
        x = position(t)
        return frame_dragging_rate(spec, x) + geodetic_rate(spec, x,
                                                            velocity(t))

    accumulated = np.array([
        quad(lambda t: rate(t)[i], 0.0, period, epsrel=1e-12, limit=400)[0]
        for i in range(3)])
    predicted = np.cross(accumulated, s0)
    mismatch = float(np.linalg.norm((sol(period) - s0) - predicted)
                     / np.linalg.norm(predicted))
    ts = np.linspace(0.0, period, 65)
    inv = np.array([spin_norm_invariant(spec, position(t), velocity(t),
                                        sol(t)) for t in ts])
    drift = float(np.max(np.abs(inv - inv[0])) / abs(inv[0]))
    fails = within("spin transport vs accumulated-rate oracle", mismatch,
                   SPIN_ORACLE_MISMATCH)
    if not math.isfinite(drift):
        fails.append("spin norm drift is not finite")
    return {"failures": fails, "mismatch": mismatch, "drift": drift}
