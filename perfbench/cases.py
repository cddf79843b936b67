"""Seeded inputs for the three workloads.

Every input the benchmark passes to flatgrav comes from here, drawn from a
``random.Random`` seeded with the run's seed, so one seed always gives the
same cases.  The in-process workloads draw their cases in passes: each pass
covers every stratum of every varied input once, and the strata of the two
continuous inputs are paired on a fixed lattice.  Inside its stratum a
value sits at a per-stratum random shift plus the pass's van der Corput
point, so successive passes spread evenly over each stratum.  Every pass
therefore has the same mix and the same hardest cells, whatever the seed,
and the extremes reached over a run's passes are nearly the same from seed
to seed, while every input still changes with the seed.
"""
from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

TOL = 1e-12                      # documented default tolerance, all workloads

# Solar preset values (flatgrav.presets), repeated here so that generating
# inputs does not import the program under test.
SOLAR_R_O = 1480.0
SOLAR_RADIUS = 0.7e9
MERCURY_A = 5.79e10
MERCURY_ECC = 0.2056
EARTH_ORBIT_RADIUS = 7.02e6      # default of `flatgrav gyro --orbit-radius`

# orbit-sweep: r_min/r_o from the strong-field probe (20; below it some
# eccentricities have no bound orbit under the Newtonian closure) up to
# Mercury (a(1 - e)/r_o = 3.1e7).  n_orbits starts at 3: below r_min ~ 22 r_o
# with ecc < 0.1, orbit_from_elements starts the orbit at the apocentre, and
# two revolutions of phi then hold a single perihelion passage, so
# `flatgrav orbit` exits 3 (InsufficientOrbits) for n_orbits = 2.
ORBIT_LOG_RMIN = (math.log(20.0), math.log(3.1e7))
ORBIT_ECC = (0.05, 0.6)
ORBIT_N = (3, 30)
ORBIT_PASS = ORBIT_N[1] - ORBIT_N[0] + 1     # one case per n_orbits value
# Radius stratum i pairs with ecc stratum 11*i and n_orbits 3 + (5*i mod 28):
# fixed pairings, so every pass has the same mix of case sizes.
ORBIT_ECC_LATTICE = 11
ORBIT_N_LATTICE = 5

# spin-transport: scaled units r = 1, w = 1e-7, plus Earth-preset cases.
SPIN_LOG10_RO = (-8.0, -4.0)
SPIN_LOG10_INERTIA = (-4.0, -2.0)
SPIN_OMEGA = 1e-7
SPIN_SCALED = 8
SPIN_LATTICE = 3                             # inertia stratum = 3*i mod 8
SPIN_EARTH = 2
SPIN_EARTH_SPREAD = 0.05                     # radius within +-5% of 7.02e6 m


@dataclass(frozen=True)
class OrbitCase:
    r_min_over_ro: float
    ecc: float
    n_orbits: int

    @property
    def a(self) -> float:
        """Semi-major axis (m) whose Newtonian perihelion is r_min."""
        return self.r_min_over_ro * SOLAR_R_O / (1.0 - self.ecc)

    def config(self) -> dict:
        return {"preset": "mercury", "tol": TOL, "n_orbits": self.n_orbits,
                "params": {"r_o": SOLAR_R_O, "a": self.a, "ecc": self.ecc}}


@dataclass(frozen=True)
class SpinCase:
    kind: str                    # "scaled" | "earth"
    r_o_over_r: float = 0.0      # scaled cases (r = 1)
    inertia: float = 0.0         # scaled cases
    radius: float = 0.0          # earth cases (m)


@dataclass(frozen=True)
class CliCase:
    """One `flatgrav` invocation and what its output is checked against."""

    argv: Tuple[str, ...]
    kind: str                    # subcommand
    fmt: str                     # "json" | "csv"
    default: bool                # the subcommand at its default preset
    params: Dict[str, float]     # seeded inputs the checks need
    out: Optional[str] = None    # --out file name inside the work directory
    config: Optional[dict] = None


def van_der_corput(k: int) -> float:
    """Base-2 radical inverse: 0, 1/2, 1/4, 3/4, 1/8, ..."""
    x, f = 0.0, 0.5
    while k:
        x += f * (k & 1)
        k >>= 1
        f *= 0.5
    return x


class Strata:
    """Values of one input: stratum i of k, at a spread-out offset per pass."""

    def __init__(self, rng: random.Random, lo: float, hi: float, k: int):
        self.lo, self.width = lo, (hi - lo) / k
        self.shift = [rng.random() for _ in range(k)]

    def value(self, i: int, pass_no: int) -> float:
        offset = (self.shift[i] + van_der_corput(pass_no)) % 1.0
        return self.lo + (i + offset) * self.width


def orbit_passes(rng: random.Random) -> Iterator[List[OrbitCase]]:
    log_r = Strata(rng, *ORBIT_LOG_RMIN, ORBIT_PASS)
    ecc = Strata(rng, *ORBIT_ECC, ORBIT_PASS)
    for p in itertools.count():
        cases = [OrbitCase(math.exp(log_r.value(i, p)),
                           ecc.value((ORBIT_ECC_LATTICE * i) % ORBIT_PASS, p),
                           ORBIT_N[0] + (ORBIT_N_LATTICE * i) % ORBIT_PASS)
                 for i in range(ORBIT_PASS)]
        rng.shuffle(cases)
        yield cases


def spin_passes(rng: random.Random) -> Iterator[List[SpinCase]]:
    log_ro = Strata(rng, *SPIN_LOG10_RO, SPIN_SCALED)
    log_inertia = Strata(rng, *SPIN_LOG10_INERTIA, SPIN_SCALED)
    earth = Strata(rng, 1.0 - SPIN_EARTH_SPREAD, 1.0 + SPIN_EARTH_SPREAD,
                   SPIN_EARTH)
    for p in itertools.count():
        cases = [SpinCase(
            "scaled", r_o_over_r=10.0 ** log_ro.value(i, p),
            inertia=10.0 ** log_inertia.value(
                (SPIN_LATTICE * i) % SPIN_SCALED, p))
            for i in range(SPIN_SCALED)]
        cases += [SpinCase("earth", radius=EARTH_ORBIT_RADIUS
                           * earth.value(i, p)) for i in range(SPIN_EARTH)]
        rng.shuffle(cases)
        yield cases


def passes(workload: str, seed: int) -> Iterator[list]:
    """Endless stream of case passes for an in-process workload."""
    make = {"orbit-sweep": orbit_passes, "spin-transport": spin_passes}
    return make[workload](random.Random(f"{workload}/{seed}"))


def warmup_case(workload: str, seed: int):
    """One case outside the measured stream, run untimed during set-up."""
    return next(passes(workload, seed + 1_000_003))[0]


def _mercury_like(rng: random.Random) -> Dict[str, float]:
    return {"a": MERCURY_A * rng.uniform(0.95, 1.05),
            "ecc": rng.uniform(0.19, 0.22)}


def cli_pool(seed: int) -> List[CliCase]:
    """The cli-suite argv list: 8 defaults interleaved with 8 seeded variants.

    Variants cover --config (Mercury-like a/ecc, solar R_s, n_orbits <= 20),
    --format csv and --out (which also writes the table files).
    """
    rng = random.Random(f"cli-suite/{seed}")
    mercury = _mercury_like(rng)
    n_orbits = rng.randint(2, 20)
    orbit_cfg = {"preset": "mercury", "n_orbits": n_orbits,
                 "params": dict(mercury)}
    prec = _mercury_like(rng)
    prec_cfg = {"preset": "mercury", "params": dict(prec)}
    r_defl = SOLAR_RADIUS * rng.uniform(1.0, 3.0)
    r_echo = SOLAR_RADIUS * rng.uniform(1.0, 3.0)
    radius = EARTH_ORBIT_RADIUS * rng.uniform(0.95, 1.2)
    r_over_ro = 10.0 ** rng.uniform(-2.0, 2.0)
    samples = rng.randint(16, 128)
    cmp_params = _mercury_like(rng)

    def case(argv, kind, fmt="json", default=False, params=None, out=None,
             config=None):
        return CliCase(tuple(argv), kind, fmt, default, params or {}, out,
                       config)

    defaults = [case([k], k, default=True) for k in (
        "orbit", "precession", "echo-delay", "light-deflect", "gyro",
        "density", "electric", "compare")]
    variants = [
        case(["orbit", "--config", "orbit.cfg.json", "--out", "orbit.json"],
             "orbit", params={**mercury, "n_orbits": n_orbits},
             out="orbit.json", config=orbit_cfg),
        case(["precession", "--config", "precession.cfg.json"], "precession",
             params=prec, config=prec_cfg),
        case(["echo-delay", "--config", "echo.cfg.json", "--format", "csv"],
             "echo-delay", "csv", params={"R_s": r_echo},
             config={"preset": "solar", "params": {"R_s": r_echo}}),
        case(["light-deflect", "--config", "deflect.cfg.json", "--format",
              "csv"], "light-deflect", "csv", params={"R_s": r_defl},
             config={"preset": "solar", "params": {"R_s": r_defl}}),
        case(["gyro", "--orbit-radius", repr(radius), "--out", "gyro.json"],
             "gyro", params={"radius": radius}, out="gyro.json"),
        case(["density", "--r-over-ro", repr(r_over_ro), "--out",
              "density.json"], "density", params={"r_over_ro": r_over_ro},
             out="density.json"),
        case(["electric", "--samples", str(samples), "--format", "csv",
              "--out", "electric.csv"], "electric", "csv",
             params={"samples": samples}, out="electric.csv"),
        case(["compare", "--config", "compare.cfg.json", "--format", "csv"],
             "compare", "csv", params=cmp_params,
             config={"preset": "mercury", "params": dict(cmp_params)}),
    ]
    return [c for pair in zip(defaults, variants) for c in pair]


def materialize(pool: List[CliCase], workdir: Path) -> List[List[str]]:
    """Write each case's config file into ``workdir``; return absolute argv."""
    workdir.mkdir(parents=True, exist_ok=True)
    argvs = []
    for c in pool:
        argv = list(c.argv)
        for flag in ("--config", "--out"):
            if flag in argv:
                k = argv.index(flag) + 1
                argv[k] = str(workdir / argv[k])
        if c.config is not None:
            (workdir / c.argv[c.argv.index("--config") + 1]).write_text(
                json.dumps(c.config), encoding="utf-8")
        argvs.append(argv)
    return argvs
