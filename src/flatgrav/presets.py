"""Named solar-system presets and scenario configuration.

All preset values live here in SI or geometric units as noted; the rest of
the library takes plain numbers in geometric units (c = 1, meters).
"""
from __future__ import annotations

import sys
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Any, Callable, Container, Dict, Tuple

from .constants import C_SI, G_SI
from .errors import ConfigInvalid

if TYPE_CHECKING:
    from .photons import EchoGeometry

# Solar gravitational energy radius (m).
SOLAR_R_O = 1480.0
# Solar photospheric radius used as the grazing distance (m).
SOLAR_RADIUS = 0.7e9
# Mean orbital radii for the radar echo geometry (m).
EARTH_SUN_DISTANCE = 149.5e9
MERCURY_SUN_DISTANCE = 57.9e9

# Mercury osculating elements (ephemeris constants, not model outputs):
# semi-major axis (m) and eccentricity.
MERCURY_SEMI_MAJOR = 5.79e10
MERCURY_ECCENTRICITY = 0.2056

# Earth bulk properties for the gyroscope preset (SI).
EARTH_MASS = 5.972e24          # kg
EARTH_RADIUS = 6.371e6         # m
EARTH_OMEGA = 7.292e-5         # rad/s
EARTH_INERTIA = 0.4 * EARTH_MASS * EARTH_RADIUS**2   # kg m^2 (uniform-ish)


def geometrize_inertia(inertia_si: float) -> float:
    """Moment of inertia kg*m^2 -> m^3 via the factor G/c^2."""
    return G_SI * inertia_si / C_SI**2


def geometrize_omega(omega_si: float) -> float:
    """Angular rate 1/s -> 1/m."""
    return omega_si / C_SI


def energy_radius(mass_kg: float) -> float:
    """Gravitational energy radius G*M/c^2 in meters."""
    return G_SI * mass_kg / C_SI**2


def solar_echo_geometry() -> EchoGeometry:
    """Earth-Sun-Mercury radar geometry grazing the solar limb."""
    from .photons import EchoGeometry
    return EchoGeometry(r_es=EARTH_SUN_DISTANCE, r_ms=MERCURY_SUN_DISTANCE,
                       R_s=SOLAR_RADIUS, r_o=SOLAR_R_O)


def earth_spin_parameters() -> Dict[str, Any]:
    """Geometrized Earth rotation parameters for gyroscope scenarios."""
    return {
        "r_o": energy_radius(EARTH_MASS),
        "inertia": geometrize_inertia(EARTH_INERTIA),
        "omega": [0.0, 0.0, geometrize_omega(EARTH_OMEGA)],
        "radius": EARTH_RADIUS,
    }


# The named presets: name -> its physical parameters.
PRESETS: Dict[str, Callable[[], Dict[str, Any]]] = {
    "mercury": lambda: {"r_o": SOLAR_R_O, "a": MERCURY_SEMI_MAJOR,
                        "ecc": MERCURY_ECCENTRICITY},
    "solar": lambda: {"r_o": SOLAR_R_O, "R_s": SOLAR_RADIUS,
                      "r_es": EARTH_SUN_DISTANCE, "r_ms": MERCURY_SUN_DISTANCE},
    "earth": earth_spin_parameters,
}


def _number(value: Any) -> bool:
    """A finite real that a float can hold; a bool is not a number."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _count(value: Any) -> bool:
    """An int; a bool is not a count."""
    return isinstance(value, int) and not isinstance(value, bool)


def _axis(value: Any) -> bool:
    """A list of three finite numbers."""
    return (isinstance(value, list) and len(value) == 3
            and all(map(_number, value)))


# Every input -> (test, description): the config keys, the physical
# parameters (meters, radians, geometrized inertia and rate) and the flags.
DOMAIN: Dict[str, Tuple[Callable[[Any], bool], str]] = {
    "preset": (lambda v: isinstance(v, str) and v in PRESETS,
               f"one of {tuple(PRESETS)}"),
    "name": (lambda v: isinstance(v, str), "a string"),
    "params": (lambda v: isinstance(v, dict), "a JSON object"),
    "n_orbits": (lambda v: _count(v) and v >= 2, "an integer >= 2"),
    # a million table rows take ~1 GB and ~19 s (density --out, 2-core VM)
    "samples": (lambda v: _count(v) and 1 <= v <= 1_000_000,
                "an integer from 1 to 1000000"),
    "ecc": (lambda v: _number(v) and 0 <= v < 1,
            "an eccentricity in [0, 1)"),
    "omega": (_axis, "3 finite numbers"),
    **dict.fromkeys(("r_o", "inertia"),
                    (lambda v: _number(v) and v >= 0, "finite and >= 0")),
    **dict.fromkeys(("tol", "a", "R_s", "r_es", "r_ms", "radius",
                     "orbit_radius", "r_over_ro", "strong_rmin"),
                    (lambda v: _number(v) and v > 0, "finite and > 0")),
}
# The keys a config file may hold at its top level, and in its "params".
CONFIG_KEYS = ("preset", "name", "params", "n_orbits", "tol")
PARAM_KEYS = ("a", "ecc", "r_o", "R_s", "r_es", "r_ms", "inertia", "omega",
              "radius")


def check(key: str, value: Any, known: Container[str] = DOMAIN) -> Any:
    """``value``, if it lies in the domain of ``key``; else ConfigInvalid.

    A key outside ``known`` (every key, or those of one part of a config)
    is refused.
    """
    if key not in known:
        raise ConfigInvalid(f"unknown key {key!r}")
    test, description = DOMAIN[key]
    if not test(value):
        raise ConfigInvalid(f"{key!r} must be {description}, got {value!r}")
    return value


@dataclass(frozen=True)
class Scenario:
    """One named run: its physical and run parameters."""

    name: str
    params: Dict[str, Any] = field(default_factory=dict)
    n_orbits: int = 10
    tol: float = 1e-12

    def __post_init__(self):
        for f in fields(self):
            check(f.name, getattr(self, f.name))
        for key, value in self.params.items():
            check(key, value, PARAM_KEYS)


def preset_scenario(name: str) -> Scenario:
    """Build one of the named scenarios: mercury | solar | earth."""
    return Scenario(name=check("preset", name), params=PRESETS[name]())
