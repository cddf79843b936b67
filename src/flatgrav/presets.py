"""Named solar-system presets and scenario configuration.

All preset values live here in SI or geometric units as noted; the rest of
the library takes plain numbers in geometric units (c = 1, meters).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict

import numpy as np

from .constants import C_SI, G_SI
from .errors import ConfigInvalid
from .photons import EchoGeometry

FLAT_MODEL = "flatspace-weber"
MODELS = (FLAT_MODEL, "schwarzschild", "newtonian")

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
    return EchoGeometry(r_es=EARTH_SUN_DISTANCE, r_ms=MERCURY_SUN_DISTANCE,
                       R_s=SOLAR_RADIUS, r_o=SOLAR_R_O)


def earth_spin_parameters() -> Dict[str, Any]:
    """Geometrized Earth rotation parameters for gyroscope scenarios."""
    return {
        "r_o": energy_radius(EARTH_MASS),
        "inertia": geometrize_inertia(EARTH_INERTIA),
        "omega": np.array([0.0, 0.0, geometrize_omega(EARTH_OMEGA)]),
        "radius": EARTH_RADIUS,
    }


@dataclass(frozen=True)
class Scenario:
    """One named run: a model choice plus physical and run parameters."""

    name: str
    model: str = "flatspace-weber"
    params: Dict[str, Any] = field(default_factory=dict)
    n_orbits: int = 10
    tol: float = 1e-12

    def __post_init__(self):
        if self.model not in MODELS:
            raise ConfigInvalid(
                f"model must be one of {MODELS}, got {self.model!r}"
            )
        if self.tol <= 0.0:
            raise ConfigInvalid(f"tol must be > 0, got {self.tol}")
        if self.n_orbits < 1:
            raise ConfigInvalid(f"n_orbits must be >= 1, got {self.n_orbits}")
        for key, value in self.params.items():
            if key in ("a", "R_s", "r_es", "r_ms", "radius"):
                if not (isinstance(value, (int, float)) and value > 0):
                    raise ConfigInvalid(f"length {key!r} must be > 0")
            elif key == "r_o":
                if not (isinstance(value, (int, float)) and value >= 0):
                    raise ConfigInvalid("length 'r_o' must be >= 0")
            elif key == "ecc":
                if not (isinstance(value, (int, float)) and 0 <= value < 1):
                    raise ConfigInvalid(
                        f"eccentricity must be in [0, 1), got {value!r}")


def preset_scenario(name: str, model: str = "flatspace-weber") -> Scenario:
    """Build one of the named scenarios: mercury | solar | earth."""
    if name == "mercury":
        return Scenario(name="mercury", model=model, params={
            "r_o": SOLAR_R_O,
            "a": MERCURY_SEMI_MAJOR,
            "ecc": MERCURY_ECCENTRICITY,
        })
    if name == "solar":
        return Scenario(name="solar", model=model, params={
            "r_o": SOLAR_R_O,
            "R_s": SOLAR_RADIUS,
            "r_es": EARTH_SUN_DISTANCE,
            "r_ms": MERCURY_SUN_DISTANCE,
        })
    if name == "earth":
        return Scenario(name="earth", model=model,
                        params=earth_spin_parameters())
    raise ConfigInvalid(f"unknown preset {name!r}")
