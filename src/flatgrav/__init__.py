"""Flat-three-space, warped-time metric gravitation toolkit.

Builds spacetime metrics from gravitational four-potentials with an exactly
Euclidean spatial section, integrates bound orbits and light rays, transports
gyroscope spins around a rotating body, and evaluates the nonlocal r^-4
energy/charge carrier fields — with a CLI for the classic solar-system tests.
"""

__version__ = "1.0.0"

from .errors import FlatgravError
from .metric import (
    CentralField,
    FourPotential,
    SpacetimeMetric,
    build_metric,
    central_potential,
    christoffels_central,
    proper_time_rate,
    rotating_central_potential,
)
from .orbits import (
    GeodesicState,
    OrbitIntegrals,
    integrate_orbit,
    orbit_from_elements,
    precession_analytic,
    precession_numeric,
    precession_quadrature,
)
from .photons import (
    EchoGeometry,
    deflection_integral,
    fermat_ray_integrate,
    shapiro_delay,
    wave_vector,
)
from .spin import RotatingFieldSpec, transport_spin
from .carriers import ElectricCarrier, RadialCarrier

__all__ = [
    "__version__",
    "FlatgravError",
    "CentralField", "FourPotential", "SpacetimeMetric", "build_metric",
    "central_potential", "christoffels_central", "proper_time_rate",
    "rotating_central_potential",
    "GeodesicState", "OrbitIntegrals", "integrate_orbit", "orbit_from_elements",
    "precession_analytic", "precession_numeric", "precession_quadrature",
    "EchoGeometry", "deflection_integral", "fermat_ray_integrate",
    "shapiro_delay", "wave_vector",
    "RotatingFieldSpec", "transport_spin",
    "ElectricCarrier", "RadialCarrier",
]
