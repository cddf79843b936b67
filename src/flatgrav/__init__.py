"""Flat-three-space, warped-time metric gravitation toolkit.

Builds spacetime metrics from gravitational four-potentials with an exactly
Euclidean spatial section, integrates bound orbits and light rays, transports
gyroscope spins around a rotating body, and evaluates the nonlocal r^-4
energy/charge carrier fields — with a CLI for the classic solar-system tests.

``import flatgrav`` loads no submodule: each exported name is read from its
home module on access (PEP 562), and that module is imported the first time.
"""

from importlib import import_module

__version__ = "1.0.0"

# exported name -> the submodule that defines it
_HOME = {
    "FlatgravError": "errors",
    **dict.fromkeys((
        "CentralField", "FourPotential", "SpacetimeMetric", "build_metric",
        "proper_time_rate"), "metric"),
    **dict.fromkeys((
        "OrbitIntegrals", "integrate_orbit", "orbit_from_elements",
        "precession_analytic", "precession_numeric", "precession_quadrature"),
        "orbits"),
    **dict.fromkeys((
        "EchoGeometry", "deflection_integral", "fermat_ray_integrate",
        "shapiro_delay"), "photons"),
    **dict.fromkeys(("RotatingFieldSpec", "transport_spin"), "spin"),
    **dict.fromkeys(("ElectricCarrier", "RadialCarrier"), "carriers"),
}

__all__ = ["__version__", *_HOME]


def __getattr__(name):
    # not cached here: the name always reads the home module's binding
    if name in _HOME:
        return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_HOME})
