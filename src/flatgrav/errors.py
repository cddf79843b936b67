"""Exception types shared across the library."""


class FlatgravError(Exception):
    """Base class for all library errors."""


class PotentialOutOfRange(FlatgravError):
    """Scalar potential g0 >= 1: the time warp factor 1/(1 - g0) blows up."""


class NonPositiveRadius(FlatgravError):
    """A radius that must be > 0 was not."""


class InvalidSpeed(FlatgravError):
    """Coordinate or physical speed at or above the speed of light."""


class NoConvergence(FlatgravError):
    """An iteration or a quadrature did not converge: a fixed point ran
    out of steps, or a Gauss-Legendre rule met a non-finite interval or
    integrand, or no rule agreed with the next within tolerance."""


class UnboundOrbit(FlatgravError):
    """Orbital elements describe an unbound (ecc >= 1) trajectory."""


class TurningPointNotFound(FlatgravError):
    """Radial turning points of a bound orbit could not be located."""


class ToleranceNotMet(FlatgravError):
    """An integration finished without reaching the requested tolerance."""


class InsufficientOrbits(FlatgravError):
    """Trajectory does not span a whole radial period."""


class DenominatorVanishes(FlatgravError):
    """Rosette equation evaluated outside its validity regime (3*r_o*u >= 1)."""


class GeometryInvalid(FlatgravError):
    """Ray/echo geometry fails its sanity constraints."""


class RayCaptured(FlatgravError):
    """Photon path never turns back: 4*r_o*u0 >= 1, min of r*n(r) = 4*r_o."""


class ConfigInvalid(FlatgravError):
    """Scenario configuration failed validation."""


class NumericalFailure(FlatgravError):
    """A numerical routine failed downstream of valid input."""
