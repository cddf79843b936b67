"""Exception types shared across the library: the CLI's two failure kinds.

``ConfigInvalid`` is an input that fails validation: ``flatgrav`` exits 2
with "config error: <message>".  ``NumericalFailure`` is every failure of
the computation from valid input (a radius at the center, an unbound
orbit, a captured ray, a quadrature that does not settle, a float that
leaves its range): ``flatgrav`` exits 3 with "numerical error: <message>",
and the message names the input or the quantity at fault.  Argument
contracts that no CLI input reaches raise ValueError.
"""


class FlatgravError(Exception):
    """Base class for all library errors."""


class ConfigInvalid(FlatgravError):
    """Scenario configuration failed validation."""


class NumericalFailure(FlatgravError):
    """A numerical routine failed downstream of valid input."""
