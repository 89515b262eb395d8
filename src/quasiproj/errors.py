"""Exception types shared across the package."""


class QuasiprojError(Exception):
    """Base class for all library errors."""


class NotExpansive(QuasiprojError):
    """A dilation matrix has an eigenvalue with modulus <= 1."""


class Singular(QuasiprojError):
    """A matrix that must be invertible is singular."""


class InvalidParams(QuasiprojError):
    """Catalog parameters are out of range for the requested kind."""


class QuadratureFailure(QuasiprojError):
    """A quadrature did not reach its accuracy target at the node cap."""


class UnsupportedInput(QuasiprojError):
    """The input lacks a feature this path requires (e.g. a compact Fourier profile)."""


class UnsupportedMatrix(QuasiprojError):
    """The dilation matrix is outside the supported class for this functional."""


class NonPositiveValue(QuasiprojError):
    """A quantity that must be positive (for a log fit or a ratio) is not."""


class ConfigError(QuasiprojError):
    """An experiment config failed validation; the message names the field."""


class HypothesisViolated(QuasiprojError):
    """A hypothesis the requested reconstruction relies on does not hold."""
