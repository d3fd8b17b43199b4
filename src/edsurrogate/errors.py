"""Exception types shared across the package."""


class CapacityError(ValueError):
    """A word does not fit into the grid's length capacity."""


class EncodingError(ValueError):
    """A character is not a member of the alphabet."""


class ShapeError(ValueError):
    """Operands or parameters have incompatible shapes."""


class NumericError(ValueError, ArithmeticError):
    """A non-finite value (NaN/Inf) was produced or supplied."""


class ConfigError(ValueError):
    """A configuration value violates its invariants."""


class CheckpointError(ValueError):
    """A checkpoint file is malformed or truncated."""
