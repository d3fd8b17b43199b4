"""Exception types shared across the package, and the check that names an
unknown config key."""


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


def reject_unknown_keys(section: str, data, known) -> None:
    """Raise ConfigError naming the first key of data that is not in known."""
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ConfigError(f"unknown {section} key {unknown[0]!r}")
