"""Exception types shared across the package, and the checks that name an
unknown config key, a config value of the wrong type or one out of range."""

import dataclasses
import functools
import math
import numbers
import typing


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


_type_hints = functools.cache(typing.get_type_hints)
_WANTED = {
    int: "an integer",
    float: "a finite number",
    str: "a string",
    tuple[int, ...]: "a tuple of integers",
}


def _fits(value, kind) -> bool:
    if kind is int:
        return isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if kind is float:
        try:
            return not isinstance(value, bool) and math.isfinite(value)
        except (TypeError, OverflowError):  # not a real, or an int beyond float range
            return False
    if typing.get_origin(kind) is tuple:
        item = typing.get_args(kind)[0]
        return isinstance(value, tuple) and all(_fits(v, item) for v in value)
    return isinstance(value, kind)


def check_config(section: str, config, rows) -> None:
    """Raise ConfigError naming the first field of a config dataclass whose
    value does not have its declared type, then the first key of the
    (key, test, wanted) rows whose value fails test(value, config), as
    "<section> key '<key>' must <wanted>, got <value>". An int must not be a
    bool, a float must be a finite real (an int will do), and a
    tuple[int, ...] must be a tuple of such ints."""
    hints = _type_hints(type(config))
    for field in dataclasses.fields(config):
        kind, value = hints[field.name], getattr(config, field.name)
        if not _fits(value, kind):
            wanted = _WANTED.get(kind, f"a {kind.__name__}")
            raise ConfigError(f"{section} key {field.name!r} must be {wanted}, got {value!r}")
    for key, test, wanted in rows:
        if not test(value := getattr(config, key), config):
            raise ConfigError(f"{section} key {key!r} must {wanted}, got {value!r}")
