"""Exception types, grouped so the CLI can map failures to distinct exit codes."""

import numbers
from contextlib import contextmanager


class AllocShiftError(Exception):
    """Base class for library errors."""


class ConfigError(AllocShiftError, ValueError):
    """Invalid configuration: bad flag values, malformed config files, unusable parameter combos."""


class DataError(AllocShiftError, ValueError):
    """Invalid input data: schema violations, parse failures, empty or inconsistent cohorts."""


class SchemaError(DataError):
    """A named column is missing or the schema itself is malformed."""


class ParseError(DataError):
    """A cell failed to parse; the message names the row."""


class EmptyCohortError(DataError):
    """The input contained no data rows."""


class NumericalError(AllocShiftError, RuntimeError):
    """Numerical failure at run time: infeasible offsets, zero diagonals, sizes beyond caps."""


class InfeasibleOffsetError(NumericalError):
    """An offset vector violates the simplex or divergence-ball constraints."""


def exit_code(exc: Exception) -> int:
    """The CLI's exit code for exc: 2, 3 or 4 for a configuration, data or
    numerical error, 1 for anything else, which is a fault in the program."""
    codes = {ConfigError: 2, DataError: 3, NumericalError: 4}
    return next((code for cls, code in codes.items() if isinstance(exc, cls)), 1)


def number(value, kind: type, name: str):
    """The one rule for a configured number: value as an int for kind int,
    unchanged for kind float. A bool, a string, or for an int a number with a
    fraction, is a ConfigError naming name."""
    whole = isinstance(value, numbers.Integral) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not (whole if kind is int else isinstance(value, numbers.Real)):
        raise ConfigError(f"{name} must be {'an integer' if kind is int else 'a number'}, "
                          f"got {value!r}")
    return int(value) if kind is int else value


def at_least(value, least: int, name: str) -> int:
    """value as number's rule gives an int, or a ConfigError naming name if it is below least."""
    value = number(value, int, name)
    if value < least:
        raise ConfigError(f"{name} must be >= {least}, got {value}")
    return value


def _set_number(config, name: str, kind: type, optional: bool = False) -> None:
    """Store config's field name, in a frozen dataclass too, as number returns it
    for kind; None passes where optional."""
    value = getattr(config, name)
    if not (optional and value is None):
        object.__setattr__(config, name, number(value, kind, name))


@contextmanager
def naming(instance_id: str):
    """Name the instance in any error raised inside the block: a library error is
    re-raised as its own class with "instance '<id>': " in front, and any other
    exception, whose type may need more than a message, gets the note
    "in instance '<id>'"."""
    try:
        yield
    except AllocShiftError as exc:
        raise type(exc)(f"instance {instance_id!r}: {exc}") from exc
    except Exception as exc:
        exc.add_note(f"in instance {instance_id!r}")
        raise
