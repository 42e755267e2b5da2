"""Age-control transport over UDP, a deterministic queueing simulator,
and closed-form age-of-information analytics that cross-validate.

The input rules are defined here, once, for every module: an int is an
``int`` and not a ``bool``, and a number an ``int`` or ``float`` that is
not a ``bool`` and fits in a float; a value that breaks one raises
``ConfigError``."""

import math

__version__ = "0.1.0"


class ConfigError(ValueError):
    """Malformed configuration or input; the message names the field."""


def _require_int(what: str, value) -> None:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{what} must be an integer, got {value!r}")


def _require_number(what: str, value) -> None:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    try:
        float(value)
    except OverflowError:  # not shown: past 4,300 digits an int has no str by default
        raise ConfigError(f"{what} must be a number, got an integer too large for a float") from None


def _require_positive(what: str, value) -> None:
    """Reject non-numbers and zero, negative, infinite and NaN values of a rate or span."""
    _require_number(what, value)
    if not (math.isfinite(value) and value > 0.0):
        raise ConfigError(f"{what} must be positive and finite, got {value}")
