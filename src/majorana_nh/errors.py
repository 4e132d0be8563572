"""Exception types and the integer-argument check shared across the package."""

import numpy as np


class ConfigurationError(ValueError):
    """Invalid model or run configuration (bad variant/field combination, bad config file)."""


class ConvergenceError(RuntimeError):
    """A numerical routine failed to meet its accuracy contract.

    The best-effort result (if any) is attached as ``.result``.
    """

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


def check_integer(name: str, value, least: int, kind: str | None = None, below: str | None = None) -> None:
    """Refuse the argument ``name`` unless ``value`` is an integer of at least ``least``.

    Python and numpy integers pass; a bool, a float, even 2.0, and anything
    else raise ``ValueError("<name> must be <kind>, got <value>")``, with
    ``kind`` "an integer >= <least>" by default.  An integer below ``least``
    raises the same message, or ``below`` when given.
    """
    kind = f"an integer >= {least}" if kind is None else kind
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be {kind}, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be {kind}, got {value!r}" if below is None else below)
