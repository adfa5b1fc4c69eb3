"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: ConfigError -> 2, DataError and its
subclasses -> 3, NumericalError -> 4.
"""

import json


class EventspecError(Exception):
    """Base class for all package errors."""


class ConfigError(EventspecError):
    """Invalid configuration or parameter combination."""


class DataError(EventspecError):
    """Invalid or inconsistent input data."""


class ParseError(DataError):
    """Malformed input file; carries a 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ValidationError(DataError):
    """Input violates a documented precondition."""


class RegionError(DataError):
    """Requested (scale, translation) point lies outside the valid triangle."""


class UndefinedCoherenceError(DataError):
    """Coherence requested where a diagonal spectral entry is zero."""


class DegenerateSegmentError(DataError):
    """A test segment produced a singular spectral matrix."""

    def __init__(self, segment: int, message: str | None = None):
        self.segment = segment
        super().__init__(message or f"segment {segment} produced a singular matrix")


class NumericalError(EventspecError):
    """A numerical routine failed to converge to the requested tolerance."""


def json_text(obj) -> str:
    """The package's JSON text of obj; a NaN or infinity in it is a NumericalError."""
    try:
        return json.dumps(obj, allow_nan=False, indent=2, sort_keys=True)
    except ValueError as exc:
        raise NumericalError(f"not written: a value is not finite ({exc})") from None
