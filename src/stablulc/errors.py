"""Shared exception types."""

from __future__ import annotations


class StablulcError(Exception):
    """Base class for errors raised by this package."""


class FormatError(StablulcError):
    """A text input could not be parsed.

    Carries the 1-based line number when known so command line tools can
    print usable diagnostics.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class CapExceeded(StablulcError):
    """An exact enumeration would exceed the configured cap.

    Raised instead of silently approximating; callers may retry with a
    larger cap (see STABLULC_ENUM_CAP).
    """


class PreconditionError(StablulcError):
    """The input violates a documented precondition of the operation."""


class InvariantError(StablulcError, AssertionError):
    """An internal invariant of a certificate or construction failed.

    Raised by ``invariant`` rather than by ``assert`` so the check also
    runs under ``python -O``.
    """


def invariant(condition: bool, message: str) -> None:
    """Raise InvariantError(message) unless condition holds."""
    if not condition:
        raise InvariantError(message)
