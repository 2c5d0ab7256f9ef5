"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: usage errors exit 1, data errors exit 2,
adapter errors exit 3.
"""

from __future__ import annotations


class SelqaError(Exception):
    """Base class for all package errors."""


class UsageError(SelqaError):
    """Bad flags or arguments, raised before any file is touched."""


class DataError(SelqaError):
    """Malformed or inconsistent input data."""


class ParseError(DataError):
    """Input file content that cannot be parsed or breaks a record invariant."""

    def __init__(self, path: str, location: str, reason: str) -> None:
        super().__init__(f"{path}: {location}: {reason}")
        self.path = path
        self.location = location
        self.reason = reason


class DuplicateKeyError(DataError):
    """The same question_id appears twice on one side of a join."""


class JoinError(DataError):
    """Records that should share a question_id do not."""


class AdapterError(SelqaError):
    """The external similarity adapter misbehaved or broke contract."""
