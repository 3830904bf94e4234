"""Error taxonomy shared by the library and the command line tool.

Each class carries the process exit code and the category name that the CLI
prints as `category: detail`, so shell callers can branch on the failure
category without parsing messages. reraise() is the one translation of a
caught exception into one of these classes.
"""

from contextlib import contextmanager


class RadioMapError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 2
    category = "invalid-argument"


class InvalidArgumentError(RadioMapError, ValueError):
    """Bad caller input: shape mismatch, non-finite data, out-of-range value."""


class FormatError(RadioMapError):
    """Malformed file: wrong magic, truncated payload, failed checksum."""

    exit_code = 3
    category = "format-error"


class NumericalFailureError(RadioMapError):
    """A numerical routine failed to produce a usable result."""

    exit_code = 4
    category = "numerical-failure"


class ConfigError(RadioMapError):
    """Unparseable or unknown configuration entry."""

    exit_code = 5
    category = "config-error"


# a path that is missing, runs through a file, or is a directory where a file belongs or the reverse
BAD_PATH_ERRORS = (FileNotFoundError, NotADirectoryError, IsADirectoryError, FileExistsError)


@contextmanager
def reraise(error, context: str, catch=InvalidArgumentError):
    """Raise error("<context>: <detail>") from any `catch` exception of the
    block; the detail is an OS error's strerror, else the exception's text."""
    try:
        yield
    except catch as exc:
        detail = getattr(exc, "strerror", None) or str(exc)
        raise error(f"{context}: {detail}") from exc
