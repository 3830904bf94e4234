"""Error taxonomy shared by the library and the command line tool.

Each class carries the process exit code and the category name that the CLI
prints as `category: detail`, so shell callers can branch on the failure
category without parsing messages. reraise() is the one translation of a
caught exception into one of these classes; bad_path() applies it to the
OS errors that name an unusable path.
"""

import errno
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


# the errno of a path that is missing, runs through a file, is a directory where a file
# belongs or the reverse, already exists, is too long, loops through symbolic links, or
# may not be used
BAD_PATH_ERRNOS = frozenset({errno.ENOENT, errno.ENOTDIR, errno.EISDIR, errno.EEXIST,
                             errno.ENAMETOOLONG, errno.ELOOP, errno.EACCES, errno.EPERM})


@contextmanager
def reraise(error, context: str, catch=InvalidArgumentError):
    """Raise error("<context>: <detail>") from any `catch` exception of the
    block; the detail is an OS error's strerror, else the exception's text."""
    try:
        yield
    except catch as exc:
        detail = getattr(exc, "strerror", None) or str(exc)
        raise error(f"{context}: {detail}") from exc


@contextmanager
def bad_path(context: str):
    """reraise(InvalidArgumentError, context) for an OSError of the block whose
    errno is in BAD_PATH_ERRNOS; any other OSError (a full disk, say) passes."""
    try:
        yield
    except OSError as exc:
        if exc.errno not in BAD_PATH_ERRNOS:
            raise
        with reraise(InvalidArgumentError, context, OSError):
            raise
