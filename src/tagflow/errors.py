"""Exception types shared across the package, config key and type checks and a UTF-8 reader.

``cli.main`` maps them onto exit codes: ConfigError -> 1, DataError -> 2,
NumericError -> 3.  It also maps ValueError to 1 and OSError to 2, and
lets every other exception propagate as a traceback.
"""

import csv
from contextlib import contextmanager


class ConfigError(Exception):
    """Invalid or inconsistent configuration / usage."""


class DataError(Exception):
    """Malformed or contract-violating input data."""


class NumericError(Exception):
    """Non-finite values or other numeric failures at runtime."""


def check_keys(doc, cls, what):
    """Raise ConfigError naming every key of ``doc`` that is not a field of the dataclass ``cls``."""
    unknown = set(doc) - set(cls.__dataclass_fields__)
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")


def check_types(config, ints=(), numbers=(), int_tuples=()):
    """Raise ConfigError naming the first field of ``config`` of the wrong type.

    Fields in ``ints`` take an int, ``numbers`` an int or a float, and
    ``int_tuples`` a tuple of ints; a bool counts as none of these.
    """
    def is_int(v):
        return isinstance(v, int) and not isinstance(v, bool)

    for name in ints:
        value = getattr(config, name)
        if not is_int(value):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
    for name in numbers:
        value = getattr(config, name)
        if not (is_int(value) or isinstance(value, float)):
            raise ConfigError(f"{name} must be a number, got {value!r}")
    for name in int_tuples:
        value = getattr(config, name)
        if not (isinstance(value, tuple) and all(is_int(v) for v in value)):
            raise ConfigError(f"{name} must be a list of integers, got {value!r}")


@contextmanager
def open_text(path, newline=None, error=DataError):
    """Open ``path`` to read as UTF-8, dropping a leading byte-order mark;
    bytes that do not decode, or a line the csv module rejects, raise
    ``error`` naming it."""
    with open(path, encoding="utf-8-sig", newline=newline) as f:
        try:
            yield f
        except UnicodeDecodeError as e:
            raise error(f"{path}: not UTF-8 text: byte 0x{e.object[e.start]:02x}: {e.reason}") from None
        except csv.Error as e:  # a field over csv.field_size_limit(), or a NUL before Python 3.11
            raise error(f"{path}: malformed CSV: {e}") from None
