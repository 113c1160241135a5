"""Typed field readers for outside JSON (configs, J-function files, --table
files, scalar literals): each takes a decoded value and its path ($, then .key
and [i] steps) and returns the value, or raises a SchemaError whose message
starts with the path.  A rational is a "p/q" string or a JSON integer, an
integer a JSON integer: never a float (inexact) or a bool.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import SchemaError


def decode_json(text: str):
    """The value of a JSON document, or a SchemaError at $."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaError(f"$: invalid JSON ({e})") from None


def rational(x, path: str) -> Fraction:
    if isinstance(x, str) or type(x) is int:
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            pass
    raise SchemaError(f"{path}: expected a rational 'p/q', got {x!r}")


def integer(x, path: str, lo=0) -> int:
    """x as a JSON integer >= lo; lo None sets no bound."""
    if type(x) is not int or (lo is not None and x < lo):
        want = {0: "a nonnegative integer", None: "an integer"}.get(lo, f"an integer >= {lo}")
        raise SchemaError(f"{path}: expected {want}, got {x!r}")
    return x


def _of_type(kind: type, noun: str):
    def read(x, path: str):
        if not isinstance(x, kind):
            raise SchemaError(f"{path}: expected {noun}, got {x!r}")
        return x
    return read


string = _of_type(str, "a string")
boolean = _of_type(bool, "a boolean")
array = _of_type(list, "a list")
mapping = _of_type(dict, "an object")


def rationals(x, path: str) -> list:
    """A list of rationals; an entry's error names the list."""
    return [rational(v, path) for v in array(x, path)]


def matrix(x, path: str) -> list:
    """A list of rows of rationals; an entry's error names the matrix."""
    return [rationals(row, path) for row in array(x, path)]


def required(obj, key: str, path: str, read=None):
    """obj[key] of the object obj at path, through read(value, path.key) if given."""
    if not isinstance(obj, dict) or key not in obj:
        raise SchemaError(f"{path}.{key}: missing required field")
    return obj[key] if read is None else read(obj[key], f"{path}.{key}")


def optional(obj, key: str, path: str, read, default):
    """read(obj[key], path.key), or ``default`` when obj has no key."""
    return read(obj[key], f"{path}.{key}") if isinstance(obj, dict) and key in obj else default


def only(obj: dict, keys, path: str):
    """A SchemaError unless every key of obj is among ``keys``."""
    for key in obj:
        if key not in keys:
            raise SchemaError(f"{path}.{key}: unknown field")


def rows_of(doc):
    """(path, row) for each row of {"rows": [row, ...]}, each row an object."""
    rows = doc.get("rows") if isinstance(doc, dict) else None
    if not isinstance(rows, list):
        raise SchemaError("$.rows: expected a list")
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            raise SchemaError(f"$.rows[{i}]: expected an object")
        yield f"$.rows[{i}]", row
