"""Decoding and field checks for documents from outside the program.

Every loader (config, band scheme, scenario spec, snapshot, trace, rule
pack) decodes here and reads its fields through these accessors, so bad
input is a DecodeError that names what was wrong.
"""

from __future__ import annotations

import json
import sys
from importlib import resources

from .errors import DecodeError, excerpt


def shipped(name: str) -> str:
    """The text of the package data file data/name."""
    return resources.files("fatiguekit").joinpath(f"data/{name}").read_text("utf-8")


def text(data: bytes | str, what: str) -> str:
    """data as text; bytes must be UTF-8, and one leading byte order mark
    (as Excel's "CSV UTF-8" writes) is dropped."""
    if isinstance(data, str):
        return data
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as e:
        raise DecodeError(f"{what} not valid UTF-8: {e.reason}") from None


def json_object(data: bytes | str, what: str) -> dict:
    """The JSON object data holds; a syntax error carries its row."""
    try:
        obj = json.loads(text(data, what))
    except (ValueError, RecursionError) as e:  # bad JSON, too many digits, or too deep
        raise DecodeError(f"{what} not valid JSON: {getattr(e, 'msg', e)}",
                          row=getattr(e, "lineno", None)) from None
    if not isinstance(obj, dict):
        raise DecodeError(f"{what} must be a JSON object")
    return obj


def of_type(value, kind, key: str, what: str, row: int | None = None):
    """value if it is a kind and not a bool, else DecodeError naming key."""
    if not isinstance(value, kind) or isinstance(value, bool):
        raise DecodeError(f"{key} must be {what}, got {excerpt(value)}", row=row)
    return value


def number(value, key: str, row: int | None = None) -> float:
    """A finite JSON number as a float."""
    value = of_type(value, (int, float), key, "a number", row)
    # false for nan, infinities and integers past float64's range alike
    if not abs(value) <= sys.float_info.max:
        raise DecodeError(
            f"{key} must be finite and within float64 range, got {excerpt(value)}", row=row)
    return float(value)


def count(value, key: str) -> int:
    """A JSON number with an integral value as an int."""
    if not number(value, key).is_integer():
        raise DecodeError(f"{key} must be an integer, got {value!r}")
    return int(value)
