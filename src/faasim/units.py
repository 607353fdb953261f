"""Parsing and formatting of byte quantities.

Byte suffixes follow decimal semantics (1 GB = 10^9 B) because all the
shuffle arithmetic in this library is decimal: 100 TB / 3 GB must give
33,334 blocks. Explicit binary suffixes (GiB) and a `binary=True` switch
give 2^10 multiples.
"""

from __future__ import annotations

import re

from .money import usd

_DECIMAL_BYTES = {
    "b": 1,
    "kb": 10**3,
    "mb": 10**6,
    "gb": 10**9,
    "tb": 10**12,
    "pb": 10**15,
}
_BINARY_BYTES = {
    "b": 1,
    "kb": 2**10,
    "mb": 2**20,
    "gb": 2**30,
    "tb": 2**40,
    "pb": 2**50,
}
_EXPLICIT_BINARY = {
    "kib": 2**10,
    "mib": 2**20,
    "gib": 2**30,
    "tib": 2**40,
    "pib": 2**50,
}

_QUANTITY_RE = re.compile(r"^\s*([0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)\s*([a-zA-Z]*)\s*$")


class UnitError(ValueError):
    pass


def parse_bytes(text: str, binary: bool = False) -> int:
    """Parse '100TB', '3 GB', '512MiB' or a bare count such as '1000' into bytes."""
    match = _QUANTITY_RE.match(text)
    if not match:
        raise UnitError(f"cannot parse byte quantity {text!r}")
    number, suffix = usd(match.group(1)), match.group(2).lower()
    if not suffix:
        multiplier = 1
    elif suffix in _EXPLICIT_BINARY:
        multiplier = _EXPLICIT_BINARY[suffix]
    else:
        table = _BINARY_BYTES if binary else _DECIMAL_BYTES
        if suffix not in table:
            raise UnitError(f"unknown byte suffix {suffix!r} in {text!r}")
        multiplier = table[suffix]
    value = number * multiplier
    if value.denominator != 1:
        raise UnitError(f"{text!r} is not a whole number of bytes")
    return value.numerator


def format_bytes(count: int) -> str:
    """Human-readable decimal rendering: 2000000000000 -> '2 TB'."""
    for suffix, size in (("PB", 10**15), ("TB", 10**12), ("GB", 10**9), ("MB", 10**6), ("KB", 10**3)):
        if count >= size:
            scaled = count / size
            if scaled == int(scaled):
                return f"{int(scaled)} {suffix}"
            return f"{scaled:.3g} {suffix}"
    return f"{count} B"
