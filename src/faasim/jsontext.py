"""Indented JSON text, byte for byte what `json.dumps(obj, indent=2)` writes.

Before Python 3.13 the standard library renders `indent=` in pure Python,
which costs more than computing the reports and graphs it prints. This
writer hands the bulk to the C encoder: a container whose members are all
scalars, a list of such dicts and a dict of such lists are each encoded in
one call with "," plus a newline and the member indent as the item
separator, and the brackets are then fixed up. That is exact because the encoder escapes every newline
inside a string, so each raw newline in its output is a separator. Any
other subtree (tuples, non-`str` keys, other types) is rendered by
`json.dumps(indent=2)` and re-indented.

Python 3.13 renders `indent=` in C; once `requires-python` reaches 3.13,
measure that against this writer and delete the writer if the standard
library is faster.
"""

from __future__ import annotations

import json
from itertools import chain

_INDENT = "  "
_SCALARS = frozenset({str, int, float, bool, type(None)})


def _flat(items) -> bool:
    return set(map(type, items)) <= _SCALARS


def _str_keys(keys) -> bool:
    return set(map(type, keys)) <= {str}


def _encode(obj, level: int, sort_keys: bool) -> str:
    kind = type(obj)
    if kind in _SCALARS:
        return json.dumps(obj)
    outer = "\n" + _INDENT * level
    inner = outer + _INDENT
    if kind is dict and _str_keys(obj):
        if not obj:
            return "{}"
        values = obj.values()
        if _flat(values):
            text = json.dumps(obj, separators=("," + inner, ": "), sort_keys=sort_keys)
            return "{" + inner + text[1:-1] + outer + "}"
        if set(map(type, values)) == {list} and all(values) and _flat(chain.from_iterable(values)):
            # A newline in the key separator marks where each list opens;
            # "],<newline>" can only end a list that is not the last one.
            deeper = inner + _INDENT
            text = json.dumps(obj, separators=("," + deeper, ":\n"), sort_keys=sort_keys)
            body = text[1:-2].replace("]," + deeper, inner + "]," + inner).replace(":\n[", ": [" + deeper)
            return "{" + inner + body + inner + "]" + outer + "}"
        items = sorted(obj.items()) if sort_keys else obj.items()
        parts = [json.dumps(key) + ": " + _encode(value, level + 1, sort_keys) for key, value in items]
        return "{" + inner + ("," + inner).join(parts) + outer + "}"
    if kind is list:
        if not obj:
            return "[]"
        kinds = set(map(type, obj))
        if kinds <= _SCALARS:
            text = json.dumps(obj, separators=("," + inner, ": "), sort_keys=sort_keys)
            return "[" + inner + text[1:-1] + outer + "]"
        if (kinds == {dict} and all(obj) and _str_keys(chain.from_iterable(obj))
                and _flat(chain.from_iterable(map(dict.values, obj)))):
            # Members of the dicts sit one level deeper than the dicts;
            # "},<newline>{" can only be a boundary between two of them.
            deeper = inner + _INDENT
            text = json.dumps(obj, separators=("," + deeper, ": "), sort_keys=sort_keys)
            body = text[2:-2].replace("}," + deeper + "{", inner + "}," + inner + "{" + deeper)
            return "[" + inner + "{" + deeper + body + inner + "}" + outer + "]"
        parts = [_encode(item, level + 1, sort_keys) for item in obj]
        return "[" + inner + ("," + inner).join(parts) + outer + "]"
    return json.dumps(obj, indent=2, sort_keys=sort_keys).replace("\n", outer)


def dumps(obj, sort_keys: bool = False) -> str:
    """`json.dumps(obj, indent=2, sort_keys=sort_keys)`, byte-identical."""
    return _encode(obj, 0, sort_keys)
