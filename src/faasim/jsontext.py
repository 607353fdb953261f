"""Indented JSON text, byte for byte what `json.dumps(obj, indent=2)` writes.

Before Python 3.13 the standard library renders `indent=` in pure Python,
which costs more than computing the reports and graphs it prints. This
writer hands the bulk to the C encoder: a container whose members are all
scalars and a dict of such lists are each encoded in one call with ","
plus a newline and the member indent as the item separator, and the
brackets are then fixed up. That is exact because the encoder escapes
every newline inside a string, so each raw newline in its output is a
separator. Other dicts and lists are rendered member by member.

The input contract: a document is a scalar (`str`, `int`, `float`, `bool`
or None), a `Table`, a dict with `str` keys, or a list, nested freely. A
`Table` has `str` keys, and each column holds only strings or only other
scalars. A `Coded` column that carries its texts is written as given: a
coded column's texts are one per value, an uncoded column's are runs, the
texts of each `_CHUNK_ROWS` rows joined by ", " as `json.dumps(rows)[1:-1]`
writes numbers (so no text may hold ", "); the writer splits one run per
chunk. A `Lazy` column holds only numbers, bools or None, unchecked.
Anything else (a tuple, a key that is not a `str`, any other type such as
`Fraction`, a non-scalar column or one that mixes `str` with other types)
raises `TypeError`. Each kind of value has one path, and every report is
built of these kinds, so such an input is a bug.

A `Table`, a list of flat records held as columns, renders as its list of
row dicts would, without building them. Each column's encoding is chosen
once, over the whole column: a column of one type whose first chunk
repeats a value and that has fewer distinct values than half its length
encodes each distinct value once (unless a float column holds both 0.0
and -0.0), any other takes one encoder call per chunk of rows. A `Coded`
column writes its codes looked up in its values' texts, made once or
given, or its given runs (so a caller that made them pays nothing more).
A `Lazy` column, or `Lazy` codes, is made a chunk at a time as it is
written. Each chunk of rows is one join of the key labels interleaved with
the value texts, and `write` sends the text to a stream a piece at a time,
so no string the size of the document is ever built.

Python 3.13 renders `indent=` in C; once `requires-python` reaches 3.13,
measure that against this writer and delete the writer if the standard
library is faster. The `Table` path stays either way: it never builds the
row dicts.
"""

from __future__ import annotations

import json
from array import array
from functools import partial
from itertools import chain, count, repeat
from json.encoder import encode_basestring_ascii
from math import copysign
from operator import itemgetter

_INDENT = "  "
_SCALARS = frozenset({str, int, float, bool, type(None)})
# Rows per piece of a Table's text: no piece, and no copy of one, holds the whole table.
_CHUNK_ROWS = 2048


class Table:
    """A list of flat records as columns: row i maps `keys[k]` to `columns[k][i]`.

    Keys are distinct and columns equal-length lists, tuples, `array`s of numbers
    (read a chunk at a time) or `Lazy` columns.
    A read-only sequence of the row dicts (`len`, iteration; only once where a
    column is `Lazy`); `json.dumps` serializes it with `default=list`.
    """

    __slots__ = ("keys", "columns")

    def __init__(self, keys, columns):
        self.keys, self.columns = tuple(keys), tuple(columns)

    def __len__(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    def __iter__(self):
        keys = self.keys
        return (dict(zip(keys, row)) for row in zip(*self.columns))


class Coded:
    """A column as a table of values and one code per row (dictionary encoding): row i is `values[codes[i]]`,
    or `values[i]` without codes. `texts`, if given, is what `Table` writes: with codes, `texts[k]` is the JSON
    text of `values[k]`; without, `texts[k]` is the run of rows k * `_CHUNK_ROWS` onward (see the module
    docstring). Else the values are encoded once. A read-only sequence of the row values (`len`, iteration)."""

    __slots__ = ("values", "codes", "texts")

    def __init__(self, values, codes=None, texts=None):
        self.values, self.codes, self.texts = values, codes, texts

    def __len__(self) -> int:
        return len(self.values if self.codes is None else self.codes)

    def __iter__(self):
        return iter(self.values) if self.codes is None else map(self.values.__getitem__, self.codes)


class Lazy:
    """A column of `length` rows made as it is read, and read once (written or iterated): `chunks` yields its rows
    `_CHUNK_ROWS` at a time, each chunk a sequence of values."""

    __slots__ = ("length", "chunks")

    def __init__(self, length: int, chunks):
        self.length, self.chunks = length, chunks

    def __len__(self) -> int:
        return self.length

    def __iter__(self):
        return chain.from_iterable(self.chunks)


def chunk_rows(length: int):
    """The row numbers of each chunk of a `length`-row column, as ranges."""
    return (range(at, min(at + _CHUNK_ROWS, length)) for at in range(0, length, _CHUNK_ROWS))


def _flat(items) -> bool:
    return set(map(type, items)) <= _SCALARS


def _str_keys(keys) -> bool:
    return set(map(type, keys)) <= {str}


def _number_texts(chunk) -> list[str]:
    """The texts of a chunk of numbers, bools or None: one encoder call."""
    return json.dumps(chunk)[1:-1].split(", ")


def _encoder(values):
    """The encoder of any slice of `values`, chosen over the whole column; TypeError unless all are
    strings or all are other scalars."""
    kinds = set(map(type, values))
    if not kinds <= _SCALARS or str in kinds and len(kinds) > 1:
        names = ", ".join(sorted(kind.__name__ for kind in kinds))
        raise TypeError(f"a Table column must hold only str or only other scalars, not {names}")
    # The memo only saves work, so the whole column's distinct set is built only if its first chunk repeats.
    head = values[:_CHUNK_ROWS]
    if len(kinds) == 1 and len(set(head)) < len(head):
        distinct = set(values)
        # 0.0 == -0.0, so the memo would print one zero's text for both.
        if len(distinct) * 2 < len(values) and not (kinds == {float} and 0.0 in distinct and len(
                set(map(copysign, repeat(1.0), filter((0.0).__eq__, values)))) > 1):
            distinct = list(distinct)
            return partial(map, dict(zip(distinct, _encoder(distinct)(distinct))).__getitem__)
    if kinds == {str}:
        return partial(map, encode_basestring_ascii)
    return _number_texts


def column_texts(values) -> list[str]:
    """The JSON text of each of `values` as a `Table` column writes it: the `texts` that `Coded` columns
    over one value table can share, so that it is encoded once."""
    return [*_encoder(values)(values)]


def _slices(column):
    """`column`'s rows `_CHUNK_ROWS` at a time; a packed `array` column's as lists, which the encoder takes."""
    slices = (column[at:at + _CHUNK_ROWS] for at in range(0, len(column), _CHUNK_ROWS))
    return map(array.tolist, slices) if type(column) is array else slices


def column_runs(numbers) -> list[str]:
    """The `texts` of an uncoded `Coded` column of numbers: the runs, each made by one `json.dumps` call."""
    return [json.dumps(rows)[1:-1] for rows in _slices(numbers)]


def _chunks(column):
    """The texts of `column`'s rows, `_CHUNK_ROWS` at a time."""
    if type(column) is Coded and column.codes is None:
        if column.texts is not None:
            return map(str.split, column.texts, repeat(", "))  # an uncoded column's texts are runs
        column = column.values
    if type(column) is Coded:
        encode, column = partial(map, (column.texts or column_texts(column.values)).__getitem__), column.codes
    else:
        encode = _number_texts if type(column) is Lazy else _encoder(column)
    return map(encode, column.chunks if type(column) is Lazy else _slices(column))


def _table(table: Table, level: int, sort_keys: bool):
    keys, columns = table.keys, table.columns
    if not _str_keys(keys):
        raise TypeError("Table keys must be str")
    if not len(table):
        yield "[]"
        return
    if sort_keys:
        keys, columns = zip(*sorted(zip(keys, columns), key=itemgetter(0)))
    chunks = [*map(_chunks, columns)]
    outer = "\n" + _INDENT * level
    inner = outer + _INDENT
    deeper = inner + _INDENT
    # A row is its key labels interleaved with its value texts. The first label
    # also closes the row before it, so a chunk of rows is one join.
    labels = ["," + deeper + json.dumps(key) + ": " for key in keys]
    first = "{" + labels[0][1:]
    row = [piece for label in (inner + "}," + inner + first, *labels[1:]) for piece in (label, "")]
    for start, *texts in zip(range(0, len(table), _CHUNK_ROWS), *chunks):
        pieces = row * (min(start + _CHUNK_ROWS, len(table)) - start)
        for at, column in zip(count(1, 2), texts):
            pieces[at::len(row)] = column
        if not start:
            pieces[0] = "[" + inner + first
        yield "".join(pieces)
    yield inner + "}" + outer + "]"


def _parts(obj, level: int, sort_keys: bool):
    """The text of `obj` in pieces; a Table's rows come a chunk at a time."""
    kind = type(obj)
    if kind in _SCALARS:
        yield json.dumps(obj)
        return
    if kind is Table:
        yield from _table(obj, level, sort_keys)
        return
    if kind is dict and not _str_keys(obj):
        raise TypeError("JSON object keys must be str")
    if kind is not dict and kind is not list:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    if not obj:
        yield "{}" if kind is dict else "[]"
        return
    outer = "\n" + _INDENT * level
    inner = outer + _INDENT
    members = obj.values() if kind is dict else obj
    if _flat(members):
        text = json.dumps(obj, separators=("," + inner, ": "), sort_keys=sort_keys)
        yield text[0] + inner + text[1:-1] + outer + text[-1]
    elif kind is dict and set(map(type, members)) == {list} and all(members) and _flat(chain.from_iterable(members)):
        # A newline in the key separator marks where each list opens; "],<newline>" can only end a list
        # that is not the last one. Members go a chunk at a time: no text the size of the dict is made.
        deeper = inner + _INDENT
        keys, head = sorted(obj) if sort_keys else [*obj], "{" + inner
        for at in range(0, len(keys), _CHUNK_ROWS):
            text = json.dumps({key: obj[key] for key in keys[at:at + _CHUNK_ROWS]}, separators=("," + deeper, ":\n"))
            yield head + text[1:-2].replace("]," + deeper, inner + "]," + inner).replace(":\n[", ": [" + deeper)
            head = inner + "]," + inner
        yield inner + "]" + outer + "}"
    elif kind is dict:
        head = "{" + inner
        for key, value in sorted(obj.items()) if sort_keys else obj.items():
            yield head + json.dumps(key) + ": "
            yield from _parts(value, level + 1, sort_keys)
            head = "," + inner
        yield outer + "}"
    else:
        head = "[" + inner
        for item in obj:
            yield head
            yield from _parts(item, level + 1, sort_keys)
            head = "," + inner
        yield outer + "]"


def write(out, obj, sort_keys: bool = False) -> None:
    """Write `json.dumps(obj, indent=2, sort_keys=sort_keys)`, byte-identical, and a newline to the text stream
    `out`, a piece at a time."""
    out.writelines(_parts(obj, 0, sort_keys))
    out.write("\n")
