"""The indented JSON writer against the standard library, byte for byte."""

import io
import json
import random
from fractions import Fraction
from functools import partial
from hashlib import sha256
from itertools import compress

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from faasim import jsontext


def assert_same_text(actual: str, expected: str) -> None:
    """`actual == expected`, failing at once on big documents: lengths and sha256 first, then the
    first differing offset with a short window of each text, never a diff of the whole texts."""
    def digest(text):
        return sha256(text.encode("utf-8", "surrogatepass")).hexdigest()

    if len(actual) == len(expected) and digest(actual) == digest(expected):
        return
    at = next((i for i, (a, b) in enumerate(zip(actual, expected)) if a != b), min(len(actual), len(expected)))
    window = slice(max(at - 40, 0), at + 40)
    pytest.fail(f"texts differ at offset {at} (lengths {len(actual)} and {len(expected)}): "
                f"{actual[window]!r} != {expected[window]!r}", pytrace=False)


def test_same_text_reports_the_first_difference_at_once():
    big = "x" * 300_000
    assert_same_text(big, "x" * 300_000)
    for actual, expected, offset in ((big + "a", big + "b", 300_000), (big, big + "tail", 300_000),
                                     ("é" + big, "e" + big, 0)):
        with pytest.raises(pytest.fail.Exception, match=f"offset {offset} "):
            assert_same_text(actual, expected)


# Pieces that could be mistaken for the separators the writer rewrites.
TRICKY = ["\n", '"', "\\", "é", "☃", "},\n    {", '": [', "],\n", ":\n[", "{", "]"]

texts = st.lists(st.sampled_from(TRICKY) | st.text(max_size=3), max_size=4).map("".join)
numbers = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats()
    | st.sampled_from([-0.0, 1e-7, 1e22, 2**64, -(2**64) - 1])
)
scalars = numbers | texts
flat_dicts = st.dictionaries(texts, scalars, max_size=4)
# Every kind of value the writer accepts: scalars, and lists and dicts with `str` keys, nested.
values = st.recursive(
    scalars,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.dictionaries(texts, inner, max_size=4)
        | st.lists(flat_dicts, max_size=4)
        | st.dictionaries(texts, st.lists(scalars, max_size=3), max_size=4)
    ),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(values, st.booleans())
@example([{"a": "},\n    {", "b": 1}, {"a": 2}], False)
@example({"k": ['": [', 1], "j": [], "i": ["],\n"]}, True)
@example({"outer": {"1": [1e22, -0.0], "x": []}, "empty": {}}, False)
@example([2**64, 1e-7, float("nan"), float("-inf"), None, True], True)
def test_matches_stdlib_indent_2(value, sort_keys):
    assert jsontext.dumps(value, sort_keys=sort_keys) == json.dumps(value, indent=2, sort_keys=sort_keys)


@st.composite
def tables(draw):
    """(keys, columns): distinct keys, equal-length columns drawn from small pools so values repeat; a
    column holds strings or other scalars, not both."""
    keys = draw(st.lists(texts, unique=True, max_size=4))
    rows = draw(st.integers(0, 6))
    columns = []
    for _ in keys:
        pool = draw(st.lists(texts, min_size=1, max_size=3) | st.lists(numbers, min_size=1, max_size=3))
        columns.append(draw(st.lists(st.sampled_from(pool), min_size=rows, max_size=rows)))
    return keys, columns


NAN = float("nan")


@settings(max_examples=200, deadline=None)
@given(tables(), st.booleans())
@example((["z"], [[0.0, -0.0, 0.0, -0.0, 0.0]]), False)
@example((["b", "a"], [[True, 1, True, 1, 1], [False, 0, False, 0, 0]]), True)
@example((["one"], [[1, 1.0, 1, 1.0, 1]]), False)
@example((["n", "m"], [[NAN] * 5, [float("nan") for _ in range(5)]]), False)
@example((["%s", '"q"', "k\n", ", ", "é%%"], [["%d"] * 3, ['"', '"', "x"], ["a, b", "\n", "a, b"],
                                             ["☃", "é", "☃"], [", "] * 3]), True)
@example(([], []), False)
@example((["a"], [[]]), True)
@example((["a", "b"], [[1], ["x"]]), False)
@example((["a"], [[1, 2, 3, 2, 2]]), True)
def test_table_matches_stdlib_rows(keys_and_columns, sort_keys):
    keys, columns = keys_and_columns
    rows = [dict(zip(keys, row)) for row in zip(*columns)]
    table = jsontext.Table(keys, columns)
    for doc, plain in ((table, rows),
                       ({"t": table, "in": {"x": [table], "pair": [table, 1]}},
                        {"t": rows, "in": {"x": [rows], "pair": [rows, 1]}})):
        assert_same_text(jsontext.dumps(doc, sort_keys=sort_keys), json.dumps(plain, indent=2, sort_keys=sort_keys))


CHUNK = jsontext._CHUNK_ROWS


@pytest.mark.parametrize("count", [CHUNK - 1, CHUNK + 1, 2 * CHUNK, 2 * CHUNK + 1])
def test_table_in_pieces_matches_stdlib(count):
    """Tables longer than one piece of rows, written to a stream and as one string.

    Each column's encoding is chosen over the whole column: the memoized
    columns get their distinct values only after the first piece, and the
    zero columns hold 0.0 and -0.0 in different pieces.
    """
    columns = {
        "t": [i / 7 for i in range(count)],
        "cold": [i % 3 == 0 for i in range(count)],
        "name": [str(i % 5) for i in range(count)],
        "late": ["early"] * CHUNK + [f"late{i % 3}" for i in range(CHUNK, count)],
        "late_units": [1] * CHUNK + [2 + i % 4 for i in range(CHUNK, count)],
        "zero": [0.0 if i < CHUNK else -0.0 for i in range(count)],
        "minus_zero": [-0.0 if i < CHUNK + 1 else 0.0 for i in range(count)],
    }
    columns = {key: column[:count] for key, column in columns.items()}
    keys = list(columns)
    rows = [dict(zip(keys, row)) for row in zip(*columns.values())]
    table = jsontext.Table(keys, columns.values())
    doc = {"rows": table, "n": count, "nested": [{"rows": table, "in": {"deeper": [table]}}]}
    plain = {"rows": rows, "n": count, "nested": [{"rows": rows, "in": {"deeper": [rows]}}]}
    for sort_keys in (True, False):
        expected = json.dumps(plain, indent=2, sort_keys=sort_keys)
        out = io.StringIO()
        jsontext.write(out, doc, sort_keys=sort_keys)
        assert_same_text(out.getvalue(), expected + "\n")
        assert_same_text(jsontext.dumps(doc, sort_keys=sort_keys), expected)


@pytest.mark.parametrize("count", [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
def test_dict_of_lists_in_pieces_matches_stdlib(count):
    """A dict of flat lists longer than one piece of members, as `place` writes its assignment: keys out of
    order, and lists that hold the separators the writer rewrites."""
    rng = random.Random(count)
    keys = [f"t{i}" for i in range(count)]
    rng.shuffle(keys)
    doc = {"assignment": {key: [rng.randrange(5), TRICKY[i % len(TRICKY)]][:1 + i % 2] for i, key in enumerate(keys)},
           "n": count}
    for sort_keys in (True, False):
        expected = json.dumps(doc, indent=2, sort_keys=sort_keys)
        out = io.StringIO()
        jsontext.write(out, doc, sort_keys=sort_keys)
        assert_same_text(out.getvalue(), expected + "\n")
        assert_same_text(jsontext.dumps(doc, sort_keys=sort_keys), expected)


@pytest.mark.parametrize("column,memoized", [
    ([0.0, 1.5, 0.0, 0.0, 2.5] * CHUNK, True),  # only 0.0: the memo holds one zero text
    ([0.0, -0.0, 1.5, 0.0, -0.0, 0.0], False),  # both zeros in one chunk
    ([0.0] * CHUNK + [-0.0] * 3, False),  # both zeros in different chunks
])
def test_zero_float_columns_skip_the_memo_only_with_both_zeros(column, memoized):
    # The memo is a dict lookup through `partial(map, ...)`; a float column's other encoder is not a partial.
    assert isinstance(jsontext._encoder(column), partial) == memoized
    rows = [{"z": value} for value in column]
    assert_same_text(jsontext.dumps(jsontext.Table(["z"], [column])), json.dumps(rows, indent=2))


@pytest.mark.parametrize("column,memoized", [
    ([i / 7 for i in range(CHUNK)] + [0.5] * (3 * CHUNK), False),  # no repeat in the first chunk: no distinct set
    ([0.5, 0.5] + [i / 7 for i in range(CHUNK)] + [0.5] * (3 * CHUNK), True),
])
def test_memo_is_weighed_only_when_the_first_chunk_repeats(column, memoized):
    # The memo only saves work: a float column that skips it writes the same text.
    assert isinstance(jsontext._encoder(column), partial) == memoized
    rows = [{"v": value} for value in column]
    assert_same_text(jsontext.dumps(jsontext.Table(["v"], [column])), json.dumps(rows, indent=2))


def runs(numbers):
    """An uncoded column's texts: the numbers' reprs joined by ", ", one run per chunk of rows."""
    return [", ".join(map(repr, numbers[at:at + CHUNK])) for at in range(0, len(numbers), CHUNK)]


def test_rendered_column_writes_its_texts():
    """An uncoded column that carries its texts writes the bytes of its plain float column; all else sees the floats."""
    numbers = [-0.0, 5e-05, 1e16, 0.1 + 0.2] + [(-1) ** i * i / 7 for i in range(3 * CHUNK + 5)]
    kept = [i % 3 != 1 for i in range(len(numbers))]  # as `simulate` drops rejected entries
    for floats in (numbers, [*compress(numbers, kept)]):
        column = jsontext.Coded(floats, texts=runs(floats))
        assert len(column) > 2 * CHUNK and tuple(column) == tuple(floats)
        other = [i % 4 == 0 for i in range(len(floats))]
        table, plain = jsontext.Table(["t", "cold"], [column, other]), jsontext.Table(["t", "cold"], [floats, other])
        rows = [{"t": value, "cold": flag} for value, flag in zip(floats, other)]
        assert list(table) == rows and [type(row["t"]) for row in table] == [float] * len(floats)
        for sort_keys in (True, False):
            expected = json.dumps({"rows": rows}, indent=2, sort_keys=sort_keys)
            out = io.StringIO()
            jsontext.write(out, {"rows": table}, sort_keys=sort_keys)
            assert_same_text(out.getvalue(), expected + "\n")
            assert_same_text(jsontext.dumps({"rows": plain}, sort_keys=sort_keys), expected)
        assert_same_text(json.dumps(table, default=list), json.dumps(rows))  # the csv and table formats' cell


def test_rendered_column_texts_are_written_as_given():
    # The writer takes the texts, not the numbers: a text that differs from the repr shows through,
    # in an uncoded column (its runs) and in a coded one (one text per value, whatever the rows).
    expected = json.dumps([{"t": 1.0, "n": 1}, {"t": 2.5, "n": 2}], indent=2).replace("1.0,", "1.00,").replace(
        "2.5,", "2.50,")
    for column in (jsontext.Coded([1.0, 2.5], texts=["1.00, 2.50"]),
                   jsontext.Coded([2.5, 7.0, 1.0], [2, 0], ["2.50", "7.00", "1.00"])):
        table = jsontext.Table(["t", "n"], [column, [1, 2]])
        assert jsontext.dumps(table) == expected
        assert list(table) == [{"t": 1.0, "n": 1}, {"t": 2.5, "n": 2}]


# Values that are equal but print differently (0.0 and -0.0; 1, 1.0 and True), one object read
# twice (NaN), and strings that need escapes: each is its own entry of a value table. A value table
# holds strings or other scalars, not both.
CODED_NUMBERS = [0.0, -0.0, 1, 1.0, True, False, 0, None, NAN]
CODED_TEXTS = ["", '"', "\\", "\n", "é☃", "},\n    {", "%s", ", "]
KEYS = ["coded", "same codes", "plain", "uncoded", "lazy", "lazy codes"]
ROW_COUNTS = [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 1]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(CODED_NUMBERS) | numbers, min_size=1, max_size=6)
       | st.lists(st.sampled_from(CODED_TEXTS) | texts, min_size=1, max_size=6), st.sampled_from(ROW_COUNTS),
       st.integers(0, 2**32), st.booleans(), st.permutations(KEYS), st.booleans())
@example([0.0, -0.0, 1, 1.0, True], 3 * CHUNK + 1, 1, True, KEYS, False)
@example([0.0, -0.0, 1, 1.0, True], CHUNK + 1, 2, False, KEYS[::-1], True)
@example(['"', "\\", "\n", "é☃", "},\n    {"], CHUNK, 3, False, KEYS, True)
@example(["1", "", "None"], CHUNK - 1, 4, True, KEYS, False)
@example([NAN, 2.5], 0, 5, True, KEYS, True)
def test_coded_column_matches_stdlib_rows(values, rows, seed, with_texts, keys, sort_keys):
    """A coded column (value table, random codes) beside a second table on the same codes, a plain
    column, an uncoded one, and a `Lazy` column and `Lazy` codes made a chunk at a time, written as
    the stdlib writes the rows they hold."""
    rng = random.Random(seed)
    codes = [rng.randrange(len(values)) for _ in range(rows)]
    numbers = [rng.choice([-0.0, 5e-05, 1e16, rng.random() * 1e3]) for _ in range(rows)]
    decoded = {"coded": [values[code] for code in codes], "same codes": [values[::-1][code] for code in codes],
               "plain": [rng.choice(values) for _ in range(rows)], "uncoded": numbers,
               "lazy": numbers, "lazy codes": [values[code] for code in codes]}
    columns = {"coded": jsontext.Coded(values, codes, [*map(json.dumps, values)] if with_texts else None),
               "same codes": jsontext.Coded(values[::-1], codes),  # texts made by the writer
               "plain": decoded["plain"],
               "uncoded": jsontext.Coded(numbers, texts=runs(numbers) if with_texts else None)}

    def table():  # a Lazy column is read once, so each read takes a new table
        lazy = {"lazy": jsontext.Lazy(rows, (numbers[r.start:r.stop] for r in jsontext.chunk_rows(rows))),
                "lazy codes": jsontext.Coded(values, jsontext.Lazy(rows, (
                    codes[r.start:r.stop] for r in jsontext.chunk_rows(rows))))}
        return jsontext.Table(keys, [{**columns, **lazy}[key] for key in keys])

    plain = [dict(zip(keys, row)) for row in zip(*(decoded[key] for key in keys))]
    assert len(columns["coded"]) == rows and all(a is b for a, b in zip(columns["coded"], decoded["coded"]))
    assert len(table()) == rows and list(table()) == plain
    assert_same_text(json.dumps(table(), default=list), json.dumps(plain))
    for doc, expected in ((table(), plain), ({"t": table(), "in": [{"deeper": table()}]},
                                             {"t": plain, "in": [{"deeper": plain}]})):
        assert_same_text(jsontext.dumps(doc, sort_keys=sort_keys), json.dumps(expected, indent=2, sort_keys=sort_keys))


# Outside the input contract: each raises TypeError at the top level and nested, from both entry points.
UNWRITABLE = {
    "tuple": (1, 2),
    "int key": {1: "a"},
    "Fraction": Fraction(1, 3),
    "str beside int in a column": jsontext.Table(["a"], [["x", 1]]),
    "str beside int in a value table": jsontext.Table(["a"], [jsontext.Coded(["x", 1], [0, 1, 0])]),
    "list-valued column": jsontext.Table(["a"], [[[1], [2]]]),
    "int Table key": jsontext.Table([1], [["x"]]),
}


@pytest.mark.parametrize("name", UNWRITABLE)
def test_writer_rejects_values_outside_its_input_contract(name):
    bad = UNWRITABLE[name]
    for doc in (bad, [bad], {"k": bad}, {"k": [1, {"j": bad}]}, [[], bad, 1]):
        for sort_keys in (True, False):
            with pytest.raises(TypeError):
                jsontext.dumps(doc, sort_keys=sort_keys)
            with pytest.raises(TypeError):
                jsontext.write(io.StringIO(), doc, sort_keys=sort_keys)
