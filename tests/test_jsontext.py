"""The indented JSON writer against the standard library, byte for byte."""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from faasim import jsontext

# Pieces that could be mistaken for the separators the writer rewrites.
TRICKY = ["\n", '"', "\\", "é", "☃", "},\n    {", '": [', "],\n", ":\n[", "{", "]"]

texts = st.lists(st.sampled_from(TRICKY) | st.text(max_size=3), max_size=4).map("".join)
scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats()
    | st.sampled_from([-0.0, 1e-7, 1e22, 2**64, -(2**64) - 1])
    | texts
)
flat_dicts = st.dictionaries(texts, scalars, max_size=4)
values = st.recursive(
    scalars,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.tuples(inner, inner)
        | st.dictionaries(texts, inner, max_size=4)
        | st.dictionaries(st.integers(-3, 3) | texts, inner, max_size=3)
        | st.lists(flat_dicts, max_size=4)
        | st.dictionaries(texts, st.lists(scalars, max_size=3), max_size=4)
    ),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(values, st.booleans())
@example([{"a": "},\n    {", "b": 1}, {"a": 2}], False)
@example({"k": ['": [', 1], "j": [], "i": ["],\n"]}, True)
@example({"outer": {1: [1e22, -0.0], "x": ()}, "empty": {}}, False)
@example([2**64, 1e-7, float("nan"), float("-inf"), None, True], True)
def test_matches_stdlib_indent_2(value, sort_keys):
    try:
        expected = json.dumps(value, indent=2, sort_keys=sort_keys)
    except TypeError:  # keys of mixed types cannot be sorted
        with pytest.raises(TypeError):
            jsontext.dumps(value, sort_keys=sort_keys)
        return
    assert jsontext.dumps(value, sort_keys=sort_keys) == expected
