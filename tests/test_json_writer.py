"""`jsonwriter.write_json` against `json.dumps(value, indent=2)`, byte for byte.

`gen json` and `check --format json` call `jsonwriter.dump_json`, which is
`write_json` before Python 3.13 and `json.dumps` from 3.13 on; these
tests call `write_json` itself, so every Python runs them.
"""

import gc
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rslkit.jsonwriter import dump_json, write_json

# Characters the escapers treat specially, mixed into otherwise arbitrary text.
SPECIAL = st.sampled_from(["\x00", "\x1f", "\x7f", "\t", "\n", '"', "\\", "/", "\u2028", "\u2029", "\ud800", "\udfff", "é", "📄"])
TEXT = st.text(st.one_of(st.characters(), SPECIAL), max_size=12)
LEAVES = st.none() | st.booleans() | st.integers() | st.integers(min_value=2**64) | TEXT
VALUES = st.recursive(LEAVES, lambda inner: st.lists(inner, max_size=5) | st.dictionaries(TEXT, inner, max_size=5))


def dumps(value, ascii):
    return json.dumps(value, indent=2, ensure_ascii=ascii) + "\n"


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(VALUES)
@example("\x00\x01\x1f\x7f\t\n\r\x08\x0c\u2028\u2029")
@example({"lone": "\ud800", "pair": "📄", "non-BMP": "📄 \U0010ffff"})
@example(["\udfff", "a\ud800b", "\ufffe"])
@example([True, False, 1, 0, None])
@example({"true": True, "false": False, "one": 1, "zero": 0, "none": None})
@example([-1, -(2**70), 2**70, 10**40])
@example([])
@example({})
@example([[], {}, [[]], {"a": {}}, {"b": []}])
@example({"z": 1, "a": 2, "m": {"y": 1, "b": 2}})
@example("")
def test_write_json_is_json_dumps_with_an_indent_of_two(value):
    for ascii in (False, True):
        assert write_json(value, ascii) == dumps(value, ascii)
        assert dump_json(value, ascii) == dumps(value, ascii)


@pytest.mark.parametrize("value", [1.5, (1, 2), {1, 2}, b"x", {"a": [object()]}, {1: "int key"}])
def test_anything_else_is_a_type_error(value):
    with pytest.raises(TypeError):
        write_json(value)


def test_writing_leaves_no_cyclic_garbage():
    value = {"a": [1, {"b": None, "c": [True, "x"]}], "d": {}}
    gc.collect()
    gc.disable()
    try:
        write_json(value)
        write_json(value, ascii=True)
    finally:
        garbage = gc.collect()
        gc.enable()
    assert garbage == 0
