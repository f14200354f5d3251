"""The CLI's report encoder against ``json.dumps(indent=2, allow_nan=False)``.

``cli._encode`` must give the same bytes as that call on every JSON value:
its fast paths (int lists, lists of int lists or tuples, lists of same-keyed
dicts of numbers) and its generic recursion alike, and it must refuse nan
and ±inf with ValueError wherever they sit, which is how ``_emit`` tells an
overflowed result.

The property takes its example count from the Hypothesis profile, so
``--hypothesis-profile=ci`` (see ``conftest.py``) runs it longer.
"""

import json
import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from morsespec.cli import _encode

EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1, 1.5])
FLOATS = st.floats(allow_nan=False, allow_infinity=False) | EDGE_FLOATS
INTS = st.integers() | st.integers(-(2**200), 2**200) | st.sampled_from([0, -1, 2**63, -(2**64)])
# Escapes, control characters, non-ASCII text, astral code points and the
# ``%`` of a format template.
TEXT = st.text() | st.sampled_from(
    ['', '"', "\\", "\n\t\r\x00\x1f", "é", "日本", "\U0001f600", "100%", "%r", "%(a)s"]
)
SCALARS = st.none() | st.booleans() | INTS | FLOATS | TEXT
KEYS = TEXT | INTS | FLOATS | st.booleans() | st.none()


@st.composite
def same_keyed_rows(draw):
    """Dicts that share their keys: the shape of the critical cells' rows,
    with bools, None and strings among the values at times, and at times
    with the keys in another order in each row."""
    names = draw(st.lists(KEYS, unique=True, max_size=4))
    values = draw(st.sampled_from([INTS | FLOATS, SCALARS, st.booleans() | st.none()]))
    order = st.permutations(names) if draw(st.booleans()) else st.just(names)
    return [{name: draw(values) for name in draw(order)} for _ in range(draw(st.integers(0, 6)))]


INT_LISTS = st.lists(INTS, max_size=8)
COLUMNS = st.lists(INT_LISTS | INT_LISTS.map(tuple), max_size=6)
# Lists of number dicts whose keys may differ from row to row.
NUMBER_DICTS = st.lists(st.dictionaries(TEXT, INTS | FLOATS, max_size=3), max_size=4)
JSON = st.recursive(
    SCALARS | INT_LISTS | COLUMNS | same_keyed_rows() | NUMBER_DICTS,
    lambda inner: (
        st.lists(inner, max_size=5)
        | st.lists(inner, max_size=5).map(tuple)
        | st.dictionaries(KEYS, inner, max_size=5)
    ),
    max_leaves=30,
)


@given(JSON)
@example([{"a": 1, "b": 2.5}, {"b": 3, "a": 4}])  # same keys, another order
@example([{"cell": 7, "value": -0.0}, {"cell": 8, "value": 5e-324}])
@example({"rows": [{"%d": 1, "ok": True}, {"%d": 2, "ok": None}]})
def test_encoder_equals_json_dumps(value):
    assert _encode(value) == json.dumps(value, indent=2, allow_nan=False)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "place",
    [
        "top level",
        "template row",
        "int list",
        "int column",
        "dict key",
    ],
)
def test_non_finite_floats_raise_value_error(place, bad):
    value = {
        "top level": bad,
        "template row": {"grades": [{"cell": 1, "value": 0.5}, {"cell": 2, "value": bad}]},
        "int list": [3, 1, bad, 4],
        "int column": [[1, 2], (3, bad)],
        "dict key": {bad: 1},
    }[place]
    with pytest.raises(ValueError):
        json.dumps(value, indent=2, allow_nan=False)
    with pytest.raises(ValueError):
        _encode(value)
