"""``to_json`` against its oracle: the stdlib's indented, key-sorted ``json.dumps``."""

from __future__ import annotations

import enum
import json

import pytest
from hypothesis import given, settings, strategies as st

from spotdeck.formats import to_json


def oracle(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# every code point, lone surrogates included: quotes, backslashes, control
# characters, non-ASCII and non-BMP text all go through the escaper
TEXT = st.text(st.characters(exclude_categories=()))
LEAVES = st.none() | st.booleans() | st.integers(min_value=-(10**30), max_value=10**30) | TEXT


def containers(children):
    return (
        st.lists(children)
        | st.lists(children).map(tuple)
        | st.dictionaries(TEXT, children)
        # all-string lists, the shape of a deck's cards rows
        | st.lists(TEXT)
        | st.lists(TEXT).map(tuple)
    )


PAYLOADS = st.recursive(LEAVES, containers, max_leaves=40).filter(
    lambda value: isinstance(value, (dict, list, tuple))
)


@settings(max_examples=400, deadline=None)
@given(PAYLOADS)
def test_bytes_match_the_oracle(payload):
    assert to_json(payload) == oracle(payload)


@pytest.mark.parametrize(
    "payload",
    [
        {},
        [],
        (),
        {"a": {}, "b": [], "c": ()},
        [[], [[]], {"": {}}],
        {"b": 1, "a": [True, False, None], "A": -(10**30)},
        {"cards": [["1", "2"], ["é", '"q"', "a\\b", "\U0001f0a1", "\ud800", "\x00\x1f\x7f"]]},
    ],
)
def test_edge_payloads(payload):
    assert to_json(payload) == oracle(payload)


class Level(enum.IntEnum):
    LOW = 1


@pytest.mark.parametrize(
    "value",
    [1.5, Level.LOW, {1: "a"}, {"a"}, object()],
    ids=["float", "IntEnum", "int-key", "set", "object"],
)
@pytest.mark.parametrize(
    "wrap",
    [lambda v: v, lambda v: {"a": [1, {"b": v}]}, lambda v: ("x", v)],
    ids=["top", "nested", "in-tuple"],
)
def test_values_outside_the_domain_raise_type_error(value, wrap):
    with pytest.raises(TypeError):
        to_json(wrap(value))
