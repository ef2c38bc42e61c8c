"""Text and JSON deck formats.

The text format is one card per line of whitespace-separated tokens, the same
layout the usual hand-written figures use, so fixtures can be pasted in
verbatim.  Rendering preserves the original token order of every card, which
makes parse/render a byte-exact round trip.

The JSON format is exactly the bytes that the stdlib ``json`` module's
``dumps(payload, indent=2, sort_keys=True)`` returns, plus a newline.
``to_json`` writes them itself because, with ``indent`` set, ``dumps`` runs
its pure-Python encoder, one generator step per value: on projective-plane
decks that cost more than checking the deck.  The writer passes each list of
strings, such as a ``cards`` row, to the C string encoder that ``dumps``
itself uses, in one call.  Its domain is what the CLI payloads hold:
str-keyed dicts, lists, tuples, str, int, bool and None.  Any other value
raises ``TypeError``, so the writer never writes bytes that ``dumps`` would
not.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _quote

from .deck import Deck, normalize

_STR = frozenset((str,))


def parse_deck_text(text: str) -> Deck:
    """Parse deck text: ``#``-prefixed comment lines and blank lines are ignored."""
    rows = []
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        rows.append(stripped.split())
    return normalize(rows)


def render_deck_text(deck: Deck) -> str:
    lines = [" ".join(deck.card_tokens(i)) for i in range(deck.card_count)]
    return "\n".join(lines) + "\n"


def deck_payload(deck: Deck) -> dict:
    """JSON-ready view of a deck; tokens within each card are id-sorted."""
    return {
        "order": deck.order,
        "card_count": deck.card_count,
        "length": deck.length,
        "cards": [[deck.tokens[s] for s in card] for card in deck.cards],
    }


def to_json(payload: dict) -> str:
    """The stdlib ``json`` module's ``dumps(payload, indent=2, sort_keys=True)``
    plus ``"\\n"``, byte for byte.

    The payload may nest dicts with str keys, lists, tuples, str, int, bool
    and None to any depth.  Types must match exactly: a float, an ``IntEnum``
    member, a set, a non-str key or any other object raises ``TypeError``.
    Strings are escaped to ASCII by the C encoder that ``dumps`` uses, keys are
    written in sorted order and each level indents by two spaces.
    """
    return _encode(payload, "\n") + "\n"


def _encode(value, newline: str) -> str:
    # newline is "\n" plus the indent of the line that holds value
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    if kind is bool:
        return "true" if value else "false"
    inner = newline + "  "
    if kind is dict:
        if not value:
            return "{}"
        for key in value:
            if type(key) is not str:
                raise TypeError(f"JSON keys must be str, not {type(key).__name__}")
        members = [_quote(key) + ": " + _encode(value[key], inner) for key in sorted(value)]
        return "{" + inner + ("," + inner).join(members) + newline + "}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        if _STR.issuperset(map(type, value)):
            # all items exactly str, such as a cards row: no call per item here
            members = map(_quote, value)
        else:
            members = [_encode(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(members) + newline + "]"
    raise TypeError(f"{kind.__name__} is outside the JSON payload domain")
