"""Text and JSON deck formats.

The text format is one card per line of whitespace-separated tokens, the same
layout the usual hand-written figures use, so fixtures can be pasted in
verbatim.  Rendering preserves the original token order of every card, which
makes parse/render a byte-exact round trip.
"""

from __future__ import annotations

import json

from .deck import Deck, normalize


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
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
