"""Decks and search results survive a pickle round trip, so work may fan out across processes."""

from __future__ import annotations

import pickle

from spotdeck.constructions import build_paired
from spotdeck.deck import validate
from spotdeck.enumeration import canonical_form, census, enumerate_decks


def round_trip(value):
    return pickle.loads(pickle.dumps(value))


def test_deck_keeps_its_caches():
    deck = build_paired(4)
    result = validate(deck)
    aligned = deck.aligned
    copy = round_trip(deck)
    assert copy == deck
    assert copy is not deck
    assert copy._validation == result
    assert copy._aligned == aligned
    assert not hasattr(copy, "__dict__")


def test_search_results():
    for value in (canonical_form(build_paired(4)), enumerate_decks(3), census(3)):
        assert round_trip(value) == value
