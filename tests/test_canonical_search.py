"""The automorphism-pruned lex-min search against the unpruned branch-and-bound.

``bruteforce.bnb_minimal_form`` searches every labeling that could still beat
its incumbent and uses no automorphism, so it is the exact lex-min oracle for
decks too large for ``brute_min_form``.  The pruned search must return the
same form on every class of orders 2 to 4, under relabelings, and on the
symmetric constructions where the pruning cuts most; and the seeded
canonicity check must give the same verdict on every state the order-4
enumeration asks about.
"""

from __future__ import annotations

import pytest

import spotdeck.enumeration as enumeration
from bruteforce import bnb_is_self_canonical, bnb_minimal_form
from spotdeck.constructions import build_grid_blocks, build_paired, build_two_symmetric, remove_cards
from spotdeck.deck import normalize
from spotdeck.enumeration import canonical_form, enumerate_decks
from test_enumeration import permuted

RELABELINGS = 5


def oracle_form(deck):
    return bnb_minimal_form(deck.order, deck.length, [card.symbols for card in deck.cards])


def assert_pruned_search_agrees(deck, expected):
    """Canonical form and seeded canonicity verdict of ``deck`` both follow from ``expected``."""
    assert canonical_form(deck).cards == expected
    cards = sorted(card.symbols for card in deck.cards)
    assert enumeration._is_self_canonical(deck.order, deck.length, cards) == (tuple(cards) == expected)


@pytest.fixture(scope="module")
def order_four_run():
    """The order-4 enumeration, with every canonicity query it made and the answer it got."""
    queries = []
    pruned = enumeration._is_self_canonical

    def recording(n, length, cards):
        verdict = pruned(n, length, cards)
        queries.append((n, length, list(cards), verdict))
        return verdict

    enumeration._is_self_canonical = recording
    try:
        result = enumerate_decks(4, 13)
    finally:
        enumeration._is_self_canonical = pruned
    return result, queries


@pytest.mark.parametrize("order, max_cards", [(2, 3), (3, 7)])
def test_small_order_classes_match_oracle(order, max_cards):
    result = enumerate_decks(order, max_cards)
    assert result.forms
    for form in result.forms:
        deck = form.to_deck()
        expected = oracle_form(deck)
        assert form.cards == expected
        for seed in range(RELABELINGS):
            assert_pruned_search_agrees(permuted(deck, seed), expected)


def test_order_four_classes_match_oracle(order_four_run):
    result, _ = order_four_run
    assert result.complete and len(result.forms) == 9
    for index, form in enumerate(result.forms):
        deck = form.to_deck()
        expected = oracle_form(deck)
        assert form.cards == expected
        for seed in range(RELABELINGS):
            assert_pruned_search_agrees(permuted(deck, 100 * index + seed), expected)


@pytest.mark.parametrize(
    "deck",
    [
        build_paired(4),
        build_two_symmetric(5),
        build_grid_blocks(4, 3),
        remove_cards(build_grid_blocks(4, 3), [0]),
    ],
    ids=["paired4", "two_symmetric5", "grid4x3", "grid4x3_minus_card"],
)
def test_symmetric_constructions_match_oracle(deck):
    expected = oracle_form(deck)
    assert_pruned_search_agrees(deck, expected)
    assert_pruned_search_agrees(normalize(expected), expected)
    for seed in range(RELABELINGS):
        assert_pruned_search_agrees(permuted(deck, seed), expected)


def test_order_four_canonicity_verdicts_match_oracle(order_four_run):
    result, queries = order_four_run
    # every emitted class was accepted once, and the other queries rejected
    assert sum(verdict for *_, verdict in queries) == len(result.forms)
    assert len(queries) > len(result.forms)
    for n, length, cards, verdict in queries:
        assert bnb_is_self_canonical(n, length, cards) == verdict, cards
