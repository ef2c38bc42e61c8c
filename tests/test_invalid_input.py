"""Invalid decks give ``InvalidDeckError``, never an answer or ``InvariantViolation``.

Every function whose answer the axioms guarantee passes its deck through the
gate ``require_valid`` before it answers, so an invalid deck is reported as
bad input, with its violations; ``InvariantViolation`` stays reserved for
bugs in this package.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from sample_decks import PAIRED_4_TEXT
from spotdeck.analysis import check_identities, check_kn2_lemma, classify, find_common_triple
from spotdeck.constructions import remove_cards
from spotdeck.deck import DeckError, InvalidDeckError, InvariantViolation, normalize, validate
from spotdeck.enumeration import canonical_form
from spotdeck.formats import parse_deck_text
from spotdeck.maximality import complete, find_extension, is_maximal

DISJOINT = [["a", "b"], ["c", "d"]]
SHARED_HUB = [["a", "b", "c"], ["a", "d", "e"], ["a", "f", "g"]]


def complete_no_steps(deck):
    """``complete`` with no step: only its final ``find_extension`` call checks the deck."""
    return complete(deck, 0)


def remove_first_card(deck):
    return remove_cards(deck, [0])


@pytest.mark.parametrize(
    "check",
    [check_identities, classify, find_extension, is_maximal, complete, complete_no_steps, remove_first_card],
)
def test_disjoint_pair(check):
    deck = normalize(DISJOINT)
    with pytest.raises(InvalidDeckError, match="cards 0 and 1 share 0 symbols") as err:
        check(deck)
    assert err.value.violations == validate(deck).violations


@pytest.mark.parametrize("check", [is_maximal, complete, complete_no_steps, find_extension])
def test_cards_through_one_symbol(check):
    with pytest.raises(InvalidDeckError, match="appears on 1 card"):
        check(normalize(SHARED_HUB))


@pytest.mark.parametrize(
    "check", [classify, check_identities, is_maximal, complete, complete_no_steps, find_extension]
)
def test_one_symbol_cards(check):
    # the order is below 2, so the deck breaks D3 and has no fundamental number
    with pytest.raises(InvalidDeckError, match="card 0 has only 1 symbol"):
        check(normalize([["a"], ["b"]]))


@pytest.mark.parametrize(
    "rows, message",
    [
        ([["a"], ["a"]], "card 0 has only 1 symbol"),  # the only "extension" repeats both cards
        ([["a", "b"]], "appears on 1 card"),  # one card, with no extension found
    ],
)
@pytest.mark.parametrize("check", [is_maximal, complete, complete_no_steps, find_extension])
def test_degenerate_decks(check, rows, message):
    with pytest.raises(InvalidDeckError, match=message):
        check(normalize(rows))


@pytest.mark.parametrize("rows", [[[0, 1, 2], [1, 3]], [[1, 2], [0, 1, 2]]])
def test_canonical_form_needs_one_card_size(rows):
    # the search pads every card to the first card's size, which would invent symbols
    with pytest.raises(InvalidDeckError, match="D4"):
        canonical_form(normalize(rows))


def test_kn2_lemma_on_disjoint_cards():
    deck = normalize([["a", "b"], ["c", "d"], ["e", "f"], ["g", "h"]])
    with pytest.raises(InvalidDeckError):
        check_kn2_lemma(deck, [0, 1, 2, 3], 1)


def test_invalid_deck_error_is_a_deck_error():
    assert issubclass(InvalidDeckError, DeckError)
    assert not issubclass(InvalidDeckError, InvariantViolation)


def test_spot_helpers_check_their_arguments_then_the_deck():
    # paired(4) with one token of its last card replaced: D1 and D2 break
    paired_4 = parse_deck_text(PAIRED_4_TEXT)
    rows = [list(paired_4.card_tokens(i)) for i in range(paired_4.card_count)]
    rows[-1][0] = "fresh"
    deck = normalize(rows)
    for check in (
        lambda: check_kn2_lemma(deck, range(6), 1),
        lambda: find_common_triple(deck, range(5)),
    ):
        with pytest.raises(InvalidDeckError) as err:
            check()
        assert err.value.violations == validate(deck).violations
    with pytest.raises(ValueError, match=r"k\*n\+2"):
        check_kn2_lemma(deck, range(5), 1)
    with pytest.raises(ValueError, match=r"n\+1"):
        find_common_triple(deck, range(4))


def test_fuzzed_decks_never_raise_invariant_violation():
    """About 500 seeded random decks, almost all invalid, through every entry point.

    No entry point answers on an invalid deck or raises ``InvariantViolation``.
    """
    rng = random.Random(2024)
    outcomes: Counter = Counter()
    for _ in range(500):
        size = rng.randint(2, 4)
        alphabet = rng.randint(size, 9)
        rows = [
            rng.sample(range(alphabet), rng.choice([size, size, size, size - 1]))
            for _ in range(rng.randint(1, 8))
        ]
        deck = normalize(rows)
        valid = validate(deck).valid
        n, c = deck.order, deck.card_count
        checks = {
            "check_identities": lambda: check_identities(deck),
            "classify": lambda: classify(deck),
            "is_maximal": lambda: is_maximal(deck),
            "complete": lambda: complete(deck),
            "complete_no_steps": lambda: complete_no_steps(deck),
            "find_extension": lambda: find_extension(deck),
            "remove_cards": lambda: remove_first_card(deck),
        }
        if c >= n + 2:
            checks["kn2"] = lambda: check_kn2_lemma(deck, list(range(n + 2)), 1)
        if c >= n + 1:
            checks["triple"] = lambda: find_common_triple(deck, list(range(n + 1)))
        for name, check in checks.items():
            try:
                check()
            except InvalidDeckError:
                assert not valid, (name, rows)
                outcomes[name] += 1
            except (DeckError, ValueError):
                pass  # documented rejections of the arguments, such as order < 4 for the triple
            else:
                assert valid, (name, rows)
    # the fuzz reaches the gate of every entry point
    assert set(outcomes) == {
        "check_identities", "classify", "is_maximal", "complete", "complete_no_steps",
        "find_extension", "remove_cards", "kn2", "triple",
    }
