"""Invalid decks give ``InvalidDeckError``, never ``InvariantViolation``.

The cross-checks in ``classify``, ``is_maximal``, ``complete`` and the spot
helpers are proved for valid decks only.  When one fails, the deck is
validated and an invalid one is reported as bad input; ``InvariantViolation``
stays reserved for bugs in this package.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from spotdeck.analysis import check_identities, check_kn2_lemma, classify, find_common_triple
from spotdeck.deck import (
    DeckError,
    InvalidDeckError,
    InvariantViolation,
    cross_check_failure,
    normalize,
    validate,
)
from spotdeck.enumeration import canonical_form
from spotdeck.maximality import complete, find_extension, is_maximal

DISJOINT = [["a", "b"], ["c", "d"]]
SHARED_HUB = [["a", "b", "c"], ["a", "d", "e"], ["a", "f", "g"]]


def complete_no_steps(deck):
    """``complete`` with no step: only its final ``find_extension`` call checks the deck."""
    return complete(deck, 0)


@pytest.mark.parametrize("check", [classify, is_maximal, complete])
def test_disjoint_pair(check):
    with pytest.raises(InvalidDeckError, match="cards 0 and 1 share 0 symbols"):
        check(normalize(DISJOINT))


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


def test_failed_cross_check_on_a_valid_deck_is_a_bug(fano):
    error = cross_check_failure(fano, "two proofs disagree")
    assert type(error) is InvariantViolation
    assert str(error) == "two proofs disagree"


def test_fuzzed_decks_never_raise_invariant_violation():
    """About 500 seeded random decks, almost all invalid, through every entry point."""
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
        broken = {violation.axiom for violation in validate(deck).violations}
        valid = not broken
        n, c = deck.order, deck.card_count
        checks = {
            "classify": lambda: classify(deck),
            "is_maximal": lambda: is_maximal(deck),
            "complete": lambda: complete(deck),
            "complete_no_steps": lambda: complete_no_steps(deck),
            "find_extension": lambda: find_extension(deck),
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
                pass  # documented rejections of the arguments, such as order < 2
            else:
                if name in ("is_maximal", "complete", "complete_no_steps", "find_extension"):
                    # the cheap checks before the search leave only D1 to the cross-checks
                    assert broken <= {"D1"}, (name, rows, broken)
    # the fuzz reaches the failure path of every entry point
    assert set(outcomes) == {
        "classify", "is_maximal", "complete", "complete_no_steps", "find_extension", "kn2", "triple"
    }
