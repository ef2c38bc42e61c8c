"""The automorphism-pruned lex-min search against the unpruned branch-and-bound.

``bruteforce.bnb_minimal_form`` searches every labeling that could still beat
its incumbent and uses no automorphism, so it is the exact lex-min oracle for
decks too large for ``brute_min_form``.  The pruned search must return the
same form on every class of orders 2 to 4, under relabelings, and on the
symmetric constructions where the pruning cuts most; and the seeded
canonicity check must give the same verdict on the order-4 states where a
wrong verdict could lose or invent a class.  ``bruteforce.reference_minimal_form``
is the same pruned search on padded id tuples; the search on numbers must
walk the same tree, node for node.
"""

from __future__ import annotations

import random

import pytest

import spotdeck.enumeration as enumeration
from bruteforce import (
    bnb_is_self_canonical,
    bnb_minimal_form,
    normal_states,
    orderly_states,
    reference_minimal_form,
    reference_orbit_closure,
)
from spotdeck.constructions import build_grid_blocks, build_paired, build_two_symmetric, remove_cards
from spotdeck.deck import normalize, validate
from spotdeck.enumeration import canonical_form, census, enumerate_decks
from test_enumeration import permuted

RELABELINGS = 5
# private symbols on cards through two different hubs, 0 and 7
HUB_DECK = [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (7, 8, 9), (7, 10, 11)]
# the order-5 class with six cards, any two sharing a symbol of their own: its
# canonicity proof is full of leaves tied with the seed
ORDER_FIVE_SIX_CARDS = [
    (0, 1, 2, 3, 4), (0, 5, 6, 7, 8), (1, 5, 9, 10, 11), (2, 6, 9, 12, 13), (3, 7, 10, 12, 14), (4, 8, 11, 13, 14)
]


def oracle_form(deck):
    return bnb_minimal_form(deck.order, deck.length, deck.cards)


def card_stars(cards):
    """The star of every symbol of the card list: the bitmask of the cards carrying it."""
    stars = [0] * (1 + max(max(card) for card in cards))
    for index, card in enumerate(cards):
        for s in card:
            stars[s] |= 1 << index
    return stars


def assert_pruned_search_agrees(deck, expected):
    """Canonical form and seeded canonicity verdict of ``deck`` both follow from ``expected``."""
    assert canonical_form(deck).cards == expected
    cards = sorted(deck.cards)
    verdict = enumeration._is_self_canonical(deck.order, cards, card_stars(cards), enumeration._Budget(None))
    assert verdict == (tuple(cards) == expected)


@pytest.fixture(scope="module")
def order_four_run():
    """The order-4 enumeration, with every canonicity query it made and the answer it got."""
    queries = []
    pruned = enumeration._is_self_canonical

    def recording(n, cards, stars, budget=None):
        verdict = pruned(n, cards, stars, budget)
        queries.append((n, len(stars), list(cards), verdict))
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


def test_partial_states_match_oracle():
    # partial decks have symbols on one card only, whose swaps the search
    # knows up front; valid decks have none, so only these states test them.
    # The 7-card star with 15 symbols takes the oracle seconds and is left out.
    states = [cards for cards in orderly_states(3, 7) if 2 <= len(cards) and cards[-1][-1] < 13]
    states.append(HUB_DECK)
    for cards in states:
        deck = normalize(cards)
        expected = oracle_form(deck)
        assert_pruned_search_agrees(deck, expected)
        for seed in range(RELABELINGS):
            assert_pruned_search_agrees(permuted(deck, seed), expected)


@pytest.mark.parametrize(
    "deck",
    [
        build_paired(4),
        build_two_symmetric(5),
        build_grid_blocks(4, 3),
        remove_cards(build_grid_blocks(4, 3), [0]),
        normalize(ORDER_FIVE_SIX_CARDS),
    ],
    ids=["paired4", "two_symmetric5", "grid4x3", "grid4x3_minus_card", "order5_six_cards"],
)
def test_symmetric_constructions_match_oracle(deck):
    expected = oracle_form(deck)
    assert_pruned_search_agrees(deck, expected)
    assert_pruned_search_agrees(normalize(expected), expected)
    for seed in range(RELABELINGS):
        assert_pruned_search_agrees(permuted(deck, seed), expected)


@pytest.mark.parametrize(
    "deck, as_built, canonical",
    [
        (build_paired(4), 143, 141),
        (build_two_symmetric(5), 96, 96),
        (build_grid_blocks(4, 3), 86, 86),
        (remove_cards(build_grid_blocks(4, 3), [0]), 208, 217),
    ],
    ids=["paired4", "two_symmetric5", "grid4x3", "grid4x3_minus_card"],
)
def test_canonical_form_search_nodes(deck, as_built, canonical):
    """Search nodes of ``canonical_form`` on the decks the benchmark canonicalizes.

    The benchmark removes a random card from the grid deck; this removes
    card 0.  The forms are checked against the oracle above; a change in
    where the incumbent starts, in the pruning or in the jump back shows
    here as a change in the count.
    """

    def nodes(deck):
        budget = enumeration._Budget(None)
        form = enumeration._minimal_form(deck.order, deck.cards, deck.stars, budget)
        assert canonical_form(deck).cards == form
        return budget.used, form

    used, form = nodes(deck)
    assert used == as_built
    assert nodes(normalize(form)) == (canonical, form)


def test_order_four_canonicity_verdicts_match_oracle(order_four_run):
    """Every verdict that stopped the walk or emitted a class is the oracle's.

    The walk asks about every state of two or more cards.  A wrong rejection
    would prune a class away, so all of them are checked.  Accepts on
    complete decks are checked too: together they must be exactly the
    emitted forms.  Accepts on partial states with at most 13 symbols are
    checked as well: like those on complete decks, these proofs meet many
    leaves tied with the seed and jump back from them, and a jump back too
    far could skip a smaller form and accept a non-canonical state.  Accepts
    on larger partial states, some of which have 16 to 40 symbols and take
    the unpruned search minutes each, are not sent to the oracle: a wrong
    one could only add nodes, and ``test_order_four_classes_match_oracle``
    checks the emitted forms.
    """
    result, queries = order_four_run
    assert len(queries) + 1 == 291  # every visited state but the one-card root
    complete = []
    rejected = partial = 0
    for n, length, cards, verdict in queries:
        on_two_cards = all(sum(s in card for card in cards) >= 2 for s in range(length))
        if verdict and not on_two_cards and length > 13:
            continue
        assert bnb_is_self_canonical(n, length, cards) == verdict, cards
        if not verdict:
            rejected += 1
        elif on_two_cards:
            complete.append(tuple(cards))
        else:
            partial += 1
    assert sorted(complete) == sorted(form.cards for form in result.forms)
    assert rejected > 0
    assert partial == 20


def test_known_automorphisms_fix_the_card_list():
    """Every swap that seeds the search maps the card list onto itself.

    A seeded swap that is not an automorphism makes the search skip children
    it takes for images of searched ones, which can prune away the minimum.
    The raw generator's states, canonical or not, are full of symbols on the
    same cards and of private symbols; the hub deck has cards with as many
    private symbols but different shared ones, which must not be swapped.
    """
    decks = [list(cards) for cards in normal_states(3, 7)]
    decks += [list(cards) for cards in normal_states(4, 5)]
    decks.append(HUB_DECK)
    swaps = 0
    for cards in decks:
        stars = card_stars(cards)
        length = len(stars)
        for perm, moved in enumeration._known_automorphisms(cards, stars):
            assert moved == sum(1 << s for s in range(length) if perm[s] != s)
            image = sorted(tuple(sorted(perm[s] for s in card)) for card in cards)
            assert image == sorted(cards), (cards, perm)
            swaps += 1
    assert swaps > 0


def random_d4_deck(rng):
    """A deck of 1 to 9 distinct cards of one size n = 1 to 5; D1 and D2 mostly break.

    One deck in five then gets a card overwritten by a copy of another.
    """
    n = rng.randint(1, 5)
    pool = rng.randint(n + 1, 2 * n + 9)
    cards = []
    for _ in range(36):
        card = rng.sample(range(pool), n)
        if len(cards) < 9 and sorted(card) not in map(sorted, cards):
            cards.append(card)
    cards = cards[: rng.randint(1, len(cards))]
    if len(cards) > 1 and rng.random() < 0.2:
        copy, original = rng.sample(range(len(cards)), 2)
        cards[copy] = list(cards[original])
    return normalize(cards)


def assert_same_tree_as_reference(deck):
    """Form and spent nodes equal the tuple-padded search's, in both modes."""
    for stop_below_seed in (False, True):
        searched, reference = enumeration._Budget(None), enumeration._Budget(None)
        form = enumeration._minimal_form(deck.order, deck.cards, deck.stars, searched, stop_below_seed)
        expected = reference_minimal_form(deck.order, deck.cards, deck.stars, reference, stop_below_seed)
        assert (form, searched.used) == (expected, reference.used), deck.cards


def test_random_decks_walk_the_reference_tree():
    rng = random.Random(20)
    decks = [random_d4_deck(rng) for _ in range(1500)]
    for deck in decks:
        assert_same_tree_as_reference(deck)
    # the sample has what the encoding must survive: every size, repeats, D1 breaks
    assert {deck.order for deck in decks} == {1, 2, 3, 4, 5}
    assert sum(len(set(deck.cards)) < deck.card_count for deck in decks) > 150
    assert sum(any(v.axiom == "D1" for v in validate(deck).violations) for deck in decks) > 1000


# the decks the benchmark canonicalizes, with a grid deck minus each of two cards
BENCHMARK_DECKS = {
    "paired4": build_paired(4),
    "two_symmetric5": build_two_symmetric(5),
    "grid4x3": build_grid_blocks(4, 3),
    "grid4x3_minus_card0": remove_cards(build_grid_blocks(4, 3), [0]),
    "grid4x3_minus_card7": remove_cards(build_grid_blocks(4, 3), [7]),
}


@pytest.mark.parametrize("deck", BENCHMARK_DECKS.values(), ids=BENCHMARK_DECKS.keys())
def test_benchmark_decks_walk_the_reference_tree(deck):
    """The decks the benchmark canonicalizes, as built and relabeled."""
    assert_same_tree_as_reference(deck)
    for seed in range(RELABELINGS):
        assert_same_tree_as_reference(permuted(deck, seed))


def test_card_numbers_order_like_tuples():
    rng = random.Random(4)
    for _ in range(2000):
        n = rng.randint(1, 6)
        base = rng.randint(2, 40)
        a, b = (tuple(rng.randrange(base) for _ in range(n)) for _ in range(2))
        x, y = enumeration._card_number(a, base), enumeration._card_number(b, base)
        assert (x < y, x == y) == (a < b, a == b)


def moved_mask(perm):
    return sum(1 << s for s in range(len(perm)) if perm[s] != s)


def random_generator(rng, length):
    """A ``(perm, moved)`` record: a swap, a few swaps, or a shuffle of some symbols."""
    perm = list(range(length))
    kind = rng.randrange(3)
    if kind < 2:
        for _ in range(1 if kind == 0 else rng.randint(2, 4)):
            a, b = rng.sample(range(length), 2)
            perm[a], perm[b] = perm[b], perm[a]
    else:
        some = rng.sample(range(length), rng.randint(2, length))
        images = list(some)
        rng.shuffle(images)
        for s, image in zip(some, images):
            perm[s] = image
    return tuple(perm), moved_mask(perm)


def test_orbit_closure_is_the_stabilizer_closure():
    """Closing under the generators that fix ``fixed`` pointwise, walking only moved symbols,
    gives the reference closure over the stabilizer list the reference search builds."""
    rng = random.Random(22)
    empty_masks = filtered = 0
    for _ in range(3000):
        length = rng.randint(2, 12)
        generators = [random_generator(rng, length) for _ in range(rng.randint(0, 6))]
        fixed = rng.getrandbits(length) if rng.random() < 0.7 else 0
        mask = rng.getrandbits(length) if rng.random() < 0.9 else 0
        stabilizer = [perm for perm, moved in generators if not moved & fixed]
        closure = enumeration._orbit_closure(mask, generators, fixed)
        assert closure == reference_orbit_closure(mask, stabilizer), (mask, generators, fixed)
        empty_masks += mask == 0
        filtered += closure != reference_orbit_closure(mask, [perm for perm, _ in generators])
    # the sample has empty masks and generators that move fixed symbols and would widen the orbits
    assert empty_masks > 100
    assert filtered > 300


def test_generator_records_carry_their_moved_symbols(monkeypatch):
    """Every generator the search closes orbits under moves exactly the symbols of its mask.

    A mask missing a moved symbol would let a generator that moves a fixed
    symbol through, and would hide a symbol from the closure.
    """
    records = {}
    closure = enumeration._orbit_closure

    def recording(mask, generators, fixed):
        for perm, moved in generators:
            records[perm] = moved
        return closure(mask, generators, fixed)

    monkeypatch.setattr(enumeration, "_orbit_closure", recording)
    census(4)
    for deck in BENCHMARK_DECKS.values():
        for relabeled in [deck] + [permuted(deck, seed) for seed in range(RELABELINGS)]:
            canonical_form(relabeled)
    assert len(records) > 100
    for perm, moved in records.items():
        assert moved == moved_mask(perm), perm


@pytest.mark.parametrize(
    "deck",
    [build_paired(4), build_grid_blocks(4, 3), build_two_symmetric(5)],
    ids=["paired4", "grid4x3", "two_symmetric5"],
)
def test_decoded_canonical_form_is_the_reference_form(deck):
    form = canonical_form(deck).cards
    assert form == reference_minimal_form(deck.order, deck.cards, deck.stars, enumeration._Budget(None))
    assert all(type(card) is tuple and all(type(s) is int for s in card) for card in form)
