"""Property-based tests: the proved identities must hold on every deck we can build."""

from __future__ import annotations

import random

from hypothesis import example, given, settings, strategies as st

from sample_decks import IDENTITY_NAMES
from spotdeck.analysis import check_identities, classify, fundamental_number, multiplicities
from spotdeck.constructions import (
    build_grid_blocks,
    build_paired,
    build_two_symmetric,
    max_blocks,
)
from spotdeck.deck import normalize, partition_by_card, validate
from spotdeck.enumeration import canonical_form
from spotdeck.formats import parse_deck_text, render_deck_text
from spotdeck.maximality import is_maximal
from test_maximality import run_transversals


@st.composite
def built_decks(draw):
    kind = draw(st.sampled_from(["two_sym", "grid", "paired"]))
    if kind == "two_sym":
        return build_two_symmetric(draw(st.integers(min_value=2, max_value=9)))
    if kind == "grid":
        n = draw(st.integers(min_value=3, max_value=9))
        k = draw(st.integers(min_value=2, max_value=max_blocks(n)))
        return build_grid_blocks(n, k)
    return build_paired(draw(st.sampled_from([3, 4, 6, 8])))


@st.composite
def small_decks(draw):
    # includes paired(4), two-symmetric(5) and grid(4,3), whose large
    # automorphism groups are where the canonical search prunes
    kind = draw(st.sampled_from(["two_sym", "grid", "paired"]))
    if kind == "two_sym":
        return build_two_symmetric(draw(st.integers(min_value=2, max_value=5)))
    if kind == "grid":
        n = draw(st.sampled_from([3, 4]))
        k = draw(st.integers(min_value=2, max_value=max_blocks(n)))
        return build_grid_blocks(n, k)
    return build_paired(draw(st.sampled_from([3, 4])))


def relabeled(deck, seed):
    rng = random.Random(seed)
    names = list(deck.tokens)
    rng.shuffle(names)
    rows = [[names[s] for s in deck.rows[i]] for i in range(deck.card_count)]
    rng.shuffle(rows)
    return normalize(rows)


@settings(max_examples=40, deadline=None)
@given(built_decks())
def test_constructions_validate(deck):
    assert validate(deck).valid


@settings(max_examples=40, deadline=None)
@given(built_decks())
def test_identities_hold_everywhere(deck):
    # raises InvariantViolation, naming each failed identity, if any fails
    assert check_identities(deck).checks == IDENTITY_NAMES


@settings(max_examples=40, deadline=None)
@given(built_decks())
def test_classify_cross_checks_agree(deck):
    tags = classify(deck)  # raises InvariantViolation on any disagreement
    if tags.paired:
        assert tags.symmetric
        assert tags.symmetric_multiplicity == deck.order
        assert deck.card_count == deck.length == fundamental_number(deck.order)
    if tags.symmetric:
        assert deck.length <= fundamental_number(deck.order)


@settings(max_examples=25, deadline=None)
@given(built_decks(), st.integers(min_value=0, max_value=10**6))
def test_packs_partition_the_rest(deck, seed):
    pivot = seed % deck.card_count
    packs = partition_by_card(deck, pivot)
    flat = sorted(i for pack in packs for i in pack)
    assert flat == [i for i in range(deck.card_count) if i != pivot]


@settings(max_examples=25, deadline=None)
@given(built_decks())
def test_no_symbol_on_every_card(deck):
    counts = multiplicities(deck).counts
    assert max(counts) < deck.card_count


@settings(max_examples=25, deadline=None)
@given(built_decks(), st.integers(min_value=0, max_value=10**6))
def test_text_round_trip(deck, seed):
    shuffled = relabeled(deck, seed)
    text = render_deck_text(shuffled)
    again = parse_deck_text(text)
    assert again.rows == shuffled.rows
    assert again.tokens == shuffled.tokens
    assert validate(again).valid


@settings(max_examples=15, deadline=None)
@given(small_decks(), st.integers(min_value=0, max_value=10**6))
def test_canonical_form_is_relabeling_invariant(deck, seed):
    assert canonical_form(relabeled(deck, seed)) == canonical_form(deck)


@settings(max_examples=20, deadline=None)
@given(built_decks())
@example(build_grid_blocks(3, 3))  # not maximal: the pivot card of the block symbols fits
def test_maximality_chain(deck):
    verdict = is_maximal(deck)
    if verdict.sufficient_corollary:
        assert verdict.prop_condition
    if verdict.prop_condition:
        # the sum proof against the unbounded search: no n symbols partition the cards
        visited = run_transversals(deck)
        assert all(len(chosen) < deck.order for chosen in visited)
    if verdict.extension is not None:
        # the witness is a card: n distinct existing symbols meeting every card once
        chosen = set(verdict.extension)
        assert len(chosen) == len(verdict.extension) == deck.order
        assert chosen <= set(range(deck.length))
        assert all(len(chosen & set(card)) == 1 for card in deck.cards)


@settings(max_examples=25, deadline=None)
@given(built_decks())
def test_star_count_identity(deck):
    # every star of m cards shows exactly m*(n-1)+1 distinct symbols
    counts = multiplicities(deck).counts
    for s in range(deck.length):
        union = set()
        for card in deck.cards:
            if s in card:
                union.update(card)
        assert len(union) == counts[s] * (deck.order - 1) + 1


@settings(max_examples=25, deadline=None)
@given(built_decks())
def test_alignment_symmetric_with_true_diagonal(deck):
    for s in range(deck.length):
        assert deck.aligned[s] >> s & 1
        for t in range(deck.length):
            assert (deck.aligned[s] >> t & 1) == (deck.aligned[t] >> s & 1)
