"""Core model tests: normalization, axiom validation, stars, partitions."""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import astuple
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from bruteforce import pairwise_violations, reference_normalize
from sample_decks import FANO_ROWS, PAIRED_4_TEXT, THREE_BLOCK_ROWS, TWO_SYM_3_ROWS
from spotdeck.analysis import multiplicities
from spotdeck.constructions import build_grid_blocks, build_paired, build_two_symmetric, is_prime, max_blocks
from spotdeck.deck import (
    Deck,
    InvalidDeckError,
    MalformedCardError,
    Violation,
    normalize,
    partition_by_card,
    require_valid,
    star,
    validate,
)
from spotdeck.formats import parse_deck_text


class TestNormalize:
    def test_dense_ids_in_first_occurrence_order(self):
        deck = normalize([["a", "b", "c"], ["a", "d", "e"]])
        assert deck.order == 3
        assert deck.card_count == 2
        assert deck.length == 5
        assert deck.tokens == ("a", "b", "c", "d", "e")
        assert deck.rows == ((0, 1, 2), (0, 3, 4))

    def test_fano_dimensions(self, fano):
        assert (fano.order, fano.card_count, fano.length) == (3, 7, 7)
        # tokens keep the figure's reading order
        assert fano.tokens == ("5", "1", "2", "3", "4", "6", "7")

    def test_duplicate_symbol_in_card_rejected(self):
        with pytest.raises(MalformedCardError):
            normalize([["x", "x", "y"]])

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            normalize([])
        with pytest.raises(ValueError):
            normalize([["a", "b"], []])

    def test_cards_have_sorted_tuple_and_matching_mask(self, fano):
        for i, card in enumerate(fano.cards):
            assert list(card) == sorted(card)
            # the card's symbols are exactly those whose stars carry bit i
            assert sum(1 << s for s in card) == sum(1 << s for s, m in enumerate(fano.stars) if m >> i & 1)

    def test_alignment_is_built_on_first_read(self, fano):
        # kept in a field that __init__ sets: the first read replaces its value
        # and adds no instance attribute
        keys = list(vars(fano))
        assert fano._aligned is None
        aligned = fano.aligned
        assert list(vars(fano)) == keys
        assert fano._aligned is aligned
        assert fano.aligned is aligned
        partners = [set() for _ in range(fano.length)]
        for card in fano.cards:
            for s in card:
                partners[s].update(card)
        assert aligned == tuple(sum(1 << t for t in others) for others in partners)

    def test_validation_is_kept_on_first_call(self, fano):
        # like _aligned, _validation is set by __init__: validate replaces its value
        keys = list(vars(fano))
        result = validate(fano)
        assert list(vars(fano)) == keys
        assert validate(fano) is result

    def test_integer_tokens_coerced_to_strings(self):
        deck = normalize([[1, 2], [1, 3], [2, 3]])
        assert deck.tokens == ("1", "2", "3")

    def test_matches_one_pass_reference(self):
        # ints and strs that name one symbol (1 and "1"), so every repeat is
        # such a pair, empty cards and empty decks: same fields, or the same
        # error at the same card
        rng = random.Random(18)
        alphabet = [0, 1, 2, 3, "0", "1", "2", "a", "b"]
        outcomes: Counter = Counter()
        for _ in range(3000):
            raw = [
                [] if rng.random() < 0.05 else rng.sample(alphabet, rng.randint(1, 4))
                for _ in range(0 if rng.random() < 0.05 else rng.randint(1, 7))
            ]
            try:
                expected = reference_normalize(raw)
            except (ValueError, MalformedCardError) as error:
                with pytest.raises(type(error)) as caught:
                    normalize(raw)
                assert type(caught.value) is type(error) and str(caught.value) == str(error)
                empty = "empty card" if "empty" in str(error) else "empty deck"
                outcomes["repeat" if isinstance(error, MalformedCardError) else empty] += 1
                continue
            deck = normalize(raw)
            assert {name: getattr(deck, name) for name in expected} == expected
            outcomes["deck"] += 1
        assert set(outcomes) == {"deck", "repeat", "empty card", "empty deck"}, outcomes


class TestValidate:
    def test_fano_is_valid(self, fano):
        result = validate(fano)
        assert result.valid
        assert result.violations == ()

    def test_missing_star_breaks_d2(self):
        # drop the two cards through symbol 5 sharing it, leaving it once
        rows = [row for row in FANO_ROWS if row not in (["5", "1", "2"], ["5", "3", "4"])]
        deck = normalize(rows)
        result = validate(deck)
        assert not result.valid
        d2 = [v for v in result.violations if v.axiom == "D2"]
        assert len(d2) == 1
        assert deck.tokens[d2[0].symbols[0]] == "5"
        assert d2[0].count == 1

    def test_disjoint_cards_break_d1(self):
        deck = normalize([["a", "b"], ["c", "d"]])
        result = validate(deck)
        d1 = [v for v in result.violations if v.axiom == "D1"]
        assert len(d1) == 1
        assert d1[0].count == 0
        assert d1[0].cards == (0, 1)

    def test_double_overlap_breaks_d1(self):
        deck = normalize([["a", "b", "c"], ["a", "b", "d"], ["c", "d", "e"], ["c", "d", "f"]])
        result = validate(deck)
        overlaps = {v.cards: v.count for v in result.violations if v.axiom == "D1"}
        assert overlaps[(0, 1)] == 2
        assert overlaps[(2, 3)] == 2

    def test_non_uniform_sizes_break_d4(self):
        deck = normalize([["a", "b", "c"], ["a", "d"]])
        axioms = {v.axiom for v in validate(deck).violations}
        assert "D4" in axioms

    def test_single_symbol_cards_break_d3(self):
        deck = normalize([["a"], ["a"]])
        axioms = {v.axiom for v in validate(deck).violations}
        assert "D3" in axioms

    def test_single_card_deck_rejected(self):
        # with one card every symbol appears once, so D2 can never hold
        result = validate(normalize([["a", "b", "c"]]))
        assert not result.valid
        assert all(v.axiom == "D2" for v in result.violations)
        assert len(result.violations) == 3

    def test_no_symbols_breaks_d5(self):
        # normalize refuses an empty deck, so only a hand-built one reaches D5
        deck = Deck(cards=(), tokens=(), rows=(), stars=())
        assert validate(deck).violations == (Violation("D5", "the deck has no symbols", count=0),)

    def test_all_violations_reported_not_just_first(self):
        deck = normalize([["a", "b"], ["c", "d"], ["e", "f"]])
        result = validate(deck)
        assert len([v for v in result.violations if v.axiom == "D1"]) == 3
        assert len([v for v in result.violations if v.axiom == "D2"]) == 6

    def test_round_trip_keeps_verdict(self, fano):
        from spotdeck.formats import parse_deck_text, render_deck_text

        assert validate(parse_deck_text(render_deck_text(fano))).valid
        bad = normalize([["a", "b"], ["c", "d"]])
        assert not validate(parse_deck_text(render_deck_text(bad))).valid


def rows_of(deck):
    return [list(deck.card_tokens(i)) for i in range(deck.card_count)]


def corrupted(deck, card, position=0):
    """Replace one token of one card with a token no other card carries."""
    rows = rows_of(deck)
    rows[card][position] = "fresh"
    return normalize(rows)


def with_duplicate(deck, card):
    rows = rows_of(deck)
    return normalize(rows + [rows[card]])


SAMPLES = {
    "fano": partial(normalize, FANO_ROWS),
    "two_sym_3": partial(normalize, TWO_SYM_3_ROWS),
    "paired_4": partial(parse_deck_text, PAIRED_4_TEXT),
    "three_block": partial(normalize, THREE_BLOCK_ROWS),
    **{f"two_symmetric({n})": partial(build_two_symmetric, n) for n in range(2, 10)},
    **{
        f"grid_blocks({n},{k})": partial(build_grid_blocks, n, k)
        for n in range(3, 10)
        for k in range(2, max_blocks(n) + 1)
    },
    **{f"paired({n})": partial(build_paired, n) for n in range(3, 33) if is_prime(n - 1)},
}


def assert_matches_pairwise(deck):
    assert tuple(astuple(v) for v in validate(deck).violations) == pairwise_violations(deck)


@st.composite
def random_decks(draw):
    # a small symbol pool makes zero-overlap, multi-overlap and repeated cards common
    pool = draw(st.integers(min_value=1, max_value=8))
    symbols = st.integers(min_value=0, max_value=pool - 1)
    cards = draw(
        st.lists(st.lists(symbols, min_size=1, max_size=pool, unique=True), min_size=1, max_size=9)
    )
    return normalize(cards)


class TestValidateMatchesPairwise:
    """``validate`` must report exactly what the all-pairs oracle reports, in order."""

    @pytest.mark.parametrize("name", list(SAMPLES))
    def test_valid_sample(self, name):
        deck = SAMPLES[name]()
        assert_matches_pairwise(deck)
        assert validate(deck).valid

    @pytest.mark.parametrize("name", list(SAMPLES))
    def test_one_token_corruption(self, name):
        deck = SAMPLES[name]()
        card = deck.card_count // 2
        assert_matches_pairwise(corrupted(deck, card, card % deck.order))

    @pytest.mark.parametrize("name", list(SAMPLES))
    def test_duplicated_card(self, name):
        deck = SAMPLES[name]()
        assert_matches_pairwise(with_duplicate(deck, deck.card_count // 2))

    def test_card_with_a_good_multiplicity_sum_that_misses_a_card(self):
        """Swapping symbols 2 and 3 between two Fano lines keeps every multiplicity.

        Card 0 then meets card 3 twice and card 6 not at all, yet its
        symbols' multiplicities still sum to c + n - 1: only the cover of
        its stars shows the violations.
        """
        deck = normalize([(0, 1, 3), (0, 2, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5)])
        counts = [mask.bit_count() for mask in deck.stars]
        assert sum(counts[s] for s in deck.cards[0]) == deck.card_count + deck.order - 1
        assert_matches_pairwise(deck)
        assert [v.cards for v in validate(deck).violations] == [(0, 3), (0, 6), (1, 3), (1, 6)]

    @settings(max_examples=300, deadline=None)
    @given(random_decks())
    def test_random_decks(self, deck):
        assert_matches_pairwise(deck)


def assert_stars_match_sets(deck):
    """The cards, ``deck.stars``, the multiplicities, ``star`` and the alignment agree with the rows."""
    members = [set() for _ in range(deck.length)]
    partners = [set() for _ in range(deck.length)]
    for i, row in enumerate(deck.rows):
        assert deck.cards[i] == tuple(sorted(row))
        for s in row:
            members[s].add(i)
            partners[s].update(row)
    assert len(deck.cards) == len(deck.rows)
    assert deck.stars == tuple(sum(1 << i for i in cards) for cards in members)
    assert deck.aligned == tuple(sum(1 << t for t in others) for others in partners)
    assert multiplicities(deck).counts == tuple(len(cards) for cards in members)
    for s, cards in enumerate(members):
        assert star(deck, s) == tuple(sorted(cards))


def assert_gate_matches_validate(deck):
    """``require_valid`` raises exactly when ``validate`` reports a violation, and carries them all."""
    violations = validate(deck).violations
    if violations:
        with pytest.raises(InvalidDeckError) as err:
            require_valid(deck)
        assert err.value.violations == violations
    else:
        require_valid(deck)


class TestStars:
    @pytest.mark.parametrize("name", list(SAMPLES))
    def test_samples(self, name):
        deck = SAMPLES[name]()
        variants = (deck, corrupted(deck, deck.card_count // 2), with_duplicate(deck, 0))
        for variant in variants:
            assert_stars_match_sets(variant)
            assert_gate_matches_validate(variant)

    @settings(max_examples=300, deadline=None)
    @given(random_decks())
    def test_random_decks(self, deck):
        assert_stars_match_sets(deck)
        assert_gate_matches_validate(deck)

    def test_gate_cases(self):
        # D2 (a single card), D3 (one-symbol cards), D4 (mixed sizes) and D1
        # (two cards sharing both symbols) each raise
        for rows in (
            [["a", "b"]],
            [["a"], ["a"]],
            [["a", "b"], ["a", "b", "c"], ["b", "c"]],
            [["a", "b"], ["a", "b"]],
        ):
            with pytest.raises(InvalidDeckError):
                require_valid(normalize(rows))


def test_validate_at_scale():
    # paired(62) has 3783 cards; all card pairs would be about 7.2 million
    n = 62
    deck = build_paired(n)
    assert validate(deck).valid
    card = deck.card_count // 2
    replaced = deck.rows[card][0]
    bad = corrupted(deck, card)
    others = [j for j in range(deck.card_count) if j != card and replaced in deck.cards[j]]
    assert len(others) == n - 1
    violations = validate(bad).violations
    d1 = [v for v in violations if v.axiom == "D1"]
    d2 = [v for v in violations if v.axiom == "D2"]
    assert len(violations) == len(d1) + len(d2)
    assert [v.cards for v in d1] == sorted(tuple(sorted((card, j))) for j in others)
    assert all(v.count == 0 and v.symbols == () for v in d1)
    assert len(d2) == 1
    assert bad.tokens[d2[0].symbols[0]] == "fresh" and d2[0].count == 1


class TestAlignment:
    def test_alignment_matches_direct_count(self, fano, three_block):
        for deck in (fano, three_block):
            for s in range(deck.length):
                for t in range(deck.length):
                    together = sum(1 for card in deck.cards if s in card and t in card)
                    assert bool(deck.aligned[s] >> t & 1) == (together >= 1)
                    if s != t and together:
                        # two symbols never share two cards on a valid deck
                        assert together == 1

    def test_no_symbol_on_all_cards(self, fano, three_block, two_sym_3):
        for deck in (fano, three_block, two_sym_3):
            counts = multiplicities(deck).counts
            assert all(m < deck.card_count for m in counts)


class TestStar:
    def test_fano_star_of_5(self, fano):
        # token "5" got dense id 0
        result = star(fano, 0)
        assert result == (0, 1, 6)
        assert len(result) == 3

    def test_star_symbol_count_identity(self, fano, three_block):
        for deck in (fano, three_block):
            n = deck.order
            for s in range(deck.length):
                members = star(deck, s)
                seen = set()
                for i in members:
                    seen.update(deck.cards[i])
                assert len(seen) == len(members) * (n - 1) + 1

    def test_every_star_has_two_cards(self, fano, two_sym_3):
        for deck in (fano, two_sym_3):
            for s in range(deck.length):
                assert len(star(deck, s)) >= 2

    def test_out_of_range_symbol(self, fano):
        with pytest.raises(ValueError):
            star(fano, 7)
        with pytest.raises(ValueError):
            star(fano, -1)


class TestPartition:
    def test_fano_packs_match_figure(self, fano):
        packs = partition_by_card(fano, 6)
        assert packs == [(0, 1), (2, 3), (4, 5)]

    def test_packs_partition_everything(self, fano, three_block, two_sym_3):
        for deck in (fano, three_block, two_sym_3):
            for pivot in range(deck.card_count):
                packs = partition_by_card(deck, pivot)
                assert len(packs) == deck.order
                combined = [i for pack in packs for i in pack]
                assert sorted(combined) == [i for i in range(deck.card_count) if i != pivot]
                assert len(set(combined)) == len(combined)
                assert sum(len(pack) for pack in packs) == deck.card_count - 1

    def test_three_block_pack_sizes(self, three_block):
        # each card carries one multiplicity-6 block symbol and six
        # multiplicity-3 grid symbols
        for pivot in range(three_block.card_count):
            sizes = sorted(len(pack) for pack in partition_by_card(three_block, pivot))
            assert sizes == [2, 2, 2, 2, 2, 2, 5]

    def test_pack_size_is_multiplicity_minus_one(self, fano):
        counts = multiplicities(fano).counts
        for pivot in range(fano.card_count):
            packs = partition_by_card(fano, pivot)
            for s, pack in zip(fano.cards[pivot], packs):
                assert len(pack) == counts[s] - 1

    def test_bad_index(self, fano):
        with pytest.raises(ValueError):
            partition_by_card(fano, 7)
