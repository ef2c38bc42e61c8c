"""Construction tests: golden outputs, dimension formulas, and slope validity."""

from __future__ import annotations

import math
from itertools import combinations

import pytest

from bruteforce import deck_valid
from sample_decks import PAIRED_4_TEXT, THREE_BLOCK_TEXT
from spotdeck.analysis import classify, fundamental_number, multiplicities
from spotdeck.constructions import (
    COLUMNS,
    ROWS,
    RemovalInvalidError,
    UnsupportedConstructionError,
    build_blocks,
    build_grid_blocks,
    build_paired,
    build_two_symmetric,
    is_prime,
    max_blocks,
    remove_cards,
    smallest_prime_factor,
)
from spotdeck.deck import InvalidDeckError, normalize, validate
from spotdeck.enumeration import canonical_form
from spotdeck.formats import render_deck_text


class TestPrimeHelpers:
    def test_is_prime_small(self):
        primes = [n for n in range(2, 30) if is_prime(n)]
        assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_smallest_prime_factor(self):
        assert smallest_prime_factor(6) == 2
        assert smallest_prime_factor(9) == 3
        assert smallest_prime_factor(7) == 7

    def test_max_blocks(self):
        assert max_blocks(3) == 3  # q = 2 prime
        assert max_blocks(4) == 4  # q = 3 prime
        assert max_blocks(5) == 3  # q = 4, p = 2
        assert max_blocks(7) == 3  # q = 6, p = 2
        assert max_blocks(8) == 8  # q = 7 prime
        assert max_blocks(10) == 4  # q = 9, p = 3


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: smallest_prime_factor(1), "no prime factor below 2"),
        (lambda: max_blocks(2), "grid construction needs order >= 3"),
        (lambda: build_blocks(2, [ROWS, COLUMNS]), "grid construction needs order >= 3"),
        (lambda: build_blocks(6, [ROWS, 5]), "pace 5 outside 1..4"),
        (lambda: build_blocks(6, [ROWS, "diagonal"]), "unknown block 'diagonal'"),
        (lambda: build_grid_blocks(2, 2), "grid construction needs order >= 3"),
    ],
)
def test_argument_errors(call, message):
    with pytest.raises(ValueError) as caught:
        call()
    assert str(caught.value) == message


class TestTwoSymmetric:
    def test_order_3_matches_lettered_matrix(self, two_sym_3):
        built = build_two_symmetric(3)
        assert canonical_form(built) == canonical_form(two_sym_3)

    def test_order_2_is_the_triangle(self):
        deck = build_two_symmetric(2)
        assert deck.card_count == 3 == fundamental_number(2)
        assert validate(deck).valid

    def test_order_7_dimensions(self):
        deck = build_two_symmetric(7)
        assert deck.card_count == 8
        assert deck.length == 28
        assert multiplicities(deck).histogram == {2: 28}

    @pytest.mark.parametrize("n", range(2, 13))
    def test_formulas_and_validity(self, n):
        deck = build_two_symmetric(n)
        assert validate(deck).valid
        assert deck.order == n
        assert deck.card_count == n + 1
        assert deck.length == math.comb(n + 1, 2)
        tags = classify(deck)
        assert tags.symmetric and tags.symmetric_multiplicity == 2
        # the characterization identity c*n = l*M for the top multiplicity
        assert (n + 1) * n == math.comb(n + 1, 2) * 2

    def test_rejects_order_1(self):
        with pytest.raises(ValueError):
            build_two_symmetric(1)


class TestGridBlocks:
    def test_paired_4_golden_bytes(self):
        assert render_deck_text(build_paired(4)) == PAIRED_4_TEXT

    def test_three_block_golden_bytes(self):
        deck = build_grid_blocks(7, 3)
        assert render_deck_text(deck) == THREE_BLOCK_TEXT
        assert deck.card_count == 18
        assert deck.length == 39
        assert multiplicities(deck).histogram == {3: 36, 6: 3}
        assert {deck.tokens[s] for s in range(deck.length)} >= {"37", "38", "39"}

    def test_block_symbols_numbered_after_grid(self):
        deck = build_grid_blocks(7, 3)
        table = multiplicities(deck)
        for token in ("37", "38", "39"):
            s = deck.tokens.index(token)
            assert table.counts[s] == 6  # block symbols sit on all q cards of their block

    def test_slope_2_unavailable_mod_6(self):
        with pytest.raises(UnsupportedConstructionError) as err:
            build_grid_blocks(7, 4)
        assert "2" in str(err.value)

    def test_dimension_formulas(self):
        for n in range(3, 11):
            q = n - 1
            for k in range(2, max_blocks(n) + 1):
                deck = build_grid_blocks(n, k)
                assert validate(deck).valid
                assert deck.card_count == q * k
                assert deck.length == q * q + k
                assert deck.length == fundamental_number(n) - (n - k)
                assert multiplicities(deck).histogram == ({k: q * q, q: k} if k != q else {q: q * q + k})

    def test_cross_block_intersections(self):
        deck = build_grid_blocks(8, 4)
        q = 7
        for i in range(deck.card_count):
            for j in range(i + 1, deck.card_count):
                shared = set(deck.cards[i]) & set(deck.cards[j])
                assert len(shared) == 1
                symbol = shared.pop()
                if i // q == j // q:
                    # same block: the shared symbol is the block symbol
                    assert int(deck.tokens[symbol]) > q * q
                else:
                    assert int(deck.tokens[symbol]) <= q * q

    def test_block_count_bounds(self):
        with pytest.raises(ValueError):
            build_grid_blocks(4, 1)
        with pytest.raises(ValueError):
            build_grid_blocks(4, 5)


class TestExoticSlopes:
    def test_non_consecutive_units_mod_9_accepted(self):
        # paces 1 and 5 differ by 4, a unit mod 9, so the mix is fine
        deck = build_blocks(10, [ROWS, COLUMNS, 1, 5])
        assert validate(deck).valid
        assert deck.card_count == 9 * 4

    def test_colliding_pair_mod_9_rejected(self):
        # paces 2 and 5 differ by 3, which divides 9
        with pytest.raises(UnsupportedConstructionError):
            build_blocks(10, [ROWS, COLUMNS, 2, 5])

    def test_slope_sharing_factor_rejected(self):
        with pytest.raises(UnsupportedConstructionError):
            build_blocks(10, [ROWS, COLUMNS, 3])

    def test_slopes_without_columns_still_checked(self):
        deck = build_blocks(6, [ROWS, 1, 2])
        assert validate(deck).valid

    @pytest.mark.parametrize("n, blocks", [(5, [ROWS, 2]), (7, [ROWS, 2, 3]), (7, [2, 3])])
    def test_column_free_non_unit_paces_built(self, n, blocks):
        # without the columns only pace differences matter, not the paces themselves
        deck = build_blocks(n, blocks)
        assert validate(deck).valid
        assert deck.card_count == (n - 1) * len(blocks)

    def test_duplicate_blocks_rejected(self):
        with pytest.raises(ValueError):
            build_blocks(6, [ROWS, ROWS, 1])

    def test_at_least_two_blocks(self):
        with pytest.raises(ValueError):
            build_blocks(6, [ROWS])


def _independent_block_cards(q, blocks):
    """Grid cells by their geometric definition, each card tagged with its block."""
    cards = []
    for i, block in enumerate(blocks):
        for j in range(q):
            if block == ROWS:
                cells = {(j, col) for col in range(q)}
            elif block == COLUMNS:
                cells = {(r, j) for r in range(q)}
            else:
                cells = {(r, (j + block * r) % q) for r in range(q)}
            cards.append(cells | {("block", i)})
    return cards


@pytest.mark.parametrize("q", range(2, 10))
def test_blocks_built_exactly_when_valid(q):
    # every block subset of at least two: the construction and the axioms agree
    every_block = [ROWS, COLUMNS, *range(1, q)]
    for size in range(2, len(every_block) + 1):
        for blocks in combinations(every_block, size):
            valid = deck_valid(_independent_block_cards(q, blocks))
            try:
                deck = build_blocks(q + 1, blocks)
            except UnsupportedConstructionError:
                assert not valid, blocks
            else:
                assert valid, blocks
                assert deck.card_count == q * size and deck.length == q * q + size


class TestBuildPaired:
    def test_order_3_is_the_fano_class(self, fano):
        assert canonical_form(build_paired(3)) == canonical_form(fano)

    @pytest.mark.parametrize("n", [3, 4, 6, 8, 12])
    def test_paired_properties(self, n):
        deck = build_paired(n)
        assert validate(deck).valid
        delta = fundamental_number(n)
        assert deck.card_count == deck.length == delta
        tags = classify(deck)
        assert tags.paired
        assert tags.symmetric_multiplicity == n

    def test_prime_power_orders_unsupported(self):
        with pytest.raises(UnsupportedConstructionError):
            build_paired(9)  # 8 = 2^3 is not prime

    def test_order_2_out_of_grid_range(self):
        with pytest.raises(ValueError):
            build_paired(2)


class TestRemoveCards:
    def test_fano_minus_one(self, fano):
        trimmed = remove_cards(fano, [0])
        assert trimmed.card_count == 6
        assert trimmed.length == 7
        assert multiplicities(trimmed).histogram == {2: 3, 3: 4}

    def test_fano_minus_two_invalid(self, fano):
        # any two cards share a symbol whose multiplicity would drop to 1
        with pytest.raises(RemovalInvalidError) as err:
            remove_cards(fano, [0, 1])
        assert err.value.symbols == ("5",)

    def test_input_breaking_d1_is_an_invalid_deck(self):
        # cards 0 and 1 share a and b; the removal leaves no symbol on one card
        deck = normalize([list("abc"), list("abd"), list("aef"), list("ceg"), list("dfg"), list("beh")])
        with pytest.raises(InvalidDeckError) as err:
            remove_cards(deck, [5])
        assert str(err.value) == (
            "the deck is invalid: 5 violation(s), first: cards 0 and 1 share 2 symbols (a, b)"
        )

    def test_block_prefix_monotone(self):
        # dropping the pace-1 block of the 3-block deck gives the 2-block deck
        bigger = build_grid_blocks(7, 3)
        smaller = build_grid_blocks(7, 2)
        trimmed = remove_cards(bigger, range(12, 18))
        assert render_deck_text(trimmed) == render_deck_text(smaller)

    def test_bad_indices(self, fano):
        with pytest.raises(ValueError):
            remove_cards(fano, [])
        with pytest.raises(ValueError):
            remove_cards(fano, [9])
        with pytest.raises(ValueError):
            remove_cards(fano, range(7))
