"""Identity, bound, and classification tests against hand-counted fixtures."""

from __future__ import annotations

import random
from itertools import combinations

import pytest

import spotdeck
from sample_decks import IDENTITY_NAMES
from spotdeck.analysis import (
    ExistenceStatus,
    UnsupportedDeckError,
    bruck_ryser_excluded,
    check_identities,
    check_kn2_lemma,
    classify,
    find_common_triple,
    fundamental_number,
    idempotent_orders,
    multiplicities,
    paired_existence,
)
from spotdeck.constructions import build_paired, build_two_symmetric
from spotdeck.deck import InvariantViolation, validate


class TestMultiplicities:
    def test_fano_all_three(self, fano):
        table = multiplicities(fano)
        assert table.counts == (3,) * 7
        assert (table.lo, table.hi) == (3, 3)
        assert table.histogram == {3: 7}

    def test_three_block_histogram(self, three_block):
        table = multiplicities(three_block)
        assert table.histogram == {3: 36, 6: 3}
        assert (table.lo, table.hi) == (3, 6)

    def test_two_symmetric_order_3(self, two_sym_3):
        table = multiplicities(two_sym_3)
        assert table.counts == (2,) * 6


class TestIdentities:
    def test_fano_numbers(self, fano):
        report = check_identities(fano)
        assert report.card_sums == (9,) * 7  # c + n - 1 = 7 + 3 - 1
        assert report.square_sum == 63  # c * (c + n - 1)
        assert report.checks == IDENTITY_NAMES

    def test_three_block_numbers(self, three_block):
        report = check_identities(three_block)
        assert report.card_sums == (24,) * 18  # 18 + 7 - 1
        assert report.checks == IDENTITY_NAMES

    def test_single_multiplicity_mean_equality(self, fano, two_sym_3):
        # the mean inequality is tight exactly when all multiplicities agree
        for deck in (fano, two_sym_3):
            n, c, length = deck.order, deck.card_count, deck.length
            assert c * n * n == length * (c + n - 1)

    def test_names_are_stable(self, fano):
        # IDENTITY_NAMES spells out the 15 names in check order
        assert check_identities(fano).checks == IDENTITY_NAMES

    def test_identities_on_fixture_decks(self, fano, fano_minus_one, three_block, two_sym_3):
        for deck in (fano, fano_minus_one, three_block, two_sym_3):
            # raises InvariantViolation, naming each failed identity, if any fails
            assert check_identities(deck).checks == IDENTITY_NAMES

    def test_failed_identities_raise_in_check_order(self, fano, monkeypatch):
        # a wrong fundamental number breaks exactly the three checks that read it
        monkeypatch.setattr("spotdeck.analysis.fundamental_number", lambda n: n * n - n)
        with pytest.raises(InvariantViolation) as caught:
            check_identities(fano)
        assert str(caught.value) == (
            "identities fail on a valid deck: "
            "card_count_chain: chain n+1 <= n(lo-1)+1 <= c <= n(hi-1)+1 <= 6 broken (4, 7, 7, 7, 6); "
            "full_multiplicity_forces_length: a symbol has multiplicity n yet l = 7 != 6; "
            "symmetric_length_cap: single-multiplicity deck with l = 7 > 6"
        )


class TestClassify:
    def test_fano(self, fano):
        tags = classify(fano)
        assert tags.symmetric and tags.symmetric_multiplicity == 3
        assert tags.paired
        assert tags.length_vs_fundamental == "equal"
        assert tags.fundamental == 7
        assert tags.two_multiplicity_split is None

    def test_three_block(self, three_block):
        tags = classify(three_block)
        assert not tags.symmetric
        assert not tags.paired
        assert tags.length_vs_fundamental == "less"  # 39 < 43
        assert tags.two_multiplicity_split == (6, 1)

    def test_two_symmetric(self, two_sym_3):
        tags = classify(two_sym_3)
        assert tags.symmetric and tags.symmetric_multiplicity == 2
        assert not tags.paired  # 4*3 = 12 aligned pairs < C(6,2) = 15
        assert tags.length_vs_fundamental == "less"

    def test_fano_minus_one_split(self, fano_minus_one):
        tags = classify(fano_minus_one)
        # histogram {2: 3, 3: 4}: one low and two high symbols per card
        assert tags.two_multiplicity_split == (1, 2)

    def test_paired_implies_symmetric_with_full_counts(self, fano):
        tags = classify(fano)
        assert tags.paired
        assert tags.symmetric
        assert tags.symmetric_multiplicity == fano.order
        assert fano.card_count == fano.length == tags.fundamental


class TestFundamentalNumber:
    @pytest.mark.parametrize("n,expected", [(2, 3), (3, 7), (4, 13), (8, 57)])
    def test_values(self, n, expected):
        assert fundamental_number(n) == expected

    def test_rejects_small_orders(self):
        with pytest.raises(ValueError):
            fundamental_number(1)


class TestKn2Lemma:
    def test_every_five_card_subset_of_fano(self, fano):
        # k = 1, n = 3: any 5 cards carry a symbol on at least 3 of them
        for subset in combinations(range(7), 5):
            s = check_kn2_lemma(fano, list(subset), 1)
            hits = sum(1 for i in subset if s in fano.cards[i])
            assert hits >= 3
            # smallest qualifying id wins
            for smaller in range(s):
                assert sum(1 for i in subset if smaller in fano.cards[i]) < 3

    def test_dobble_mini_game_ten_cards(self):
        deck = build_paired(8)
        rng = random.Random(7)
        for _ in range(60):
            subset = rng.sample(range(deck.card_count), 10)
            s = check_kn2_lemma(deck, subset, 1)
            assert sum(1 for i in subset if s in deck.cards[i]) >= 3

    def test_wrong_subset_size(self, fano):
        with pytest.raises(ValueError):
            check_kn2_lemma(fano, [0, 1, 2, 3], 1)

    def test_not_enough_cards_in_deck(self, fano):
        # k*n+2 = 8 > 7 cards cannot be distinct indices
        with pytest.raises(ValueError):
            check_kn2_lemma(fano, [0, 1, 2, 3, 4, 5, 6, 6], 2)


class TestCommonTriple:
    def test_order_4_exhaustive(self):
        deck = build_paired(4)
        for subset in combinations(range(deck.card_count), 5):
            triple, single = find_common_triple(deck, list(subset))
            assert sum(1 for i in subset if triple in deck.cards[i]) >= 3
            assert sum(1 for i in subset if single in deck.cards[i]) == 1

    def test_order_6_sampled(self):
        deck = build_paired(6)
        rng = random.Random(11)
        for _ in range(60):
            subset = rng.sample(range(deck.card_count), 7)
            triple, single = find_common_triple(deck, subset)
            assert sum(1 for i in subset if triple in deck.cards[i]) >= 3
            assert sum(1 for i in subset if single in deck.cards[i]) == 1

    def test_dobble_nine_cards(self):
        deck = build_paired(8)
        rng = random.Random(3)
        for _ in range(40):
            subset = rng.sample(range(deck.card_count), 9)
            triple, _ = find_common_triple(deck, subset)
            assert sum(1 for i in subset if triple in deck.cards[i]) >= 3

    def test_repeated_index_counts_its_card_once(self):
        deck = build_paired(4)
        for subset in combinations(range(deck.card_count), 5):
            repeated = list(subset) + [subset[0]]
            assert find_common_triple(deck, repeated) == find_common_triple(deck, list(subset))

    def test_order_3_unsupported(self, fano):
        with pytest.raises(UnsupportedDeckError):
            find_common_triple(fano, [0, 1, 2, 3])

    def test_error_is_exported(self, fano):
        with pytest.raises(spotdeck.UnsupportedDeckError) as caught:
            find_common_triple(fano, [0, 1, 2, 3])
        assert type(caught.value) is spotdeck.UnsupportedDeckError is UnsupportedDeckError

    def test_all_multiplicity_2_unsupported(self):
        deck = build_two_symmetric(5)
        with pytest.raises(UnsupportedDeckError):
            find_common_triple(deck, [0, 1, 2, 3, 4, 5])

    def test_wrong_count(self):
        deck = build_paired(4)
        with pytest.raises(ValueError):
            find_common_triple(deck, [0, 1, 2])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: check_kn2_lemma(build_paired(3), [0, 1], 0), "k must be a positive integer"),
        (lambda: check_kn2_lemma(build_paired(3), [0, 1, 2, 3, 9], 1), "card index out of range"),
        (lambda: find_common_triple(build_paired(4), [0, 1, 2, 3, 99]), "card index out of range"),
        (lambda: bruck_ryser_excluded(2), "the criterion applies from order 3 on"),
        (lambda: paired_existence(1), "order must be at least 2"),
    ],
)
def test_argument_errors(call, message):
    with pytest.raises(ValueError) as caught:
        call()
    assert str(caught.value) == message


class TestIdempotentOrders:
    def test_prime_modulus(self):
        assert idempotent_orders(5, range(2, 13)) == [5, 6, 10, 11]

    def test_composite_modulus(self):
        assert idempotent_orders(6, range(0, 6)) == [0, 1, 3, 4]

    def test_order_7_not_idempotent_mod_4(self):
        # no deck of order 7 can have every symbol on exactly 4 cards
        assert 7 not in idempotent_orders(4, range(2, 13))

    def test_matches_direct_square_test(self):
        for modulus in range(2, 12):
            expected = [n for n in range(0, 40) if (n * n) % modulus == n % modulus]
            assert idempotent_orders(modulus, range(0, 40)) == expected

    def test_bad_modulus(self):
        with pytest.raises(ValueError):
            idempotent_orders(1, range(5))


class TestBruckRyser:
    @pytest.mark.parametrize("n", [7, 15, 22, 23])
    def test_excluded_orders(self, n):
        assert bruck_ryser_excluded(n)

    def test_order_11_not_excluded_here(self):
        # 10 = 1 + 9 is a sum of two squares
        assert not bruck_ryser_excluded(11)

    def test_order_4_congruence_fails(self):
        # 3 is 3 mod 4, so the criterion does not apply
        assert not bruck_ryser_excluded(4)

    def test_against_direct_definition(self):
        for n in range(3, 60):
            big_n = n - 1
            two_squares = any(
                a * a + b * b == big_n for a in range(big_n + 1) for b in range(a, big_n + 1)
            )
            expected = big_n % 4 in (1, 2) and not two_squares
            assert bruck_ryser_excluded(n) == expected


class TestPairedExistence:
    def test_order_8_exists_with_dobble_witness(self):
        result = paired_existence(8)
        assert result.status is ExistenceStatus.EXISTS
        assert result.witness is not None
        assert result.witness.card_count == 57
        assert validate(result.witness).valid
        assert classify(result.witness).paired

    def test_order_7_excluded(self):
        assert paired_existence(7).status is ExistenceStatus.EXCLUDED_BRUCK_RYSER

    def test_order_11_known_fact(self):
        assert paired_existence(11).status is ExistenceStatus.EXCLUDED_KNOWN

    def test_order_13_unknown(self):
        assert paired_existence(13).status is ExistenceStatus.UNKNOWN

    def test_order_2_triangle(self):
        result = paired_existence(2)
        assert result.status is ExistenceStatus.EXISTS
        assert result.witness.card_count == 3
        assert classify(result.witness).paired

    def test_witnesses_verify(self):
        for n in (3, 4, 6):
            result = paired_existence(n)
            assert result.status is ExistenceStatus.EXISTS
            tags = classify(result.witness)
            assert tags.paired
            assert result.witness.card_count == fundamental_number(n)
