"""Maximality tests: sufficient conditions, exact search, and completion."""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from bruteforce import exact_hitting_sets
from spotdeck import maximality
from spotdeck.analysis import multiplicities
from spotdeck.constructions import (
    RemovalInvalidError,
    build_grid_blocks,
    build_paired,
    build_two_symmetric,
    remove_cards,
)
from spotdeck.deck import normalize, validate
from spotdeck.enumeration import canonical_form, enumerate_decks
from spotdeck.maximality import (
    _transversals,
    complete,
    find_extension,
    is_maximal,
    prop_condition_holds,
    sufficient_maximal,
)


def brute_force_extensions(deck):
    """All n-subsets of symbols hitting every card exactly once, by raw search."""
    hits = []
    for subset in combinations(range(deck.length), deck.order):
        if all(sum(1 for s in subset if s in card) == 1 for card in deck.cards):
            hits.append(tuple(subset))
    return hits


class TestSufficient:
    def test_fano(self, fano):
        assert sufficient_maximal(fano)  # 3+3+3 = 9 > 7

    def test_three_block(self, three_block):
        assert sufficient_maximal(three_block)  # 7 * 3 = 21 > 18

    def test_fano_minus_one(self, fano_minus_one):
        assert not sufficient_maximal(fano_minus_one)  # 2+2+2 = 6 = c


class TestPropCondition:
    def test_three_block(self, three_block):
        assert prop_condition_holds(three_block)

    def test_fano_minus_one(self, fano_minus_one):
        # the three multiplicity-2 symbols sum exactly to c = 6
        assert not prop_condition_holds(fano_minus_one)

    def test_sufficient_implies_prop(self, fano, three_block, two_sym_3):
        for deck in (fano, three_block, two_sym_3):
            if sufficient_maximal(deck):
                assert prop_condition_holds(deck)

    def test_matches_brute_force_tuples(self, fano, fano_minus_one, two_sym_3):
        for deck in (fano, fano_minus_one, two_sym_3):
            counts = multiplicities(deck).counts
            exists = any(
                sum(counts[s] for s in subset) == deck.card_count
                for subset in combinations(range(deck.length), deck.order)
            )
            assert prop_condition_holds(deck) == (not exists)


def transversal_decks(request):
    """The fixtures, two-symmetric(4), grid(4,3) and grid(4,3) minus each card.

    Also a partial state of the order-2 census, three cards through one
    symbol, where three symbols (more than n) partition the cards.
    """
    decks = [request.getfixturevalue(name) for name in ("fano", "fano_minus_one", "three_block", "two_sym_3")]
    grid = build_grid_blocks(4, 3)
    decks += [build_two_symmetric(4), grid, normalize([["a", "b"], ["a", "c"], ["a", "d"]])]
    decks += [remove_cards(grid, [i]) for i in range(grid.card_count)]
    return decks


def run_transversals(deck):
    """The sets ``_transversals`` yields, in order."""
    return list(_transversals(deck.cards, deck.stars, deck.order))


class TestTransversals:
    def test_visits_every_exact_hitting_set_once(self, request):
        full_size = set()
        for deck in transversal_decks(request):
            visited = run_transversals(deck)
            expected = exact_hitting_sets(deck.cards, deck.length, deck.order)
            assert len(visited) == len(set(map(frozenset, visited)))
            assert set(map(frozenset, visited)) == set(expected)
            full_size |= {len(chosen) == deck.order for chosen in visited}
        # the decks exercise both sets of n symbols and shorter ones
        assert full_size == {False, True}


def trimmed_decks():
    """Seeded random removals of 1-3 cards from paired and grid decks.

    Removals that leave a symbol on one card are skipped.  Two-symmetric
    decks are not drawn: every symbol sits on two cards, so every removal
    breaks D2.
    """
    rng = random.Random(8)
    bases = [build_paired(n) for n in (3, 4, 6)]
    bases += [build_grid_blocks(n, k) for n in (4, 6, 8) for k in range(3, n + 1)]
    decks = []
    for base in bases:
        for _ in range(5):
            removed = rng.sample(range(base.card_count), rng.randint(1, 3))
            try:
                decks.append(remove_cards(base, removed))
            except RemovalInvalidError:
                pass
    return decks


class TestSumProof:
    """The subset-sum proof that ``find_extension`` starts with, against the search.

    ``find_extension`` returns ``None`` without searching on a deck the
    subset-sum test proves maximal.
    """

    def test_search_finds_no_extension_on_proved_decks(self, fano, three_block):
        proved = [fano, three_block, build_grid_blocks(9, 2), build_grid_blocks(10, 3), build_two_symmetric(11)]
        for deck in proved:
            assert prop_condition_holds(deck)
            visited = run_transversals(deck)
            assert all(len(chosen) < deck.order for chosen in visited)

    @pytest.mark.parametrize("n", [12, 14, 18])
    def test_large_proved_grids(self, n):
        verdict = is_maximal(build_grid_blocks(n, 2))
        assert verdict.prop_condition
        assert verdict.exact and verdict.extension is None

    def test_witness_is_the_first_full_set_visited(self):
        decks = trimmed_decks()
        assert len(decks) >= 50
        outcomes = set()
        for deck in decks:
            visited = run_transversals(deck)
            full = [chosen for chosen in visited if len(chosen) == deck.order]
            extension = find_extension(deck)
            assert extension == (full[0] if full else None)
            outcomes.add(extension is None)
        # the decks exercise both the search and the sum proof
        assert outcomes == {False, True}


class TestFindExtension:
    def test_fano_has_none(self, fano):
        assert find_extension(fano) is None

    def test_fano_minus_any_card_recovers_it(self, fano):
        for removed in range(7):
            trimmed = remove_cards(fano, [removed])
            extension = find_extension(trimmed)
            assert extension is not None
            recovered = {trimmed.tokens[s] for s in extension}
            assert recovered == set(fano.card_tokens(removed))

    def test_matches_brute_force(self, fano, fano_minus_one, two_sym_3):
        for deck in (fano, fano_minus_one, two_sym_3):
            brute = brute_force_extensions(deck)
            found = find_extension(deck)
            if brute:
                assert found is not None
                assert found == min(brute)
            else:
                assert found is None

    def test_two_symmetric_has_none(self):
        assert find_extension(build_two_symmetric(4)) is None

    def test_extension_symbols_pairwise_non_aligned(self, fano_minus_one):
        extension = find_extension(fano_minus_one)
        for s in extension:
            for t in extension:
                if s != t:
                    assert not fano_minus_one.aligned[s] >> t & 1

    def test_extension_stars_partition_the_deck(self, fano_minus_one):
        extension = find_extension(fano_minus_one)
        counts = multiplicities(fano_minus_one).counts
        assert sum(counts[s] for s in extension) == fano_minus_one.card_count

    def test_all_blocks_without_pivot_extends_by_the_pivot(self):
        # with every block present but no pivot card, the block symbols
        # themselves form the unique missing card
        for n in (3, 4, 6):
            q = n - 1
            deck = build_grid_blocks(n, q + 1)
            extension = find_extension(deck)
            assert extension is not None
            tokens = {deck.tokens[s] for s in extension}
            assert tokens == {str(q * q + i + 1) for i in range(q + 1)}


class TestIsMaximal:
    def test_full_dobble_deck_cannot_be_expanded(self):
        deck = build_paired(8)
        assert deck.card_count == 57
        verdict = is_maximal(deck)
        assert verdict.exact and verdict.extension is None

    def test_fano_minus_one(self, fano_minus_one):
        verdict = is_maximal(fano_minus_one)
        assert not verdict.exact
        assert verdict.extension is not None
        assert not verdict.sufficient_corollary
        assert not verdict.prop_condition

    def test_subset_sum_runs_again_only_without_an_extension(
        self, fano, fano_minus_one, three_block, two_sym_3, monkeypatch
    ):
        # an extension card's multiplicities sum to c, so once find_extension
        # returns one the subset-sum condition fails without a second run
        decks = [fano, fano_minus_one, three_block, two_sym_3, build_paired(8), *trimmed_decks()]
        decks += [form.to_deck() for order in (2, 3, 4) for form in enumerate_decks(order).forms]
        expected = [
            (sufficient_maximal(deck), prop_condition_holds(deck), find_extension(deck)) for deck in decks
        ]
        calls = []
        original = maximality.prop_condition_holds
        monkeypatch.setattr(maximality, "prop_condition_holds", lambda deck: calls.append(deck) or original(deck))
        for deck, fields in zip(decks, expected):
            calls.clear()
            verdict = is_maximal(deck)
            assert (verdict.sufficient_corollary, verdict.prop_condition, verdict.extension) == fields
            assert len(calls) == (2 if verdict.exact else 1)
        assert {fields[2] is None for fields in expected} == {False, True}

    def test_triangle_is_maximal(self):
        verdict = is_maximal(build_two_symmetric(2))
        assert verdict.exact

    def test_implication_chain_on_fixtures(self, fano, fano_minus_one, three_block, two_sym_3):
        for deck in (fano, fano_minus_one, three_block, two_sym_3):
            verdict = is_maximal(deck)
            if verdict.sufficient_corollary:
                assert verdict.prop_condition
            if verdict.prop_condition:
                # the sum proof against the unbounded search: no n symbols partition the cards
                visited = run_transversals(deck)
                assert all(len(chosen) < deck.order for chosen in visited)
            # the verdict against the brute-force oracle: is there a size-n exact hitting set?
            hitting = exact_hitting_sets(deck.cards, deck.length, deck.order)
            assert verdict.exact == all(len(h) < deck.order for h in hitting)


class TestComplete:
    def test_fano_minus_one_restores_fano(self, fano, fano_minus_one):
        result = complete(fano_minus_one)
        assert result.maximal
        assert result.steps == 1
        assert canonical_form(result.deck) == canonical_form(fano)

    def test_already_maximal_unchanged(self, fano):
        result = complete(fano)
        assert result.maximal
        assert result.steps == 0
        assert result.deck == fano

    def test_grid_4_2_already_maximal(self):
        deck = build_grid_blocks(4, 2)
        result = complete(deck)
        assert result.maximal and result.steps == 0
        assert result.deck.card_count == 6

    def test_budget_exhaustion_flagged(self, fano_minus_one):
        result = complete(fano_minus_one, max_steps=0)
        assert not result.maximal
        assert result.steps == 0
        assert result.deck == fano_minus_one

    def test_multi_step_completion(self):
        # dropping two cards of the order-4 full deck keeps it valid
        # (their shared symbol still sits on two cards) and completion
        # regrows both
        full = build_paired(4)
        trimmed = remove_cards(full, [0, 1])
        result = complete(trimmed)
        assert result.maximal
        assert result.steps == 2
        assert validate(result.deck).valid
        assert canonical_form(result.deck) == canonical_form(full)

    def test_appended_card_matches_renormalizing(self, monkeypatch):
        # _with_card appends the card to the parent deck; normalize builds the
        # same deck from the parent's token rows plus the new row
        with_card = maximality._with_card
        steps = 0

        def checked(deck, symbols):
            nonlocal steps
            extended = with_card(deck, symbols)
            rows = [deck.card_tokens(i) for i in range(deck.card_count)]
            rows.append(tuple(deck.tokens[s] for s in sorted(symbols)))
            assert extended == normalize(rows)
            steps += 1
            return extended

        monkeypatch.setattr(maximality, "_with_card", checked)
        for deck in trimmed_decks():
            assert complete(deck).maximal
        assert steps >= 100


class TestNecessityQuestion:
    def test_no_counterexamples_claimed(self, fano, fano_minus_one, three_block, two_sym_3):
        # whether the subset-sum condition is necessary is open; the verdict
        # records candidates without asserting either direction
        for deck in (fano, fano_minus_one, three_block, two_sym_3):
            verdict = is_maximal(deck)
            assert verdict.necessity_open == (not verdict.prop_condition and verdict.exact)
