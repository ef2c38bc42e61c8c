"""Canonical labeling and exhaustive generation tests, checked against brute force."""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

import spotdeck.enumeration as enumeration
from bruteforce import all_normal_decks, are_isomorphic, brute_min_form, iso_classes, orderly_states
from sample_decks import IDENTITY_NAMES, TWO_SYM_3_ROWS
from spotdeck.analysis import check_identities, fundamental_number
from spotdeck.constructions import build_grid_blocks, build_two_symmetric, remove_cards
from spotdeck.deck import normalize, validate
from spotdeck.enumeration import (
    canonical_form,
    census,
    enumerate_decks,
    probe_length_conjecture,
)

DATA = Path(__file__).parent / "data"


def permuted(deck, seed):
    """Relabel symbols and shuffle card order at random; the class is unchanged."""
    rng = random.Random(seed)
    names = list(deck.tokens)
    rng.shuffle(names)
    rows = [[names[s] for s in deck.rows[i]] for i in range(deck.card_count)]
    rng.shuffle(rows)
    return normalize(rows)


class TestCanonicalForm:
    def test_matches_brute_force_minimum(self, fano, fano_minus_one, two_sym_3):
        for deck in (fano, fano_minus_one, two_sym_3, build_two_symmetric(2)):
            assert canonical_form(deck).cards == brute_min_form(deck.cards, deck.length)

    def test_invariant_under_relabeling(self, fano):
        reference = canonical_form(fano)
        for seed in range(20):
            assert canonical_form(permuted(fano, seed)) == reference

    def test_idempotent(self, fano, two_sym_3):
        for deck in (fano, two_sym_3):
            form = canonical_form(deck)
            assert canonical_form(form.to_deck()) == form

    def test_two_symmetric_equals_lettered_matrix(self):
        built = build_two_symmetric(3)
        lettered = normalize(TWO_SYM_3_ROWS)
        assert canonical_form(built) == canonical_form(lettered)

    def test_grid_3_2_is_the_two_symmetric_class(self):
        # rows+columns over a 2x2 grid is another all-multiplicity-2 deck of order 3
        assert canonical_form(build_grid_blocks(3, 2)) == canonical_form(build_two_symmetric(3))

    def test_different_histograms_different_forms(self, fano, fano_minus_one):
        assert canonical_form(fano) != canonical_form(fano_minus_one)

    def test_digest_is_stable(self, fano):
        a = canonical_form(fano)
        b = canonical_form(permuted(fano, 99))
        assert a.digest() == b.digest()
        assert len(a.digest()) == 12


class TestEnumerate:
    def test_order_2_single_class(self):
        result = enumerate_decks(2, 10)
        assert result.complete
        assert len(result.forms) == 1
        triangle = result.forms[0]
        assert triangle.cards == ((0, 1), (0, 2), (1, 2))
        assert (triangle.card_count, triangle.length) == (3, 3)

    def test_order_3_classes(self, fano, two_sym_3):
        result = enumerate_decks(3, 7)
        assert result.complete
        by_cards = {}
        for form in result.forms:
            by_cards.setdefault(form.card_count, []).append(form)
        assert sorted(by_cards) == [4, 6, 7]
        assert all(len(v) == 1 for v in by_cards.values())
        # no deck of order 3 exists with 2, 3 or 5 cards
        assert 5 not in by_cards and 2 not in by_cards and 3 not in by_cards
        assert by_cards[4][0] == canonical_form(two_sym_3)
        assert by_cards[7][0] == canonical_form(fano)
        assert all(form.length <= 7 for form in result.forms)

    def test_emitted_decks_are_valid_canonical_and_sound(self):
        result = enumerate_decks(3, 7)
        for form in result.forms:
            deck = form.to_deck()
            assert validate(deck).valid
            assert canonical_form(deck) == form
            assert check_identities(deck).checks == IDENTITY_NAMES

    def test_no_two_emitted_decks_isomorphic(self):
        result = enumerate_decks(3, 7)
        forms = [list(form.cards) for form in result.forms]
        for i in range(len(forms)):
            for j in range(i + 1, len(forms)):
                assert not are_isomorphic(forms[i], forms[j])

    def test_agrees_with_unpruned_oracle(self):
        # the oracle generates every normal-form deck and groups classes by
        # explicit bijection search; the generator must match one for one
        for order, c_max in ((2, 3), (3, 7)):
            oracle = iso_classes(all_normal_decks(order, c_max))
            result = enumerate_decks(order, c_max)
            assert len(result.forms) == len(oracle)
            for members in oracle:
                matches = [
                    form for form in result.forms if are_isomorphic(members[0], list(form.cards))
                ]
                assert len(matches) == 1

    def test_node_count_matches_oracle_states(self, monkeypatch):
        # the walk visits the normal-form states of the oracle's orderly walk,
        # which stops below states the unpruned search finds non-canonical;
        # every state but the one-card root asks one canonicity question, and
        # `nodes` counts the states plus the search nodes of those proofs
        checked = enumeration._is_self_canonical
        for order, c_max, states, nodes in ((2, 3, 5, 27), (3, 7, 30, 398), (4, 5, 162, 2693)):
            questions = []

            def counting(*args):
                questions.append(args)
                return checked(*args)

            monkeypatch.setattr(enumeration, "_is_self_canonical", counting)
            assert enumerate_decks(order, c_max).nodes == nodes
            assert 1 + len(questions) == states
            assert sum(1 for _ in orderly_states(order, c_max)) == states

    def test_budget_truncation(self):
        result = enumerate_decks(3, 7, node_budget=3)
        assert not result.complete
        assert result.nodes == 3

    def test_budget_exhausted_at_every_node(self):
        # the budget runs out at a state or inside a canonicity proof,
        # depending on where the walk is; either way the run stops there
        full = enumerate_decks(3, 7)
        assert full.complete and full.nodes == 398
        for budget in range(1, full.nodes):
            result = enumerate_decks(3, 7, node_budget=budget)
            assert result.nodes == budget
            assert not result.complete
            assert set(result.forms) <= set(full.forms)
        assert enumerate_decks(3, 7, node_budget=full.nodes) == full

    def test_budget_bounds_canonicity_proofs(self):
        # a single canonicity proof on an order-5 partial deck can run for
        # minutes; its search nodes spend the same budget, so a small budget
        # stops the walk at once
        result = enumerate_decks(5, 21, node_budget=1000)
        assert not result.complete
        assert result.nodes == 1000
        assert result.forms == ()

    def test_budgeted_run_stops_pulling_candidates(self, monkeypatch):
        # next cards are pulled from the exact-cover search one at a time, so
        # a run stops pulling them when its budget runs out; at these orders
        # the first few states of the walk have tens of thousands to millions
        # of candidates between them
        transversals = enumeration._transversals
        pulled = 0

        def counting(*args):
            nonlocal pulled
            for chosen in transversals(*args):
                pulled += 1
                yield chosen

        monkeypatch.setattr(enumeration, "_transversals", counting)
        for order in (6, 7, 8):
            pulled = 0
            result = enumerate_decks(order, fundamental_number(order), node_budget=300)
            assert result.complete is False
            assert result.nodes == 300
            assert pulled < 100

    def test_deterministic(self):
        a = enumerate_decks(3, 7)
        b = enumerate_decks(3, 7)
        assert a == b

    def test_bad_arguments(self):
        for run in (lambda: enumerate_decks(1), lambda: enumerate_decks(1, 5), lambda: census(1)):
            with pytest.raises(ValueError, match=r"^order must be at least 2$"):
                run()
        with pytest.raises(ValueError):
            enumerate_decks(3, 0)

    def test_default_cap_is_the_fundamental_number(self):
        for order in (2, 3):
            result = enumerate_decks(order)
            assert result.max_cards == fundamental_number(order)
            assert result == enumerate_decks(order, fundamental_number(order))
        assert enumerate_decks(4, node_budget=50).max_cards == 13
        for cap in (1, 4, 30):
            assert enumerate_decks(3, cap).max_cards == cap

    def test_negative_budget_rejected(self):
        # a negative budget is an error, not an unlimited or an empty run
        with pytest.raises(ValueError, match="node_budget must not be negative"):
            enumerate_decks(3, 7, node_budget=-5)
        with pytest.raises(ValueError, match="node_budget must not be negative"):
            census(3, node_budget=-1)
        with pytest.raises(ValueError, match="node_budget must not be negative"):
            probe_length_conjecture(3, node_budget=-1)


class TestCensus:
    def test_order_2_entry(self):
        report = census(2)
        assert report.complete
        assert len(report.entries) == 1
        entry = report.entries[0]
        assert (entry.order, entry.card_count, entry.length) == (2, 3, 3)
        assert entry.histogram == ((2, 3),)
        assert entry.symmetric and entry.paired and entry.maximal
        assert report.collisions == ()

    def test_order_3_against_golden_file(self):
        golden = json.loads((DATA / "census_n3.json").read_text())
        report = census(3)
        assert report.complete
        assert len(report.entries) == golden["class_count"]
        got = sorted(
            (e.card_count, e.length, {str(m): k for m, k in e.histogram})
            for e in report.entries
        )
        expected = sorted(
            (row["card_count"], row["length"], row["histogram"]) for row in golden["classes"]
        )
        assert got == expected
        assert [list(t) for t, _ in report.collisions] == golden["collisions"]

    def test_classes_sharing_a_key_are_counted_and_collide(self, monkeypatch):
        # no two classes of orders 2-4 share a key, so the walk is stubbed to
        # return the 7-card class of order 3 twice
        form = enumerate_decks(3).forms[-1]
        twice = enumeration.EnumerationResult(forms=(form, form), complete=True, nodes=2, max_cards=7)
        monkeypatch.setattr(enumeration, "enumerate_decks", lambda *args: twice)
        report = census(3)
        assert [e.classes_with_key for e in report.entries] == [2, 2]
        assert report.collisions == (((3, 7, 7), (form.digest(), form.digest())),)
        assert (report.complete, report.nodes) == (True, 2)

    def test_order_3_flags(self, fano):
        report = census(3)
        flags = {e.card_count: (e.symmetric, e.paired, e.maximal) for e in report.entries}
        assert flags[4] == (True, False, True)
        assert flags[6] == (False, False, False)  # grows back into the 7-card deck
        assert flags[7] == (True, True, True)

    def test_runs_are_identical(self):
        assert census(3) == census(3)


class TestLengthProbe:
    def test_order_2_exhaustive_no_witness(self):
        report = probe_length_conjecture(2)
        assert report.verdict == "exhausted"
        assert report.witness is None
        assert report.max_length == 3 == report.fundamental

    def test_order_3_exhaustive_no_witness(self):
        report = probe_length_conjecture(3)
        assert report.verdict == "exhausted"
        assert report.witness is None
        assert report.max_length <= report.fundamental

    def test_truncated_run_is_inconclusive(self):
        report = probe_length_conjecture(4, node_budget=25)
        assert report.verdict == "budget-truncated"
        assert not report.exhausted
        assert report.witness is None

    def test_order_4_exhaustive_no_witness(self):
        # the paper's order-4 answer: no deck is longer than its fundamental number 13
        report = probe_length_conjecture(4)
        assert report.verdict == "exhausted"
        assert report.witness is None
        assert report.max_length == 13 == report.fundamental
        assert report.classes_seen == 9


class TestOrderFour:
    """Exhaustive order-4 run, frozen from the generator's own complete search.

    The unpruned oracle's bijection grouping is infeasible at 13 symbols, so
    unlike orders 2 and 3 the class table is regression-frozen, not
    oracle-frozen; every emitted deck is still independently re-validated,
    and ``test_canonical_search.py`` checks every emitted form and every
    rejecting canonicity verdict against the unpruned lex-min search.
    """

    def test_full_run(self):
        from spotdeck.analysis import multiplicities

        result = enumerate_decks(4, 13, node_budget=100_000)
        assert result.complete
        # 9 classes from 291 visited states and 20,166 search nodes of their
        # canonicity proofs; without the orderly pruning the walk visits all
        # 46,886 normal-form states
        assert result.nodes == 20_457
        table = []
        triples = set()
        for form in result.forms:
            deck = form.to_deck()
            assert validate(deck).valid
            assert check_identities(deck).checks == IDENTITY_NAMES
            assert form.length <= fundamental_number(4)
            table.append((form.card_count, form.length, multiplicities(deck).histogram))
            triples.add((form.card_count, form.length))
        assert sorted(table) == [
            (5, 10, {2: 10}),
            (6, 11, {2: 9, 3: 2}),
            (8, 12, {2: 4, 3: 8}),
            (9, 12, {3: 12}),
            (9, 13, {2: 6, 3: 4, 4: 3}),
            (10, 13, {2: 3, 3: 6, 4: 4}),
            (11, 13, {2: 1, 3: 6, 4: 6}),
            (12, 13, {3: 4, 4: 9}),
            (13, 13, {4: 13}),
        ]
        # the (order, cards, length) triple stays unique through order 4
        assert len(triples) == len(result.forms)


class TestOrderFive:
    def test_up_to_six_cards(self, monkeypatch):
        """Order 5 up to 6 cards: one class, six cards any two of which share a symbol of their own.

        The proofs on these highly symmetric partial decks are long and full
        of leaves tied with the seed, so a jump back that stops short shows in
        the node count and one that goes too far can lose the class.  The
        form and the 1,865 states are frozen from a run without the seeded
        jump back, which took 75,727 nodes.
        """
        checked = enumeration._is_self_canonical
        questions = []

        def counting(*args):
            questions.append(args)
            return checked(*args)

        monkeypatch.setattr(enumeration, "_is_self_canonical", counting)
        result = enumerate_decks(5, 6)
        assert result.complete
        assert 1 + len(questions) == 1865
        assert result.nodes == 54_554
        assert [form.cards for form in result.forms] == [
            ((0, 1, 2, 3, 4), (0, 5, 6, 7, 8), (1, 5, 9, 10, 11), (2, 6, 9, 12, 13), (3, 7, 10, 12, 14), (4, 8, 11, 13, 14))
        ]


class TestNormalFormTheory:
    def test_canonical_form_is_itself_normal_form(self, fano, fano_minus_one):
        # reading the canonical card list row by row, symbols appear in
        # first-use order, which is what makes the orderly filter complete
        for deck in (fano, fano_minus_one, build_two_symmetric(4), remove_cards(build_grid_blocks(4, 3), [0])):
            form = canonical_form(deck)
            seen: list[int] = []
            for card in form.cards:
                for s in card:
                    if s not in seen:
                        seen.append(s)
            assert seen == sorted(seen)
            assert list(form.cards) == sorted(form.cards)

    def test_next_cards_come_out_in_increasing_order(self, monkeypatch):
        # the walk visits each next card as the exact-cover search yields it,
        # with no sort: on every state it expands the yielded sets are sorted,
        # the padded cards strictly increase, and those at or below the last
        # card come first.  A change to the search's branching order shows here
        transversals = enumeration._transversals
        expanded = []

        def recording(cards, stars, n):
            expanded.append((list(cards), list(stars)))
            return transversals(cards, stars, n)

        monkeypatch.setattr(enumeration, "_transversals", recording)
        skipped = 0  # cards at or below the last card, over all the expanded states
        for order, c_max in ((2, 3), (3, 7), (4, 13), (5, 6)):
            expanded.clear()
            assert enumerate_decks(order, c_max).complete
            assert expanded
            for cards, stars in expanded:
                used = len(stars)
                padded = []
                for chosen in transversals(cards, stars, order):
                    assert list(chosen) == sorted(chosen)
                    padded.append(chosen + tuple(range(used, used + order - len(chosen))))
                assert all(a < b for a, b in zip(padded, padded[1:]))
                above = [card > cards[-1] for card in padded]
                assert above == sorted(above)
                skipped += above.count(False)
        assert skipped > 0
