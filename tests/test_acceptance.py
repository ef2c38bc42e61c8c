"""Acceptance suite: one test per numbered criterion, each timed and printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  All numeric assertions are integer-exact; the stated wall-clock
limits are asserted, not aspirational.
"""

from __future__ import annotations

import time

from bruteforce import all_normal_decks, are_isomorphic, iso_classes
from sample_decks import FANO_TEXT, IDENTITY_NAMES, PAIRED_4_TEXT, THREE_BLOCK_TEXT
from spotdeck.analysis import (
    ExistenceStatus,
    bruck_ryser_excluded,
    check_identities,
    classify,
    multiplicities,
    paired_existence,
)
from spotdeck.constructions import (
    build_grid_blocks,
    build_paired,
    build_two_symmetric,
    is_prime,
    max_blocks,
    remove_cards,
)
from spotdeck.deck import validate
from spotdeck.enumeration import canonical_form, enumerate_decks, probe_length_conjecture
from spotdeck.formats import parse_deck_text, render_deck_text
from spotdeck.maximality import complete, find_extension, is_maximal


def _finish(number: int, started: float, limit: float, note: str) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < limit, f"criterion {number} took {elapsed:.2f}s, limit {limit}s"
    print(f"ACCEPTANCE {number}: PASS ({elapsed:.2f}s) {note}")


def test_criterion_1_fano_fixture():
    started = time.perf_counter()
    deck = parse_deck_text(FANO_TEXT)
    assert validate(deck).valid
    assert (deck.order, deck.card_count, deck.length) == (3, 7, 7)
    table = multiplicities(deck)
    assert table.counts == (3,) * 7
    tags = classify(deck)
    assert tags.symmetric and tags.paired
    assert is_maximal(deck).exact
    report = check_identities(deck)
    assert report.card_sums == (9,) * 7
    assert report.square_sum == 63
    assert report.checks == IDENTITY_NAMES
    _finish(1, started, 1.0, "7-card fixture valid, symmetric+paired+maximal, sums exact")


def test_criterion_2_construction_goldens():
    started = time.perf_counter()
    assert render_deck_text(build_paired(4)) == PAIRED_4_TEXT
    grid = build_grid_blocks(7, 3)
    assert render_deck_text(grid) == THREE_BLOCK_TEXT
    assert grid.card_count == 18
    assert grid.length == 39
    assert multiplicities(grid).histogram == {3: 36, 6: 3}
    block_tokens = {grid.tokens[s] for s in range(grid.length) if multiplicities(grid).counts[s] == 6}
    assert block_tokens == {"37", "38", "39"}
    _finish(2, started, 1.0, "order-4 full deck and order-7 3-block deck byte-exact")


def test_criterion_3_theorem_suite():
    started = time.perf_counter()
    decks = []
    for n in range(2, 13):
        decks.append(build_two_symmetric(n))
    for n in range(3, 13):
        for k in range(2, max_blocks(n) + 1):
            decks.append(build_grid_blocks(n, k))
    for n in (3, 4, 6, 8, 12):
        decks.append(build_paired(n))
    for order, c_max in ((2, 3), (3, 7)):
        decks.extend(form.to_deck() for form in enumerate_decks(order, c_max).forms)
    checked = 0
    for deck in decks:
        assert validate(deck).valid
        # raises InvariantViolation, naming each failed identity, if any fails
        assert check_identities(deck).checks == IDENTITY_NAMES
        classify(deck)  # re-counts the two-multiplicity split on every card
        checked += 1
    _finish(3, started, 10.0, f"all identities hold on {checked} decks, zero tolerance")


def test_criterion_4_maximality_oracle_equivalence():
    started = time.perf_counter()
    checked = 0
    for order, c_max in ((2, 10), (3, 7)):
        for form in enumerate_decks(order, c_max).forms:
            verdict = is_maximal(form.to_deck())
            if verdict.sufficient_corollary:
                assert verdict.prop_condition
            if verdict.prop_condition:
                assert verdict.exact
            checked += 1
    fano = parse_deck_text(FANO_TEXT)
    fano_form = canonical_form(fano)
    for removed in range(7):
        trimmed = remove_cards(fano, [removed])
        verdict = is_maximal(trimmed)
        assert not verdict.exact and verdict.extension is not None
        outcome = complete(trimmed)
        assert outcome.maximal and outcome.steps == 1
        assert canonical_form(outcome.deck) == fano_form
    _finish(4, started, 10.0, f"chain holds on {checked} enumerated decks; completion restores the 7-card deck")


def test_criterion_5_maximal_families():
    started = time.perf_counter()
    family = 0
    for n in range(3, 11):
        q = n - 1
        # the guaranteed-maximal range: all blocks but the last for prime q,
        # every constructible choice otherwise
        top = q if is_prime(q) else max_blocks(n)
        for k in range(2, top + 1):
            deck = build_grid_blocks(n, k)
            assert find_extension(deck) is None, (n, k)
            family += 1
    symmetric = 0
    for n in range(2, 11):
        assert is_maximal(build_two_symmetric(n)).exact
        symmetric += 1
    for n in (3, 4, 6, 8):
        assert is_maximal(build_paired(n)).exact
        symmetric += 1
    for n in (3, 4, 6, 8):
        # k = q blocks give the q-symmetric member of the family
        deck = build_grid_blocks(n, n - 1)
        assert classify(deck).symmetric
        assert is_maximal(deck).exact
        symmetric += 1
    _finish(5, started, 60.0, f"{family} block decks and {symmetric} symmetric decks exactly maximal")


def test_criterion_6_enumeration_census():
    started = time.perf_counter()
    two = enumerate_decks(2, 3)
    assert two.complete
    assert len(two.forms) == 1
    assert (two.forms[0].card_count, two.forms[0].length) == (3, 3)

    three = enumerate_decks(3, 7)
    assert three.complete
    counts = sorted(form.card_count for form in three.forms)
    assert counts == [4, 6, 7]
    assert all(form.length <= 7 for form in three.forms)

    for order, c_max, result in ((2, 3, two), (3, 7, three)):
        oracle = iso_classes(all_normal_decks(order, c_max))
        assert len(oracle) == len(result.forms)
        for members in oracle:
            matches = [
                form for form in result.forms if are_isomorphic(members[0], list(form.cards))
            ]
            assert len(matches) == 1
    _finish(6, started, 300.0, "orders 2 and 3 agree exactly with the unpruned oracle")


def test_criterion_7_existence_predicates():
    started = time.perf_counter()
    for n in (7, 15, 22, 23):
        assert bruck_ryser_excluded(n), n
    assert not bruck_ryser_excluded(11)  # 10 = 1 + 9
    assert paired_existence(11).status is ExistenceStatus.EXCLUDED_KNOWN
    result = paired_existence(8)
    assert result.status is ExistenceStatus.EXISTS
    witness = result.witness
    assert witness.card_count == 57
    assert validate(witness).valid
    assert classify(witness).paired
    _finish(7, started, 1.0, "exclusions and the 57-card witness all verified")


def test_criterion_8_conjecture_probes():
    started = time.perf_counter()
    for order in (2, 3):
        report = probe_length_conjecture(order)
        assert report.witness is None
        assert report.exhausted
        assert report.verdict == "exhausted"
        assert report.max_length <= report.fundamental
    truncated = probe_length_conjecture(4, node_budget=25)
    assert truncated.verdict == "budget-truncated"
    assert truncated.verdict != "exhausted"
    _finish(8, started, 300.0, "orders 2-3 exhausted with no long-deck witness; truncation flagged")
