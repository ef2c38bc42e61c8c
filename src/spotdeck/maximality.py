"""Maximality: fast sufficient conditions plus an exact extension-card search.

A deck is maximal when no card of existing symbols can be added while keeping
the axioms.  An extension card must consist of n pairwise non-aligned symbols
whose stars partition the whole deck; only existing symbols qualify because a
fresh symbol would sit on a single card of the extended deck and break D2.
Their multiplicities therefore sum to the card count, so a deck on which no
n multiplicities sum to it (the subset-sum test, ``prop_condition_holds``)
is maximal without a search.  Only on the other decks does one exact-cover
search, the generator ``_transversals``, yield such sets of symbols: it
finds extension cards here and generates the next cards of the census in
:mod:`spotdeck.enumeration`.  An extension card is a plain tuple of dense
symbol ids.  The tests are proved for valid decks: ``find_extension``,
which ``is_maximal`` and ``complete`` call first, passes its deck through
the gate ``require_valid``, and after it a failed cross-check is a bug.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, Sequence

from .analysis import multiplicities
from .deck import Deck, InvariantViolation, require_valid, validate


@dataclass(frozen=True)
class MaximalityVerdict:
    """The three maximality tests; ``extension`` is a new card's symbol ids, if any."""

    sufficient_corollary: bool
    prop_condition: bool
    extension: tuple[int, ...] | None

    @property
    def exact(self) -> bool:
        """True when the exact search found no extension card: the deck is maximal."""
        return self.extension is None

    @property
    def necessity_open(self) -> bool:
        """True when the subset-sum condition fails yet no extension exists.

        Such decks witness that the sum condition is sufficient but not
        necessary; they are recorded as curiosities, never treated as errors.
        """
        return not self.prop_condition and self.exact


def sufficient_maximal(deck: Deck) -> bool:
    """Sum of the n smallest multiplicities exceeds the card count.

    Equivalent to "every n symbols have multiplicities summing above c" and
    strictly stronger than the subset-sum condition.
    """
    table = multiplicities(deck)
    return sum(sorted(table.counts)[: deck.order]) > deck.card_count


def prop_condition_holds(deck: Deck) -> bool:
    """No n distinct symbols have multiplicities summing exactly to the card count.

    Cardinality-constrained subset-sum over the multiplicity histogram:
    dp[j] is the bitmask of sums reachable by picking j distinct symbols,
    polynomial in c*n instead of enumerating n-tuples.
    """
    table = multiplicities(deck)
    n, c = deck.order, deck.card_count
    dp = [0] * (n + 1)
    dp[0] = 1
    for value, available in sorted(table.histogram.items()):
        take_max = min(available, n)
        for j in range(n, 0, -1):
            acc = 0
            for t in range(1, min(take_max, j) + 1):
                acc |= dp[j - t] << (value * t)
            dp[j] |= acc
    return not dp[n] >> c & 1


def _transversals(cards: Sequence[Sequence[int]], stars: Sequence[int], n: int) -> Iterator[tuple[int, ...]]:
    """Yield every set of at most n symbols whose stars partition the cards.

    ``stars[s]`` is the bitmask of the cards carrying symbol ``s``; two
    symbols share a card exactly when their stars intersect, so the chosen
    symbols, whose stars are pairwise disjoint, are pairwise non-aligned.
    The search is an exact cover (Knuth, "Dancing Links"): it branches on the
    lowest-index card not yet covered, smallest symbol first, skipping
    symbols whose star meets a card already covered, so every such set is
    yielded exactly once and in a fixed order, with its symbols in the order
    they were chosen.  A caller that stops iterating stops the search.  The
    depth-first order is kept on an explicit stack, children pushed in
    reverse, which runs faster than a recursive generator.
    """
    full = (1 << len(cards)) - 1
    stack: list[tuple[tuple[int, ...], int]] = [((), 0)]
    while stack:
        chosen, covered = stack.pop()
        if covered == full:
            yield chosen
            continue
        if len(chosen) == n:
            continue
        rest = ~covered & full
        pivot = (rest & -rest).bit_length() - 1
        for s in reversed(cards[pivot]):
            if not stars[s] & covered:
                stack.append((chosen + (s,), covered | stars[s]))


def find_extension(deck: Deck) -> tuple[int, ...] | None:
    """Search for a card of n existing symbols meeting every card exactly once.

    Returns the card's symbol ids in the order the search chose them, or
    ``None`` when no extension card exists.  An invalid deck raises
    ``InvalidDeckError`` first.  The stars of an extension card
    partition the deck, so its multiplicities sum to the card count: a deck
    that passes the subset-sum test has none, and the search runs only on
    the decks that fail it.  There the first set of n symbols that
    ``_transversals`` yields is returned, so the witness is deterministic.
    """
    require_valid(deck)
    if prop_condition_holds(deck):
        return None
    n = deck.order
    return next((chosen for chosen in _transversals(deck.cards, deck.stars, n) if len(chosen) == n), None)


def _with_card(deck: Deck, symbols: tuple[int, ...]) -> Deck:
    """``deck``, a valid deck, plus the card of ``symbols``, re-validated as a cross-check.

    An extension card uses existing symbols only, so the parent's tokens
    carry over: the sorted card is appended to ``cards`` and ``rows`` and its
    symbols' stars gain the new card's bit, which is the deck ``normalize``
    builds from the parent's token rows plus the new row.  An extension card
    keeps a valid deck valid, so an invalid result is a bug and raises
    ``InvariantViolation``.
    """
    card = tuple(sorted(symbols))
    bit = 1 << deck.card_count
    stars = list(deck.stars)
    for s in card:
        stars[s] |= bit
    extended = replace(deck, cards=deck.cards + (card,), rows=deck.rows + (card,), stars=tuple(stars))
    if not validate(extended).valid:
        raise InvariantViolation("extension card does not yield a valid deck")
    return extended


def is_maximal(deck: Deck) -> MaximalityVerdict:
    """Run all three maximality tests and cross-check them.

    sufficient condition => subset-sum condition => no extension exists.
    ``find_extension`` runs the exact search only when the subset-sum test
    fails, so that test decides the last link; the tests check it against
    the unbounded search.  An invalid deck raises ``InvalidDeckError`` in
    ``find_extension`` before any test runs; on a valid deck a min-sum pass
    with a subset-sum failure, or an extension that fails re-validation,
    raises ``InvariantViolation``.
    """
    extension = find_extension(deck)
    sufficient = sufficient_maximal(deck)
    prop_holds = prop_condition_holds(deck)
    if sufficient and not prop_holds:
        raise InvariantViolation("min-sum test passed but some n multiplicities sum to c")
    if extension is not None:
        _with_card(deck, extension)
    return MaximalityVerdict(sufficient_corollary=sufficient, prop_condition=prop_holds, extension=extension)


@dataclass(frozen=True)
class CompletionResult:
    deck: Deck
    added: tuple[tuple[int, ...], ...]
    maximal: bool

    @property
    def steps(self) -> int:
        return len(self.added)


def complete(deck: Deck, max_steps: int | None = None) -> CompletionResult:
    """Add extension cards until the deck is maximal or the step budget runs out.

    ``added`` holds the symbol ids of each added card.  Every intermediate
    deck is re-validated as a cross-check; a budget stop returns the partial
    deck flagged non-maximal when an extension is still pending.  An invalid
    input deck raises ``InvalidDeckError`` at the first ``find_extension``
    call, also when ``max_steps`` is 0.  A negative ``max_steps`` raises
    ``ValueError``.
    """
    if max_steps is not None and max_steps < 0:
        raise ValueError("max_steps must not be negative")
    current = deck
    added: list[tuple[int, ...]] = []
    while max_steps is None or len(added) < max_steps:
        extension = find_extension(current)
        if extension is None:
            return CompletionResult(current, tuple(added), True)
        current = _with_card(current, extension)
        added.append(extension)
    return CompletionResult(current, tuple(added), find_extension(current) is None)
