"""Maximality: fast sufficient conditions plus an exact extension-card search.

A deck is maximal when no card of existing symbols can be added while keeping
the axioms.  An extension card must consist of n pairwise non-aligned symbols
whose stars partition the whole deck; only existing symbols qualify because a
fresh symbol would sit on a single card of the extended deck and break D2.
"""

from __future__ import annotations

from dataclasses import dataclass

from .analysis import multiplicities
from .deck import Deck, _star_masks, cross_check_failure, normalize, validate


@dataclass(frozen=True)
class ExtensionCandidate:
    """A new card made of existing, pairwise non-aligned symbols."""

    symbols: tuple[int, ...]


@dataclass(frozen=True)
class MaximalityVerdict:
    sufficient_corollary: bool
    prop_condition: bool
    exact: bool
    extension: ExtensionCandidate | None

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


def find_extension(deck: Deck) -> ExtensionCandidate | None:
    """Search for a card of n existing symbols meeting every card exactly once.

    Branches on the lowest-index card not yet covered, smallest symbol first,
    skipping symbols aligned with anything already chosen; the first hit is
    therefore a deterministic witness.  Returns ``None`` when no extension
    card exists.
    """
    n, c = deck.order, deck.card_count
    star_masks = _star_masks(deck)
    hi = max((m.bit_count() for m in star_masks), default=0)
    full = (1 << c) - 1

    def extend(chosen: list[int], covered: int, banned: int) -> tuple[int, ...] | None:
        if covered == full:
            return tuple(chosen) if len(chosen) == n else None
        if len(chosen) == n:
            return None
        if (n - len(chosen)) * hi < c - covered.bit_count():
            return None
        rest = ~covered & full
        pivot = (rest & -rest).bit_length() - 1
        for s in deck.cards[pivot].symbols:
            if banned >> s & 1:
                continue
            found = extend(chosen + [s], covered | star_masks[s], banned | deck.aligned[s])
            if found is not None:
                return found
        return None

    found = extend([], 0, 0)
    return ExtensionCandidate(symbols=found) if found is not None else None


def _with_card(deck: Deck, symbols: tuple[int, ...]) -> Deck:
    rows = [deck.card_tokens(i) for i in range(deck.card_count)]
    rows.append(tuple(deck.tokens[s] for s in sorted(symbols)))
    return normalize(rows)


def is_maximal(deck: Deck) -> MaximalityVerdict:
    """Run all three maximality tests and assert the implication chain.

    sufficient condition => subset-sum condition => no extension exists; any
    break in the chain, or an extension that fails re-validation, raises
    ``InvariantViolation``, or ``InvalidDeckError`` when the input deck
    breaks an axiom.
    """
    sufficient = sufficient_maximal(deck)
    prop_holds = prop_condition_holds(deck)
    extension = find_extension(deck)
    exact = extension is None
    if sufficient and not prop_holds:
        raise cross_check_failure(deck, "min-sum test passed but some n multiplicities sum to c")
    if prop_holds and not exact:
        raise cross_check_failure(deck, "subset-sum condition held yet an extension card was found")
    if extension is not None and not validate(_with_card(deck, extension.symbols)).valid:
        raise cross_check_failure(deck, "extension card does not yield a valid deck")
    return MaximalityVerdict(
        sufficient_corollary=sufficient,
        prop_condition=prop_holds,
        exact=exact,
        extension=extension,
    )


@dataclass(frozen=True)
class CompletionResult:
    deck: Deck
    added: tuple[ExtensionCandidate, ...]
    maximal: bool

    @property
    def steps(self) -> int:
        return len(self.added)


def complete(deck: Deck, max_steps: int | None = None) -> CompletionResult:
    """Add extension cards until the deck is maximal or the step budget runs out.

    Every intermediate deck is re-validated; a budget stop returns the
    partial deck flagged non-maximal when an extension is still pending.
    An invalid input deck raises ``InvalidDeckError`` once an intermediate
    deck fails validation.
    """
    current = deck
    added: list[ExtensionCandidate] = []
    while max_steps is None or len(added) < max_steps:
        extension = find_extension(current)
        if extension is None:
            return CompletionResult(current, tuple(added), True)
        current = _with_card(current, extension.symbols)
        if not validate(current).valid:
            raise cross_check_failure(deck, "completion produced an invalid intermediate deck")
        added.append(extension)
    return CompletionResult(current, tuple(added), find_extension(current) is None)
