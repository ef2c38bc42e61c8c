"""Core deck model: normalization, axiom validation, stars, and card partitions.

A deck is a finite list of equal-size symbol sets ("cards") in which any two
cards share exactly one symbol and every symbol sits on at least two cards.
Symbols are stored as dense integer ids.  A deck stores what
:func:`normalize` reads from the input, the tokens and the rows of ids, and
keeps its incidence two ways, both built once from the rows: each card as a
sorted id tuple (``Deck.cards``), and each symbol's star, the bitmask of the
cards carrying it (``Deck.stars``).  Every other deck fact, such as the
order, the length or a symbol's multiplicity (the bit count of its star), is
derived from these four.  Validation, the maximality tests, the canonical
search and the star and partition queries all read the stars.  The
one-shared-symbol axiom holds for a card exactly when the stars of its
symbols cover every other card once, so checking a deck of c cards and order
n takes c*n mask operations rather than a pass over all c*(c-1)/2 card pairs.

Validity is decided once per deck: :func:`validate` keeps its result on the
immutable deck, and :func:`require_valid`, the gate at the entry of every
function whose answer the axioms guarantee, raises ``InvalidDeckError``
with the violations.  After the gate a failed cross-check is a bug.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence


class DeckError(Exception):
    """Base class for errors raised on bad deck input."""


class MalformedCardError(DeckError):
    """A raw card lists the same symbol twice."""


class InvalidDeckError(DeckError):
    """A function that needs a valid deck was given one that breaks an axiom.

    ``violations`` holds the broken axioms, as :func:`validate` reports them.
    """

    def __init__(self, message: str, violations: tuple[Violation, ...]):
        super().__init__(message)
        self.violations = violations


class InvariantViolation(RuntimeError):
    """Two provably-equivalent computations disagreed.

    This signals a bug in this package, never bad input: the redundant
    cross-checks exist precisely to catch such bugs.
    """


@dataclass(frozen=True)
class Deck:
    """An ordered collection of cards over dense integer symbol ids.

    Four fields are stored.  ``tokens`` maps each dense id back to its
    original symbol token and ``rows`` keeps the symbol order of the input,
    so rendering reproduces the source text exactly.  ``cards[i]`` is card
    ``i`` as a sorted tuple of symbol ids and ``stars[s]`` the bitmask of the
    cards carrying ``s`` (bit ``i`` for card ``i``), whose bit count is the
    multiplicity of ``s``.  ``order``, ``length`` and ``card_count`` are
    derived: ``order`` is the size of the first card, since uniformity is an
    axiom checked by :func:`validate`, not assumed here.
    """

    cards: tuple[tuple[int, ...], ...]
    tokens: tuple[str, ...]
    rows: tuple[tuple[int, ...], ...]
    stars: tuple[int, ...]
    # filled on first use by validate() and by the aligned property.  Both
    # are set by __init__, so filling one replaces a value instead of adding
    # a key to the instance dict, which would slow every later attribute
    # read (deck_payload reads deck.tokens c*n times)
    _validation: ValidationResult | None = field(
        default_factory=lambda: None, init=False, repr=False, compare=False
    )
    _aligned: tuple[int, ...] | None = field(
        default_factory=lambda: None, init=False, repr=False, compare=False
    )

    @property
    def order(self) -> int:
        return len(self.cards[0])

    @property
    def length(self) -> int:
        return len(self.tokens)

    @property
    def card_count(self) -> int:
        return len(self.cards)

    @property
    def aligned(self) -> tuple[int, ...]:
        """``aligned[s]``: the bitmask of symbols sharing a card with ``s``, ``s`` included.

        Built from the cards on first read, since only the classification
        and the identity checks need it.
        """
        if self._aligned is None:
            aligned = [0] * self.length
            for card in self.cards:
                mask = sum(1 << s for s in card)
                for s in card:
                    aligned[s] |= mask
            object.__setattr__(self, "_aligned", tuple(aligned))
        return self._aligned

    def card_tokens(self, index: int) -> tuple[str, ...]:
        """Tokens of one card, in original input order."""
        return tuple(self.tokens[s] for s in self.rows[index])


def normalize(raw_cards: Sequence[Sequence[object]]) -> Deck:
    """Map tokens to dense ids in first-occurrence order and build the deck.

    Tokens are compared by their string form.  A first pass maps each row to
    ids, a second builds the stars from the rows; the sorted cards come from
    the rows too.  No axiom is checked; see :func:`validate`.

    Raises ``MalformedCardError`` when a card repeats a token and
    ``ValueError`` on an empty deck or an empty card.
    """
    if not raw_cards:
        raise ValueError("a deck needs at least one card")
    ids: dict[str, int] = {}
    rows: list[tuple[int, ...]] = []
    for row_index, raw in enumerate(raw_cards):
        if not raw:
            raise ValueError(f"card {row_index} is empty")
        row = [ids.setdefault(str(item), len(ids)) for item in raw]
        if len(set(row)) < len(row):
            first: dict[int, int] = {}
            repeat = next(raw[i] for i, s in enumerate(row) if first.setdefault(s, i) != i)
            raise MalformedCardError(f"card {row_index} repeats symbol {str(repeat)!r}")
        rows.append(tuple(row))
    stars = [0] * len(ids)
    for row_index, row in enumerate(rows):
        bit = 1 << row_index
        for s in row:
            stars[s] |= bit
    return Deck(
        cards=tuple(tuple(sorted(row)) for row in rows),
        tokens=tuple(ids),
        rows=tuple(rows),
        stars=tuple(stars),
    )


@dataclass(frozen=True)
class Violation:
    """One broken axiom with enough witness data to reproduce it."""

    axiom: str
    message: str
    cards: tuple[int, ...] = ()
    symbols: tuple[int, ...] = ()
    count: int | None = None


@dataclass(frozen=True)
class ValidationResult:
    violations: tuple[Violation, ...]

    @property
    def valid(self) -> bool:
        return not self.violations


def validate(deck: Deck) -> ValidationResult:
    """Check the five deck axioms and report every violation, not just the first.

    D1: any two cards share exactly one symbol.  D2: every symbol is on at
    least two cards.  D3: every card has at least two symbols.  D4: all cards
    have the same size.  D5: at least one symbol exists.  A single-card deck
    is always rejected because D2 cannot hold on it.  The check runs once per
    deck: the deck is immutable, so later calls return the kept result.
    """
    if deck._validation is None:
        object.__setattr__(deck, "_validation", _check_axioms(deck))
    return deck._validation


def require_valid(deck: Deck) -> None:
    """Raise ``InvalidDeckError``, carrying the violations, unless ``deck`` is valid."""
    violations = validate(deck).violations
    if violations:
        raise InvalidDeckError(
            f"the deck is invalid: {len(violations)} violation(s), first: {violations[0].message}",
            violations,
        )


def _check_axioms(deck: Deck) -> ValidationResult:
    """The axiom check behind :func:`validate`, run once per deck.

    D1 is checked by star cover rather than pair by pair.  For each card the
    stars of its symbols are folded into the cards it meets at least once.
    The multiplicities of its symbols sum to the number of its meetings with
    cards, counted with repeats: its own size plus one per other card met
    once, two per card met twice, and so on.  So a card that meets every
    card and whose sum is c + size - 1 meets every other card exactly once.
    Any other card is folded again into the cards it meets at least once and
    those it meets at least twice; every later card outside the first mask
    or inside the second is a violating pair.  That costs c*n operations on
    c-bit masks plus one step per violation, instead of c*(c-1)/2 pair
    checks.  Neither test alone suffices: a card meeting one card twice and
    missing another has the sum of a good card.  D2 reads the same
    multiplicities.  Violations come out grouped by axiom in the order D5,
    D3/D4 per card, D1 per pair (i, j) in lexicographic order, D2 per symbol.
    """
    violations: list[Violation] = []
    if deck.length < 1:
        violations.append(Violation("D5", "the deck has no symbols", count=0))
    for i, card in enumerate(deck.cards):
        size = len(card)
        if size < 2:
            violations.append(Violation("D3", f"card {i} has only {size} symbol(s)", cards=(i,), count=size))
        if size != deck.order:
            violations.append(
                Violation(
                    "D4",
                    f"card {i} has {size} symbols, the first card has {deck.order}",
                    cards=(i,),
                    count=size,
                )
            )
    stars = deck.stars
    counts = [mask.bit_count() for mask in stars]
    full = (1 << deck.card_count) - 1
    for i, card in enumerate(deck.cards):
        once = 0
        for s in card:
            once |= stars[s]
        if once == full and sum(map(counts.__getitem__, card)) == deck.card_count + len(card) - 1:
            continue  # meets every card, and all of them once: no violation
        once = twice = 0
        for s in card:
            twice |= once & stars[s]
            once |= stars[s]
        bad = (~once | twice) & full >> (i + 1) << (i + 1)
        while bad:
            low = bad & -bad
            bad ^= low
            j = low.bit_length() - 1
            shared = tuple(s for s in card if stars[s] >> j & 1)
            names = ", ".join(deck.tokens[s] for s in shared) or "nothing"
            violations.append(
                Violation(
                    "D1",
                    f"cards {i} and {j} share {len(shared)} symbols ({names})",
                    cards=(i, j),
                    symbols=shared,
                    count=len(shared),
                )
            )
    for s, m in enumerate(counts):
        if m < 2:
            violations.append(
                Violation("D2", f"symbol {deck.tokens[s]!r} appears on {m} card(s)", symbols=(s,), count=m)
            )
    return ValidationResult(tuple(violations))


def star(deck: Deck, symbol: int) -> tuple[int, ...]:
    """The indices of the cards carrying ``symbol``, in deck order."""
    if not 0 <= symbol < deck.length:
        raise ValueError(f"symbol id {symbol} out of range for deck length {deck.length}")
    mask = deck.stars[symbol]
    return tuple(i for i in range(deck.card_count) if mask >> i & 1)


def partition_by_card(deck: Deck, card_index: int) -> list[tuple[int, ...]]:
    """Split the other cards into one pack per symbol of the chosen card.

    Pack ``i`` collects the cards sharing the pivot's ``i``-th smallest
    symbol, pivot excluded.  On a valid deck the packs are pairwise disjoint
    and cover the remaining ``c - 1`` cards.
    """
    if not 0 <= card_index < deck.card_count:
        raise ValueError(f"card index {card_index} out of range")
    packs = []
    for s in deck.cards[card_index]:
        packs.append(tuple(i for i in star(deck, s) if i != card_index))
    return packs
