"""Deck families built from scratch: all-multiplicity-2 decks and grid-block decks.

The grid construction lays the symbols ``0 .. q*q - 1`` out as a q-by-q grid
(``q = n - 1``) and takes "direction classes" of q cards each: the rows, and
diagonals of a fixed pace, the columns being pace 0.  Every block gets one
fresh shared symbol.  One rule decides validity: a row meets every other card
once, and two cards of paces s and t meet once exactly when ``s - t`` is a
unit modulo q.  With all ``q + 1`` blocks (q prime) plus the pivot card of
the block symbols the result is a full deck in which every two symbols share
a card.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Sequence

from .deck import Deck, DeckError, InvariantViolation, normalize, require_valid, validate

ROWS = "rows"
COLUMNS = "columns"


class UnsupportedConstructionError(DeckError):
    """The requested deck cannot be built by the methods implemented here."""


class RemovalInvalidError(DeckError):
    """Removing the requested cards would leave symbols on a single card."""

    def __init__(self, message: str, symbols: tuple[str, ...]):
        super().__init__(message)
        self.symbols = symbols


def smallest_prime_factor(m: int) -> int:
    if m < 2:
        raise ValueError("no prime factor below 2")
    f = 2
    while f * f <= m:
        if m % f == 0:
            return f
        f += 1
    return m


def is_prime(m: int) -> bool:
    return m >= 2 and smallest_prime_factor(m) == m


def max_blocks(n: int) -> int:
    """Largest usable block count for order ``n``: ``p + 1``, ``p`` the smallest prime factor of n-1.

    Blocks are compatible when their paces (columns being pace 0) differ by
    units modulo q = n-1.  Rows plus paces ``0 .. p-1`` qualify, and of any
    ``p + 1`` paces two agree modulo ``p``.  For a prime q that is all
    ``q + 1`` blocks.
    """
    q = n - 1
    if q < 2:
        raise ValueError("grid construction needs order >= 3")
    return smallest_prime_factor(q) + 1


def _block_rows(q: int, blocks: Sequence[str | int]) -> list[list[str]]:
    """The token rows of the given direction blocks over the q-by-q symbol grid.

    Grid symbol at row r, column col is ``r*q + col`` (0-based, rendered
    1-based); block ``i`` gets the shared symbol ``q*q + i``.  Card j of the
    rows holds grid row j.  Every other block has a pace, the columns being
    pace 0, and its card j holds the cells ``(r, (j + pace*r) mod q)``.  A row
    meets every other card in one cell, and cards of paces s and t meet in one
    cell exactly when ``s - t`` is a unit modulo q.  So the blocks are built,
    and give a valid deck, exactly when every two paces differ by a unit.
    Each card lists its block symbol first, then its grid symbols by grid row.
    """
    if len(blocks) < 2:
        raise ValueError("need at least two blocks")
    if len(set(blocks)) != len(blocks):
        raise ValueError("duplicate blocks")
    paces: list[int | None] = []  # None for the rows
    for block in blocks:
        if isinstance(block, int):
            if not 1 <= block <= q - 1:
                raise ValueError(f"pace {block} outside 1..{q - 1}")
            paces.append(block)
        elif block in (ROWS, COLUMNS):
            paces.append(None if block == ROWS else 0)
        else:
            raise ValueError(f"unknown block {block!r}")
    for s, t in combinations(sorted(p for p in paces if p is not None), 2):
        if math.gcd(t - s, q) != 1:
            if s == 0:
                raise UnsupportedConstructionError(
                    f"pace {t} shares a factor with the grid side {q}; its cards would revisit columns"
                )
            raise UnsupportedConstructionError(
                f"paces {s} and {t} collide: their difference shares a factor with {q}"
            )
    rows: list[list[str]] = []
    for i, pace in enumerate(paces):
        token = str(q * q + i + 1)
        for j in range(q):
            if pace is None:
                cells = [(j, col) for col in range(q)]
            else:
                cells = [(r, (j + pace * r) % q) for r in range(q)]
            rows.append([token] + [str(r * q + col + 1) for r, col in cells])
    return rows


def build_two_symmetric(n: int) -> Deck:
    """A deck of ``n + 1`` cards in which every symbol sits on exactly 2 cards.

    One symbol per unordered pair of cards; card ``i`` holds the symbols of
    all pairs containing ``i``.  Order n, length n*(n+1)/2.  Pair ``(i, j)``
    is named by its 1-based rank in lexicographic order, which is also the
    order in which the cards first use the pairs.
    """
    if n < 2:
        raise ValueError("order must be at least 2")
    name = {pair: k + 1 for k, pair in enumerate(combinations(range(n + 1), 2))}
    return normalize([[name[min(i, j), max(i, j)] for j in range(n + 1) if j != i] for i in range(n + 1)])


def build_blocks(n: int, blocks: Sequence[str | int]) -> Deck:
    """Assemble a deck from direction blocks over the (n-1) x (n-1) symbol grid.

    ``blocks`` holds ``ROWS``, ``COLUMNS`` and paces ``1 .. n-2``, at least
    two and none twice.  With the columns as pace 0, the deck is built
    exactly when every two paces differ by a unit modulo n-1, which is
    exactly when it is valid; see ``_block_rows`` for the layout.
    """
    if n < 3:
        raise ValueError("grid construction needs order >= 3")
    return normalize(_block_rows(n - 1, tuple(blocks)))


def build_grid_blocks(n: int, k: int) -> Deck:
    """The first ``k`` blocks: rows, columns, then paces 1 .. k-2.

    Gives ``q*k`` cards over ``q*q + k`` symbols; grid symbols end up with
    multiplicity k and block symbols with q.
    """
    if n < 3:
        raise ValueError("grid construction needs order >= 3")
    q = n - 1
    if not 2 <= k <= q + 1:
        raise ValueError(f"block count must be in 2..{q + 1}")
    return build_blocks(n, [ROWS, COLUMNS, *range(1, k - 1)])


def build_paired(n: int) -> Deck:
    """The full grid deck: all ``n`` blocks plus the pivot card of the block symbols.

    Every pair of symbols shares a card and the card count equals the symbol
    count (n*n - n + 1).  Only available when q = n-1 is prime: the paces
    0 .. q-1 differ pairwise by units exactly then.
    """
    if n < 3:
        raise ValueError("paired construction needs order >= 3")
    if not is_prime(n - 1):
        raise UnsupportedConstructionError(
            f"paired construction needs n-1 prime; {n - 1} is not prime"
        )
    q = n - 1
    rows = _block_rows(q, [ROWS, COLUMNS, *range(1, q)])
    rows.append([str(q * q + i + 1) for i in range(n)])
    return normalize(rows)


def remove_cards(deck: Deck, indices: Sequence[int]) -> Deck:
    """Drop the given cards from a valid deck, renormalize, and re-validate.

    The indices are checked first: none, one out of range, or all of them
    raise ``ValueError``.  Then an invalid input deck raises
    ``InvalidDeckError``.  Symbols no longer on any card disappear and the
    length shrinks; a symbol left on exactly one card breaks axiom D2 and
    aborts the removal with the offending symbols as witnesses.  Removing
    cards from a valid deck can break no other axiom, so any other violation
    is a bug and raises ``InvariantViolation``.
    """
    chosen = set(indices)
    if not chosen:
        raise ValueError("nothing to remove")
    if any(not 0 <= i < deck.card_count for i in chosen):
        raise ValueError("card index out of range")
    if len(chosen) >= deck.card_count:
        raise ValueError("cannot remove every card")
    require_valid(deck)
    rows = [deck.card_tokens(i) for i in range(deck.card_count) if i not in chosen]
    trimmed = normalize(rows)
    result = validate(trimmed)
    if not result.valid:
        isolated = tuple(
            trimmed.tokens[v.symbols[0]] for v in result.violations if v.axiom == "D2"
        )
        if not isolated:
            raise InvariantViolation("removing cards from a valid deck broke an axiom other than D2")
        raise RemovalInvalidError(
            "removal leaves symbols on a single card: " + ", ".join(isolated), isolated
        )
    return trimmed
