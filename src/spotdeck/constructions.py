"""Deck families built from scratch: all-multiplicity-2 decks and grid-block decks.

The grid construction lays the symbols ``0 .. q*q - 1`` out as a q-by-q grid
(``q = n - 1``) and takes "direction classes" of q cards each: the rows, the
columns, and diagonals of a fixed pace.  Every block gets one fresh shared
symbol; with all ``q + 1`` blocks plus the pivot card of the block symbols
the result is a full deck in which every two symbols share a card.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .deck import Deck, DeckError, cross_check_failure, normalize, validate

ROWS = "rows"
COLUMNS = "columns"


class UnsupportedConstructionError(DeckError):
    """The requested deck cannot be built by the methods implemented here."""


class RemovalInvalidError(DeckError):
    """Removing the requested cards would leave symbols on a single card."""

    def __init__(self, message: str, symbols: tuple[str, ...]):
        super().__init__(message)
        self.symbols = symbols


def is_prime(m: int) -> bool:
    if m < 2:
        return False
    if m < 4:
        return True
    if m % 2 == 0:
        return False
    f = 3
    while f * f <= m:
        if m % f == 0:
            return False
        f += 2
    return True


def smallest_prime_factor(m: int) -> int:
    if m < 2:
        raise ValueError("no prime factor below 2")
    f = 2
    while f * f <= m:
        if m % f == 0:
            return f
        f += 1
    return m


def max_blocks(n: int) -> int:
    """Largest usable block count for order ``n``: q+1 when q = n-1 is prime, else p+1.

    ``p`` is the smallest prime factor of ``q``: the pace-``p`` diagonal
    revisits columns, so only paces ``1 .. p-1`` are available after rows and
    columns.
    """
    q = n - 1
    if q < 2:
        raise ValueError("grid construction needs order >= 3")
    return q + 1 if is_prime(q) else smallest_prime_factor(q) + 1


@dataclass(frozen=True)
class GridBlockSpec:
    """A validated choice of direction blocks over a q-by-q symbol grid.

    Two cards from different blocks must meet in exactly one grid symbol.
    That holds for rows against anything, and for diagonal blocks exactly
    when each pace and each pairwise pace difference is a unit modulo q,
    which is what ``__post_init__`` enforces.
    """

    side: int
    blocks: tuple[str | int, ...]
    with_pivot: bool = False

    def __post_init__(self) -> None:
        q = self.side
        if q < 2:
            raise ValueError("grid side must be at least 2")
        if len(self.blocks) < 2:
            raise ValueError("need at least two blocks")
        if len(set(self.blocks)) != len(self.blocks):
            raise ValueError("duplicate blocks")
        slopes = []
        for block in self.blocks:
            if isinstance(block, int):
                if not 1 <= block <= q - 1:
                    raise ValueError(f"pace {block} outside 1..{q - 1}")
                slopes.append(block)
            elif block not in (ROWS, COLUMNS):
                raise ValueError(f"unknown block {block!r}")
        for s in slopes:
            if math.gcd(s, q) != 1:
                raise UnsupportedConstructionError(
                    f"pace {s} shares a factor with the grid side {q}; its cards would revisit columns"
                )
        for s, t in combinations(slopes, 2):
            if math.gcd(abs(s - t), q) != 1:
                raise UnsupportedConstructionError(
                    f"paces {s} and {t} collide: their difference shares a factor with {q}"
                )
        if self.with_pivot and len(self.blocks) != q + 1:
            raise ValueError("the pivot card requires all q+1 blocks")


def build_two_symmetric(n: int) -> Deck:
    """A deck of ``n + 1`` cards in which every symbol sits on exactly 2 cards.

    One symbol per unordered pair of cards; card ``i`` holds the symbols of
    all pairs containing ``i``.  Order n, length n*(n+1)/2.
    """
    if n < 2:
        raise ValueError("order must be at least 2")
    pair_id: dict[frozenset[int], int] = {}
    rows: list[list[str]] = []
    for i in range(n + 1):
        row = []
        for j in range(n + 1):
            if j == i:
                continue
            key = frozenset((i, j))
            if key not in pair_id:
                pair_id[key] = len(pair_id)
            row.append(str(pair_id[key] + 1))
        rows.append(row)
    return normalize(rows)


def build_blocks(n: int, blocks: Sequence[str | int], with_pivot: bool = False) -> Deck:
    """Assemble a deck from direction blocks over the (n-1) x (n-1) symbol grid.

    Grid symbol at row r, column col is ``r*q + col`` (0-based internally,
    rendered 1-based); block symbols come after all grid symbols, in block
    order.  Each card lists its block symbol first, then its grid symbols by
    grid row, which keeps exotic pace subsets renderable and deterministic.
    """
    if n < 3:
        raise ValueError("grid construction needs order >= 3")
    q = n - 1
    layout = GridBlockSpec(side=q, blocks=tuple(blocks), with_pivot=with_pivot)
    block_tokens = [str(q * q + i + 1) for i in range(len(layout.blocks))]
    rows: list[list[str]] = []
    for b_index, block in enumerate(layout.blocks):
        for j in range(q):
            if block == ROWS:
                cells = [(j, col) for col in range(q)]
            elif block == COLUMNS:
                cells = [(r, j) for r in range(q)]
            else:
                cells = [(r, (j + block * r) % q) for r in range(q)]
            rows.append([block_tokens[b_index]] + [str(r * q + col + 1) for r, col in cells])
    if with_pivot:
        rows.append(list(block_tokens))
    return normalize(rows)


def build_grid_blocks(n: int, k: int, with_pivot: bool = False) -> Deck:
    """The first ``k`` blocks: rows, columns, then paces 1 .. k-2.

    Gives ``q*k`` cards over ``q*q + k`` symbols (one more card with the
    pivot); grid symbols end up with multiplicity k and block symbols with q.
    """
    if n < 3:
        raise ValueError("grid construction needs order >= 3")
    q = n - 1
    if not 2 <= k <= q + 1:
        raise ValueError(f"block count must be in 2..{q + 1}")
    block_list: list[str | int] = [ROWS, COLUMNS]
    block_list.extend(range(1, k - 1))
    return build_blocks(n, block_list, with_pivot=with_pivot)


def build_paired(n: int) -> Deck:
    """The full grid deck: all ``n`` blocks plus the pivot card.

    Every pair of symbols shares a card and the card count equals the symbol
    count (n*n - n + 1).  Only available when n-1 is prime: every pace
    1 .. n-2 must be a unit modulo n-1.
    """
    if n < 3:
        raise ValueError("paired construction needs order >= 3")
    if not is_prime(n - 1):
        raise UnsupportedConstructionError(
            f"paired construction needs n-1 prime; {n - 1} is not prime"
        )
    return build_grid_blocks(n, n, with_pivot=True)


def remove_cards(deck: Deck, indices: Sequence[int]) -> Deck:
    """Drop the given cards, renormalize, and re-validate.

    Symbols no longer on any card disappear and the length shrinks; a symbol
    left on exactly one card breaks axiom D2 and aborts the removal with the
    offending symbols as witnesses.  Removing cards from a valid deck can
    break no other axiom, so any other violation of the remaining deck means
    the input was invalid and raises ``InvalidDeckError``.
    """
    chosen = set(indices)
    if not chosen:
        raise ValueError("nothing to remove")
    if any(not 0 <= i < deck.card_count for i in chosen):
        raise ValueError("card index out of range")
    if len(chosen) >= deck.card_count:
        raise ValueError("cannot remove every card")
    rows = [deck.card_tokens(i) for i in range(deck.card_count) if i not in chosen]
    trimmed = normalize(rows)
    result = validate(trimmed)
    if not result.valid:
        isolated = tuple(
            trimmed.tokens[v.symbols[0]] for v in result.violations if v.axiom == "D2"
        )
        if not isolated:
            raise cross_check_failure(deck, "removing cards from a valid deck broke an axiom other than D2")
        raise RemovalInvalidError(
            "removal leaves symbols on a single card: " + ", ".join(isolated), isolated
        )
    return trimmed
