"""Multiplicity statistics, arithmetic identity checks, and deck classification.

Every identity or bound computed here is a proved consequence of the deck
axioms, so each function that relies on them passes the deck through the
gate ``require_valid`` before it answers.  On a valid deck every check must
come out true, and equivalent characterizations are computed redundantly and
compared; a disagreement is a bug in this package (``InvariantViolation``).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum

from .constructions import build_paired, build_two_symmetric, is_prime
from .deck import Deck, DeckError, InvariantViolation, require_valid


class UnsupportedDeckError(DeckError):
    """The operation's hypotheses exclude this deck."""


def fundamental_number(n: int) -> int:
    """n*n - n + 1: the card and symbol count of a full deck of order n."""
    if n < 2:
        raise ValueError("order must be at least 2")
    return n * n - n + 1


@dataclass(frozen=True)
class MultiplicityTable:
    """Per-symbol card counts with their extremes and histogram."""

    counts: tuple[int, ...]
    lo: int
    hi: int
    histogram: dict[int, int]


def multiplicities(deck: Deck) -> MultiplicityTable:
    counts = tuple(m.bit_count() for m in deck.stars)
    return MultiplicityTable(
        counts=counts,
        lo=min(counts),
        hi=max(counts),
        histogram=dict(Counter(counts)),
    )


@dataclass(frozen=True)
class CheckResult:
    name: str
    holds: bool
    detail: str = ""


@dataclass(frozen=True)
class IdentityReport:
    """Per-card multiplicity sums, the global square sum, and all bound checks."""

    card_sums: tuple[int, ...]
    square_sum: int
    checks: tuple[CheckResult, ...]

    @property
    def all_hold(self) -> bool:
        return all(check.holds for check in self.checks)

    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(check for check in self.checks if not check.holds)


def check_identities(deck: Deck) -> IdentityReport:
    """Evaluate every multiplicity identity and bound on a valid deck.

    All arithmetic is integer-exact; the mean inequality cn/l <= (c+n-1)/n is
    checked as cn*n <= l*(c+n-1).  An invalid deck raises ``InvalidDeckError``.
    """
    require_valid(deck)
    table = multiplicities(deck)
    counts, lo, hi = table.counts, table.lo, table.hi
    n, c, length = deck.order, deck.card_count, deck.length
    delta = fundamental_number(n)
    full = (1 << length) - 1

    card_sums = tuple(sum(counts[s] for s in card) for card in deck.cards)
    square_sum = sum(m * m for m in counts)

    checks: list[CheckResult] = []

    def add(name: str, holds: bool, detail: str = "") -> None:
        checks.append(CheckResult(name, holds, "" if holds else detail))

    bad_cards = [i for i, s in enumerate(card_sums) if s != c + n - 1]
    add(
        "per_card_sum",
        not bad_cards,
        f"cards {bad_cards} have multiplicity sum != c+n-1 = {c + n - 1}",
    )
    add("total_sum", sum(counts) == c * n, f"sum {sum(counts)} != c*n = {c * n}")
    add(
        "square_sum",
        square_sum == c * (c + n - 1),
        f"square sum {square_sum} != c*(c+n-1) = {c * (c + n - 1)}",
    )
    heavy = [s for s, m in enumerate(counts) if m > n]
    add("mult_at_most_order", not heavy, f"symbols {heavy} appear on more than n cards")
    wide = [s for s, m in enumerate(counts) if m * (n - 1) > length - 1]
    add("mult_star_bound", not wide, f"symbols {wide} break m*(n-1) <= l-1")
    add("cards_at_most_length", c <= length, f"c = {c} > l = {length}")
    add(
        "mean_bounds",
        lo * length <= c * n <= hi * length,
        f"lo*l = {lo * length}, c*n = {c * n}, hi*l = {hi * length}",
    )
    add(
        "deck_mean_vs_card_mean",
        c * n * n <= length * (c + n - 1),
        f"c*n*n = {c * n * n} > l*(c+n-1) = {length * (c + n - 1)}",
    )
    add(
        "card_count_chain",
        n + 1 <= n * (lo - 1) + 1 <= c <= n * (hi - 1) + 1 <= delta,
        f"chain n+1 <= n(lo-1)+1 <= c <= n(hi-1)+1 <= {delta} broken "
        f"({n + 1}, {n * (lo - 1) + 1}, {c}, {n * (hi - 1) + 1}, {delta})",
    )
    add(
        "length_chain",
        c <= n * (hi - 1) + 1 <= hi * (n - 1) + 1 <= length,
        f"chain c <= n(hi-1)+1 <= hi(n-1)+1 <= l broken "
        f"({c}, {n * (hi - 1) + 1}, {hi * (n - 1) + 1}, {length})",
    )
    add(
        "popular_multiplicity",
        max(table.histogram.values()) >= n + 1,
        f"no multiplicity is shared by n+1 = {n + 1} symbols",
    )
    add(
        "full_multiplicity_forces_length",
        length == delta if n in counts else True,
        f"a symbol has multiplicity n yet l = {length} != {delta}",
    )
    uniform = lo == hi
    add(
        "symmetric_length_cap",
        length <= delta if uniform else True,
        f"single-multiplicity deck with l = {length} > {delta}",
    )
    add(
        "symmetric_pair_deficit",
        2 * (math.comb(length, 2) - c * math.comb(n, 2)) == ((length - c) - (n - hi)) * length
        if uniform
        else True,
        "pair-count relation for single-multiplicity decks failed",
    )
    saturated = hi * (n - 1) + 1 == length
    hub = any(deck.aligned[s] == full for s in range(length))
    add(
        "saturated_star_equivalence",
        saturated == (hi == n) == hub,
        f"equivalence broke: hi(n-1)+1==l is {saturated}, hi==n is {hi == n}, "
        f"symbol aligned to all others exists is {hub}",
    )

    return IdentityReport(card_sums=card_sums, square_sum=square_sum, checks=tuple(checks))


@dataclass(frozen=True)
class Classification:
    """Symmetry, pairedness, and length placement of a valid deck."""

    fundamental: int
    symmetric: bool
    symmetric_multiplicity: int | None
    paired: bool
    length_vs_fundamental: str  # "less" | "equal" | "greater"
    two_multiplicity_split: tuple[int, int] | None


def classify(deck: Deck) -> Classification:
    """Classify a valid deck, cross-checking every equivalent characterization.

    Symmetry is decided three ways (all multiplicities equal; c*n = l*hi;
    c = n*(hi-1)+1) and pairedness two ways (every symbol pair aligned;
    c*C(n,2) = C(l,2)).  When exactly two multiplicities occur, the per-card
    split is derived from the closed formulas and re-counted on every card.
    An invalid deck raises ``InvalidDeckError``; any disagreement on a valid
    one raises ``InvariantViolation``.
    """
    require_valid(deck)
    table = multiplicities(deck)
    counts, lo, hi = table.counts, table.lo, table.hi
    n, c, length = deck.order, deck.card_count, deck.length
    delta = fundamental_number(n)
    full = (1 << length) - 1

    sym_all_equal = lo == hi
    sym_sum = c * n == length * hi
    sym_count = c == n * (hi - 1) + 1
    if not sym_all_equal == sym_sum == sym_count:
        raise InvariantViolation(
            f"symmetry tests disagree: all-equal={sym_all_equal}, "
            f"cn=l*hi is {sym_sum}, c=n(hi-1)+1 is {sym_count}"
        )

    paired_aligned = all(deck.aligned[s] == full for s in range(length))
    paired_count = c * math.comb(n, 2) == math.comb(length, 2)
    if paired_aligned != paired_count:
        raise InvariantViolation(
            f"paired tests disagree: all-pairs-aligned={paired_aligned}, "
            f"pair count identity={paired_count}"
        )

    split: tuple[int, int] | None = None
    if len(table.histogram) == 2:
        gap = hi - lo
        low_numer = hi * n - c - n + 1
        high_numer = c + n - 1 - lo * n
        if low_numer % gap or high_numer % gap:
            raise InvariantViolation("two-multiplicity split formulas are not integral")
        n_low, n_high = low_numer // gap, high_numer // gap
        if n_low < 0 or n_high < 0 or n_low + n_high != n:
            raise InvariantViolation(f"two-multiplicity split ({n_low}, {n_high}) is not a split of n")
        for index, card in enumerate(deck.cards):
            direct = sum(1 for s in card if counts[s] == lo)
            if direct != n_low:
                raise InvariantViolation(
                    f"card {index} carries {direct} minimum-multiplicity symbols, formula says {n_low}"
                )
        split = (n_low, n_high)

    if length < delta:
        placement = "less"
    elif length == delta:
        placement = "equal"
    else:
        placement = "greater"

    return Classification(
        fundamental=delta,
        symmetric=sym_all_equal,
        symmetric_multiplicity=hi if sym_all_equal else None,
        paired=paired_aligned,
        length_vs_fundamental=placement,
        two_multiplicity_split=split,
    )


def check_kn2_lemma(deck: Deck, card_indices: list[int] | tuple[int, ...], k: int) -> int:
    """Given k*n+2 cards of a valid deck, return a symbol on at least k+2 of them.

    Such a symbol always exists; ties break to the smallest id.  Bad
    arguments raise ``ValueError``; then an invalid deck raises
    ``InvalidDeckError``.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    idx = list(card_indices)
    if len(set(idx)) != len(idx):
        raise ValueError("card indices must be distinct")
    if any(not 0 <= i < deck.card_count for i in idx):
        raise ValueError("card index out of range")
    expected = k * deck.order + 2
    if len(idx) != expected:
        raise ValueError(f"need exactly k*n+2 = {expected} cards, got {len(idx)}")
    require_valid(deck)
    chosen = sum(1 << i for i in idx)
    hits = [(m & chosen).bit_count() for m in deck.stars]
    for s, h in enumerate(hits):
        if h >= k + 2:
            return s
    raise InvariantViolation("no symbol lies on k+2 of the chosen cards of a valid deck")


def find_common_triple(deck: Deck, card_indices: list[int] | tuple[int, ...]) -> tuple[int, int]:
    """Among n+1 cards, find a symbol on at least three of them and one on exactly one.

    Needs order at least 4 and a deck that is not all-multiplicity-2 (for
    smaller orders the guarantee genuinely fails).  Smallest ids win ties.
    Unsupported decks and bad arguments raise ``UnsupportedDeckError`` and
    ``ValueError``; then an invalid deck raises ``InvalidDeckError``.
    """
    n = deck.order
    if n < 4:
        raise UnsupportedDeckError("the n+1 card guarantee needs order >= 4")
    table = multiplicities(deck)
    if table.lo == table.hi == 2:
        raise UnsupportedDeckError("the n+1 card guarantee fails on all-multiplicity-2 decks")
    idx = list(card_indices)
    if len(set(idx)) != n + 1:
        raise ValueError(f"need exactly n+1 = {n + 1} distinct cards, got {len(set(idx))}")
    if any(not 0 <= i < deck.card_count for i in idx):
        raise ValueError("card index out of range")
    require_valid(deck)
    chosen = sum(1 << i for i in set(idx))
    hits = [(m & chosen).bit_count() for m in deck.stars]
    triple = next((s for s, h in enumerate(hits) if h >= 3), None)
    single = next((s for s, h in enumerate(hits) if h == 1), None)
    if triple is None or single is None:
        raise InvariantViolation("guaranteed witnesses missing on a valid deck")
    return triple, single


def idempotent_orders(modulus: int, orders) -> list[int]:
    """Orders n with n*n congruent to n modulo ``modulus``.

    Only such orders can carry a deck in which every symbol has multiplicity
    ``modulus``.
    """
    if modulus < 2:
        raise ValueError("modulus must be at least 2")
    return [n for n in orders if (n * n - n) % modulus == 0]


def _is_sum_of_two_squares(value: int) -> bool:
    for a in range(math.isqrt(value) + 1):
        rest = value - a * a
        root = math.isqrt(rest)
        if root * root == rest:
            return True
    return False


def bruck_ryser_excluded(n: int) -> bool:
    """True when no paired deck of order n can exist by the two-squares criterion.

    Applies to N = n - 1: excluded when N is 1 or 2 mod 4 and N is not a sum
    of two integer squares (zero allowed).
    """
    if n < 3:
        raise ValueError("the criterion applies from order 3 on")
    big_n = n - 1
    return big_n % 4 in (1, 2) and not _is_sum_of_two_squares(big_n)


class ExistenceStatus(Enum):
    EXISTS = "exists"
    EXCLUDED_BRUCK_RYSER = "excluded-bruck-ryser"
    EXCLUDED_KNOWN = "excluded-known"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class PairedExistence:
    status: ExistenceStatus
    witness: Deck | None = None


# Order 11 corresponds to the computationally settled nonexistence of a
# projective plane of order 10; recorded as a known fact, not recomputed.
KNOWN_NONEXISTENT_ORDERS = frozenset({11})


def paired_existence(n: int) -> PairedExistence:
    """Decide, as far as this package knows, whether a paired deck of order n exists.

    A constructive witness is returned whenever n-1 is prime (plus the
    triangle for n = 2); exclusions come from the two-squares criterion and
    the known-orders table; everything else is reported unknown.
    """
    if n < 2:
        raise ValueError("order must be at least 2")
    if n == 2:
        return PairedExistence(ExistenceStatus.EXISTS, build_two_symmetric(2))
    if is_prime(n - 1):
        return PairedExistence(ExistenceStatus.EXISTS, build_paired(n))
    if bruck_ryser_excluded(n):
        return PairedExistence(ExistenceStatus.EXCLUDED_BRUCK_RYSER)
    if n in KNOWN_NONEXISTENT_ORDERS:
        return PairedExistence(ExistenceStatus.EXCLUDED_KNOWN)
    return PairedExistence(ExistenceStatus.UNKNOWN)
