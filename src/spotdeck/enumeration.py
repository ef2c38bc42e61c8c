"""Isomorph-free exhaustive generation, canonical labeling, and census reports.

Two decks are isomorphic when a symbol bijection maps cards onto cards.  The
canonical form is the lexicographically smallest relabeling of the sorted
card list, found by a branch-and-bound over the labelings that prunes with
the deck's automorphisms: every pair of labelings reaching the same form
yields one, and children of a search node that such automorphisms map onto
each other are searched once.  The generator emits each isomorphism class
exactly once by orderly generation (Read, "Every one a winner", Ann.
Discrete Math. 2, 1978): it grows only normal-form structures (cards
strictly increasing, new symbols numbered on first use), stops below every
partial structure that is not its own canonical form, and keeps the
completed ones.
"""

from __future__ import annotations

import hashlib
import operator
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .analysis import classify, fundamental_number, multiplicities
from .deck import Deck, InvalidDeckError, normalize, validate
from .maximality import _transversals, is_maximal


@dataclass(frozen=True)
class CanonicalForm:
    """Smallest relabeling of a deck: a sorted tuple of sorted id tuples."""

    cards: tuple[tuple[int, ...], ...]

    @property
    def card_count(self) -> int:
        return len(self.cards)

    @property
    def length(self) -> int:
        return 1 + max(s for card in self.cards for s in card) if self.cards else 0

    def digest(self) -> str:
        text = ";".join(",".join(map(str, card)) for card in self.cards)
        return hashlib.sha256(text.encode()).hexdigest()[:12]

    def to_deck(self) -> Deck:
        return normalize(self.cards)


def canonical_form(deck: Deck) -> CanonicalForm:
    """Minimize the sorted card list over all symbol relabelings.

    The census's canonicity proof runs the same search; this one has no
    node budget and does not stop at the first smaller form.

    Raises ``InvalidDeckError``, carrying the D4 violations that
    :func:`validate` reports, when the cards differ in size: the search pads
    every card to the first card's size.  No other axiom is required, so
    partial decks are accepted.
    """
    if any(len(card) != deck.order for card in deck.cards):
        violations = tuple(v for v in validate(deck).violations if v.axiom == "D4")
        raise InvalidDeckError("the deck breaks D4: its cards differ in size", violations)
    return CanonicalForm(cards=_minimal_form(deck.order, deck.cards, deck.stars, _Budget(None)))


class _OutOfBudget(Exception):
    """Raised when the enumeration's node budget runs out, at a state or inside a proof."""


class _Budget:
    __slots__ = ("limit", "used")

    def __init__(self, limit: int | None):
        self.limit = limit
        self.used = 0

    def spend(self) -> None:
        """Count one node; raise ``_OutOfBudget`` instead once the limit is used up."""
        if self.limit is not None and self.used >= self.limit:
            raise _OutOfBudget
        self.used += 1


def _orbit_closure(mask: int, generators: list[tuple[tuple[int, ...], int]], fixed: int) -> int:
    """The smallest superset of the symbol bitmask closed under the generators fixing ``fixed``.

    Each generator is a ``(perm, moved)`` pair, ``moved`` the bitmask of the
    symbols ``perm`` moves.  Those whose ``moved`` misses ``fixed`` fix it
    pointwise and are used, each on the frontier's symbols it moves only.
    """
    frontier = mask
    while frontier:
        images = 0
        for perm, moved in generators:
            if moved & fixed:
                continue
            rest = frontier & moved
            while rest:
                low = rest & -rest
                images |= 1 << perm[low.bit_length() - 1]
                rest ^= low
        frontier = images & ~mask
        mask |= frontier
    return mask


def _known_automorphisms(
    cards: Sequence[tuple[int, ...]], stars: Sequence[int]
) -> list[tuple[tuple[int, ...], int]]:
    """Symbol swaps that map the card list onto itself, read off the stars.

    Two symbols with the same star can be swapped.  So can the private
    symbols (on one card only) of two cards whose other symbols agree,
    paired in order: the two cards trade places.  Each swap comes with the
    bitmask of the symbols it moves.  Swaps pair neighbours, so that
    whatever prefix of them a search node fixes, the swaps among the rest
    stay in its stabilizer.
    """
    found: list[tuple[tuple[int, ...], int]] = []

    def swap(pairs) -> None:
        perm = list(range(len(stars)))
        moved = 0
        for a, b in pairs:
            perm[a], perm[b] = b, a
            moved |= 1 << a | 1 << b
        found.append((tuple(perm), moved))

    twins: dict[int, int] = {}
    for s, m in enumerate(stars):
        if m in twins:
            swap([(twins[m], s)])
        twins[m] = s
    shapes: dict[tuple[tuple[int, ...], int], list[int]] = {}
    for card in cards:
        private = [s for s in card if not stars[s] & (stars[s] - 1)]
        if private:
            key = (tuple(s for s in card if stars[s] & (stars[s] - 1)), len(private))
            if key in shapes:
                swap(zip(shapes[key], private))
            shapes[key] = private
    return found


def _card_number(card: Sequence[int], base: int) -> int:
    """The card's ids as the digits of one number in ``base``, first id most significant."""
    number = 0
    for s in card:
        number = number * base + s
    return number


def _minimal_form(
    n: int,
    cards: Sequence[tuple[int, ...]],
    stars: Sequence[int],
    budget: _Budget,
    stop_below_seed: bool = False,
) -> tuple[tuple[int, ...], ...]:
    """Branch-and-bound over which old symbol receives each successive new id.

    The deck comes as its cards, sorted symbol id tuples, and its stars:
    ``stars[s]`` is the bitmask of the cards carrying symbol ``s``, and the
    deck's length is the number of stars.  The bound pads every partially
    relabeled card with the smallest ids it could still receive; assigned ids
    always sit below pending ones, so each padded card is an elementwise
    lower bound of its completion and a branch whose padded sorted list is
    above the incumbent is dead.

    The search works on numbers, not tuples: a card of n ids is the n-digit
    number in base length + n + 1 (:func:`_card_number`).  No padded card
    holds an id that large, so numbers compare exactly as the tuples do.
    Each node gets its cards padded from its parent: ``gained[i]`` is card i
    padded with k, k + 1, ... and ``unit[i]`` the sum of the place values of
    its pending digits, so ``gained[i] + unit[i]`` is card i padded from
    k + 1.  The bound of the child giving id k to symbol s takes the cards of
    s's star from ``gained`` and every other card padded from k + 1;
    unsorted, that list is the child's ``gained``.  A unit is the number
    11...1, one digit per pending id; a card that receives k has one pending
    id less, so its unit is divided by the base, rounded down.  At a leaf
    every unit is 0 and ``gained`` holds the relabeled cards.

    The incumbent is held twice, as the numbers ``best`` and as the labeling
    ``best_path`` that gives them: both start as the sorted card list under
    the identity labeling, which the search has not walked, and change
    together, at a smaller leaf or at the first tied leaf.  The form returned
    is the cards relabeled by ``best_path``.  Branches whose bound equals
    the incumbent stay alive, so leaves equal to it are reached.  Two
    labelings giving the same form differ by an automorphism of the deck,
    which is recorded as a generator.  A node's children are images of each
    other under every generator that fixes the node's assigned symbols
    pointwise, with identical subtrees and bounds, so only one child per
    orbit of those generators is searched (McKay & Piperno, "Practical graph
    isomorphism, II").  The first leaf tied with the unwalked incumbent
    gives it its labeling and does not jump back.  Every later tied leaf
    jumps back to the node where its labeling parts from the incumbent's:
    the new automorphism fixes that node's assigned symbols and maps its
    current child onto the child searched before, so the rest of the
    current child's subtree holds nothing new and the minimum is unchanged.
    The swaps of ``_known_automorphisms`` are known before any leaf and
    seed the generators.  Valid decks have none; the partial decks of the
    census are full of them.

    With ``stop_below_seed`` the first strictly smaller leaf ends the
    search: it becomes the incumbent and returns -1, which every level
    above passes on as a jump back past the root.  The result is then below
    the sorted card list exactly when the deck is not its own canonical
    form, which is much cheaper to settle than full canonicalization.

    Each search node spends one unit of ``budget``; when it runs out the
    search raises ``_OutOfBudget``.
    """
    length = len(stars)
    base = length + n + 1
    # each star as a list of card indices: the loops below walk them, which is
    # faster than walking the bits
    carriers = [[i for i in range(len(cards)) if m >> i & 1] for m in stars]
    best = sorted(_card_number(card, base) for card in cards)
    # best_path[i] is the old symbol that receives id i in the incumbent
    best_path = list(range(length))
    searched = False  # whether best_path is the path of a leaf searched so far
    # automorphisms found so far, each with the bitmask of the symbols it moves
    generators = _known_automorphisms(cards, stars)
    path: list[int] = []

    def search(k: int, gained: list[int], unit: list[int], free: list[int], fixed: int) -> int:
        """Search below the node at depth ``k``; return the depth to resume at."""
        nonlocal best, best_path, searched
        budget.spend()
        if k == length:
            form = sorted(gained)  # by D4 every card has all its n ids here
            if form < best:
                best, best_path, searched = form, list(path), True
                if stop_below_seed:
                    return -1
            elif form == best:
                perm = list(range(length))
                for s, image in zip(path, best_path):
                    perm[s] = image
                moved = sum(1 << s for s in range(length) if perm[s] != s)
                if moved:
                    generators.append((tuple(perm), moved))
                if searched:
                    parting = 0
                    while path[parting] == best_path[parting]:
                        parting += 1
                    return parting
                best_path, searched = list(path), True
            return k
        later = list(map(operator.add, gained, unit))
        ranked = []
        for s in free:
            bound = list(later)
            for index in carriers[s]:
                bound[index] = gained[index]
            # ties on the sorted bound are broken by s, never by the unsorted list
            ranked.append((sorted(bound), s, bound))
        ranked.sort()
        known = 0  # how many generators `done` was last closed under
        done = 0  # orbit closure of the children searched so far
        for child_bound, s, child_gained in ranked:
            if child_bound > best:
                break  # ranked ascending, the rest cannot reach the best either
            if known < len(generators):
                known = len(generators)
                done = _orbit_closure(done, generators, fixed)
            if done >> s & 1:
                continue  # an image of a child already searched
            done = _orbit_closure(done | 1 << s, generators, fixed)
            child_unit = list(unit)
            for index in carriers[s]:
                child_unit[index] //= base
            path.append(s)
            target = search(k + 1, child_gained, child_unit, [t for t in free if t != s], fixed | 1 << s)
            path.pop()
            if target < k:
                return target
        return k

    # at the root every card is padded with 0, 1, ..., n - 1 and has n pending ids
    padded, unit = _card_number(range(n), base), _card_number([1] * n, base)
    search(0, [padded] * len(cards), [unit] * len(cards), list(range(length)), 0)
    new_id = {s: i for i, s in enumerate(best_path)}
    return tuple(sorted(tuple(sorted(new_id[s] for s in card)) for card in cards))


def _is_self_canonical(
    n: int, cards: Sequence[tuple[int, ...]], stars: Sequence[int], budget: _Budget
) -> bool:
    """True when the sorted card list equals its own canonical form.

    The first smaller form ends the search.  Raises ``_OutOfBudget`` when
    ``budget`` runs out first.
    """
    return _minimal_form(n, cards, stars, budget, stop_below_seed=True) == tuple(sorted(cards))


@dataclass(frozen=True)
class EnumerationResult:
    """The classes found, whether the walk ran to the end, its node count and its card cap."""

    forms: tuple[CanonicalForm, ...]
    complete: bool
    nodes: int
    max_cards: int


def enumerate_decks(
    order: int, max_cards: int | None = None, node_budget: int | None = None
) -> EnumerationResult:
    """All decks of the given order with at most ``max_cards`` cards, one per class.

    ``max_cards`` defaults to the fundamental number n*n - n + 1, which no
    deck of order n exceeds, so the default walk covers the whole order.
    The result reports the cap it used.  An order below 2 raises
    ``ValueError``, as does a cap below 1.

    Every state is in normal form: its cards strictly increase and its ids
    are numbered in the order the cards first use them.  Axioms D1 and D4
    hold at every step; only D2 may be pending.  A next card meets every
    card once: a set of existing symbols whose stars partition the cards
    (``maximality._transversals``, the exact-cover search that also finds
    extension cards, yields them), padded with fresh ids.  Each child, with
    card list and stars built from its parent's, is visited as soon as it is
    yielded; nothing is listed or sorted.  The search branches on the lowest
    uncovered card p and skips a symbol of p first used on an earlier, hence
    covered, card, so each chosen symbol first appears on its own pivot card.
    Later pivots lie further on, so a set comes out in increasing id order,
    and siblings are tried in increasing id order too: the padded cards
    strictly increase, and those at or below the last card form a prefix.

    Every structure of two or more cards is checked against its own
    canonical form, the lex-min relabeling of its sorted card list.  One that
    fails is not grown further; one that passes is emitted when every symbol
    sits on two cards or more.  The pruning loses no class, because every
    prefix of a lex-min card list is lex-min.  Let L be a sorted card list
    with last card c and P the list without c, and suppose a relabeling pi
    of P's symbols gives sorted(pi(P)) < P.  Extend pi by the identity on the
    symbols only c uses; inserting the distinct card pi(c) into
    sorted(pi(P)) gives sorted(pi(L)) < L.  A class's canonical form is in
    normal form, so the walk reaches it through its canonical prefixes.

    ``nodes`` counts one node per visited state (the root, every canonical
    state and every non-canonical child at which the walk stopped) plus the
    search nodes of every canonicity proof.  Those proofs are most of the
    count: the order-4 walk visits 291 states in 20,457 nodes, and its
    accepting proofs meet many leaves equal to the seed and jump back from
    them as ``_minimal_form`` describes.  The node budget caps that count;
    an exhausted budget raises ``_OutOfBudget``, at a state or in the middle
    of a proof, which stops the walk before it pulls another candidate: a
    truncated run is a prefix of the complete one, flagged incomplete.  Not
    counted are the dead-end branches of ``_transversals`` and the cost of a
    proof node, which grows with the deck.  ``None`` means no budget; a
    negative one raises ``ValueError``.
    """
    fundamental = fundamental_number(order)  # raises ValueError on an order below 2
    max_cards = fundamental if max_cards is None else max_cards
    if max_cards < 1:
        raise ValueError("max_cards must be positive")
    if node_budget is not None and node_budget < 0:
        raise ValueError("node_budget must not be negative")
    budget = _Budget(node_budget)
    found: list[CanonicalForm] = []

    def grow(cards: list[tuple[int, ...]], stars: list[int]) -> None:
        """Visit one state; ``stars`` holds its symbols' card masks."""
        budget.spend()
        if len(cards) >= 2:
            if not _is_self_canonical(order, cards, stars, budget):
                return  # no extension of a non-canonical state is canonical
            if all(m & (m - 1) for m in stars):  # every symbol on two cards or more
                found.append(CanonicalForm(cards=tuple(cards)))
        if len(cards) >= max_cards:
            return
        # next cards: a transversal of existing symbols plus fresh ids, above the last card
        used = len(stars)
        bit = 1 << len(cards)
        for chosen in _transversals(cards, stars, order):
            card = chosen + tuple(range(used, used + order - len(chosen)))
            if card > cards[-1]:
                child_stars = stars + [0] * (card[-1] + 1 - used)  # one empty star per fresh id
                for s in card:
                    child_stars[s] |= bit
                grow(cards + [card], child_stars)

    try:
        grow([tuple(range(order))], [1] * order)
        complete = True
    except _OutOfBudget:
        complete = False
    found.sort(key=lambda form: (len(form.cards), form.cards))
    return EnumerationResult(forms=tuple(found), complete=complete, nodes=budget.used, max_cards=max_cards)


@dataclass(frozen=True)
class CensusEntry:
    """One isomorphism class with its headline statistics and flags.

    ``classes_with_key`` counts the classes sharing this entry's whole
    (order, cards, length, histogram, flags) key; anything above 1 means the
    key does not pin down the deck.
    """

    order: int
    card_count: int
    length: int
    histogram: tuple[tuple[int, int], ...]
    symmetric: bool
    paired: bool
    maximal: bool
    digest: str
    classes_with_key: int = 1


@dataclass(frozen=True)
class CensusReport:
    order: int
    entries: tuple[CensusEntry, ...]
    collisions: tuple[tuple[tuple[int, int, int], tuple[str, ...]], ...]
    complete: bool
    nodes: int


def census(order: int, max_cards: int | None = None, node_budget: int | None = None) -> CensusReport:
    """Group all classes of the given order and report (order, cards, length) collisions.

    A collision is a triple realized by at least two non-isomorphic decks,
    which would answer the uniqueness question negatively.  The classes come
    from :func:`enumerate_decks`, which takes ``max_cards`` as given, the
    fundamental number when it is ``None``.  Each entry's histogram is the
    multiplicity histogram's items, in increasing multiplicity.
    """
    result = enumerate_decks(order, max_cards, node_budget)
    keyed: list[tuple[tuple, str]] = []
    for form in result.forms:
        deck = form.to_deck()
        tags = classify(deck)
        # the CensusEntry fields from card_count to maximal, in field order
        key = (
            deck.card_count,
            deck.length,
            tuple(multiplicities(deck).histogram.items()),
            tags.symmetric,
            tags.paired,
            is_maximal(deck).exact,
        )
        keyed.append((key, form.digest()))
    key_counts = Counter(key for key, _ in keyed)
    entries = [
        CensusEntry(order, *key, digest=digest, classes_with_key=key_counts[key]) for key, digest in keyed
    ]
    by_triple: dict[tuple[int, int, int], list[str]] = {}
    for entry in entries:
        by_triple.setdefault((entry.order, entry.card_count, entry.length), []).append(entry.digest)
    collisions = tuple(
        (triple, tuple(digests))
        for triple, digests in sorted(by_triple.items())
        if len(digests) > 1
    )
    return CensusReport(
        order=order,
        entries=tuple(entries),
        collisions=collisions,
        complete=result.complete,
        nodes=result.nodes,
    )


@dataclass(frozen=True)
class LengthProbeReport:
    """Outcome of hunting for a deck longer than its fundamental number."""

    order: int
    fundamental: int
    classes_seen: int
    max_length: int
    witness: CanonicalForm | None
    exhausted: bool
    nodes: int

    @property
    def verdict(self) -> str:
        if self.witness is not None:
            return "WITNESS"
        return "exhausted" if self.exhausted else "budget-truncated"


def probe_length_conjecture(order: int, node_budget: int | None = None) -> LengthProbeReport:
    """Search every deck of the order for a length above the fundamental number.

    The card count of any deck is bounded by the fundamental number, so
    enumerating up to that many cards, the default cap of
    :func:`enumerate_decks`, covers the whole order.  A witness would answer
    an open question and is surfaced loudly; absence is asserted only when
    the search ran to exhaustion.
    """
    result = enumerate_decks(order, node_budget=node_budget)
    max_length = max((form.length for form in result.forms), default=0)
    witness = next((form for form in result.forms if form.length > result.max_cards), None)
    return LengthProbeReport(
        order=order,
        fundamental=result.max_cards,
        classes_seen=len(result.forms),
        max_length=max_length,
        witness=witness,
        exhausted=result.complete,
        nodes=result.nodes,
    )
