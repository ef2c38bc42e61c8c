"""Test-side brute-force oracles, deliberately independent of the package's search code.

Everything here works on plain tuples and sets: validity is re-derived from
the axioms with ``set`` intersections, enumeration is a raw generate-and-filter
over normal-form card lists, and isomorphism classes are grouped by explicit
bijection search.  The census golden files under ``tests/data`` are produced
by this module (run it as a script) and the fast generator must agree with
them exactly.  ``pairwise_violations`` is the card-pair-by-card-pair axiom
check that ``validate`` must reproduce violation for violation, and
``reference_normalize`` the one-pass token scan that ``normalize`` must
reproduce field for field and error for error.
``bnb_minimal_form`` and ``bnb_is_self_canonical`` are the lex-min
branch-and-bound without automorphism pruning, which the package's pruned
search must reproduce form for form and verdict for verdict.
``reference_minimal_form`` is the pruned search itself on padded id tuples,
with its own orbit closure ``reference_orbit_closure``, which the package's
search on numbers must reproduce node for node.
``normal_states`` lists every normal-form state, ``orderly_states`` the
ones the census search visits once it stops below non-canonical states,
and ``exact_hitting_sets`` lists by ``combinations`` the symbol sets that
the package's star-partition search must visit.
"""

from __future__ import annotations

import json
import sys
from itertools import combinations, permutations
from pathlib import Path

DATA_DIR = Path(__file__).parent / "data"


def deck_valid(cards) -> bool:
    """Axiom check from scratch: pairwise one-symbol overlaps, all counts >= 2."""
    if len(cards) < 2:
        return False
    sets = [set(card) for card in cards]
    if any(len(s) < 2 for s in sets):
        return False
    if len({len(s) for s in sets}) != 1:
        return False
    for a, b in combinations(sets, 2):
        if len(a & b) != 1:
            return False
    counts: dict[int, int] = {}
    for s in sets:
        for symbol in s:
            counts[symbol] = counts.get(symbol, 0) + 1
    return all(value >= 2 for value in counts.values())


def reference_normalize(raw_cards) -> dict:
    """The deck fields ``normalize`` builds, from one scan that checks each token as it goes.

    Returns ``cards``, ``order``, ``length``, ``tokens``, ``rows`` and
    ``stars``; raises ``MalformedCardError`` or ``ValueError`` with the same
    message as ``normalize``, at the same first bad card.
    """
    # imported here, so that running this module as a script needs no spotdeck
    from spotdeck.deck import MalformedCardError

    if not raw_cards:
        raise ValueError("a deck needs at least one card")
    ids: dict[str, int] = {}
    tokens: list[str] = []
    rows: list[tuple[int, ...]] = []
    stars: list[int] = []
    for row_index, raw in enumerate(raw_cards):
        if not raw:
            raise ValueError(f"card {row_index} is empty")
        bit = 1 << row_index
        row: list[int] = []
        seen: set[str] = set()
        for item in raw:
            token = str(item)
            if token in seen:
                raise MalformedCardError(f"card {row_index} repeats symbol {token!r}")
            seen.add(token)
            if token not in ids:
                ids[token] = len(tokens)
                tokens.append(token)
                stars.append(0)
            s = ids[token]
            row.append(s)
            stars[s] |= bit
        rows.append(tuple(row))
    cards = tuple(tuple(sorted(row)) for row in rows)
    return {
        "cards": cards,
        "order": len(cards[0]),
        "length": len(tokens),
        "tokens": tuple(tokens),
        "rows": tuple(rows),
        "stars": tuple(stars),
    }


def pairwise_violations(deck) -> tuple[tuple, ...]:
    """Every axiom violation of a normalized deck, D1 found by visiting all card pairs.

    Each violation is the field tuple ``(axiom, message, cards, symbols,
    count)`` of ``spotdeck.deck.Violation``, with the same order, messages and
    witnesses as ``validate``: D5, then D3/D4 per card, D1 per pair (i, j) in
    lexicographic order, D2 per symbol.
    """
    violations: list[tuple] = []
    if deck.length < 1:
        violations.append(("D5", "the deck has no symbols", (), (), 0))
    for i, card in enumerate(deck.cards):
        size = len(card)
        if size < 2:
            violations.append(("D3", f"card {i} has only {size} symbol(s)", (i,), (), size))
        if size != deck.order:
            message = f"card {i} has {size} symbols, the first card has {deck.order}"
            violations.append(("D4", message, (i,), (), size))
    sets = [set(card) for card in deck.cards]
    for i, j in combinations(range(len(sets)), 2):
        shared = tuple(sorted(sets[i] & sets[j]))
        if len(shared) != 1:
            names = ", ".join(deck.tokens[s] for s in shared) or "nothing"
            message = f"cards {i} and {j} share {len(shared)} symbols ({names})"
            violations.append(("D1", message, (i, j), shared, len(shared)))
    counts = [0] * deck.length
    for card in sets:
        for s in card:
            counts[s] += 1
    for s, m in enumerate(counts):
        if m < 2:
            violations.append(("D2", f"symbol {deck.tokens[s]!r} appears on {m} card(s)", (), (s,), m))
    return tuple(violations)


def multiplicity_histogram(cards) -> dict[int, int]:
    counts: dict[int, int] = {}
    for card in cards:
        for symbol in card:
            counts[symbol] = counts.get(symbol, 0) + 1
    hist: dict[int, int] = {}
    for value in counts.values():
        hist[value] = hist.get(value, 0) + 1
    return hist


def normal_states(order: int, max_cards: int):
    """Yield every normal-form state the raw generator visits, valid or not.

    Normal form: cards strictly increasing as sorted tuples, new symbols
    numbered consecutively on first use, every card meeting each earlier card
    in exactly one symbol.  The states start from the card 0..order-1 and stop
    growing at ``max_cards`` cards.
    """
    yield from _normal_walk(order, max_cards, lambda cards, used: True)


def orderly_states(order: int, max_cards: int):
    """Yield the normal-form states the census search visits, in its order.

    The walk of ``normal_states``, stopped below every state of two or more
    cards that ``bnb_is_self_canonical`` rejects.  Rejected states are still
    yielded, since the search visits them before it stops, so the count is
    ``enumerate_decks``'s node count.
    """

    def canonical(cards, used):
        return len(cards) < 2 or bnb_is_self_canonical(order, used, cards)

    yield from _normal_walk(order, max_cards, canonical)


def _normal_walk(order: int, max_cards: int, grows):
    """Depth-first walk over normal-form states, descending below those ``grows`` accepts."""
    first = tuple(range(order))

    def rec(cards: list[tuple[int, ...]], used: int):
        yield cards
        if len(cards) == max_cards or not grows(cards, used):
            return
        last = cards[-1]
        sets = [set(card) for card in cards]
        for new_count in range(order):
            old_count = order - new_count
            for old in combinations(range(used), old_count):
                chosen = set(old)
                if any(len(chosen & s) != 1 for s in sets):
                    continue
                card = old + tuple(range(used, used + new_count))
                if card <= last:
                    continue
                yield from rec(cards + [card], used + new_count)

    yield from rec([first], order)


def all_normal_decks(order: int, max_cards: int) -> list[list[tuple[int, ...]]]:
    """Every valid deck as a normal-form card list, with no isomorph rejection.

    Each isomorphism class shows up at least once (usually many times);
    grouping happens afterwards.
    """
    return [cards for cards in normal_states(order, max_cards) if deck_valid(cards)]


def exact_hitting_sets(cards, length: int, n: int) -> list[frozenset[int]]:
    """Every set of 1..n symbols meeting each card in exactly one symbol.

    Such a set is one whose stars (the cards carrying each symbol) are
    pairwise disjoint and cover the deck.  Plain ``combinations`` over all
    symbols is too slow for order-7 decks, so this meets in the middle: it
    takes the combinations of at most n symbols with pairwise disjoint stars
    from the lower half of the symbols, and likewise from the upper half, and
    joins two of them when their stars are complementary.  Every result is
    re-checked against the definition with set intersections.
    """
    stars = [0] * length
    for index, card in enumerate(cards):
        for s in card:
            stars[s] |= 1 << index
    full = (1 << len(cards)) - 1

    def disjoint_unions(symbols) -> dict[int, list[tuple[int, ...]]]:
        unions: dict[int, list[tuple[int, ...]]] = {}
        for k in range(n + 1):
            for combo in combinations(symbols, k):
                union = 0
                for s in combo:
                    if union & stars[s]:
                        break
                    union |= stars[s]
                else:
                    unions.setdefault(union, []).append(combo)
        return unions

    half = length // 2
    low = disjoint_unions(range(half))
    high = disjoint_unions(range(half, length))
    found = []
    for union, lows in low.items():
        for a in lows:
            for b in high.get(full ^ union, ()):
                if 1 <= len(a) + len(b) <= n:
                    found.append(frozenset(a + b))
    card_sets = [set(card) for card in cards]
    assert all(len(card & chosen) == 1 for chosen in found for card in card_sets)
    return found


def _fingerprint(cards) -> tuple:
    """Cheap isomorphism invariant used to bucket decks before bijection search."""
    counts: dict[int, int] = {}
    for card in cards:
        for symbol in card:
            counts[symbol] = counts.get(symbol, 0) + 1
    profile = tuple(sorted(tuple(sorted(counts[s] for s in card)) for card in cards))
    return (len(cards), len(counts), tuple(sorted(counts.values())), profile)


def are_isomorphic(cards_a, cards_b) -> bool:
    """Explicit symbol-bijection search; multiplicity classes restrict candidates."""
    if _fingerprint(cards_a) != _fingerprint(cards_b):
        return False
    set_a = {frozenset(card) for card in cards_a}
    set_b = {frozenset(card) for card in cards_b}

    def mult(cards):
        counts: dict[int, int] = {}
        for card in cards:
            for symbol in card:
                counts[symbol] = counts.get(symbol, 0) + 1
        return counts

    mult_a, mult_b = mult(cards_a), mult(cards_b)
    classes_a: dict[int, list[int]] = {}
    classes_b: dict[int, list[int]] = {}
    for s, m in mult_a.items():
        classes_a.setdefault(m, []).append(s)
    for s, m in mult_b.items():
        classes_b.setdefault(m, []).append(s)

    # one permutation per multiplicity class, combined recursively
    groups = sorted(classes_a)

    def assign(index: int, mapping: dict[int, int]) -> bool:
        if index == len(groups):
            mapped = {frozenset(mapping[s] for s in card) for card in set_a}
            return mapped == set_b
        m = groups[index]
        for perm in permutations(classes_b[m]):
            next_mapping = dict(mapping)
            next_mapping.update(zip(classes_a[m], perm))
            if assign(index + 1, next_mapping):
                return True
        return False

    return assign(0, {})


def iso_classes(decks) -> list[list[list[tuple[int, ...]]]]:
    """Group decks into isomorphism classes (first member is the representative)."""
    buckets: dict[tuple, list[int]] = {}
    classes: list[list[list[tuple[int, ...]]]] = []
    for cards in decks:
        key = _fingerprint(cards)
        hits = buckets.setdefault(key, [])
        for class_index in hits:
            if are_isomorphic(cards, classes[class_index][0]):
                classes[class_index].append(cards)
                break
        else:
            hits.append(len(classes))
            classes.append([cards])
    return classes


def brute_min_form(cards, length: int) -> tuple[tuple[int, ...], ...]:
    """Smallest relabeled sorted card list over all symbol permutations (tiny decks)."""
    best = None
    for perm in permutations(range(length)):
        form = tuple(sorted(tuple(sorted(perm[s] for s in card)) for card in cards))
        if best is None or form < best:
            best = form
    return best


class _FoundSmaller(Exception):
    """Raised to abort a seeded canonicity check once any smaller form appears."""


def bnb_minimal_form(
    n: int,
    length: int,
    cards: list[tuple[int, ...]],
    seed: list[tuple[int, ...]] | None = None,
    stop_below_seed: bool = False,
) -> tuple[tuple[int, ...], ...]:
    """Branch-and-bound over which old symbol receives each successive new id.

    The bound pads every partially relabeled card with the smallest ids it
    could still receive; assigned ids always sit below pending ones, so each
    padded card is an elementwise lower bound of its completion and a branch
    whose padded sorted list is not below the incumbent is dead.  ``seed``
    primes the incumbent (it must be an achievable form); with
    ``stop_below_seed`` the search raises ``_FoundSmaller`` as soon as any
    strictly smaller complete form turns up.  No automorphism is used, so
    every labeling that could still beat the incumbent is visited.
    """
    member_cards: list[list[int]] = [[] for _ in range(length)]
    for index, card in enumerate(cards):
        for s in card:
            member_cards[s].append(index)
    best: list[tuple[int, ...]] | None = list(seed) if seed is not None else None

    # filler[k][need] completes a card missing `need` symbols with k, k+1, ...
    filler = [
        [tuple(range(k, k + need)) for need in range(n + 1)] for k in range(length + 1)
    ]

    def padded(partials: list[tuple[int, ...]], k: int) -> list[tuple[int, ...]]:
        fills = filler[k]
        out = [part + fills[n - len(part)] for part in partials]
        out.sort()
        return out

    def search(k: int, partials: list[tuple[int, ...]], free: list[int]) -> None:
        nonlocal best
        if k == length:
            bound = padded(partials, k)
            if best is None or bound < best:
                best = bound
                if stop_below_seed:
                    raise _FoundSmaller
            return
        ranked = []
        for s in free:
            child = list(partials)
            for index in member_cards[s]:
                child[index] = child[index] + (k,)
            ranked.append((padded(child, k + 1), s, child))
        ranked.sort(key=lambda item: item[:2])
        for child_bound, s, child in ranked:
            if best is not None and child_bound >= best:
                break  # ranked ascending, the rest cannot beat the best either
            search(k + 1, child, [t for t in free if t != s])

    search(0, [()] * len(cards), list(range(length)))
    assert best is not None
    return tuple(best)


def bnb_is_self_canonical(n: int, length: int, cards: list[tuple[int, ...]]) -> bool:
    """True when the card list equals its own canonical form, by the unpruned search."""
    try:
        bnb_minimal_form(n, length, cards, seed=list(cards), stop_below_seed=True)
    except _FoundSmaller:
        return False
    return True


def reference_orbit_closure(mask: int, perms: list[tuple[int, ...]]) -> int:
    """The smallest superset of the symbol bitmask that every permutation maps into itself.

    Every frontier symbol goes through every permutation, moved by it or not.
    """
    frontier = mask
    while frontier:
        images = 0
        for perm in perms:
            rest = frontier
            while rest:
                low = rest & -rest
                images |= 1 << perm[low.bit_length() - 1]
                rest ^= low
        frontier = images & ~mask
        mask |= frontier
    return mask


def reference_minimal_form(n: int, cards, stars, budget, stop_below_seed: bool = False) -> tuple:
    """``spotdeck.enumeration._minimal_form`` as it ran on tuples before cards became numbers.

    Same arguments, same search tree: each node pads its partial cards
    twice, from k and from k + 1, by tuple concatenation, and ranks its
    children by their sorted padded card lists.  It spends ``budget`` once
    per node, so ``budget.used`` must come out equal too.  Each node copies
    the generators that fix its assigned symbols into its own stabilizer
    list and closes orbits with :func:`reference_orbit_closure`, which maps
    every frontier symbol through every permutation; the package's search
    keeps one generator list and maps only the symbols a generator moves.
    """
    from spotdeck.enumeration import _known_automorphisms

    length = len(stars)
    carriers = [[i for i in range(len(cards)) if m >> i & 1] for m in stars]
    best = sorted(cards)
    best_path = list(range(length))
    searched = False
    generators = _known_automorphisms(cards, stars)
    path: list[int] = []
    filler = [[tuple(range(k, k + need)) for need in range(n + 1)] for k in range(length + 1)]

    def search(k: int, partials: list[tuple[int, ...]], free: list[int], fixed: int) -> int:
        nonlocal best, best_path, searched
        budget.spend()
        if k == length:
            form = sorted(partials)
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
        later = [part + filler[k + 1][n - len(part)] for part in partials]
        gained = [part + filler[k][n - len(part)] for part in partials]
        ranked = []
        for s in free:
            bound = list(later)
            for index in carriers[s]:
                bound[index] = gained[index]
            bound.sort()
            ranked.append((bound, s))
        ranked.sort()
        stabilizer: list[tuple[int, ...]] = []
        known = 0
        done = 0
        for child_bound, s in ranked:
            if child_bound > best:
                break
            if known < len(generators):
                stabilizer += [perm for perm, moved in generators[known:] if not moved & fixed]
                known = len(generators)
                done = reference_orbit_closure(done, stabilizer)
            if done >> s & 1:
                continue
            done = reference_orbit_closure(done | 1 << s, stabilizer)
            child = list(partials)
            for index in carriers[s]:
                child[index] = child[index] + (k,)
            path.append(s)
            target = search(k + 1, child, [t for t in free if t != s], fixed | 1 << s)
            path.pop()
            if target < k:
                return target
        return k

    search(0, [()] * len(cards), list(range(length)), 0)
    return tuple(best)


def oracle_census(order: int, max_cards: int) -> dict:
    """Class census computed entirely by brute force, for the golden files."""
    decks = all_normal_decks(order, max_cards)
    classes = iso_classes(decks)
    rows = []
    for members in classes:
        rep = members[0]
        symbols = {s for card in rep for s in card}
        rows.append(
            {
                "card_count": len(rep),
                "length": len(symbols),
                "histogram": {str(m): k for m, k in sorted(multiplicity_histogram(rep).items())},
                "labelings_seen": len(members),
            }
        )
    rows.sort(key=lambda row: (row["card_count"], row["length"], sorted(row["histogram"].items())))
    triples: dict[tuple[int, int, int], int] = {}
    for row in rows:
        key = (order, row["card_count"], row["length"])
        triples[key] = triples.get(key, 0) + 1
    collisions = [list(key) for key, count in sorted(triples.items()) if count > 1]
    return {
        "order": order,
        "max_cards": max_cards,
        "class_count": len(rows),
        "classes": rows,
        "collisions": collisions,
    }


def write_golden() -> None:
    DATA_DIR.mkdir(exist_ok=True)
    for order, max_cards in ((2, 3), (3, 7)):
        payload = oracle_census(order, max_cards)
        path = DATA_DIR / f"census_n{order}.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}: {payload['class_count']} classes")


if __name__ == "__main__":
    write_golden()
    sys.exit(0)
