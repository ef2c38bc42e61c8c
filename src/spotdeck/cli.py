"""Command-line surface tying the modules together.

Exit codes: 0 success (valid deck, maximal verdict, search ran), 1 invalid
deck or a negative verdict from ``maximal``/``extend``, 2 usage or parse
errors, 3 internal error (an ``InvariantViolation``, which means a bug in
this package; one ``internal error: ...`` line on stderr, no traceback).
Results go to stdout, diagnostics to stderr.  ``--json`` switches
any command to a machine-readable payload with stable key order.
"""

from __future__ import annotations

import argparse
import sys

from .analysis import (
    check_identities,
    check_kn2_lemma,
    classify,
    find_common_triple,
    fundamental_number,
    multiplicities,
)
from .constructions import build_grid_blocks, build_paired, build_two_symmetric
from .deck import Deck, DeckError, InvariantViolation, validate
from .enumeration import census, enumerate_decks, probe_length_conjecture
from .formats import deck_payload, parse_deck_text, render_deck_text, to_json
from .maximality import complete, is_maximal

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

DEFAULT_NODE_BUDGET = 250_000


def _load(path: str) -> Deck:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_deck_text(handle.read())


def _budget(value: int) -> int | None:
    # 0 means unlimited; the search rejects a negative budget
    return value or None


def _print_violations(violations) -> None:
    """The violation count on stdout, then one line per violation on stderr."""
    print(f"invalid: {len(violations)} violation(s)")
    for violation in violations:
        print(f"{violation.axiom}: {violation.message}", file=sys.stderr)


def _load_valid(path: str) -> Deck | None:
    """The deck in the file, or ``None`` after reporting its violations."""
    deck = _load(path)
    result = validate(deck)
    if result.valid:
        return deck
    _print_violations(result.violations)
    return None


def cmd_verify(args: argparse.Namespace) -> int:
    deck = _load(args.file)
    result = validate(deck)
    if args.json:
        payload = deck_payload(deck)
        payload["valid"] = result.valid
        payload["violations"] = [
            {"axiom": v.axiom, "message": v.message, "cards": list(v.cards), "count": v.count}
            for v in result.violations
        ]
        sys.stdout.write(to_json(payload))
        return EXIT_OK if result.valid else EXIT_FAIL
    if result.valid:
        print(f"valid: n={deck.order} c={deck.card_count} l={deck.length}")
        return EXIT_OK
    _print_violations(result.violations)
    return EXIT_FAIL


def cmd_analyze(args: argparse.Namespace) -> int:
    deck = _load_valid(args.file)
    if deck is None:
        return EXIT_FAIL
    table = multiplicities(deck)
    report = check_identities(deck)
    tags = classify(deck)
    verdict = is_maximal(deck)
    if args.json:
        payload = deck_payload(deck)
        payload["valid"] = True
        payload["multiplicities"] = {deck.tokens[s]: m for s, m in enumerate(table.counts)}
        payload["histogram"] = {str(m): k for m, k in sorted(table.histogram.items())}
        payload["identities"] = {check.name: check.holds for check in report.checks}
        payload["classification"] = {
            "fundamental": tags.fundamental,
            "symmetric": tags.symmetric,
            "symmetric_multiplicity": tags.symmetric_multiplicity,
            "paired": tags.paired,
            "length_vs_fundamental": tags.length_vs_fundamental,
            "two_multiplicity_split": list(tags.two_multiplicity_split)
            if tags.two_multiplicity_split
            else None,
        }
        payload["maximality"] = {
            "sufficient_corollary": verdict.sufficient_corollary,
            "prop_condition": verdict.prop_condition,
            "maximal": verdict.exact,
        }
        sys.stdout.write(to_json(payload))
        return EXIT_OK
    print(f"deck: n={deck.order} c={deck.card_count} l={deck.length}")
    print(f"multiplicities: lo={table.lo} hi={table.hi}")
    print(
        "histogram: "
        + " ".join(f"{m}x{k}" for m, k in sorted(table.histogram.items()))
    )
    held = sum(1 for check in report.checks if check.holds)
    print(f"identities: {held}/{len(report.checks)} hold")
    for check in report.failures():
        print(f"  FAILED {check.name}: {check.detail}")
    bits = []
    bits.append(
        f"symmetric(M={tags.symmetric_multiplicity})" if tags.symmetric else "not symmetric"
    )
    bits.append("paired" if tags.paired else "not paired")
    bits.append("maximal" if verdict.exact else "not maximal")
    bits.append(f"length {tags.length_vs_fundamental} than fundamental {tags.fundamental}"
                if tags.length_vs_fundamental != "equal"
                else f"length equal to fundamental {tags.fundamental}")
    print("classification: " + ", ".join(bits))
    if tags.two_multiplicity_split:
        low, high = tags.two_multiplicity_split
        print(f"two-multiplicity split: {low} low + {high} high per card")
    if tags.length_vs_fundamental == "greater":
        print("NOTE: length exceeds the fundamental number; no such deck was previously known")
    return EXIT_OK


def cmd_build(args: argparse.Namespace) -> int:
    if args.kind == "two-symmetric":
        deck = build_two_symmetric(args.n)
    elif args.kind == "paired":
        deck = build_paired(args.n)
    else:
        if args.blocks is None:
            print("error: grid needs --blocks", file=sys.stderr)
            return EXIT_USAGE
        deck = build_grid_blocks(args.n, args.blocks)
    if args.json:
        sys.stdout.write(to_json(deck_payload(deck)))
    else:
        sys.stdout.write(render_deck_text(deck))
    return EXIT_OK


def cmd_maximal(args: argparse.Namespace) -> int:
    deck = _load_valid(args.file)
    if deck is None:
        return EXIT_FAIL
    verdict = is_maximal(deck)
    extension_tokens = (
        [deck.tokens[s] for s in sorted(verdict.extension)] if verdict.extension else None
    )
    if args.json:
        payload = {
            "sufficient_corollary": verdict.sufficient_corollary,
            "prop_condition": verdict.prop_condition,
            "maximal": verdict.exact,
            "extension": extension_tokens,
            "necessity_open": verdict.necessity_open,
        }
        sys.stdout.write(to_json(payload))
        return EXIT_OK if verdict.exact else EXIT_FAIL
    print(f"sufficient condition (min-sum): {'holds' if verdict.sufficient_corollary else 'fails'}")
    print(f"subset-sum condition: {'holds' if verdict.prop_condition else 'fails'}")
    if verdict.exact:
        print("maximal: yes")
        if verdict.necessity_open:
            print("note: maximal although the subset-sum condition fails (recorded curiosity)")
        return EXIT_OK
    print("maximal: no")
    print("extension: " + " ".join(extension_tokens))
    return EXIT_FAIL


def cmd_extend(args: argparse.Namespace) -> int:
    deck = _load_valid(args.file)
    if deck is None:
        return EXIT_FAIL
    outcome = complete(deck, args.steps)
    if args.json:
        payload = deck_payload(outcome.deck)
        payload["added"] = outcome.steps
        payload["maximal"] = outcome.maximal
        sys.stdout.write(to_json(payload))
    else:
        sys.stdout.write(render_deck_text(outcome.deck))
        print(f"added {outcome.steps} card(s); maximal: {'yes' if outcome.maximal else 'no'}", file=sys.stderr)
    return EXIT_OK if outcome.maximal else EXIT_FAIL


def cmd_enumerate(args: argparse.Namespace) -> int:
    max_cards = args.cmax if args.cmax is not None else fundamental_number(args.n)
    result = enumerate_decks(args.n, max_cards, _budget(args.budget))
    if args.json:
        payload = {
            "order": args.n,
            "max_cards": max_cards,
            "complete": result.complete,
            "nodes": result.nodes,
            "classes": [
                {
                    "cards": [list(card) for card in form.cards],
                    "card_count": form.card_count,
                    "length": form.length,
                    "digest": form.digest(),
                }
                for form in result.forms
            ],
        }
        sys.stdout.write(to_json(payload))
        return EXIT_OK
    for form in result.forms:
        body = " | ".join(" ".join(map(str, card)) for card in form.cards)
        print(f"c={form.card_count} l={form.length}: {body}")
    state = "complete" if result.complete else "budget-truncated"
    print(f"classes: {len(result.forms)} ({state}, {result.nodes} nodes)")
    return EXIT_OK


def cmd_probe_length(args: argparse.Namespace) -> int:
    report = probe_length_conjecture(args.n, _budget(args.budget))
    if args.json:
        payload = {
            "order": report.order,
            "fundamental": report.fundamental,
            "classes_seen": report.classes_seen,
            "max_length": report.max_length,
            "witness": [list(card) for card in report.witness.cards] if report.witness else None,
            "verdict": report.verdict,
            "nodes": report.nodes,
        }
        sys.stdout.write(to_json(payload))
        return EXIT_OK
    print(f"order {report.order}: fundamental number {report.fundamental}")
    print(f"searched {report.classes_seen} classes, max length {report.max_length}, {report.nodes} nodes")
    if report.witness is not None:
        body = " | ".join(" ".join(map(str, card)) for card in report.witness.cards)
        print(f"WITNESS FOUND: length {report.witness.length} exceeds the fundamental number: {body}")
        print("this answers an open question; please double-check and report it")
    elif report.exhausted:
        print("no deck longer than the fundamental number exists at this order (search exhausted)")
    else:
        print("no witness found, but the search was budget-truncated: inconclusive")
    return EXIT_OK


def cmd_census(args: argparse.Namespace) -> int:
    report = census(args.n, args.cmax, _budget(args.budget))
    if args.json:
        payload = {
            "order": report.order,
            "complete": report.complete,
            "nodes": report.nodes,
            "classes": [
                {
                    "card_count": e.card_count,
                    "length": e.length,
                    "histogram": {str(m): k for m, k in e.histogram},
                    "symmetric": e.symmetric,
                    "paired": e.paired,
                    "maximal": e.maximal,
                    "digest": e.digest,
                    "classes_with_key": e.classes_with_key,
                }
                for e in report.entries
            ],
            "collisions": [
                {"triple": list(triple), "digests": list(digests)}
                for triple, digests in report.collisions
            ],
        }
        sys.stdout.write(to_json(payload))
        return EXIT_OK
    for e in report.entries:
        hist = " ".join(f"{m}x{k}" for m, k in e.histogram)
        flags = ",".join(
            name
            for name, on in (("symmetric", e.symmetric), ("paired", e.paired), ("maximal", e.maximal))
            if on
        ) or "-"
        print(f"c={e.card_count} l={e.length} hist=[{hist}] flags={flags} digest={e.digest}")
    if report.collisions:
        for triple, digests in report.collisions:
            print(f"COLLISION (n,c,l)={triple}: classes {', '.join(digests)}")
    else:
        print("collisions: none in the searched space")
    state = "complete" if report.complete else "budget-truncated"
    print(f"classes: {len(report.entries)} ({state}, {report.nodes} nodes)")
    return EXIT_OK


def cmd_spot(args: argparse.Namespace) -> int:
    deck = _load_valid(args.file)
    if deck is None:
        return EXIT_FAIL
    try:
        indices = [int(part) for part in args.cards.split(",") if part.strip() != ""]
    except ValueError:
        print("error: --cards wants a comma-separated list of card indices", file=sys.stderr)
        return EXIT_USAGE
    n = deck.order
    laid_out = len(indices)
    if laid_out == n + 1:
        triple, single = find_common_triple(deck, indices)
        triple_cards = [i for i in indices if triple in deck.cards[i]]
        single_cards = [i for i in indices if single in deck.cards[i]]
        if args.json:
            payload = {
                "triple_symbol": deck.tokens[triple],
                "triple_cards": triple_cards,
                "single_symbol": deck.tokens[single],
                "single_cards": single_cards,
            }
            sys.stdout.write(to_json(payload))
            return EXIT_OK
        print(
            f"symbol {deck.tokens[triple]} is on {len(triple_cards)} of the chosen cards: "
            + ", ".join(map(str, triple_cards))
        )
        print(f"symbol {deck.tokens[single]} is on exactly one chosen card: {single_cards[0]}")
        return EXIT_OK
    if laid_out >= n + 2 and (laid_out - 2) % n == 0:
        k = (laid_out - 2) // n
        symbol = check_kn2_lemma(deck, indices, k)
        hit = [i for i in indices if symbol in deck.cards[i]]
        if args.json:
            payload = {"symbol": deck.tokens[symbol], "cards": hit, "guarantee": k + 2}
            sys.stdout.write(to_json(payload))
            return EXIT_OK
        print(
            f"symbol {deck.tokens[symbol]} is on {len(hit)} of the chosen cards "
            f"(guaranteed at least {k + 2}): " + ", ".join(map(str, hit))
        )
        return EXIT_OK
    print(
        f"error: lay out either n+1 = {n + 1} cards or k*n+2 cards (k >= 1); got {laid_out}",
        file=sys.stderr,
    )
    return EXIT_USAGE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spotdeck",
        description="Verify, analyze, construct, and enumerate matching-card decks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p: argparse.ArgumentParser) -> None:
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("verify", help="check the deck axioms on a file")
    p.add_argument("file")
    add_json(p)
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("analyze", help="multiplicity statistics, identities, classification")
    p.add_argument("file")
    add_json(p)
    p.set_defaults(handler=cmd_analyze)

    p = sub.add_parser("build", help="construct a deck family member")
    p.add_argument("kind", choices=["two-symmetric", "paired", "grid"])
    p.add_argument("--n", type=int, required=True, help="deck order (symbols per card)")
    p.add_argument("--blocks", type=int, help="block count for the grid construction")
    add_json(p)
    p.set_defaults(handler=cmd_build)

    p = sub.add_parser("maximal", help="decide whether a deck is maximal")
    p.add_argument("file")
    add_json(p)
    p.set_defaults(handler=cmd_maximal)

    p = sub.add_parser("extend", help="add extension cards until maximal")
    p.add_argument("file")
    p.add_argument("--steps", type=int, default=None, help="stop after this many added cards")
    add_json(p)
    p.set_defaults(handler=cmd_extend)

    p = sub.add_parser("enumerate", help="all isomorphism classes at a small order")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cmax", type=int, default=None, help="largest card count (default: fundamental number)")
    p.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET, help="node budget, 0 = unlimited")
    add_json(p)
    p.set_defaults(handler=cmd_enumerate)

    p = sub.add_parser("probe-length", help="hunt for a deck longer than its fundamental number")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET, help="node budget, 0 = unlimited")
    add_json(p)
    p.set_defaults(handler=cmd_probe_length)

    p = sub.add_parser("census", help="class census grouped by (order, cards, length)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cmax", type=int, default=None)
    p.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET, help="node budget, 0 = unlimited")
    add_json(p)
    p.set_defaults(handler=cmd_census)

    p = sub.add_parser("spot", help="mini-game helper: find the guaranteed common symbol")
    p.add_argument("file")
    p.add_argument("--cards", required=True, help="comma-separated card indices (0-based)")
    add_json(p)
    p.set_defaults(handler=cmd_spot)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (DeckError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InvariantViolation as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
