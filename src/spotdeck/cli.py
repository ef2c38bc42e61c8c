"""Command-line surface tying the modules together.

Exit codes: 0 success (valid deck, maximal verdict, search ran), 1 invalid
deck or a negative verdict from ``maximal``/``extend``, 2 usage or parse
errors or a ``RecursionError`` (a search deeper than Python's recursion
limit: the canonicity proof recurses once per symbol), 3 internal error (an
``InvariantViolation``, which means a bug in this package, such as an
identity that ``analyze`` finds false on a valid deck; one ``internal
error: ...`` line on stderr, no traceback).
Results go to stdout, diagnostics to stderr.  With ``--json`` every result
is one JSON document on stdout, with stable key order, and stderr stays
empty.  Errors are text in both modes: one ``error: ...`` or ``internal
error: ...`` line on stderr, or, for an invalid input deck, the violation
report (``invalid: N violation(s)`` on stdout, one line per violation on
stderr), which the benchmark's answer check pins; :func:`main` prints it
from the ``InvalidDeckError`` that the library's validity gate raises.

Each ``cmd_*`` handler computes its result and returns the exit code and two
functions: one builds the JSON payload, the other the text lines.  ``extend``
adds the status line it writes to stderr in text mode.  :func:`main` alone
picks the mode, calls one of the two and writes, so JSON mode renders no
deck text and text mode builds no payload.

The argument parser is built once per process, on the first :func:`main`
call, and reused by every later call; nothing is built at import.  It holds
the ``cmd_*`` handlers themselves, so a handler patched after that first
call is not the one that runs.
"""

from __future__ import annotations

import argparse
import functools
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
from .deck import Deck, DeckError, InvalidDeckError, InvariantViolation, require_valid, validate
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


def _load_valid(path: str) -> Deck:
    """The deck in the file; raises ``InvalidDeckError`` if it breaks an axiom."""
    deck = _load(path)
    require_valid(deck)
    return deck


def cmd_verify(args: argparse.Namespace):
    deck = _load(args.file)
    result = validate(deck)

    def text():
        require_valid(deck)
        yield f"valid: n={deck.order} c={deck.card_count} l={deck.length}"

    return EXIT_OK if result.valid else EXIT_FAIL, lambda: {
        **deck_payload(deck),
        "valid": result.valid,
        "violations": [
            {"axiom": v.axiom, "message": v.message, "cards": list(v.cards), "count": v.count}
            for v in result.violations
        ],
    }, text


def cmd_analyze(args: argparse.Namespace):
    deck = _load_valid(args.file)
    table = multiplicities(deck)
    report = check_identities(deck)
    tags = classify(deck)
    verdict = is_maximal(deck)

    def text():
        yield f"deck: n={deck.order} c={deck.card_count} l={deck.length}"
        yield f"multiplicities: lo={table.lo} hi={table.hi}"
        yield "histogram: " + " ".join(f"{m}x{k}" for m, k in sorted(table.histogram.items()))
        yield f"identities: {len(report.checks)}/{len(report.checks)} hold"
        bits = [
            f"symmetric(M={tags.symmetric_multiplicity})" if tags.symmetric else "not symmetric",
            "paired" if tags.paired else "not paired",
            "maximal" if verdict.exact else "not maximal",
            f"length {tags.length_vs_fundamental} than fundamental {tags.fundamental}"
            if tags.length_vs_fundamental != "equal"
            else f"length equal to fundamental {tags.fundamental}",
        ]
        yield "classification: " + ", ".join(bits)
        if tags.two_multiplicity_split:
            low, high = tags.two_multiplicity_split
            yield f"two-multiplicity split: {low} low + {high} high per card"
        if tags.length_vs_fundamental == "greater":
            yield "NOTE: length exceeds the fundamental number; no such deck was previously known"

    return EXIT_OK, lambda: {
        **deck_payload(deck),
        "valid": True,
        "multiplicities": {deck.tokens[s]: m for s, m in enumerate(table.counts)},
        "histogram": {str(m): k for m, k in sorted(table.histogram.items())},
        "identities": {name: True for name in report.checks},
        "classification": {
            "fundamental": tags.fundamental,
            "symmetric": tags.symmetric,
            "symmetric_multiplicity": tags.symmetric_multiplicity,
            "paired": tags.paired,
            "length_vs_fundamental": tags.length_vs_fundamental,
            "two_multiplicity_split": list(tags.two_multiplicity_split)
            if tags.two_multiplicity_split
            else None,
        },
        "maximality": {
            "sufficient_corollary": verdict.sufficient_corollary,
            "prop_condition": verdict.prop_condition,
            "maximal": verdict.exact,
        },
    }, text


def cmd_build(args: argparse.Namespace):
    if args.kind == "two-symmetric":
        deck = build_two_symmetric(args.n)
    elif args.kind == "paired":
        deck = build_paired(args.n)
    elif args.blocks is None:
        raise ValueError("grid needs --blocks")
    else:
        deck = build_grid_blocks(args.n, args.blocks)
    # one line per card: no token holds a line break (built tokens are integers,
    # parsed ones are split on whitespace)
    return EXIT_OK, lambda: deck_payload(deck), lambda: render_deck_text(deck).splitlines()


def cmd_maximal(args: argparse.Namespace):
    deck = _load_valid(args.file)
    verdict = is_maximal(deck)
    extension_tokens = (
        [deck.tokens[s] for s in sorted(verdict.extension)] if verdict.extension else None
    )

    def text():
        yield f"sufficient condition (min-sum): {'holds' if verdict.sufficient_corollary else 'fails'}"
        yield f"subset-sum condition: {'holds' if verdict.prop_condition else 'fails'}"
        if verdict.exact:
            yield "maximal: yes"
            if verdict.necessity_open:
                yield "note: maximal although the subset-sum condition fails (recorded curiosity)"
        else:
            yield "maximal: no"
            yield "extension: " + " ".join(extension_tokens)

    return EXIT_OK if verdict.exact else EXIT_FAIL, lambda: {
        "sufficient_corollary": verdict.sufficient_corollary,
        "prop_condition": verdict.prop_condition,
        "maximal": verdict.exact,
        "extension": extension_tokens,
        "necessity_open": verdict.necessity_open,
    }, text


def cmd_extend(args: argparse.Namespace):
    deck = _load_valid(args.file)
    outcome = complete(deck, args.steps)
    return (
        EXIT_OK if outcome.maximal else EXIT_FAIL,
        lambda: {**deck_payload(outcome.deck), "added": outcome.steps, "maximal": outcome.maximal},
        lambda: render_deck_text(outcome.deck).splitlines(),
        f"added {outcome.steps} card(s); maximal: {'yes' if outcome.maximal else 'no'}",
    )


def cmd_enumerate(args: argparse.Namespace):
    max_cards = args.cmax if args.cmax is not None else fundamental_number(args.n)
    result = enumerate_decks(args.n, max_cards, _budget(args.budget))

    def text():
        for form in result.forms:
            body = " | ".join(" ".join(map(str, card)) for card in form.cards)
            yield f"c={form.card_count} l={form.length}: {body}"
        state = "complete" if result.complete else "budget-truncated"
        yield f"classes: {len(result.forms)} ({state}, {result.nodes} nodes)"

    return EXIT_OK, lambda: {
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
    }, text


def cmd_probe_length(args: argparse.Namespace):
    report = probe_length_conjecture(args.n, _budget(args.budget))

    def text():
        yield f"order {report.order}: fundamental number {report.fundamental}"
        yield f"searched {report.classes_seen} classes, max length {report.max_length}, {report.nodes} nodes"
        if report.witness is not None:
            body = " | ".join(" ".join(map(str, card)) for card in report.witness.cards)
            yield f"WITNESS FOUND: length {report.witness.length} exceeds the fundamental number: {body}"
            yield "this answers an open question; please double-check and report it"
        elif report.exhausted:
            yield "no deck longer than the fundamental number exists at this order (search exhausted)"
        else:
            yield "no witness found, but the search was budget-truncated: inconclusive"

    return EXIT_OK, lambda: {
        "order": report.order,
        "fundamental": report.fundamental,
        "classes_seen": report.classes_seen,
        "max_length": report.max_length,
        "witness": [list(card) for card in report.witness.cards] if report.witness else None,
        "verdict": report.verdict,
        "nodes": report.nodes,
    }, text


def cmd_census(args: argparse.Namespace):
    report = census(args.n, args.cmax, _budget(args.budget))

    def text():
        for e in report.entries:
            hist = " ".join(f"{m}x{k}" for m, k in e.histogram)
            flags = ",".join(
                name
                for name, on in (("symmetric", e.symmetric), ("paired", e.paired), ("maximal", e.maximal))
                if on
            ) or "-"
            yield f"c={e.card_count} l={e.length} hist=[{hist}] flags={flags} digest={e.digest}"
        for triple, digests in report.collisions:
            yield f"COLLISION (n,c,l)={triple}: classes {', '.join(digests)}"
        if not report.collisions:
            yield "collisions: none in the searched space"
        state = "complete" if report.complete else "budget-truncated"
        yield f"classes: {len(report.entries)} ({state}, {report.nodes} nodes)"

    return EXIT_OK, lambda: {
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
    }, text


def cmd_spot(args: argparse.Namespace):
    deck = _load_valid(args.file)
    try:
        indices = [int(part) for part in args.cards.split(",") if part.strip() != ""]
    except ValueError:
        raise ValueError("--cards wants a comma-separated list of card indices") from None
    n = deck.order
    laid_out = len(indices)
    if laid_out == n + 1:
        triple, single = find_common_triple(deck, indices)
        triple_cards = [i for i in indices if triple in deck.cards[i]]
        single_cards = [i for i in indices if single in deck.cards[i]]
        return (
            EXIT_OK,
            lambda: {
                "triple_symbol": deck.tokens[triple],
                "triple_cards": triple_cards,
                "single_symbol": deck.tokens[single],
                "single_cards": single_cards,
            },
            lambda: (
                f"symbol {deck.tokens[triple]} is on {len(triple_cards)} of the chosen cards: "
                + ", ".join(map(str, triple_cards)),
                f"symbol {deck.tokens[single]} is on exactly one chosen card: {single_cards[0]}",
            ),
        )
    if laid_out >= n + 2 and (laid_out - 2) % n == 0:
        k = (laid_out - 2) // n
        symbol = check_kn2_lemma(deck, indices, k)
        hit = [i for i in indices if symbol in deck.cards[i]]
        return (
            EXIT_OK,
            lambda: {"symbol": deck.tokens[symbol], "cards": hit, "guarantee": k + 2},
            lambda: (
                f"symbol {deck.tokens[symbol]} is on {len(hit)} of the chosen cards "
                f"(guaranteed at least {k + 2}): " + ", ".join(map(str, hit)),
            ),
        )
    raise ValueError(f"lay out either n+1 = {n + 1} cards or k*n+2 cards (k >= 1); got {laid_out}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument tree of every command, built on the first call and shared after it."""
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
        code, payload, text, *status = args.handler(args)
        if args.json:
            sys.stdout.write(to_json(payload()))
        else:
            sys.stdout.writelines(line + "\n" for line in text())
            sys.stderr.writelines(line + "\n" for line in status)
        return code
    except InvalidDeckError as exc:
        print(f"invalid: {len(exc.violations)} violation(s)")
        sys.stderr.writelines(f"{v.axiom}: {v.message}\n" for v in exc.violations)
        return EXIT_FAIL
    except (DeckError, ValueError, OSError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InvariantViolation as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
