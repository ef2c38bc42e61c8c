"""The benchmark workloads: seeded inputs, command lists and output oracles.

Every expected answer here comes from the construction that built the input
(card count, length, multiplicities, which cards a corruption breaks) or from
the frozen census tables under ``tests/``, and is checked with this file's own
set arithmetic, never with spotdeck's validator.  Input sizes are fixed; the
seed picks which cards are trimmed, which token is corrupted, and the
relabelings.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# paired(n) needs n-1 prime; c = n*n - n + 1 runs from 57 to 1893.
CHECK_LARGE_ORDERS = (8, 12, 14, 18, 20, 24, 30, 32, 44)
# min-sum and subset-sum already prove these maximal; the search still runs.
PROVED_GRIDS = ((9, 2), (10, 2), (10, 3), (11, 3), (12, 3), (12, 4))
PROVED_TWO_SYMMETRIC = (11, 12, 13)
# (n, k, rows removed): the subset-sum test fails and the search must find cards.
TRIMMED_GRIDS = ((11, 3, 3), (12, 4, 3))
# (n, cards removed)
TRIMMED_PAIRED = ((14, 8), (20, 8))


@dataclass
class Command:
    """One timed call; ``check`` returns a mismatch message or ``None``."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    _verified: object = field(default=None, repr=False)

    def verify(self, output) -> str | None:
        # identical output to an already verified one is correct again
        if self._verified is not None and output == self._verified:
            return None
        problem = self.check(output)
        if problem is None:
            self._verified = output
        return problem


@dataclass
class Prepared:
    commands: list[Command]
    inputs: list[dict]
    texts: list[str]


# -- helpers shared by the oracles ------------------------------------------


def deck_rows(deck) -> list[list[str]]:
    return [list(deck.card_tokens(i)) for i in range(deck.card_count)]


def deck_text(rows) -> str:
    return "".join(" ".join(row) + "\n" for row in rows)


def input_record(name: str, rows) -> dict:
    c = len(rows)
    return {
        "name": name,
        "c": c,
        "l": len({t for row in rows for t in row}),
        "card_pairs": c * (c - 1) // 2,
    }


def pair_check(cards: list[frozenset]) -> str | None:
    """The deck axioms by direct set arithmetic; ``None`` when they all hold."""
    if len(cards) < 2:
        return "fewer than two cards"
    n = len(cards[0])
    if n < 2 or any(len(card) != n for card in cards):
        return "cards are not all of one size >= 2"
    lonely = [t for t, m in Counter(t for card in cards for t in card).items() if m < 2]
    if lonely:
        return f"symbols on a single card: {lonely[:5]}"
    for i, first in enumerate(cards):
        for j in range(i + 1, len(cards)):
            if len(first & cards[j]) != 1:
                return f"cards {i} and {j} share {len(first & cards[j])} symbols"
    return None


def proves_maximal(cards: list[frozenset]) -> bool:
    """Maximal by the card-count bound or by the min-sum condition."""
    n, c = len(cards[0]), len(cards)
    if c == n * n - n + 1:
        return True
    counts = sorted(Counter(t for card in cards for t in card).values())
    return sum(counts[:n]) > c


def histogram(rows) -> dict[int, int]:
    return dict(Counter(Counter(t for row in rows for t in row).values()))


def call_cli(cli, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def cli_command(sd, argv: list[str], check) -> Command:
    return Command(" ".join(["spotdeck", *argv]), lambda: call_cli(sd.cli, argv), check)


def expect_exit(result, code: int) -> str | None:
    if result[0] != code:
        return f"exit {result[0]}, expected {code}; stderr: {result[2][:200]!r}"
    return None


def expect_json(result, code: int):
    """(payload, None) when the exit code matches and stdout is JSON, else (None, problem)."""
    problem = expect_exit(result, code)
    if problem:
        return None, problem
    try:
        return json.loads(result[1]), None
    except ValueError:
        return None, f"stdout is not JSON: {result[1][:200]!r}"


def mismatch(payload: dict, expected: dict) -> str | None:
    for key, value in expected.items():
        if payload.get(key) != value:
            return f"{key} = {payload.get(key)!r}, expected {value!r}"
    return None


def write_deck(workdir: Path, name: str, rows, prepared: Prepared) -> str:
    text = deck_text(rows)
    path = workdir / f"{name}.txt"
    path.write_text(text, encoding="utf-8")
    prepared.texts.append(text)
    prepared.inputs.append(input_record(name, rows))
    return str(path)


# -- check-large ---------------------------------------------------------------


def check_large(sd, rng: random.Random, workdir: Path, root: Path, orders=CHECK_LARGE_ORDERS) -> Prepared:
    """verify/analyze on paired(n) and on a one-token corruption of each."""
    prepared = Prepared([], [], [])
    for n in orders:
        rows = deck_rows(sd.constructions.build_paired(n))
        c = n * n - n + 1
        cards = {frozenset(row) for row in rows}
        path = write_deck(workdir, f"paired{n}", rows, prepared)
        prepared.commands.append(cli_command(sd, ["verify", path, "--json"], _valid_verify(n, c, cards)))
        prepared.commands.append(cli_command(sd, ["analyze", path, "--json"], _valid_analyze(n, c, rows)))

        # Replace symbol y on card i with a fresh token: the other n-1 cards
        # on y now miss card i (D1, count 0) and the fresh token sits on one
        # card (D2).  Nothing else breaks.
        i, position = rng.randrange(c), rng.randrange(n)
        y = rows[i][position]
        fresh = f"x{rng.randrange(10**6)}"
        bad_rows = [list(row) for row in rows]
        bad_rows[i][position] = fresh
        broken_pairs = sorted(tuple(sorted((i, j))) for j, row in enumerate(rows) if j != i and y in row)
        path = write_deck(workdir, f"paired{n}-corrupt", bad_rows, prepared)
        prepared.commands.append(
            cli_command(sd, ["verify", path, "--json"], _corrupt_verify(n, broken_pairs, fresh))
        )
        prepared.commands.append(cli_command(sd, ["analyze", path, "--json"], _corrupt_analyze(n)))
    return prepared


def _valid_verify(n: int, c: int, cards: set):
    def check(result):
        payload, problem = expect_json(result, 0)
        if problem:
            return problem
        problem = mismatch(
            payload, {"valid": True, "violations": [], "order": n, "card_count": c, "length": c}
        )
        if problem:
            return problem
        if {frozenset(card) for card in payload["cards"]} != cards:
            return "cards differ from the input deck"
        return None

    return check


def _valid_analyze(n: int, c: int, rows):
    tokens = {t for row in rows for t in row}
    expected = {
        "valid": True,
        "order": n,
        "card_count": c,
        "length": c,
        "histogram": {str(n): c},
        "classification": {
            "fundamental": c,
            "symmetric": True,
            "symmetric_multiplicity": n,
            "paired": True,
            "length_vs_fundamental": "equal",
            "two_multiplicity_split": None,
        },
        "maximality": {"sufficient_corollary": True, "prop_condition": True, "maximal": True},
    }

    def check(result):
        payload, problem = expect_json(result, 0)
        if problem:
            return problem
        problem = mismatch(payload, expected)
        if problem:
            return problem
        if payload["multiplicities"] != {t: n for t in tokens}:
            return "multiplicities are not n for every symbol"
        identities = payload["identities"]
        if len(identities) != 15 or not all(identities.values()):
            return f"identities {identities} are not 15 holding checks"
        return None

    return check


def _corrupt_verify(n: int, broken_pairs: list, fresh: str):
    def check(result):
        payload, problem = expect_json(result, 1)
        if problem:
            return problem
        if payload.get("valid") is not False:
            return "corrupted deck reported valid"
        d1 = [v for v in payload["violations"] if v["axiom"] == "D1"]
        d2 = [v for v in payload["violations"] if v["axiom"] == "D2"]
        if len(d1) != n - 1 or len(d2) != 1 or len(payload["violations"]) != n:
            return (
                f"{len(d1)} D1 and {len(d2)} D2 of {len(payload['violations'])} violations, "
                f"expected {n - 1} D1 and 1 D2"
            )
        if sorted(tuple(v["cards"]) for v in d1) != broken_pairs or any(v["count"] != 0 for v in d1):
            return "D1 witnesses differ from the corrupted card's broken pairs"
        if d2[0]["count"] != 1 or repr(fresh) not in d2[0]["message"]:
            return f"D2 witness {d2[0]} does not name the fresh token {fresh}"
        return None

    return check


def _corrupt_analyze(n: int):
    def check(result):
        problem = expect_exit(result, 1)
        if problem:
            return problem
        if result[1] != f"invalid: {n} violation(s)\n":
            return f"stdout {result[1][:200]!r}"
        lines = result[2].splitlines()
        d1 = sum(1 for line in lines if line.startswith("D1: "))
        d2 = sum(1 for line in lines if line.startswith("D2: "))
        if (d1, d2, len(lines)) != (n - 1, 1, n):
            return f"stderr lists {d1} D1 and {d2} D2 of {len(lines)} lines"
        return None

    return check


# -- maximality ----------------------------------------------------------------


def maximality(sd, rng: random.Random, workdir: Path, root: Path) -> Prepared:
    """maximal on decks already proved maximal; maximal and extend on trimmed decks."""
    prepared = Prepared([], [], [])
    proved = [(f"grid{n}x{k}", sd.constructions.build_grid_blocks(n, k)) for n, k in PROVED_GRIDS]
    proved += [(f"two-symmetric{n}", sd.constructions.build_two_symmetric(n)) for n in PROVED_TWO_SYMMETRIC]
    for name, deck in proved:
        rows = deck_rows(deck)
        path = write_deck(workdir, name, rows, prepared)
        cards = [frozenset(row) for row in rows]
        prepared.commands.append(cli_command(sd, ["maximal", path, "--json"], _proved_maximal(cards)))

    trimmed = []
    for n, k, count in TRIMMED_GRIDS:
        # build_blocks lays the row block out first: cards 0 .. n-2 are the rows
        removed = rng.sample(range(n - 1), count)
        deck = sd.constructions.remove_cards(sd.constructions.build_grid_blocks(n, k), removed)
        trimmed.append((f"grid{n}x{k}-minus{count}rows", deck))
    for n, count in TRIMMED_PAIRED:
        removed = rng.sample(range(n * n - n + 1), count)
        deck = sd.constructions.remove_cards(sd.constructions.build_paired(n), removed)
        trimmed.append((f"paired{n}-minus{count}", deck))
    for name, deck in trimmed:
        rows = deck_rows(deck)
        cards = [frozenset(row) for row in rows]
        path = write_deck(workdir, name, rows, prepared)
        prepared.commands.append(cli_command(sd, ["maximal", path, "--json"], _trimmed_maximal(cards)))
        prepared.commands.append(cli_command(sd, ["extend", path, "--json"], _trimmed_extend(cards)))
    return prepared


def _proved_maximal(cards: list[frozenset]):
    def check(result):
        if not proves_maximal(cards):
            return "the input is not maximal by the min-sum condition, so the expectation is unfounded"
        payload, problem = expect_json(result, 0)
        return problem or mismatch(
            payload,
            {
                "sufficient_corollary": True,
                "prop_condition": True,
                "maximal": True,
                "extension": None,
                "necessity_open": False,
            },
        )

    return check


def _trimmed_maximal(cards: list[frozenset]):
    # a removed card still fits, so the deck is not maximal and its n
    # symbols' multiplicities sum to c: both sum conditions fail
    def check(result):
        payload, problem = expect_json(result, 1)
        if problem:
            return problem
        problem = mismatch(
            payload,
            {
                "sufficient_corollary": False,
                "prop_condition": False,
                "maximal": False,
                "necessity_open": False,
            },
        )
        if problem:
            return problem
        extension = payload["extension"]
        card = frozenset(extension or ())
        if len(card) != len(cards[0]) or len(extension) != len(card):
            return f"extension {extension} is not {len(cards[0])} distinct symbols"
        if any(len(card & other) != 1 for other in cards):
            return f"extension {extension} does not meet every card exactly once"
        if not card <= frozenset().union(*cards):
            return f"extension {extension} uses a symbol not in the deck"
        return None

    return check


def _trimmed_extend(cards: list[frozenset]):
    def check(result):
        payload, problem = expect_json(result, 0)
        if problem:
            return problem
        out = [frozenset(card) for card in payload["cards"]]
        if payload.get("maximal") is not True:
            return "extend did not report a maximal deck"
        if payload.get("added") != len(out) - len(cards) or payload["added"] < 1:
            return f"added {payload.get('added')} but the deck grew {len(cards)} -> {len(out)}"
        if not set(cards) <= set(out):
            return "extended deck lost input cards"
        problem = pair_check(out)
        if problem:
            return "extended deck is invalid: " + problem
        if not proves_maximal(out):
            return "extended deck is not maximal by the card-count bound or the min-sum condition"
        return None

    return check


# -- census-order4 -------------------------------------------------------------


def _order_four_table(root: Path) -> list:
    """The nine-row table frozen in tests/test_enumeration.py::TestOrderFour."""
    tree = ast.parse((root / "tests" / "test_enumeration.py").read_text(encoding="utf-8"))
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef) and cls.name == "TestOrderFour":
            for node in ast.walk(cls):
                if (
                    isinstance(node, ast.Compare)
                    and isinstance(node.left, ast.Call)
                    and getattr(node.left.func, "id", None) == "sorted"
                ):
                    return ast.literal_eval(node.comparators[0])
    raise LookupError("TestOrderFour table not found")


def _class_key(card_count: int, length: int, hist: dict) -> tuple:
    return card_count, length, tuple(sorted((int(m), k) for m, k in hist.items()))


def census_order4(sd, rng: random.Random, workdir: Path, root: Path) -> Prepared:
    """The exhaustive order-4 census, plus order 3 against its golden file."""
    four = sorted(_class_key(c, l, h) for c, l, h in _order_four_table(root))
    golden = json.loads((root / "tests" / "data" / "census_n3.json").read_text(encoding="utf-8"))
    three = sorted(_class_key(e["card_count"], e["length"], e["histogram"]) for e in golden["classes"])
    prepared = Prepared([], [], [])
    for argv, expected, collisions in (
        (["census", "--n", "4", "--budget", "0", "--json"], four, []),
        (["census", "--n", "3", "--json"], three, golden["collisions"]),
    ):
        prepared.commands.append(cli_command(sd, argv, _census_check(expected, collisions)))
        prepared.texts.append(" ".join(argv))
    return prepared


def _census_check(expected: list, collisions: list):
    def check(result):
        payload, problem = expect_json(result, 0)
        if problem:
            return problem
        if payload.get("complete") is not True:
            return "census did not run to completion"
        got = sorted(_class_key(e["card_count"], e["length"], e["histogram"]) for e in payload["classes"])
        if got != expected:
            return f"classes {got} differ from the frozen table {expected}"
        if payload["collisions"] != collisions:
            return f"collisions {payload['collisions']}, expected {collisions}"
        return None

    return check


# -- canonicalize --------------------------------------------------------------


def canonicalize(sd, rng: random.Random, workdir: Path, root: Path) -> Prepared:
    """Library canonical_form on four small decks, as built and relabeled."""
    c = sd.constructions
    grid = c.build_grid_blocks(4, 3)
    # (name, deck, relabelings).  paired(4) takes seconds per call, so it
    # gets one relabeling; the cheap decks get more, which checks labelling
    # independence more widely at little cost.
    decks = [
        ("paired4", c.build_paired(4), 1),
        ("two-symmetric5", c.build_two_symmetric(5), 2),
        ("grid4x3", grid, 4),
        ("grid4x3-minus1", c.remove_cards(grid, [rng.randrange(grid.card_count)]), 4),
    ]
    prepared = Prepared([], [], [])
    forms: dict[str, tuple] = {}  # deck name -> canonical form of the deck as built
    for name, deck, relabelings in decks:
        rows = deck_rows(deck)
        labelings = [(name, rows)]
        for r in range(relabelings):
            labelings.append((f"{name}-relabel{r}", _relabel(rows, rng)))
        for label, labeled in labelings:
            prepared.texts.append(deck_text(labeled))
            prepared.inputs.append(input_record(label, labeled))
            relabeled = sd.deck.normalize(labeled)
            prepared.commands.append(
                Command(
                    f"canonical_form({label})",
                    lambda d=relabeled: sd.enumeration.canonical_form(d),
                    _canonical_check(name, label, rows, forms),
                )
            )
    return prepared


def _relabel(rows, rng: random.Random) -> list[list[str]]:
    """Permute the symbol names, shuffle the cards and the symbols on each card."""
    tokens = sorted({t for row in rows for t in row})
    images = list(tokens)
    rng.shuffle(images)
    rename = dict(zip(tokens, images))
    out = [[rename[t] for t in row] for row in rows]
    rng.shuffle(out)
    for row in out:
        rng.shuffle(row)
    return out


def _canonical_check(name: str, label: str, rows, forms: dict):
    c = len(rows)
    length = len({t for row in rows for t in row})
    hist = histogram(rows)

    def check(form):
        cards = [tuple(card) for card in form.cards]
        if (len(cards), form.length) != (c, length):
            return f"form has c={len(cards)} l={form.length}, expected c={c} l={length}"
        if cards != sorted(cards) or any(list(card) != sorted(card) for card in cards):
            return "form is not a sorted list of sorted cards"
        if histogram(cards) != hist:
            return "form's multiplicity histogram differs from the input's"
        problem = pair_check([frozenset(card) for card in cards])
        if problem:
            return "form is not a valid deck: " + problem
        reference = forms.setdefault(name, form.cards) if label == name else forms.get(name)
        if form.cards != reference:
            return f"{label} reaches another canonical form than {name} as built"
        return None

    return check


# -- search --------------------------------------------------------------------


def search(sd, rng: random.Random, workdir: Path, root: Path) -> Prepared:
    """The maximality, census and canonical-form command lists, run as one workload.

    One workload instead of three leaves each run long enough to average the
    host's speed drift; each part still has its own per-module metrics.
    """
    prepared = Prepared([], [], [])
    for part in (maximality, census_order4, canonicalize):
        one = part(sd, rng, workdir, root)
        prepared.commands += one.commands
        prepared.inputs += one.inputs
        prepared.texts += one.texts
    return prepared


WORKLOADS = {
    "check-large": check_large,
    "search": search,
}
