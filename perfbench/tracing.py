"""Spans around the calls into spotdeck's modules, recorded from outside the package.

``Tracer.install`` replaces every module attribute that is bound to one of the
traced public functions with a wrapper, in the defining module and in every
module that imported the name (``spotdeck.cli.validate`` and
``spotdeck.maximality.validate`` are the same function bound twice), and
``uninstall`` puts the originals back.  Spans stay in memory as plain lists
until the run writes them out.  Nothing under ``src/`` is modified.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

# module -> public functions whose calls become spans named "<module>.<function>"
TRACED = {
    "cli": ("main",),
    "formats": ("parse_deck_text", "to_json"),
    "deck": ("normalize", "validate"),
    "analysis": ("multiplicities", "check_identities", "classify"),
    "constructions": (
        "build_paired",
        "build_grid_blocks",
        "build_two_symmetric",
        "build_blocks",
        "remove_cards",
    ),
    "maximality": (
        "sufficient_maximal",
        "prop_condition_holds",
        "find_extension",
        "is_maximal",
        "complete",
    ),
    "enumeration": ("enumerate_decks", "census", "canonical_form"),
}

MODULES = tuple(TRACED)

# Work the tracer itself does inside a traced call (the proved-flag of
# find_extension).  Recorded as a span so that it is not charged to the
# caller's self time, and attributed to no module.
OVERHEAD = "perfbench.overhead"

# span fields
NAME, START, END, PARENT, COMMAND, ERROR, ATTRS = range(7)


class Tracer:
    """Records (name, start, end, parent, command id, error, attrs) per wrapped call."""

    def __init__(self, modules: dict):
        self.modules = modules  # short name -> module object, plus "spotdeck"
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.command: str | None = None
        self.paused = False
        self._saved: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for module_name, functions in TRACED.items():
            defining = self.modules[module_name]
            for function in functions:
                original = getattr(defining, function)
                wrappers[id(original)] = self._wrap(f"{module_name}.{function}", original)
        for module in self.modules.values():
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in self._saved:
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, name: str, original):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.paused:
                return original(*args, **kwargs)
            span = tracer._open(name, tracer._call_attrs(name, args))
            try:
                result = original(*args, **kwargs)
            except Exception:
                tracer.spans[span][ERROR] = True
                raise
            finally:
                tracer._close(span)
            _record_result(tracer.spans[span], result)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def _open(self, name: str, attrs) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.command, False, attrs])
        index = len(self.spans) - 1
        self.stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self.stack.pop()

    def _call_attrs(self, name: str, args) -> dict | None:
        """Counts taken from a traced call's arguments, before its span opens."""
        if name == "deck.validate":
            return {"cards": args[0].card_count}
        if name == "maximality.find_extension":
            # computed untraced and outside the find_extension span
            prop = self.modules["maximality"].prop_condition_holds
            self.paused = True
            span = self._open(OVERHEAD, None)
            try:
                return {"proved": getattr(prop, "__wrapped__", prop)(args[0])}
            finally:
                self._close(span)
                self.paused = False
        return None


def _record_result(span: list, result) -> None:
    """Counts taken from a traced call's result."""
    name = span[NAME]
    if name == "deck.validate":
        span[ATTRS]["valid"] = result.valid
    elif name == "maximality.complete":
        span[ATTRS] = {"steps": result.steps}
    elif name == "enumeration.enumerate_decks":
        span[ATTRS] = {"nodes": result.nodes, "classes": len(result.forms)}


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] is not None:
            own[span[PARENT]] -= span[END] - span[START]
    return own


def layer_metrics(spans: list[list], passes: int) -> dict[str, float]:
    """Per-module metrics; pass spans are averaged per traced pass, set-up spans are not.

    Spans with no command id come from set-up and feed only the
    ``constructions`` metrics.
    """
    own = self_times(spans)
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    errors: Counter = Counter()
    setup_self: dict[str, float] = defaultdict(float)
    pairs = 0
    valid_s = invalid_s = 0.0
    ext_proved_s = 0.0
    ext_undecided = 0
    steps = nodes = classes = 0
    census_analysis = 0.0
    analysis_in_census = ("analysis.classify", "analysis.multiplicities", "maximality.is_maximal")
    for span, own_s in zip(spans, own):
        name = span[NAME]
        if name == OVERHEAD:
            continue
        if span[COMMAND] is None:
            setup_self[name] += own_s
            continue
        self_s[name] += own_s
        calls[name] += 1
        if span[ERROR]:
            errors[name.split(".")[0]] += 1
        attrs = span[ATTRS] or {}
        if name == "deck.validate":
            pairs += attrs["cards"] * (attrs["cards"] - 1) // 2
            if attrs.get("valid"):
                valid_s += own_s
            else:
                invalid_s += own_s
        elif name == "maximality.find_extension":
            if attrs["proved"]:
                ext_proved_s += own_s
            else:
                ext_undecided += 1
        elif name == "maximality.complete":
            steps += attrs.get("steps", 0)
        elif name == "enumeration.enumerate_decks":
            nodes += attrs.get("nodes", 0)
            classes += attrs.get("classes", 0)
        if (
            name in analysis_in_census
            and span[PARENT] is not None
            and spans[span[PARENT]][NAME] == "enumeration.census"
        ):
            census_analysis += span[END] - span[START]

    p = max(passes, 1)
    ext_calls = calls["maximality.find_extension"]
    metrics = {
        "cli.self_s": self_s["cli.main"] / p,
        "formats.parse_deck_text_s": self_s["formats.parse_deck_text"] / p,
        "formats.to_json_s": self_s["formats.to_json"] / p,
        "deck.normalize_s": self_s["deck.normalize"] / p,
        "deck.normalize_calls": calls["deck.normalize"] / p,
        "deck.validate_s": self_s["deck.validate"] / p,
        "deck.validate_calls": calls["deck.validate"] / p,
        "deck.validate_card_pairs": pairs / p,
        "deck.validate_valid_s": valid_s / p,
        "deck.validate_invalid_s": invalid_s / p,
        "analysis.multiplicities_calls": calls["analysis.multiplicities"] / p,
        "analysis.multiplicities_s": self_s["analysis.multiplicities"] / p,
        "analysis.check_identities_s": self_s["analysis.check_identities"] / p,
        "analysis.classify_s": self_s["analysis.classify"] / p,
        "constructions.build_s": sum(
            t for name, t in setup_self.items() if name.startswith("constructions.build_")
        ),
        "constructions.remove_cards_s": setup_self["constructions.remove_cards"],
        "maximality.sufficient_maximal_s": self_s["maximality.sufficient_maximal"] / p,
        "maximality.prop_condition_holds_s": self_s["maximality.prop_condition_holds"] / p,
        "maximality.is_maximal_s": self_s["maximality.is_maximal"] / p,
        "maximality.find_extension_s": self_s["maximality.find_extension"] / p,
        "maximality.find_extension_calls": ext_calls / p,
        "maximality.find_extension_proved_s": ext_proved_s / p,
        "maximality.search_useful_ratio": ext_undecided / ext_calls if ext_calls else 0.0,
        "maximality.complete_s": self_s["maximality.complete"] / p,
        "maximality.complete_steps": steps / p,
        "enumeration.enumerate_decks_s": self_s["enumeration.enumerate_decks"] / p,
        "enumeration.nodes": nodes / p,
        "enumeration.classes": classes / p,
        "enumeration.classes_per_knode": 1000 * classes / nodes if nodes else 0.0,
        "enumeration.census_analysis_s": census_analysis / p,
        "enumeration.canonical_form_s": self_s["enumeration.canonical_form"] / p,
        "enumeration.canonical_form_calls": calls["enumeration.canonical_form"] / p,
    }
    for module in MODULES:
        metrics[f"{module}.errors"] = errors[module] / p
    return metrics
