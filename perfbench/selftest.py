"""Self-test of the benchmark's oracle, tracing and input generation.

    python3 perfbench/selftest.py

Uses small decks so that it finishes in a few seconds.
"""

from __future__ import annotations

import random
import shutil
import time
import unittest
from types import SimpleNamespace

import run
import tracing
import workloads


class SelfTest(unittest.TestCase):
    def setUp(self):
        self.modules = run.import_spotdeck()
        self.sd = SimpleNamespace(**self.modules)
        self.workdir = run.OUT / f"selftest-{id(self)}"
        self.workdir.mkdir(parents=True)
        self.addCleanup(shutil.rmtree, self.workdir, True)

    def small_check_large(self, seed=1):
        return workloads.check_large(self.sd, random.Random(seed), self.workdir, run.ROOT, orders=(8,))

    def test_correct_answers_pass(self):
        prepared = self.small_check_large()
        result = run.measure(prepared.commands, 0, log=lambda line: None)
        self.assertEqual(result["attempted"], 4)
        self.assertEqual(result["failures"], [])

    def test_last_pass_may_stop_part_way(self):
        commands = [
            workloads.Command(f"sleep{i}", lambda s=0.01 * (i + 1): time.sleep(s), lambda output: None)
            for i in range(3)
        ]
        start = time.perf_counter()
        result = run.measure(commands, 0.2, log=lambda line: None)
        elapsed = time.perf_counter() - start
        counts = [len(one) for one in result["latencies"]]
        self.assertGreaterEqual(min(counts), 1)
        self.assertEqual(counts, sorted(counts, reverse=True))
        self.assertLessEqual(counts[0] - counts[-1], 1)
        self.assertEqual(result["attempted"], sum(counts))
        self.assertLess(elapsed, 0.2 + 0.05)

    def test_wrong_expectation_counts_as_failure(self):
        prepared = self.small_check_large()
        n = 8
        c = n * n - n + 1
        rows = workloads.deck_rows(self.sd.constructions.build_paired(n))
        path = str(self.workdir / "paired8.txt")
        # one deliberately wrong expected answer: a card count off by one
        wrong = workloads._valid_verify(n, c + 1, {frozenset(row) for row in rows})
        prepared.commands.append(workloads.cli_command(self.sd, ["verify", path, "--json"], wrong))
        result = run.measure(prepared.commands, 0, log=lambda line: None)
        self.assertEqual(len(result["failures"]), 1)
        self.assertIn("card_count", result["failures"][0])
        self.assertGreater(len(result["failures"]) / result["attempted"], 0)

    def test_self_times_add_up_to_the_command_span(self):
        prepared = self.small_check_large()
        analyze = next(cmd for cmd in prepared.commands if " analyze " in cmd.label)
        tracer = tracing.Tracer(self.modules)
        tracer.install()
        try:
            tracer.command = "only"
            analyze.run()
        finally:
            tracer.uninstall()
        spans = tracer.spans
        roots = [span for span in spans if span[tracing.PARENT] is None]
        self.assertEqual([span[tracing.NAME] for span in roots], ["cli.main"])
        names = {span[tracing.NAME] for span in spans}
        for expected in ("formats.parse_deck_text", "deck.validate", "analysis.classify",
                         "maximality.find_extension", "formats.to_json"):
            self.assertIn(expected, names)
        root = roots[0]
        total = sum(tracing.self_times(spans))
        self.assertAlmostEqual(total, root[tracing.END] - root[tracing.START], delta=1e-9)
        self.assertTrue(all(own >= 0 for own in tracing.self_times(spans)))

    def test_uninstall_restores_every_binding(self):
        before = {(m, a): v for m, mod in self.modules.items() for a, v in vars(mod).items()}
        tracer = tracing.Tracer(self.modules)
        tracer.install()
        self.assertIsNot(self.modules["cli"].validate, before[("cli", "validate")])
        self.assertIs(self.modules["cli"].validate, self.modules["maximality"].validate)
        tracer.uninstall()
        after = {(m, a): v for m, mod in self.modules.items() for a, v in vars(mod).items()}
        self.assertTrue(all(after[key] is value for key, value in before.items()))

    def test_inputs_depend_only_on_the_seed(self):
        first = run.digest(self.small_check_large(seed=5).texts)
        again = run.digest(self.small_check_large(seed=5).texts)
        other = run.digest(self.small_check_large(seed=6).texts)
        self.assertEqual(first, again)
        self.assertNotEqual(first, other)


if __name__ == "__main__":
    unittest.main()
