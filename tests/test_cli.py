"""Text/JSON format round trips and the command-line surface."""

from __future__ import annotations

import json

import pytest

import spotdeck.deck
from sample_decks import FANO_TEXT, PAIRED_4_TEXT, THREE_BLOCK_TEXT
from spotdeck.cli import main
from spotdeck.constructions import build_paired
from spotdeck.deck import InvariantViolation, MalformedCardError, normalize
from spotdeck.formats import deck_payload, parse_deck_text, render_deck_text, to_json


@pytest.fixture
def fano_file(tmp_path):
    path = tmp_path / "fano.txt"
    path.write_text(FANO_TEXT)
    return str(path)

@pytest.fixture
def fano_minus_one_file(tmp_path):
    path = tmp_path / "fano6.txt"
    path.write_text("".join(FANO_TEXT.splitlines(keepends=True)[1:]))
    return str(path)


class TestTextFormat:
    def test_round_trip_bytes(self, fano):
        text = render_deck_text(fano)
        again = parse_deck_text(text)
        assert render_deck_text(again) == text
        assert again.tokens == fano.tokens
        assert again.rows == fano.rows

    def test_comments_and_blanks_ignored(self):
        text = "# the seven rows\n\n5 1 2\n5 3 4\n  # indented comment\n6 1 3\n"
        deck = parse_deck_text(text)
        assert deck.card_count == 3

    def test_malformed_card(self):
        with pytest.raises(MalformedCardError):
            parse_deck_text("x x y\n")

    def test_seven_row_fixture_parses_directly(self):
        deck = parse_deck_text(FANO_TEXT)
        assert (deck.order, deck.card_count, deck.length) == (3, 7, 7)


class TestJsonFormat:
    def test_payload_shape_and_determinism(self, fano):
        payload = deck_payload(fano)
        assert payload["order"] == 3
        assert payload["card_count"] == 7
        assert payload["length"] == 7
        assert len(payload["cards"]) == 7
        assert to_json(payload) == to_json(deck_payload(normalize([r.split() for r in FANO_TEXT.splitlines()])))

    def test_keys_sorted(self, fano):
        text = to_json(deck_payload(fano))
        data = json.loads(text)
        assert list(data) == sorted(data)


class TestVerifyCommand:
    def test_valid_deck(self, fano_file, capsys):
        code = main(["verify", fano_file])
        assert code == 0
        assert capsys.readouterr().out == "valid: n=3 c=7 l=7\n"

    def test_invalid_deck(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("a b\nc d\n")
        code = main(["verify", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert "invalid" in captured.out
        assert "D1" in captured.err

    @pytest.mark.parametrize("command", ["verify", "analyze", "maximal", "extend", "spot"])
    def test_invalid_deck_report(self, tmp_path, capsys, command):
        path = tmp_path / "bad.txt"
        path.write_text("a b\nc d\n")
        extra = ["--cards", "0,1"] if command == "spot" else []
        assert main([command, str(path), *extra]) == 1
        captured = capsys.readouterr()
        assert captured.out == "invalid: 5 violation(s)\n"
        assert captured.err == "D1: cards 0 and 1 share 0 symbols (nothing)\n" + "".join(
            f"D2: symbol '{t}' appears on 1 card(s)\n" for t in "abcd"
        )

    def test_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "dup.txt"
        path.write_text("x x y\n")
        assert main(["verify", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["verify", "/nonexistent/deck.txt"]) == 2

    def test_json_output(self, fano_file, capsys):
        code = main(["verify", fano_file, "--json"])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        data = json.loads(captured.out)
        assert data["valid"] is True
        assert data["violations"] == []


class TestAnalyzeCommand:
    def test_fano_text(self, fano_file, capsys):
        assert main(["analyze", fano_file]) == 0
        out = capsys.readouterr().out
        assert "deck: n=3 c=7 l=7" in out
        assert "histogram: 3x7" in out
        assert "identities: 15/15 hold" in out
        assert "symmetric(M=3)" in out
        assert "paired" in out

    def test_fano_json(self, fano_file, capsys):
        assert main(["analyze", fano_file, "--json"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        data = json.loads(captured.out)
        assert data["classification"]["paired"] is True
        assert data["classification"]["fundamental"] == 7
        assert all(data["identities"].values())
        assert data["multiplicities"]["5"] == 3

    def test_axioms_are_checked_once(self, tmp_path, monkeypatch, capsys):
        # the gates in check_identities, classify and find_extension reuse the
        # result of the check made when the file is loaded
        path = tmp_path / "paired8.txt"
        path.write_text(render_deck_text(build_paired(8)))
        checker = spotdeck.deck._check_axioms
        calls = []

        def counted(deck):
            calls.append(deck)
            return checker(deck)

        monkeypatch.setattr(spotdeck.deck, "_check_axioms", counted)
        assert main(["analyze", str(path)]) == 0
        assert "maximal" in capsys.readouterr().out
        assert len(calls) == 1

    def test_two_multiplicity_text(self, fano_minus_one_file, capsys):
        assert main(["analyze", fano_minus_one_file]) == 0
        assert capsys.readouterr().out == (
            "deck: n=3 c=6 l=7\n"
            "multiplicities: lo=2 hi=3\n"
            "histogram: 2x3 3x4\n"
            "identities: 15/15 hold\n"
            "classification: not symmetric, not paired, not maximal, length equal to fundamental 7\n"
            "two-multiplicity split: 1 low + 2 high per card\n"
        )

    def test_invalid_deck_exits_1(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("a b\nc d\n")
        assert main(["analyze", str(path)]) == 1


class TestBuildCommand:
    def test_paired_4_matches_golden(self, capsys):
        assert main(["build", "paired", "--n", "4"]) == 0
        assert capsys.readouterr().out == PAIRED_4_TEXT

    def test_grid_7_3_matches_golden(self, capsys):
        assert main(["build", "grid", "--n", "7", "--blocks", "3"]) == 0
        assert capsys.readouterr().out == THREE_BLOCK_TEXT

    def test_two_symmetric(self, capsys):
        assert main(["build", "two-symmetric", "--n", "3"]) == 0
        out = capsys.readouterr().out
        assert out == "1 2 3\n1 4 5\n2 4 6\n3 5 6\n"

    def test_unsupported_order_exits_2(self, capsys):
        assert main(["build", "paired", "--n", "9"]) == 2
        assert "not prime" in capsys.readouterr().err

    def test_grid_needs_blocks(self, capsys):
        assert main(["build", "grid", "--n", "7"]) == 2

    def test_json_build(self, capsys):
        assert main(["build", "paired", "--n", "3", "--json"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        data = json.loads(captured.out)
        assert data["card_count"] == 7


class TestMaximalCommand:
    def test_fano_maximal(self, fano_file, capsys):
        assert main(["maximal", fano_file]) == 0
        assert "maximal: yes" in capsys.readouterr().out

    def test_fano_minus_one_prints_extension(self, fano_minus_one_file, capsys):
        assert main(["maximal", fano_minus_one_file]) == 1
        out = capsys.readouterr().out
        assert "maximal: no" in out
        # the extension is exactly the removed card
        line = [l for l in out.splitlines() if l.startswith("extension:")][0]
        assert set(line.split()[1:]) == {"5", "1", "2"}

    def test_json_verdict(self, fano_minus_one_file, capsys):
        assert main(["maximal", fano_minus_one_file, "--json"]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        data = json.loads(captured.out)
        assert data["maximal"] is False
        assert set(data["extension"]) == {"5", "1", "2"}


class TestExtendCommand:
    def test_restores_fano(self, fano_minus_one_file, capsys):
        assert main(["extend", fano_minus_one_file]) == 0
        captured = capsys.readouterr()
        deck = parse_deck_text(captured.out)
        assert deck.card_count == 7
        assert "added 1 card(s); maximal: yes" in captured.err

    def test_json_restores_fano(self, fano_minus_one_file, capsys):
        assert main(["extend", fano_minus_one_file, "--json"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        # the six input cards, then the removed card 5 1 2
        assert json.loads(captured.out) == {
            "added": 1,
            "card_count": 7,
            "cards": [
                ["5", "3", "4"],
                ["3", "6", "1"],
                ["4", "6", "2"],
                ["4", "1", "7"],
                ["3", "2", "7"],
                ["5", "6", "7"],
                ["5", "1", "2"],
            ],
            "length": 7,
            "maximal": True,
            "order": 3,
        }

    def test_zero_budget_flags_incomplete(self, fano_minus_one_file, capsys):
        assert main(["extend", fano_minus_one_file, "--steps", "0"]) == 1

    @pytest.mark.parametrize("deck_file", ["fano_file", "fano_minus_one_file"])
    def test_negative_steps_is_a_usage_error(self, deck_file, request, capsys):
        assert main(["extend", request.getfixturevalue(deck_file), "--steps", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: max_steps must not be negative\n"


class TestEnumerateCommand:
    def test_order_2(self, capsys):
        assert main(["enumerate", "--n", "2"]) == 0
        out = capsys.readouterr().out
        assert "c=3 l=3: 0 1 | 0 2 | 1 2" in out
        assert "classes: 1 (complete" in out

    def test_order_3_json(self, capsys):
        assert main(["enumerate", "--n", "3", "--json"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        data = json.loads(captured.out)
        assert data["complete"] is True
        assert [c["card_count"] for c in data["classes"]] == [4, 6, 7]


class TestProbeLengthCommand:
    def test_order_3_exhausted(self, capsys):
        assert main(["probe-length", "--n", "3"]) == 0
        out = capsys.readouterr().out
        assert "search exhausted" in out

    def test_truncated(self, capsys):
        assert main(["probe-length", "--n", "4", "--budget", "10"]) == 0
        assert "inconclusive" in capsys.readouterr().out

    def test_json(self, capsys):
        assert main(["probe-length", "--n", "2", "--json"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        data = json.loads(captured.out)
        assert data["verdict"] == "exhausted"
        assert data["witness"] is None


class TestCensusCommand:
    def test_order_3(self, capsys):
        assert main(["census", "--n", "3"]) == 0
        out = capsys.readouterr().out
        assert "collisions: none in the searched space" in out
        assert "classes: 3 (complete" in out
        assert "c=7 l=7" in out

    def test_json(self, capsys):
        assert main(["census", "--n", "2", "--json"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        data = json.loads(captured.out)
        assert data["classes"][0]["paired"] is True
        assert data["collisions"] == []


@pytest.mark.parametrize("command", ["enumerate", "census", "probe-length"])
class TestNodeBudgetOption:
    def test_negative_budget_is_a_usage_error(self, command, capsys):
        assert main([command, "--n", "3", "--budget", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: node_budget must not be negative\n"

    def test_zero_budget_is_unlimited(self, command, capsys):
        assert main([command, "--n", "3", "--budget", "0", "--json"]) == 0
        # the whole order-3 search, not a truncated one
        assert json.loads(capsys.readouterr().out)["nodes"] == 398


class TestSpotCommand:
    def test_five_cards_of_fano(self, fano_file, capsys):
        assert main(["spot", fano_file, "--cards", "0,1,2,3,4"]) == 0
        out = capsys.readouterr().out
        assert "guaranteed at least 3" in out

    def test_nine_cards_of_dobble_deck(self, tmp_path, capsys):
        from spotdeck.constructions import build_paired
        from spotdeck.formats import render_deck_text

        path = tmp_path / "dobble.txt"
        path.write_text(render_deck_text(build_paired(8)))
        assert main(["spot", str(path), "--cards", "0,1,2,3,4,5,6,7,8"]) == 0
        out = capsys.readouterr().out
        assert "is on" in out
        assert "exactly one chosen card" in out

    def test_json_with_n_plus_one_cards(self, tmp_path, capsys):
        from spotdeck.constructions import build_paired

        path = tmp_path / "dobble.txt"
        path.write_text(render_deck_text(build_paired(8)))
        assert main(["spot", str(path), "--cards", "0,1,2,3,4,5,6,7,8", "--json"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        data = json.loads(captured.out)
        # the seven rows share their block symbol; card 0 alone holds grid symbol 3
        assert data == {
            "single_cards": [0],
            "single_symbol": "3",
            "triple_cards": [0, 1, 2, 3, 4, 5, 6],
            "triple_symbol": "50",
        }

    def test_non_integer_card_index_exits_2(self, fano_file, capsys):
        assert main(["spot", fano_file, "--cards", "0,x"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --cards wants a comma-separated list of card indices\n"

    def test_wrong_count_exits_2(self, fano_file, capsys):
        assert main(["spot", fano_file, "--cards", "0,1,2"]) == 2

    def test_triple_unsupported_at_order_3(self, fano_file, capsys):
        # 4 = n+1 cards, but the triple guarantee needs order >= 4
        assert main(["spot", fano_file, "--cards", "0,1,2,3"]) == 2

    def test_json(self, fano_file, capsys):
        assert main(["spot", fano_file, "--cards", "0,1,2,3,4", "--json"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        data = json.loads(captured.out)
        assert len(data["cards"]) >= 3


def test_internal_error_exits_3_without_traceback(fano_file, tmp_path, monkeypatch, capsys):
    def broken(*args):
        raise InvariantViolation("cross-check failed")

    paired_4 = tmp_path / "paired4.txt"
    paired_4.write_text(PAIRED_4_TEXT)
    # each command with the failure injected into the library call it makes
    cases = [
        ("is_maximal", ["maximal", fano_file]),
        ("complete", ["extend", fano_file]),
        ("classify", ["analyze", fano_file]),
        ("validate", ["verify", fano_file]),
        ("enumerate_decks", ["enumerate", "--n", "2"]),
        ("census", ["census", "--n", "2"]),
        ("probe_length_conjecture", ["probe-length", "--n", "2"]),
        ("find_common_triple", ["spot", str(paired_4), "--cards", "0,1,2,3,4"]),
        ("build_paired", ["build", "paired", "--n", "3"]),
    ]
    for name, argv in cases:
        for mode in ([], ["--json"]):
            with monkeypatch.context() as patch:
                patch.setattr(f"spotdeck.cli.{name}", broken)
                assert main([*argv, *mode]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "internal error: cross-check failed\n"


class TestUsageErrors:
    def test_unknown_command(self):
        assert main(["frobnicate"]) == 2

    def test_no_command(self):
        assert main([]) == 2
