from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from mfres import BudgetError, cli
from mfres.cli import builtin_corpus_dir, main
from mfres.corpus import format_fraction

CORPUS = builtin_corpus_dir()
DATA = Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


class TestEnvelopes:
    def test_milnor_exact_bytes(self, capsys):
        code, out = run_cli(capsys, "milnor", str(CORPUS / "node.json"))
        assert code == 0
        expected = json.dumps(
            {"command": "milnor", "status": "ok", "results": {"mu": 1}},
            indent=2) + "\n"
        assert out == expected

    def test_hrr_pinned_results(self, capsys):
        code, env = run_json(capsys, "hrr", str(CORPUS / "cubic.json"),
                             "--left", "C1", "--right", "C1")
        assert code == 0
        assert env["status"] == "ok"
        assert env["results"] == {"chi": 2, "residue_side": "-2",
                                  "sign": -1, "equal": True}

    def test_euler(self, capsys):
        code, env = run_json(capsys, "euler", str(CORPUS / "node.json"),
                             "--left", "N1", "--right", "N1")
        assert code == 0
        assert env["results"]["chi"] == 1

    def test_theta_on_modules(self, capsys):
        code, env = run_json(capsys, "theta", str(CORPUS / "node.json"),
                             "--left", "Rx", "--right", "Ry")
        assert code == 0
        assert env["results"]["theta"] == 1

    @pytest.mark.parametrize("right, value", [("C1", 2), ("C1s", -2)])
    def test_herbrand_pinned_and_equal_to_euler(self, capsys, right, value):
        argv = (str(CORPUS / "cubic.json"), "--left", "C1", "--right", right)
        code, out = run_cli(capsys, "herbrand", *argv)
        assert code == 0
        assert out == json.dumps(
            {"command": "herbrand", "status": "ok",
             "results": {"left": "C1", "right": right, "h": value}}, indent=2) + "\n"
        code, out = run_cli(capsys, "--format", "text", "herbrand", *argv)
        assert (code, out) == (0, f"left: C1\nright: {right}\nh: {value}\n")
        code, env = run_json(capsys, "euler", *argv)
        assert (code, env["results"]["chi"]) == (0, value)

    def test_residue_fraction_is_a_string(self, capsys):
        code, env = run_json(capsys, "residue", str(CORPUS / "cubic.json"),
                             "--left", "C1", "--right", "C1")
        assert code == 0
        assert env["results"]["value"] == "-2"

    def test_chern_zero_flag(self, capsys):
        code, env = run_json(capsys, "chern", str(CORPUS / "cusp.json"),
                             "--item", "K")
        assert code == 0
        assert env["results"]["zero"] is True
        assert all(c == "0" for c in env["results"]["coordinates"])

    def test_validate_lists_labels(self, capsys):
        code, env = run_json(capsys, "validate", str(CORPUS / "cubic.json"))
        assert code == 0
        assert "C1" in env["results"]["factorizations"]
        assert "m1" in env["results"]["modules"]

    def test_lemma_check(self, capsys):
        code, env = run_json(capsys, "lemma-check", str(CORPUS / "node.json"),
                             "--item", "N1", "--j", "1")
        assert code == 0
        assert env["results"]["holds"] is True

    def test_order_flag_changes_nothing_observable(self, capsys):
        _, lex_env = run_json(capsys, "--order", "lex", "euler",
                              str(CORPUS / "cubic.json"),
                              "--left", "C1", "--right", "C1")
        _, drl_env = run_json(capsys, "euler", str(CORPUS / "cubic.json"),
                              "--left", "C1", "--right", "C1")
        assert lex_env["results"] == drl_env["results"]

    @pytest.mark.parametrize("command, options", [
        ("theta", ["--left", "M", "--right", "N"]),
        ("gram", ["--pairing", "theta", "--items", "M,N"]),
    ], ids=["theta", "gram"])
    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_lex_theta_is_the_degrevlex_output(self, capsys, command, options, fmt):
        # M = coker(1, x^2) over x^3 + y^2: a lex resolution of it missed the
        # step cap, so theta under --order lex used to exit 1
        corpus = str(DATA / "lex_theta.json")
        lex, drl = (run_cli(capsys, "--format", fmt, "--order", order, command, corpus, *options)
                    for order in ("lex", "degrevlex"))
        assert lex == drl
        assert lex[0] == 0


class TestGramAndPsd:
    def test_gram_entries(self, capsys):
        code, env = run_json(capsys, "gram", str(CORPUS / "node.json"),
                             "--pairing", "signed_theta", "--items", "Rx,Ry")
        assert code == 0
        assert env["results"]["entries"] == [[1, -1], [-1, 1]]
        assert env["results"]["labels"] == ["Rx", "Ry"]

    def test_gram_feeds_psd(self, capsys, tmp_path):
        _, out = run_cli(capsys, "gram", str(CORPUS / "node.json"),
                         "--pairing", "signed_theta", "--items", "Rx,Ry")
        report = tmp_path / "gram.json"
        report.write_text(out)
        code, env = run_json(capsys, "psd", str(report))
        assert code == 0
        assert env["results"]["psd"] is True
        assert env["results"]["kernel_dimension"] == 1
        assert env["results"]["kernel_basis"] == [["1", "1"]]

    def test_psd_accepts_bare_object(self, capsys, tmp_path):
        report = tmp_path / "bare.json"
        report.write_text(json.dumps({
            "pairing": "euler", "labels": ["a", "b"],
            "entries": [[1, 2], [2, 1]],
        }))
        code, env = run_json(capsys, "psd", str(report))
        assert code == 0
        assert env["results"]["psd"] is False
        assert env["results"]["negative_pivot"] == "-3"

    def test_psd_rejects_ragged_entries(self, capsys, tmp_path):
        report = tmp_path / "ragged.json"
        report.write_text(json.dumps({
            "pairing": "euler", "labels": ["a", "b"],
            "entries": [[1, 2]],
        }))
        code, env = run_json(capsys, "psd", str(report))
        assert code == 1
        assert env["status"] == "error"

    # Gram entries are integers; a float is refused even when whole (2.0),
    # since it cannot come from a Gram report and int() would silently truncate
    @pytest.mark.parametrize("labels, entries", [
        (["a"], [[-0.5]]),
        (["a", "b"], [[1.9, 0], [0, 2.5]]),
        (["a"], [[2.0]]),
        (["a"], [[True]]),
        (["a", "b"], [[1, False], [False, 1]]),
        (["a"], [["1"]]),
        (["a"], ["1"]),
        (["a"], 1),
        ("ab", [[1, 0], [0, 1]]),
        ([1, 2], [[1, 0], [0, 1]]),
        (None, [[1]]),
    ])
    def test_psd_rejects_non_integer_input(self, capsys, tmp_path, labels, entries):
        report = tmp_path / "bad.json"
        report.write_text(json.dumps({
            "pairing": "euler", "labels": labels, "entries": entries,
        }))
        code, env = run_json(capsys, "psd", str(report))
        assert code == 1
        assert env["status"] == "error"
        assert env["error"]["type"] == "CorpusError"

    @pytest.mark.parametrize("pairing", [5, None, "hodge"])
    def test_psd_rejects_unknown_pairing(self, capsys, tmp_path, pairing):
        report = tmp_path / "bad.json"
        report.write_text(json.dumps({
            "pairing": pairing, "labels": ["a"], "entries": [[1]],
        }))
        code, env = run_json(capsys, "psd", str(report))
        assert code == 1
        assert env["status"] == "error"
        assert env["error"]["type"] == "CorpusError"


    # one over MAX_GRAM_SIZE = 128 in the labels, the rows or one row; every
    # entry is a string, so a type check of any entry would be a CorpusError
    @pytest.mark.parametrize("labels, rows", [
        (129, [["1"]]), (1, [["1"]] * 129), (1, [["1"] * 129])],
        ids=["129_labels", "129_rows", "row_of_129"])
    def test_psd_size_budget_comes_before_any_entry(self, capsys, tmp_path,
                                                    monkeypatch, labels, rows):
        def refuse(g):
            raise AssertionError("the report reached is_positive_semidefinite")
        monkeypatch.setattr(cli, "is_positive_semidefinite", refuse)
        report = tmp_path / "big.json"
        report.write_text(json.dumps({
            "pairing": "euler", "labels": [f"x{i}" for i in range(labels)],
            "entries": rows,
        }))
        code, env = run_json(capsys, "psd", str(report))
        assert code == 1
        assert env["error"] == {
            "type": "BudgetError",
            "message": "gram matrix of size 129 exceeds MAX_GRAM_SIZE = 128"}

    # gram_matrix checks MAX_GRAM_SIZE before its first entry: 129 labels once
    # computed all 129^2 theta pairings for a report that psd then refused
    def test_gram_size_budget_comes_before_any_entry(self, capsys):
        start = time.perf_counter()
        code, env = run_json(capsys, "gram", str(CORPUS / "cubic.json"),
                             "--pairing", "theta", "--items", ",".join(["m1"] * 129))
        assert time.perf_counter() - start < 1
        assert code == 1
        assert env["error"] == {
            "type": "BudgetError",
            "message": "gram matrix of size 129 exceeds MAX_GRAM_SIZE = 128"}

    # 12 x 12 reports of 1,000 and 4,000 digit entries once ran 2.7 s and
    # 40 s in a Fraction LDL^T, then failed to print a kernel coordinate past
    # Python's limit on the digits of an int turned into a string
    @pytest.mark.parametrize("digits", [1000, 4000])
    def test_psd_entry_budget(self, capsys, tmp_path, digits):
        big = 10 ** (digits - 1)
        report = tmp_path / "long.json"
        report.write_text(json.dumps({
            "pairing": "euler", "labels": [f"x{i}" for i in range(12)],
            "entries": [[big + i * j for j in range(12)] for i in range(12)]}))
        code, env = run_json(capsys, "psd", str(report))
        assert code == 1
        assert env["error"] == {
            "type": "BudgetError",
            "message": "a gram entry exceeds MAX_GRAM_ENTRY_BITS = 64"}

    def test_unprintable_rational_is_a_budget_error(self):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            assert format_fraction(Fraction(-10 ** 4299, 3)) == "-1" + "0" * 4299 + "/3"
            with pytest.raises(BudgetError, match="too long to print"):
                format_fraction(Fraction(1, 10 ** 4300))
        finally:
            sys.set_int_max_str_digits(limit)


class TestWeightFiltration:
    def test_jordan_3_1(self, capsys, tmp_path):
        matrix = tmp_path / "n.json"
        matrix.write_text(json.dumps([
            [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0]]))
        code, env = run_json(capsys, "weight-filtration",
                             "--matrix", str(matrix), "--center", "0")
        assert code == 0
        results = env["results"]
        assert results["graded"] == {"-3": 0, "-2": 1, "-1": 0, "0": 2,
                                     "1": 0, "2": 1, "3": 0}
        assert results["primitive"] == {"0": 1, "1": 0, "2": 1, "3": 0}
        assert results["shift_ok"] and results["iso_ok"]

    def test_axioms_verified_once(self, capsys, tmp_path, monkeypatch):
        import mfres.hodge
        calls = []
        original = mfres.hodge.verify_weight_axioms

        def counting(wf):
            calls.append(None)
            return original(wf)
        monkeypatch.setattr(mfres.hodge, "verify_weight_axioms", counting)
        matrix = tmp_path / "n.json"
        matrix.write_text(json.dumps([[0, 1, 0], [0, 0, 1], [0, 0, 0]]))
        code, env = run_json(capsys, "weight-filtration",
                             "--matrix", str(matrix), "--center", "0")
        assert code == 0
        assert env["results"]["shift_ok"] is True and env["results"]["iso_ok"] is True
        assert len(calls) == 1

    def test_non_nilpotent_is_a_domain_error(self, capsys, tmp_path):
        matrix = tmp_path / "id.json"
        matrix.write_text(json.dumps([[1, 0], [0, 1]]))
        code, env = run_json(capsys, "weight-filtration",
                             "--matrix", str(matrix), "--center", "0")
        assert code == 1
        assert env["error"]["type"] == "MfresError"

    @pytest.mark.parametrize("entry", ["1e5", "0.5", "1_0", " 1"])
    def test_rejects_entries_other_than_p_or_p_over_q(self, capsys, tmp_path, entry):
        matrix = tmp_path / "n.json"
        matrix.write_text(json.dumps([[0, entry], [0, 0]]))
        code, env = run_json(capsys, "weight-filtration",
                             "--matrix", str(matrix), "--center", "0")
        assert code == 1
        assert env["error"] == {"type": "CorpusError",
                                "message": f"bad rational {entry!r}"}

    def test_dimension_budget_exits_1(self, capsys, tmp_path):
        n = 33
        matrix = tmp_path / "shift.json"
        matrix.write_text(json.dumps([[int(j == i + 1) for j in range(n)]
                                      for i in range(n)]))
        code, env = run_json(capsys, "weight-filtration",
                             "--matrix", str(matrix), "--center", "0")
        assert code == 1
        assert env["error"] == {
            "type": "BudgetError",
            "message": "operator of dimension 33 exceeds MAX_OPERATOR_DIMENSION = 32"}

    @pytest.mark.parametrize("rows", [[[0] * 33] * 33, [[0, 1], [0] * 33]],
                             ids=["33_rows", "row_of_33"])
    def test_dimension_budget_comes_before_any_entry(self, capsys, tmp_path,
                                                    monkeypatch, rows):
        import mfres.cli
        calls = []
        original = mfres.cli.parse_fraction

        def counting(text):
            calls.append(None)
            return original(text)
        monkeypatch.setattr(mfres.cli, "parse_fraction", counting)
        matrix = tmp_path / "big.json"
        matrix.write_text(json.dumps(rows))
        code, env = run_json(capsys, "weight-filtration",
                             "--matrix", str(matrix), "--center", "0")
        assert code == 1
        assert env["error"] == {
            "type": "BudgetError",
            "message": "operator of dimension 33 exceeds MAX_OPERATOR_DIMENSION = 32"}
        assert len(calls) == 0

    def test_accepts_integer_and_fraction_strings(self, capsys, tmp_path):
        matrix = tmp_path / "n.json"
        matrix.write_text(json.dumps([[0, "-3/4", 0], [0, 0, "+2"], [0, 0, 0]]))
        code, env = run_json(capsys, "weight-filtration",
                             "--matrix", str(matrix), "--center", "0")
        assert code == 0
        assert env["results"]["nilpotency_index"] == 3


class TestErrors:
    def test_bad_factorization_corpus(self, capsys):
        code, env = run_json(capsys, "validate", str(DATA / "bad.json"))
        assert code == 1
        assert env["status"] == "error"
        assert env["error"]["type"] == "CorpusError"
        assert "expected x*y" in env["error"]["message"]

    def test_syntax_error_keeps_offset_in_message(self, capsys):
        code, env = run_json(capsys, "validate", str(DATA / "bad_syntax.json"))
        assert code == 1
        assert "offset 4" in env["error"]["message"]

    def test_unknown_label(self, capsys):
        code, env = run_json(capsys, "euler", str(CORPUS / "node.json"),
                             "--left", "NOPE", "--right", "N1")
        assert code == 1
        assert env["error"]["type"] == "CorpusError"

    def test_missing_file(self, capsys):
        code, env = run_json(capsys, "milnor", "no_such_corpus.json")
        assert code == 1
        assert env["error"]["type"] == "CorpusError"

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["euler", str(CORPUS / "node.json"), "--left", "N1"])
        assert exc.value.code == 2

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [["validate", "{}"], ["psd", "{}"],
                                      ["weight-filtration", "--matrix", "{}",
                                       "--center", "0"]])
    def test_integer_past_the_digit_limit(self, capsys, tmp_path, argv):
        # Python refuses to parse an int of more than 4,300 digits
        path = tmp_path / "huge.json"
        path.write_text("[[" + "1" * 5000 + "]]")
        code, env = run_json(capsys, *(a.format(path) for a in argv))
        assert code == 1
        assert env["status"] == "error"
        assert env["error"]["type"] == "CorpusError"
        assert env["error"]["message"].startswith(f"{path} is not valid JSON: ")

    @pytest.mark.parametrize("command, potential, limit", [
        ("validate", "(x+y+1)^2500", "MAX_EXPONENT"),
        ("validate", "(x+y+1)^300", "MAX_POWER_TERMS"),
        ("milnor", "x^3 + y^2 + x^400000000*y^3", "MAX_EXPONENT"),
        ("milnor", "x^400 + y^400", "MAX_QUOTIENT_BOX"),
    ])
    def test_budget_errors_exit_1(self, capsys, tmp_path, command, potential, limit):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"name": "big", "variables": ["x", "y"],
                                    "potential": potential}))
        code, env = run_json(capsys, command, str(path))
        assert code == 1
        assert env["error"]["type"] == "BudgetError"
        assert limit in env["error"]["message"]

    @pytest.mark.parametrize("section, index, value", [
        ("factorizations", None, 7),
        ("factorizations", 0, 7),
        ("factorizations", 0, ["label", "N1"]),
        ("modules", None, 7),
        ("modules", 0, 7),
        ("modules", 0, ["label", "Rx"]),
        ("modules", 0, {"label": "Rx", "ambient_rank": 1, "relations": 5}),
        ("modules", 0, {"label": "Rx", "ambient_rank": 0, "relations": [[]]}),
        ("modules", 0, {"label": "Rx", "ambient_rank": -1, "relations": []}),
        ("modules", 0, {"label": "Rx", "ambient_rank": True, "relations": [["x"]]}),
    ])
    def test_malformed_corpus_structure(self, capsys, tmp_path, section, index, value):
        raw = json.loads((CORPUS / "node.json").read_text())
        if index is None:
            raw[section] = value
        else:
            raw[section][index] = value
        (tmp_path / "node.json").write_text(json.dumps(raw))
        for argv in (["validate", str(tmp_path / "node.json")],
                     ["theta", str(tmp_path / "node.json"), "--left", "Rx", "--right", "Rx"],
                     ["selftest", str(tmp_path)]):
            code, env = run_json(capsys, *argv)
            assert code == 1
            assert env["error"]["type"] == "CorpusError"

    @pytest.mark.parametrize("argv", [["validate", "{}"], ["psd", "{}"],
                                      ["weight-filtration", "--matrix", "{}",
                                       "--center", "0"]])
    def test_json_nested_too_deeply(self, capsys, tmp_path, argv):
        # the decoder recurses once per bracket and hits the recursion limit
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        code, env = run_json(capsys, *(a.format(path) for a in argv))
        assert code == 1
        assert env["error"] == {"type": "CorpusError",
                                "message": f"{path} is nested too deeply"}

    def test_parentheses_nested_too_deeply(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text(json.dumps({"name": "deep", "variables": ["x"],
                                    "potential": "(" * 300 + "x" + ")" * 300}))
        code, env = run_json(capsys, "validate", str(path))
        assert code == 1
        assert env["error"]["type"] == "BudgetError"
        assert env["error"]["message"].endswith(
            "MAX_NESTING_DEPTH = 100 (offset 100)")

    def test_lemma_j_out_of_range(self, capsys):
        code, env = run_json(capsys, "lemma-check", str(CORPUS / "node.json"),
                             "--item", "N1", "--j", "0")
        assert code == 1
        assert env["error"]["type"] == "CorpusError"

    def test_text_error_rendering(self, capsys):
        code, out = run_cli(capsys, "--format", "text", "validate",
                            str(DATA / "bad.json"))
        assert code == 1
        assert out.startswith("error (CorpusError):")

    # str.isdigit once let "²" through to int(), which raised a bare ValueError
    @pytest.mark.parametrize("command", ["validate", "milnor"])
    def test_non_ascii_digit_in_potential(self, capsys, tmp_path, command):
        path = tmp_path / "sup.json"
        path.write_text(json.dumps({"name": "sup", "variables": ["x", "y"],
                                    "potential": "x^² + y^2"}))
        code, env = run_json(capsys, command, str(path))
        assert code == 1
        assert env["status"] == "error"
        assert env["error"]["type"] == "CorpusError"
        assert env["error"]["message"].endswith("unexpected character '²' (offset 2)")

    @pytest.mark.parametrize("variables", [["x", "x"], ["", "y"], ["1", "y"]])
    def test_variables_the_grammar_cannot_name(self, capsys, tmp_path, variables):
        # the potential parses, so without the check the file would load and
        # every command after validate would fail with a SingularityError
        path = tmp_path / "vars.json"
        path.write_text(json.dumps({"name": "vars", "variables": variables,
                                    "potential": f"{variables[-1]}^2"}))
        code, env = run_json(capsys, "validate", str(path))
        assert code == 1
        assert env["error"]["type"] == "CorpusError"
        assert f"variable {variables[0]!r} is " in env["error"]["message"]


class TestSelftest:
    def test_builtin_corpus_all_pass(self, capsys):
        code, env = run_json(capsys, "selftest")
        assert code == 0
        assert env["results"]["failed"] == 0
        assert env["results"]["passed"] == 60

    def test_text_lines(self, capsys):
        code, out = run_cli(capsys, "--format", "text", "selftest")
        assert code == 0
        lines = out.strip().splitlines()
        assert all(line.startswith("PASS") for line in lines[:-1])
        assert lines[-1] == "60 passed, 0 failed"

    def test_text_output_is_the_golden_file(self, capsys):
        # every description and note of the built-in corpus, byte for byte
        code, out = run_cli(capsys, "--format", "text", "selftest")
        assert code == 0
        assert out == (DATA / "selftest_builtin.txt").read_text()

    def test_empty_directory_warns(self, capsys, tmp_path):
        code, env = run_json(capsys, "selftest", str(tmp_path))
        assert code == 0
        assert env["results"]["passed"] == 0
        assert "warning" in env["results"]

    def test_failing_expectation_exits_1(self, capsys, tmp_path):
        # a wrong value, then malformed records that fail as one error line,
        # then kinds that name no check: FAIL lines, not errors
        records = [({"check": "milnor", "mu": 99}, False),
                   ({"check": "lemma", "item": "N1", "j": "x"}, True),
                   ({"check": "lemma", "item": "N1", "j": 0}, True),
                   ({"check": "gram", "pairing": "bogus", "items": ["N1"],
                     "entries": [[1]]}, True),
                   ({"check": "gram_psd", "pairing": "euler"}, True),
                   ({"check": "chern", "item": "N1", "coordinates": 5}, True),
                   ({"check": "euler", "left": 5, "right": "N1"}, True),
                   ({"check": "hrr", "left": "N1"}, True),
                   ({"check": "theta", "left": "N1"}, True),
                   ({"check": ["euler"]}, False),
                   ({"check": {"a": 1}}, False),
                   ({"check": None}, False)]
        notes = ["found 1",
                 "lemma needs an integer j, found 'x'",
                 "need 1 <= j and 2j <= number of variables",
                 "expectation pairing must be one of euler, theta, signed_theta",
                 "expectation needs a nonempty list field 'items'",
                 "expectation field 'coordinates' must be a list",
                 "expectation needs a string field 'left'",
                 "expectation needs a string field 'right'",
                 "expectation needs a string field 'right'",
                 "unrecognized expectation",
                 "unrecognized expectation",
                 "unrecognized expectation"]
        descriptions = ["milnor mu=99", "lemma (error)", "lemma (error)", "gram (error)",
                        "gram_psd (error)", "chern (error)", "euler (error)",
                        "hrr (error)", "theta (error)", "unknown check ['euler']",
                        "unknown check {'a': 1}", "unknown check None"]
        for k, (record, error) in enumerate(records):
            content = {
                "name": "wrong",
                "variables": ["x", "y"],
                "potential": "x*y",
                "factorizations": [{"label": "N1", "A": [["x"]], "B": [["y"]]}],
                "expectations": [record],
            }
            directory = tmp_path / str(k)
            directory.mkdir()
            (directory / "wrong.json").write_text(json.dumps(content))
            code, env = run_json(capsys, "selftest", str(directory))
            assert code == 1
            assert env["results"]["failed"] == 1
            check = env["results"]["checks"][0]
            assert check["description"].endswith("(error)") == error
            assert (check["description"], check["note"]) == (descriptions[k], notes[k])


class TestTextFormat:
    def test_milnor_text(self, capsys):
        code, out = run_cli(capsys, "--format", "text", "milnor",
                            str(CORPUS / "node.json"))
        assert code == 0
        assert out == "mu: 1\n"

    def test_hrr_text(self, capsys):
        code, out = run_cli(capsys, "--format", "text", "hrr",
                            str(CORPUS / "node.json"),
                            "--left", "N1", "--right", "N1")
        assert code == 0
        assert "chi: 1" in out
        assert "residue_side: -1" in out


class TestParserReuse:
    def test_parser_built_once_per_process(self, capsys, monkeypatch):
        calls = []
        original = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            calls.append(None)
            original(self, *args, **kwargs)
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        cli._build_parser.cache_clear()
        for argv in (["milnor", str(CORPUS / "node.json")],
                     ["validate", str(CORPUS / "cubic.json")],
                     ["euler", str(CORPUS / "node.json"), "--left", "N1", "--right", "N1"],
                     ["--format", "text", "milnor", str(CORPUS / "cusp.json")]):
            assert main(argv) == 0
        capsys.readouterr()
        # the top level parser and one per subcommand, all on the first call
        assert len(calls) == 1 + len(cli._COMMANDS) == 14

    def test_reused_parser_answers_alike(self, capsys):
        node = str(CORPUS / "node.json")
        argvs = [["milnor", node],
                 ["euler", node, "--left", "N1"],
                 ["--help"],
                 ["--format", "text", "hrr", node, "--left", "N1", "--right", "N1"],
                 ["gram", "--help"],
                 ["frobnicate"],
                 ["theta", node, "--left", "Rx", "--right", "Ry"]]
        cli._build_parser.cache_clear()
        first = {}
        for argv in argvs + argvs[::-1] + argvs:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            assert first.setdefault(tuple(argv), (code, out, err)) == (code, out, err)
        assert sorted(code for code, _, _ in first.values()) == [0, 0, 0, 0, 0, 2, 2]


class TestDeterminism:
    def test_repeated_runs_byte_identical(self):
        cmd = [sys.executable, "-m", "mfres.cli", "gram",
               str(CORPUS / "cubic.json"), "--pairing", "euler",
               "--items", "C1,C1s"]
        # the child finds this checkout's package whether or not mfres is
        # installed or PYTHONPATH is set
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        first = subprocess.run(cmd, capture_output=True, text=True, env=env)
        second = subprocess.run(cmd, capture_output=True, text=True, env=env)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
        assert first.stdout  # not empty
