"""Problem documents and the command-line surface."""

import json
import sys
from fractions import Fraction

import pytest

from polydc import parse_problem, serialize_problem
from polydc.cli import ProblemFormatError, main

from gens import vec

F = Fraction

INTERVAL_DOC = """
{
  "dimension": 1,
  "C": {"eq": [], "ineq": [{"a": ["-1"], "b": "2"}, {"a": ["1"], "b": "3"}]},
  "g": {"pieces": [{"u": ["0"], "alpha": "0"}], "domain": null},
  "h": {"pieces": [{"u": ["-1"], "alpha": "-1"},
                   {"u": ["0"], "alpha": "0"},
                   {"u": ["1"], "alpha": "-1"}], "domain": null}
}
"""


@pytest.fixture
def problem_file(tmp_path):
    path = tmp_path / "interval.json"
    path.write_text(INTERVAL_DOC, encoding="utf-8")
    return str(path)


class TestParsing:
    def test_interval_document(self):
        prob = parse_problem(INTERVAL_DOC)
        assert prob.dimension == 1
        assert len(prob.g.pieces) == 1
        assert len(prob.h.pieces) == 3
        assert prob.C.contains(vec(3)) and not prob.C.contains(vec(4))

    def test_exact_rationals(self):
        doc = json.loads(INTERVAL_DOC)
        doc["g"]["pieces"][0]["u"] = ["-3/2"]
        prob = parse_problem(json.dumps(doc))
        assert prob.g.pieces[0][0] == (F(-3, 2),)

    def test_round_trip_identity(self):
        prob = parse_problem(INTERVAL_DOC)
        assert parse_problem(serialize_problem(prob)) == prob

    def test_round_trip_with_domains_and_equalities(self):
        doc = {
            "dimension": 2,
            "C": {
                "eq": [{"a": ["1", "0"], "y": "1/2"}],
                "ineq": [{"a": ["0", "1"], "b": "2"}],
            },
            "g": {
                "pieces": [{"u": ["1", "-1"], "alpha": "1/3"}],
                "domain": {"eq": [], "ineq": [{"a": ["0", "-1"], "b": "5"}]},
            },
            "h": {"pieces": [{"u": ["0", "0"], "alpha": "0"}], "domain": None},
        }
        prob = parse_problem(json.dumps(doc))
        assert parse_problem(serialize_problem(prob)) == prob

    def test_syntax_error_carries_location(self):
        with pytest.raises(ProblemFormatError, match=r"line \d+, column \d+"):
            parse_problem("{\n  \"dimension\": 1,\n  oops\n}")

    def test_dimension_mismatch_is_located(self):
        doc = json.loads(INTERVAL_DOC)
        doc["h"]["pieces"][1]["u"] = ["0", "0"]
        with pytest.raises(ProblemFormatError, match=r"h\.pieces\[1\]\.u"):
            parse_problem(json.dumps(doc))

    def test_floats_are_rejected(self):
        doc = json.loads(INTERVAL_DOC)
        doc["g"]["pieces"][0]["alpha"] = 0.5
        with pytest.raises(ProblemFormatError, match="g.pieces"):
            parse_problem(json.dumps(doc))

    def test_boolean_dimension_is_rejected(self):
        doc = json.loads(INTERVAL_DOC)
        doc["dimension"] = True
        with pytest.raises(ProblemFormatError, match="^dimension"):
            parse_problem(json.dumps(doc))

    def test_standing_assumption_checked_at_load(self):
        doc = {
            "dimension": 1,
            "C": {"eq": [], "ineq": [{"a": ["1"], "b": "-5"}]},
            "g": {
                "pieces": [{"u": ["0"], "alpha": "0"}],
                "domain": {"eq": [], "ineq": [{"a": ["-1"], "b": "0"}]},
            },
            "h": {"pieces": [{"u": ["0"], "alpha": "0"}], "domain": None},
        }
        with pytest.raises(Exception, match="standing assumption"):
            parse_problem(json.dumps(doc))


class TestCommands:
    def test_classify_golden(self, problem_file, capsys):
        code = main(
            ["classify", "--problem", problem_file, "--point", "3", "--global"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["critical"] and report["stationary"]
        assert report["local"] == "yes" and report["global"] == "yes"

    def test_classify_probe_without_global(self, problem_file, capsys):
        # negative coordinates need the --flag=value spelling
        code = main(["classify", "--problem", problem_file, "--point=-3/2"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert not report["critical"]
        assert report["global"] == "not-computed"

    def test_dca_golden(self, problem_file, capsys):
        code = main(
            ["dca", "--problem", problem_file, "--x0", "2", "--rule", "min-index"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert [it["f"] for it in report["iterates"]] == ["-1", "-2", "-2"]
        assert report["termination"]["kind"] == "fixed-point"
        assert report["iterates"][-1]["x"] == ["3"]

    def test_dca_scripted_rule(self, problem_file, tmp_path, capsys):
        script = tmp_path / "script.json"
        script.write_text(json.dumps({"subgradients": [["0"]]}), "utf-8")
        code = main(
            [
                "dca",
                "--problem",
                problem_file,
                "--x0",
                "-1",
                "--rule",
                f"script:{script}",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["iterates"][0]["xi"] == ["0"]

    def test_dca_table_rule(self, problem_file, tmp_path, capsys):
        table = tmp_path / "table.json"
        entries = [
            {"active": [1], "choose": 1},
            {"active": [1, 2], "choose": 2},
            {"active": [2], "choose": 2},
            {"active": [2, 3], "choose": 2},
            {"active": [3], "choose": 3},
        ]
        table.write_text(json.dumps({"entries": entries}), "utf-8")
        code = main(
            [
                "dca",
                "--problem",
                problem_file,
                "--x0",
                "-1",
                "--rule",
                f"table:{table}",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        # table picks the flat piece at the kink, parking the run at -2
        assert report["iterates"][0]["xi"] == ["0"]
        assert report["termination"]["kind"] == "fixed-point"

    def test_structure_golden(self, problem_file, capsys):
        code = main(["structure", "--problem", problem_file])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["alpha_bar"] == "-2"
        assert report["J_star"] == [3]
        assert [p["J1"] for p in report["local_pieces"]] == [[1], [2], [3]]
        assert [c["f"] for c in report["components"]] == ["-1", "0", "-2"]

    def test_dual_value(self, problem_file, capsys):
        code = main(["dual", "--problem", problem_file, "--xi", "1"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["dual_value"] == "-2"

    def test_dual_report(self, problem_file, capsys):
        code = main(["dual", "--problem", problem_file])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["primal_value"] == "-2"
        assert report["attained_at"] == ["1"]

    def test_verify(self, problem_file, capsys):
        code = main(
            ["verify", "--problem", problem_file, "--grid-step", "1/8"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True
        assert report["failures"] == []
        assert report["points_in_set"] == 41

    def test_reports_are_byte_identical(self, problem_file, capsys):
        main(["structure", "--problem", problem_file])
        first = capsys.readouterr().out
        main(["structure", "--problem", problem_file])
        second = capsys.readouterr().out
        assert first == second

    def test_bad_input_exits_2(self, problem_file, capsys):
        code = main(
            ["classify", "--problem", problem_file, "--point", "1,2"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys):
        code = main(["structure", "--problem", "/nonexistent.json"])
        assert code == 2
        assert "cannot read" in capsys.readouterr().err

    def test_invalid_scripted_subgradient_exits_2(
        self, problem_file, tmp_path, capsys
    ):
        script = tmp_path / "bad.json"
        script.write_text(json.dumps({"subgradients": [["1"]]}), "utf-8")
        code = main(
            [
                "dca",
                "--problem",
                problem_file,
                "--x0",
                "0",
                "--rule",
                f"script:{script}",
            ]
        )
        assert code == 2
        assert "not a subgradient" in capsys.readouterr().err

    def test_negative_max_iter_exits_2(self, problem_file, capsys):
        args = ["dca", "--problem", problem_file, "--x0", "2", "--max-iter"]
        assert main(args + ["-3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: --max-iter: expected a count >= 0, got -3" in captured.err
        assert main(args + ["0"]) == 0
        assert json.loads(capsys.readouterr().out)["max_iter"] == 0

    def test_incomplete_table_exits_2(self, problem_file, tmp_path, capsys):
        table = tmp_path / "table.json"
        table.write_text(
            json.dumps({"entries": [{"active": [1], "choose": 1}]}), "utf-8"
        )
        code = main(
            [
                "dca",
                "--problem",
                problem_file,
                "--x0",
                "2",
                "--rule",
                f"table:{table}",
            ]
        )
        assert code == 2
        assert "no table entry" in capsys.readouterr().err

    def test_malformed_table_entries_exit_2(self, problem_file, tmp_path, capsys):
        table = tmp_path / "table.json"
        for entry, location in (
            ({"active": "12", "choose": 1}, "table entry #1.active"),
            ({"active": [1, True], "choose": 1}, "table entry #1.active"),
            ({"active": [-1], "choose": 1}, "table entry #1.active"),
            ({"active": [1], "choose": "1"}, "table entry #1.choose"),
            ({"active": [1], "choose": True}, "table entry #1.choose"),
        ):
            entries = [{"active": [1], "choose": 1}, entry]
            table.write_text(json.dumps({"entries": entries}), "utf-8")
            code = main(
                [
                    "dca",
                    "--problem",
                    problem_file,
                    "--x0",
                    "2",
                    "--rule",
                    f"table:{table}",
                ]
            )
            assert code == 2
            assert location in capsys.readouterr().err

    def test_table_entries_that_do_not_fit_h_exit_2(
        self, problem_file, tmp_path, capsys
    ):
        # h has 3 pieces; each bad entry follows a valid one, as entry #1
        table = tmp_path / "table.json"
        for entry, message in (
            ({"active": [0], "choose": 0}, "#1.active: piece 0, but h has 3 pieces"),
            ({"active": [1, 2], "choose": 7}, "#1.choose: piece 7, but h has 3 pieces"),
            ({"active": [2, 2], "choose": 2}, "#1.active: [2, 2] repeats a piece"),
            (
                {"active": [3, 2], "choose": 1},
                "#1.choose: piece 1 is not in its active set [2, 3]",
            ),
            (
                {"active": [1], "choose": 1},
                "#1.active: the active set [1] is given by entry #0 already",
            ),
        ):
            entries = [{"active": [1], "choose": 1}, entry]
            table.write_text(json.dumps({"entries": entries}), "utf-8")
            args = ["--x0", "2", "--rule", f"table:{table}"]
            assert main(["dca", "--problem", problem_file, *args]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: table entry {message}\n"

    def test_script_vectors_of_the_wrong_length_exit_2(
        self, problem_file, tmp_path, capsys
    ):
        script = tmp_path / "script.json"
        for vectors, message in (
            ([["1", "2"]], "script entry #0: length 2, expected 1"),
            ([["0"], ["0"], []], "script entry #2: length 0, expected 1"),
        ):
            script.write_text(json.dumps({"subgradients": vectors}), "utf-8")
            args = ["--x0", "2", "--max-iter", "1", "--rule", f"script:{script}"]
            assert main(["dca", "--problem", problem_file, *args]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {message}\n"

    def test_row_lists_that_are_not_lists_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        cases = []
        for value in (5, True, False, 0, {}, "", "[]"):
            doc = json.loads(INTERVAL_DOC)
            doc["C"]["eq"] = value
            cases.append((doc, "C.eq"))
            doc = json.loads(INTERVAL_DOC)
            doc["g"]["domain"] = {"ineq": value}
            cases.append((doc, "g.domain.ineq"))
        for doc, location in cases:
            path.write_text(json.dumps(doc), "utf-8")
            code = main(["structure", "--problem", str(path)])
            assert code == 2
            err = capsys.readouterr().err
            assert f"error: {location}: expected a list" in err
            assert "Traceback" not in err

    def test_absent_or_null_row_lists_mean_no_rows(self):
        doc = json.loads(INTERVAL_DOC)
        doc["C"] = {"eq": None, "ineq": doc["C"]["ineq"]}
        doc["h"]["domain"] = {"ineq": None}
        doc["g"]["domain"] = {}
        prob = parse_problem(json.dumps(doc))
        assert prob == parse_problem(INTERVAL_DOC)

    def test_unknown_top_level_keys_exit_2(self, tmp_path, capsys):
        doc = json.loads(INTERVAL_DOC)
        doc["extra"] = 1
        path = tmp_path / "extra.json"
        path.write_text(json.dumps(doc), "utf-8")
        code = main(["structure", "--problem", str(path)])
        assert code == 2
        assert "top level: unknown keys ['extra']" in capsys.readouterr().err

    def test_verify_rejects_higher_dimensions(self, tmp_path, capsys):
        doc = {
            "dimension": 3,
            "C": {
                "eq": [],
                "ineq": [
                    {"a": ["1", "0", "0"], "b": "1"},
                    {"a": ["-1", "0", "0"], "b": "1"},
                ],
            },
            "g": {"pieces": [{"u": ["0", "0", "0"], "alpha": "0"}], "domain": None},
            "h": {"pieces": [{"u": ["0", "0", "0"], "alpha": "0"}], "domain": None},
        }
        path = tmp_path / "three.json"
        path.write_text(json.dumps(doc), "utf-8")
        code = main(["verify", "--problem", str(path), "--grid-step", "1/8"])
        assert code == 2
        assert "dimension" in capsys.readouterr().err


_DELETE = object()  # a key taken out of the document


def _edited(*edits):
    """INTERVAL_DOC with each (path, value) edit made: the value at the
    path of keys and indices is replaced, or deleted for `_DELETE`."""
    doc = json.loads(INTERVAL_DOC)
    for path, value in edits:
        node = doc
        for key in path[:-1]:
            node = node[key]
        if value is _DELETE:
            del node[path[-1]]
        else:
            node[path[-1]] = value
    return doc


_STRINGS = 'rationals must be strings like "-3/2" or integers, got'
# a number of more digits than Python converts to an integer
_LIMIT = sys.get_int_max_str_digits()
_HUGE = "1" * (_LIMIT + 100)
_TOO_LONG = (
    f"Exceeds the limit ({_LIMIT} digits) for integer string conversion: "
    f"value has {_LIMIT + 100} digits"
)
_PIECE = {"u": ["0"], "alpha": "0"}

# (document, or a raw text; its command line after --problem; the rule
# file's JSON text, written as {rule}, or None; the error line)
_LOCATED_ERRORS = {
    "zero denominator": (
        _edited((("C", "ineq", 0, "b"), "1/0")),
        ["structure"],
        None,
        "C.ineq[0].b: Fraction(1, 0)",
    ),
    "null rational": (
        _edited((("g", "pieces", 0, "alpha"), None)),
        ["structure"],
        None,
        "g.pieces[0].alpha: expected a rational, got None",
    ),
    "list rational": (
        _edited((("C", "ineq", 1, "a"), [["1"]])),
        ["structure"],
        None,
        "C.ineq[1].a[0]: expected a rational, got ['1']",
    ),
    "decimal rational": (
        _edited((("C", "ineq", 1, "b"), "3.5")),
        ["structure"],
        None,
        f"C.ineq[1].b: {_STRINGS} '3.5'",
    ),
    "exponent rational": (
        _edited((("h", "pieces", 1, "u", 0), "1e0")),
        ["structure"],
        None,
        f"h.pieces[1].u[0]: {_STRINGS} '1e0'",
    ),
    "huge exponent": (
        _edited((("h", "pieces", 1, "alpha"), "1e1000000")),
        ["structure"],
        None,
        f"h.pieces[1].alpha: {_STRINGS} '1e1000000'",
    ),
    "underscore digits": (
        _edited((("C", "ineq", 1, "b"), "1_0")),
        ["structure"],
        None,
        f"C.ineq[1].b: {_STRINGS} '1_0'",
    ),
    "not a rational": (
        _edited((("C", "ineq", 1, "b"), "three")),
        ["structure"],
        None,
        f"C.ineq[1].b: {_STRINGS} 'three'",
    ),
    "vector not a list": (
        _edited((("C", "ineq", 0, "a"), "-1")),
        ["structure"],
        None,
        "C.ineq[0].a: expected a list of rationals",
    ),
    "malformed row": (
        _edited((("C", "ineq", 0), {"a": ["-1"]})),
        ["structure"],
        None,
        'C.ineq[0]: expected {"a": [...], "b": r}',
    ),
    "set not an object": (
        _edited((("C",), [])),
        ["structure"],
        None,
        "C: expected an object or null",
    ),
    "unknown set keys": (
        _edited((("C", "box"), 1)),
        ["structure"],
        None,
        "C: unknown keys ['box']; expected 'eq'/'ineq'",
    ),
    "unknown function keys": (
        _edited((("g", "shift"), "1")),
        ["structure"],
        None,
        "g: unknown keys ['shift']; expected 'pieces'/'domain'",
    ),
    "function without pieces": (
        _edited((("h", "pieces"), _DELETE)),
        ["structure"],
        None,
        'h: expected {"pieces": [...], ...}',
    ),
    "empty pieces": (
        _edited((("g", "pieces"), [])),
        ["structure"],
        None,
        "g.pieces: expected a nonempty list",
    ),
    "duplicate pieces": (
        _edited((("g", "pieces"), [_PIECE, _PIECE])),
        ["structure"],
        None,
        "g: pieces must be duplicate-free",
    ),
    "top level not an object": (
        "[]",
        ["structure"],
        None,
        "top level: expected an object",
    ),
    "missing key": (
        _edited((("h",), _DELETE)),
        ["structure"],
        None,
        "top level: missing key 'h'",
    ),
    "decimal point": (
        None,
        ["classify", "--point", "0.5"],
        None,
        f"coordinate 0: {_STRINGS} '0.5'",
    ),
    "exponent x0": (
        None,
        ["dca", "--x0", "2e0"],
        None,
        f"coordinate 0: {_STRINGS} '2e0'",
    ),
    "decimal xi": (
        None,
        ["dual", "--xi", "1.0"],
        None,
        f"coordinate 0: {_STRINGS} '1.0'",
    ),
    "decimal grid step": (
        None,
        ["verify", "--grid-step", "0.25"],
        None,
        f"--grid-step: {_STRINGS} '0.25'",
    ),
    "table without entries": (
        None,
        ["dca", "--x0", "2", "--rule", "table:{rule}"],
        '{"entries": {}}',
        'table file: expected {"entries": [{"active": [...], "choose": j}, ...]}',
    ),
    "malformed table entry": (
        None,
        ["dca", "--x0", "2", "--rule", "table:{rule}"],
        '{"entries": [{"active": [1]}]}',
        "table entry #0: expected 'active' and 'choose'",
    ),
    "script without subgradients": (
        None,
        ["dca", "--x0", "2", "--rule", "script:{rule}"],
        "[]",
        'script file: expected {"subgradients": [[...], ...]}',
    ),
    "malformed script entry": (
        None,
        ["dca", "--x0", "2", "--rule", "script:{rule}"],
        '{"subgradients": [["0"], "1"]}',
        "script entry #1: expected a list",
    ),
    "decimal script entry": (
        None,
        ["dca", "--x0", "2", "--rule", "script:{rule}"],
        '{"subgradients": [["0.5"]]}',
        f"script entry #0[0]: {_STRINGS} '0.5'",
    ),
    "unknown rule": (
        None,
        ["dca", "--x0", "2", "--rule", "lowest"],
        None,
        "unknown rule 'lowest'; use min-index, max-index, table:FILE or "
        "script:FILE",
    ),
    "unreadable rule file": (
        None,
        ["dca", "--x0", "2", "--rule", "table:{missing}"],
        None,
        "cannot read {missing}: [Errno 2] No such file or directory: '{missing}'",
    ),
    "huge rational": (
        _edited((("C", "ineq", 0, "b"), _HUGE)),
        ["structure"],
        None,
        f"C.ineq[0].b: {_TOO_LONG}",
    ),
    "huge JSON integer": (
        json.dumps(_edited((("h", "pieces", 2, "alpha"), 0))).replace(
            '"alpha": 0', f'"alpha": -{_HUGE}'
        ),
        ["structure"],
        None,
        f"h.pieces[2].alpha: {_TOO_LONG}",
    ),
    "huge dimension": (
        json.dumps(_edited((("dimension",), 0))).replace(
            '"dimension": 0', f'"dimension": {_HUGE}'
        ),
        ["structure"],
        None,
        "dimension: expected a positive integer",
    ),
    "huge point": (
        None,
        ["classify", "--point", _HUGE],
        None,
        f"coordinate 0: {_TOO_LONG}",
    ),
    "huge denominator x0": (
        None,
        ["dca", "--x0", f"1/{_HUGE}"],
        None,
        f"coordinate 0: {_TOO_LONG}",
    ),
    "huge xi": (
        None,
        ["dual", "--xi", f"-{_HUGE}"],
        None,
        f"coordinate 0: {_TOO_LONG}",
    ),
    "huge grid step": (
        None,
        ["verify", "--grid-step", _HUGE],
        None,
        f"--grid-step: {_TOO_LONG}",
    ),
    "huge script entry": (
        None,
        ["dca", "--x0", "2", "--rule", "script:{rule}"],
        '{"subgradients": [[%s]]}' % _HUGE,
        f"script entry #0[0]: {_TOO_LONG}",
    ),
    "huge table choice": (
        None,
        ["dca", "--x0", "2", "--rule", "table:{rule}"],
        '{"entries": [{"active": [1], "choose": %s}]}' % _HUGE,
        "table entry #0.choose: expected an integer, got "
        f"'{'1' * 37}...{'1' * 38}'",
    ),
    "long table choice": (
        None,
        ["dca", "--x0", "2", "--rule", "table:{rule}"],
        '{"entries": [{"active": [1], "choose": %s}]}' % ("1" * 200),
        f"table entry #0.choose: piece {'1' * 38}...{'1' * 39}, but h has 3 pieces",
    ),
    "huge report value": (
        _edited(
            (("C",), None),
            (
                ("h", "pieces"),
                [{"u": ["1000"], "alpha": "0"}, {"u": ["-1000"], "alpha": "0"}],
            ),
        ),
        ["dca", "--x0", "1" + "0" * (_LIMIT - 1), "--max-iter", "0"],
        None,
        f"report value: Exceeds the limit ({_LIMIT} digits) for integer string "
        "conversion",
    ),
    "rule file syntax error": (
        None,
        ["dca", "--x0", "2", "--rule", "script:{rule}"],
        '{"subgradients": [["0"],]}',
        "{rule}: line 1, column 25: Expecting value",
    ),
}


class TestLocatedErrors:
    """Every malformed document, rational, flag value or rule file is
    rejected with one located error line and exit code 2."""

    @pytest.mark.parametrize(
        "document, command, rule, message",
        list(_LOCATED_ERRORS.values()),
        ids=list(_LOCATED_ERRORS),
    )
    def test_exit_2_with_the_location(
        self, tmp_path, capsys, document, command, rule, message
    ):
        files = {"rule": tmp_path / "rule.json", "missing": tmp_path / "none.json"}
        if rule is not None:
            files["rule"].write_text(rule, "utf-8")

        def named(text):
            for name, file in files.items():
                text = text.replace(f"{{{name}}}", str(file))
            return text

        path = tmp_path / "problem.json"
        if not isinstance(document, str):
            document = json.dumps(_edited() if document is None else document)
        path.write_text(document, "utf-8")
        command, *flags = map(named, command)
        assert main([command, "--problem", str(path), *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {named(message)}\n"

    def test_json_integers_are_rationals(self, tmp_path, capsys):
        path = tmp_path / "problem.json"
        reports = []
        for b in ("3", 3):
            doc = _edited((("C", "ineq", 1, "b"), b), (("g", "pieces", 0, "u"), [0]))
            path.write_text(json.dumps(doc), "utf-8")
            assert main(["structure", "--problem", str(path)]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]
        assert parse_problem(json.dumps(doc)) == parse_problem(INTERVAL_DOC)

    def test_signs_and_spaces_around_a_rational(self):
        doc = _edited(
            (("C", "ineq", 0, "b"), " +2 "), (("C", "ineq", 1, "b"), "\t6/2\n")
        )
        assert parse_problem(json.dumps(doc)) == parse_problem(INTERVAL_DOC)


class TestBundledProblems:
    """The sample documents shipped in problems/ stay valid and meaningful."""

    def test_module_entry_point(self, capsys):
        import os
        import pathlib
        import subprocess
        import sys

        import polydc

        root = pathlib.Path(__file__).resolve().parent.parent
        args = ["structure", "--problem", "problems/interval.json"]
        src = pathlib.Path(polydc.__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": str(src)}
        run = subprocess.run(
            [sys.executable, "-m", "polydc", *args],
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
            check=False,
        )
        assert run.returncode == 0
        assert run.stderr == ""
        assert main(["structure", "--problem", str(root / args[2])]) == 0
        assert run.stdout == capsys.readouterr().out

    def _load(self, name):
        import pathlib

        root = pathlib.Path(__file__).resolve().parent.parent
        return (root / "problems" / name).read_text(encoding="utf-8")

    def test_interval_sample(self):
        prob = parse_problem(self._load("interval.json"))
        assert prob.dimension == 1
        assert parse_problem(serialize_problem(prob)) == prob

    def test_two_dimensional_sample(self):
        from polydc import components, global_solutions, local_pieces
        from polydc.exactlp import ExtendedRational

        prob = parse_problem(self._load("two_dim_vee.json"))
        alpha_bar, J_star, _ = global_solutions(prob)
        assert alpha_bar == ExtendedRational.finite(-1)
        assert J_star == frozenset({1, 2})
        pieces = local_pieces(prob)
        comps = components(prob, pieces)
        assert len(comps) == 2
        assert {c.value for c in comps} == {F(-1)}
