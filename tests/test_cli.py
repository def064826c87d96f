import copy
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from palgebra import (
    Config,
    TableAlgebra,
    algebra_dumps,
    algebra_from_json_dict,
    algebra_to_json_dict,
    algebras,
    build_chain,
    build_si,
    cli,
    config,
    congruences,
    validate,
)
from palgebra.cli import main

QB3 = {
    "premises": [
        {"lhs": "x1*", "rhs": "x2 | x3"},
        {"lhs": "x2*", "rhs": "x1 | x3"},
        {"lhs": "x3*", "rhs": "x1 | x2"},
    ],
    "conclusion": {"lhs": "x1 | x2 | x3", "rhs": "1"},
}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestFree:
    def test_golden_2_1(self, capsys):
        code, out, err = run(capsys, "free", "-n", "2", "-k", "1")
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc["n"] == 2 and doc["k"] == 1
        assert doc["jCount"] == 4 and doc["elements"] == 7

    def test_count_only(self, capsys):
        code, out, _ = run(capsys, "free", "-n", "4", "-k", "2",
                           "--count-only")
        doc = json.loads(out)
        assert doc["jCount"] == 22 and "elements" not in doc

    def test_omega(self, capsys):
        code, out, _ = run(capsys, "free", "-n", "omega", "-k", "2")
        doc = json.loads(out)
        assert doc["n"] == "omega" and doc["elements"] == 626

    def test_boolean(self, capsys):
        code, out, _ = run(capsys, "free", "-n", "0", "-k", "2")
        doc = json.loads(out)
        assert doc["jCount"] == 4 and doc["elements"] == 16

    def test_cap_exceeded_is_machine_readable(self, capsys):
        code, out, err = run(capsys, "free", "-n", "1", "-k", "3")
        assert code == 2
        doc = json.loads(err)
        assert doc["error"] == "cap-exceeded"
        assert doc["count"] > doc["cap"] == 4096

    def test_count_only_dodges_cap(self, capsys):
        code, out, _ = run(capsys, "free", "-n", "1", "-k", "3",
                           "--count-only")
        assert code == 0
        assert json.loads(out)["jCount"] == 27

    def test_export_dot_stdout(self, capsys):
        code, out, _ = run(capsys, "free", "-n", "2", "-k", "1",
                           "--export", "-")
        assert code == 0
        assert out.count("digraph") == 1
        assert "->" in out

    def test_export_dot_file(self, capsys, tmp_path):
        target = tmp_path / "poset.dot"
        code, out, _ = run(capsys, "free", "-n", "2", "-k", "1",
                           "--export", str(target))
        assert code == 0
        text = target.read_text()
        assert text.startswith("digraph") and text.rstrip().endswith("}")

    def test_export_to_an_unwritable_path_is_an_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "poset.dot"
        code, out, err = run(capsys, "free", "-n", "1", "-k", "1",
                             "--export", str(target))
        assert code == 1 and out == ""
        assert err.startswith(f"error: cannot write DOT file {str(target)!r}: ")
        assert err.count("\n") == 1 and not target.exists()

    def test_byte_stable(self, capsys):
        a = run(capsys, "free", "-n", "2", "-k", "2")
        b = run(capsys, "free", "-n", "2", "-k", "2")
        assert a == b


class TestNf:
    @pytest.mark.parametrize("term,n,want", [
        ("(x1 | x1*)**", "2", "1"),
        ("x1 & x1*", "3", "0"),
        ("x1*", "2", "x1*"),
        ("x1", "omega", "x1"),
    ])
    def test_goldens(self, capsys, term, n, want):
        code, out, err = run(capsys, "nf", "-n", n, term)
        assert code == 0 and out == want + "\n" and err == ""

    def test_parse_error(self, capsys):
        code, out, err = run(capsys, "nf", "-n", "2", "x1 &")
        assert code == 1 and out == ""
        assert err.startswith("parse error:")

    def test_unknown_identifier(self, capsys):
        code, _, err = run(capsys, "nf", "-n", "2", "y1")
        assert code == 1 and "parse error" in err

    def test_deep_nesting_is_parsed(self, capsys):
        term = "(" * 1200 + "x1" + ")" * 1200
        assert run(capsys, "nf", "-n", "2", term) == (0, "x1\n", "")

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                        reason="the interpreter reads integers of any length")
    def test_variable_index_too_long_to_read(self, capsys):
        digits = "1" * (sys.get_int_max_str_digits() + 700)
        assert run(capsys, "nf", "-n", "2", "--", "x" + digits) == (
            1, "", "parse error: variable index too long (at position 0)\n")

    @pytest.mark.parametrize("level", ["1e3", "-1", "two", ""])
    def test_bad_level_is_named(self, capsys, level):
        assert run(capsys, "nf", "-n", level, "x1") == (
            1, "", f"error: bad level {level!r}: use a nonnegative integer or omega\n")

    def test_bad_level_in_an_algebra_spec_is_named(self, capsys):
        assert run(capsys, "convert", "free:1e3,2") == (
            1, "", "error: bad algebra spec 'free:1e3,2': "
                   "bad level '1e3': use a nonnegative integer or omega\n")

    @pytest.mark.parametrize("strategy", ["exhaustive", "pruned"])
    def test_deep_json_term_is_decided(self, capsys, tmp_path, strategy):
        term = '["star", ' * 5000 + '["var", 1]' + "]" * 5000  # x1** in si:1
        path = tmp_path / "deep.json"
        path.write_text('{"premises": [], "conclusion": {"lhs": %s, "rhs": "1"}}' % term)
        code, out, err = run(capsys, "qi", str(path), "--algebra", "si:1",
                             "--strategy", strategy)
        assert (code, err) == (1, "")
        assert json.loads(out)["witness"] == {"valuation": {"x1": 0},
                                              "conclusion": {"lhs": 0, "rhs": 2}}

    def test_deep_json_term_is_a_usage_error(self, capsys, tmp_path):
        term = '["star", ' * 20_000 + '["var", 1]' + "]" * 20_000
        path = tmp_path / "deep.json"
        path.write_text('{"premises": [], "conclusion": {"lhs": %s, "rhs": "1"}}' % term)
        code, out, err = run(capsys, "qi", str(path), "--algebra", "si:1")
        assert (code, out, err) == (1, "", "error: input nested too deeply\n")

    def test_int_of_too_many_digits(self, capsys, tmp_path):
        path = tmp_path / "long.json"
        path.write_text('{"premises": [], "conclusion": {"lhs": ["var", %s], "rhs": "x1"}}'
                        % ("1" * 5000))
        code, out, err = run(capsys, "qi", str(path), "--algebra", "si:1")
        assert (code, out) == (1, "") and err.startswith(f"error: bad JSON in {str(path)!r}: ")


class TestEq:
    def test_axiom_holds_everywhere(self, capsys):
        code, out, _ = run(capsys, "eq", "x1 & (x1 & x2)*", "x1 & x2*")
        assert code == 0
        doc = json.loads(out)
        assert doc["holds"] is True and doc["method"] == "normal-form"

    def test_fails_with_witness(self, capsys):
        code, out, _ = run(capsys, "eq", "x1**", "x1",
                           "--variety", "pa1", "--witness")
        assert code == 1
        doc = json.loads(out)
        assert doc["holds"] is False
        assert doc["witness"]["algebra"] == "si:1"
        assert doc["witness"]["valuation"] == {"x1": 1}

    def test_variety_boundary(self, capsys):
        stone = ("x1* | x1**", "1")
        assert run(capsys, "eq", *stone, "--variety", "pa1")[0] == 0
        assert run(capsys, "eq", *stone, "--variety", "pa2")[0] == 1
        assert run(capsys, "eq", *stone)[0] == 1  # pa default

    def test_bad_variety(self, capsys):
        code, _, err = run(capsys, "eq", "x1", "x1", "--variety", "boole")
        assert code == 1 and "error" in err

    def test_variety_of_too_many_digits(self, capsys):
        code, out, err = run(capsys, "eq", "x1", "x1", "--variety", "pa" + "1" * 5000)
        assert (code, out) == (1, "") and err.startswith("error: bad variety 'pa111")


class TestQi:
    @pytest.fixture
    def qb3_file(self, tmp_path):
        f = tmp_path / "qb3.json"
        f.write_text(json.dumps(QB3))
        return str(f)

    def test_fails_in_si3(self, capsys, qb3_file):
        code, out, _ = run(capsys, "qi", qb3_file, "--algebra", "si:3")
        assert code == 1
        doc = json.loads(out)
        assert doc["holds"] is False
        assert doc["witness"]["valuation"] == {"x1": 1, "x2": 2, "x3": 4}

    def test_holds_in_si2(self, capsys, qb3_file):
        code, out, _ = run(capsys, "qi", qb3_file, "--algebra", "si:2")
        assert code == 0
        assert json.loads(out)["holds"] is True

    def test_strategies_agree(self, capsys, qb3_file):
        for strategy in ("exhaustive", "pruned"):
            code, out, _ = run(capsys, "qi", qb3_file, "--algebra", "free:4,1",
                               "--strategy", strategy)
            assert code == 0, strategy
            assert json.loads(out)["holds"] is True

    def test_budget_exceeded(self, capsys, qb3_file):
        code, _, err = run(capsys, "qi", qb3_file, "--algebra", "free:3,2",
                           "--strategy", "exhaustive")
        assert code == 2
        doc = json.loads(err)
        assert doc["error"] == "budget-exceeded"
        assert doc["needed"] == 625 ** 3

    def test_pruned_long_join_premise(self, capsys, tmp_path):
        f = tmp_path / "long.json"
        f.write_text(json.dumps({
            "premises": [{"lhs": "x1*", "rhs": " | ".join(["x2"] * 1200)}],
            "conclusion": {"lhs": "x1", "rhs": "1"},
        }))
        code, out, _ = run(capsys, "qi", str(f), "--algebra", "si:1", "--strategy", "pruned")
        assert code == 1
        doc = json.loads(out)
        assert doc["witness"]["valuation"] == {"x1": 0, "x2": 2}
        assert doc["budgetUsed"] == 11

    def test_malformed_file(self, capsys, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text('{"premises": []}')
        code, _, err = run(capsys, "qi", str(f), "--algebra", "si:1")
        assert code == 1 and "error" in err

    @pytest.mark.parametrize("doc, message", [
        ([], "a quasi-identity document must be an object with premises and conclusion, "
             "got an array"),
        ({"premises": "oops", "conclusion": {"lhs": "x1", "rhs": "1"}},
         "premises must be a list of equations, got a string"),
        ({"premises": None, "conclusion": {"lhs": "x1", "rhs": "1"}},
         "premises must be a list of equations, got null"),
        ({"premises": [5], "conclusion": {"lhs": "x1", "rhs": "1"}},
         "premises[0] must be an object with lhs and rhs, got a number"),
        ({"conclusion": {"lhs": {"op": "var"}, "rhs": "1"}},
         'conclusion.lhs must be a term, as text or as an array such as ["var", 1], '
         "got an object"),
    ])
    def test_malformed_document_names_the_field(self, capsys, tmp_path, doc, message):
        f = tmp_path / "q.json"
        f.write_text(json.dumps(doc))
        code, out, err = run(capsys, "qi", str(f), "--algebra", "si:1")
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_object_inside_a_json_term(self, capsys, tmp_path):
        f = tmp_path / "q.json"
        f.write_text(json.dumps({"conclusion": {"lhs": ["star", {"op": "var"}], "rhs": "1"}}))
        code, out, err = run(capsys, "qi", str(f), "--algebra", "si:1")
        assert (code, out) == (1, "")
        assert err == ('parse error: conclusion.lhs: bad term document: a term is an array '
                       'such as ["var", 1], got an object\n')

    @pytest.mark.parametrize("lhs, message", [
        (["meet", ["var", 1], ["var", 2], ["var", 3]], "'meet' takes 2 operands, got 3"),
        (["star", ["var", 1], ["var", 2]], "'star' takes 1 operand, got 2"),
        (["zero", 5], "'zero' takes 0 operands, got 1"),
        (["var", 1, 2], "'var' takes 1 operand, got 2"),
        (["join", ["var", 1]], "'join' takes 2 operands, got 1"),
    ])
    def test_json_node_with_other_operand_counts_is_refused(self, capsys, tmp_path, lhs,
                                                            message):
        # x1 & x2 & x3 = x1 & x2 fails on si:1; read as x1 & x2 it held
        f = tmp_path / "q.json"
        f.write_text(json.dumps({"conclusion": {"lhs": lhs, "rhs": ["meet", ["var", 1],
                                                                     ["var", 2]]}}))
        code, out, err = run(capsys, "qi", str(f), "--algebra", "si:1")
        assert (code, out) == (1, "")
        assert err == f"parse error: conclusion.lhs: bad term document: {message}\n"

    def test_a_malformed_json_premise_names_its_field(self, capsys, tmp_path):
        f = tmp_path / "q.json"
        f.write_text(json.dumps({"premises": [{"lhs": "x1", "rhs": ["meet", ["var", 1]]}],
                                 "conclusion": {"lhs": "x1", "rhs": "x1"}}))
        code, out, err = run(capsys, "qi", str(f), "--algebra", "si:1")
        assert (code, out) == (1, "")
        assert err == ("parse error: premises[0].rhs: bad term document: "
                       "'meet' takes 2 operands, got 1\n")

    @pytest.mark.parametrize("index", [1.5, True, "2", 0, -1])
    def test_json_variable_must_be_an_index_from_one(self, capsys, tmp_path, index):
        f = tmp_path / "q.json"
        f.write_text(json.dumps({"conclusion": {"lhs": ["var", index], "rhs": "1"}}))
        code, out, err = run(capsys, "qi", str(f), "--algebra", "si:1", "--strategy", "pruned")
        assert (code, out) == (1, "")
        assert err == "parse error: conclusion.lhs: variable indices start at x1\n"


class TestSiDualReport:
    def test_si_tables(self, capsys):
        code, out, _ = run(capsys, "si", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["size"] == 5
        rebuilt = algebra_from_json_dict(doc)
        assert validate(rebuilt) == []
        assert out == algebra_dumps(build_si(2))

    def test_dual_chain4(self, capsys):
        code, out, _ = run(capsys, "dual", "chain:4")
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == 3
        assert doc["storeys"] == {"I": 1, "II": 2}
        assert sorted(doc["bySubset"]["covers"]) == \
            [[1, 0], [2, 0]]                                    # lambda shape
        assert sorted(doc["byOneClass"]["covers"]) == \
            [[1, 0], [2, 1]]                                    # 3-chain

    def test_dual_si(self, capsys):
        code, out, _ = run(capsys, "dual", "si:2")
        doc = json.loads(out)
        assert doc["count"] == 3
        assert doc["storeys"] == {"I": 2, "II": 1}
        for rec in doc["records"]:
            assert set(rec) >= {"mu", "muPlus", "storey", "oneClass",
                                "psi", "eMu"}

    def test_dual_free(self, capsys):
        code, out, _ = run(capsys, "dual", "free:1,1")
        assert json.loads(out)["count"] == 3

    def test_dual_reproves_nothing_by_default(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("self-check ran on the default path")

        monkeypatch.setattr(congruences, "is_prime_filter", boom)
        monkeypatch.setattr(algebras, "compatibility_witness", boom)
        monkeypatch.setattr(congruences, "all_congruences", boom)
        code, out, _ = run(capsys, "dual", "free:1,2")
        assert code == 0 and json.loads(out)["count"] == 9

    def test_report(self, capsys):
        code, out, _ = run(capsys, "report", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["structurallyComplete"] is False
        assert doc["quasiIdentity"] == "qb_3"

    def test_report_low(self, capsys):
        code, out, _ = run(capsys, "report", "1")
        assert code == 0
        assert json.loads(out)["structurallyComplete"] is True


class TestConvertAndSpecifiers:
    def test_convert_builtin(self, capsys):
        code, out, _ = run(capsys, "convert", "chain:3")
        assert code == 0
        doc = json.loads(out)
        assert doc["size"] == 3 and validate(algebra_from_json_dict(doc)) == []

    def test_json_file_round_trip(self, capsys, tmp_path):
        f = tmp_path / "alg.json"
        f.write_text(algebra_dumps(build_si(1)))
        code, out, _ = run(capsys, "convert", str(f))
        assert code == 0
        assert json.loads(out)["size"] == 3

    def test_qi_accepts_json_algebra_file(self, capsys, tmp_path):
        alg = tmp_path / "alg.json"
        alg.write_text(algebra_dumps(build_si(3)))
        qfile = tmp_path / "q.json"
        qfile.write_text(json.dumps(QB3))
        code, out, _ = run(capsys, "qi", str(qfile), "--algebra", str(alg))
        assert code == 1

    def test_bad_specifier(self, capsys):
        code, _, err = run(capsys, "convert", "heyting:3")
        assert code == 1 and "error" in err

    def test_bad_si_parameter(self, capsys):
        code, _, err = run(capsys, "convert", "si:-1")
        assert code == 1

    def test_negative_free_rank(self, capsys):
        code, out, err = run(capsys, "convert", "free:2,-1")
        assert (code, out) == (1, "")
        assert err == "error: bad algebra spec 'free:2,-1': need k >= 0 and n >= 0\n"

    def test_dist_specifier(self, capsys):
        code, out, _ = run(capsys, "convert", "dist:2")
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "upset"
        assert algebra_from_json_dict(doc).size == 6

    def test_tampered_tables_rejected(self, capsys, tmp_path):
        doc = json.loads(algebra_dumps(build_si(1)))
        doc["star"][0] = 0  # break 0* = 1
        f = tmp_path / "broken.json"
        f.write_text(json.dumps(doc))
        code, _, err = run(capsys, "convert", str(f))
        assert code == 1 and "error" in err


class TestUpsetFiles:
    def test_negative_cover_end_rejected(self, capsys, tmp_path):
        f = tmp_path / "alg.json"
        f.write_text(json.dumps({"kind": "upset", "labels": ["a", "b", "c"],
                                 "poset": {"size": 3, "covers": [[0, -1]]}}))
        code, _, err = run(capsys, "convert", str(f))
        assert code == 1 and "outside 0..2" in err

    def test_bool_cover_end_rejected(self, capsys, tmp_path):
        f = tmp_path / "alg.json"
        f.write_text(json.dumps({"kind": "upset", "labels": ["a", "b", "c"],
                                 "poset": {"size": 3, "covers": [[0, True]]}}))
        code, out, err = run(capsys, "convert", str(f))
        assert (code, out) == (1, "")
        assert err == ("error: bad algebra document: "
                       "cover [0, True] mentions elements outside 0..2\n")

    @pytest.mark.parametrize("labels, message", [
        ("ab", "labels must be a list of strings, got a string"),
        ([1, None], "labels[0] must be a string, got a number"),
        (["a", None], "labels[1] must be a string, got null"),
        (["a", ["b"]], "labels[1] must be a string, got an array"),
        ({"a": 0, "b": 1}, "labels must be a list of strings, got an object"),
    ])
    def test_labels_that_are_no_strings_rejected(self, capsys, tmp_path, labels, message):
        f = tmp_path / "alg.json"
        f.write_text(json.dumps({"kind": "upset", "labels": labels,
                                 "poset": {"size": 2, "covers": [[0, 1]]}}))
        code, out, err = run(capsys, "convert", str(f))
        assert (code, out) == (1, "")
        assert err == f"error: bad algebra document: {message}\n"

    def test_short_label_list_rejected(self, capsys, tmp_path):
        f = tmp_path / "alg.json"
        f.write_text(json.dumps({"kind": "upset", "labels": ["a"],
                                 "poset": {"size": 3, "covers": [[0, 1]]}}))
        code, _, err = run(capsys, "convert", str(f))
        assert code == 1 and "1 labels for 3 points" in err

    def test_long_chain_converts(self, capsys, tmp_path):
        n = 1500
        f = tmp_path / "chain.json"
        f.write_text(json.dumps({
            "kind": "upset", "labels": [f"p{i}" for i in range(n)],
            "poset": {"size": n, "covers": [[i, i + 1] for i in range(n - 1)]}}))
        code, out, err = run(capsys, "convert", str(f))
        assert code == 0 and err == ""
        assert json.loads(out)["poset"]["size"] == n

    @settings(max_examples=300, deadline=None)
    @given(size=st.integers(-1, 5),
           covers=st.lists(st.lists(st.integers(-3, 6), min_size=1, max_size=3),
                           max_size=6),
           labels=st.lists(st.text(max_size=2), max_size=6))
    def test_random_documents_exit_cleanly(self, tmp_path_factory, size, covers, labels):
        f = tmp_path_factory.getbasetemp() / "random-upset.json"
        f.write_text(json.dumps({"kind": "upset", "labels": labels,
                                 "poset": {"size": size, "covers": covers}}))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["convert", str(f)])
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if code == 0:
            assert all(len(c) == 2 and all(0 <= e < size for e in c) for c in covers)
            assert len(labels) == size


class TestNonIntegerEntries:
    """Table entries, zero, one and upset sizes must be JSON integers: a float
    or a bool is refused with exit 1, never coerced or left to crash later."""

    @staticmethod
    def mutate(doc, path, value):
        *head, last = path
        target = doc
        for key in head:
            target = target[key]
        target[last] = value
        return doc

    @pytest.mark.parametrize("command", ["convert", "dual"])
    @pytest.mark.parametrize("path, value, message", [
        (("star", 0), 1.0, "star table out of range"),
        (("meet", 1, 0), 0.0, "meet table has a bad row"),
        (("join", 0, 1), True, "join table has a bad row"),
        (("one",), 1.0, "zero/one out of range"),
        (("zero",), False, "zero/one out of range"),
        (("one",), True, "zero/one out of range"),
        (("meet", 0, 1), -1, "meet table has a bad row"),
        (("join", 1, 0), 2, "join table has a bad row"),
        (("meet", 1), [1], "meet table has a bad row"),
        (("join", 0), [0, 1, 1], "join table has a bad row"),
        (("meet", 0, 0), "0", "meet table has a bad row"),
    ])
    def test_table_documents(self, capsys, tmp_path, command, path, value, message):
        doc = self.mutate(algebra_to_json_dict(build_si(0)), path, value)
        f = tmp_path / "alg.json"
        f.write_text(json.dumps(doc))
        code, out, err = run(capsys, command, str(f))
        assert (code, out) == (1, "")
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("size, message", [
        (99, "table size 99 for 1 rows"),
        (2, "table size 2 for 1 rows"),
        (1.0, "table size must be an integer, got a number"),
        (True, "table size must be an integer, got a boolean"),
        ("1", "table size must be an integer, got a string"),
    ])
    def test_table_size(self, capsys, tmp_path, size, message):
        doc = {**algebra_to_json_dict(TableAlgebra([[0]], [[0]], [0], 0, 0)), "size": size}
        f = tmp_path / "alg.json"
        f.write_text(json.dumps(doc))
        code, out, err = run(capsys, "convert", str(f))
        assert (code, out) == (1, "")
        assert err == f"error: bad algebra document: {message}\n"

    def test_upset_size(self, capsys, tmp_path):
        f = tmp_path / "alg.json"
        f.write_text(json.dumps({"kind": "upset", "labels": ["a"],
                                 "poset": {"size": True, "covers": []}}))
        code, out, err = run(capsys, "convert", str(f))
        assert (code, out) == (1, "")
        assert err == "error: bad algebra document: poset size must be an integer, got True\n"

    def test_chain_over_the_element_cap(self, capsys, monkeypatch):
        monkeypatch.setattr(config, "DEFAULT", config.DEFAULT._replace(element_cap=100))
        code, out, err = run(capsys, "convert", "chain:101")
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "cap-exceeded", "what": "algebra size",
                                   "count": 101, "cap": 100}


def exit_code(argv):
    """main(argv) with its output swallowed; nothing may escape it, and it
    must end in a documented exit code without a traceback."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    return code


# JSON values a hand-written file may hold where an index is expected
ENTRIES = st.one_of(st.integers(-1, 4), st.floats(), st.booleans(),
                    st.text(max_size=2), st.none())
TABLE_BASES = [algebra_to_json_dict(A) for A in (build_si(0), build_si(1), build_chain(3))]
# terms over x1..x3: eq sweeps k variables where the index set is over the
# cap (3^14 valuations at pa1 for x14), which is slow, not a fault
TOKENS = ["x1", "x2", "x3", "0", "1", "&", "|", "*", "**", "(", ")", "x", "y1", "-", "x0"]
TEXT_TERMS = st.lists(st.sampled_from(TOKENS), max_size=10).map(" ".join)
# nf only counts indices: at omega, x14 and up give counts too long to print
NF_TERMS = st.lists(st.sampled_from(TOKENS + ["x14", "x25", "x40"]), max_size=10).map(" ".join)
JSON_TERMS = st.recursive(
    st.one_of(st.sampled_from([["zero"], ["one"], [], ["nope"], {}, 7, None, "x1"]),
              st.one_of(st.integers(-1, 3), st.sampled_from([1.5, "2", True, None]))
              .map(lambda v: ["var", v])),
    lambda sub: st.one_of(
        sub.map(lambda t: ["star", t]),
        st.tuples(st.sampled_from(["meet", "join"]), sub, sub).map(list),
        st.tuples(st.sampled_from(["meet", "star"]), sub).map(list)),
    max_leaves=6)
EQUATIONS = st.one_of(
    st.fixed_dictionaries({"lhs": st.one_of(TEXT_TERMS, JSON_TERMS),
                           "rhs": st.one_of(TEXT_TERMS, JSON_TERMS)}),
    st.sampled_from([{}, {"lhs": "x1"}, [], "x1 = x2", 3, None]))


def entries(doc):
    yield doc["zero"]
    yield doc["one"]
    yield from doc["star"]
    for row in doc["meet"] + doc["join"]:
        yield from row


class TestFuzzEveryInputKind:
    @settings(max_examples=200, deadline=None)
    @given(base=st.sampled_from(range(len(TABLE_BASES))),
           field=st.sampled_from(["meet", "join", "star", "zero", "one"]),
           i=st.integers(0, 2), j=st.integers(0, 2), value=ENTRIES,
           command=st.sampled_from(["convert", "dual"]))
    def test_table_documents_with_one_entry_changed(self, tmp_path_factory, base, field,
                                                     i, j, value, command):
        doc = copy.deepcopy(TABLE_BASES[base])
        n = doc["size"]
        if field in ("zero", "one"):
            doc[field] = value
        elif field == "star":
            doc["star"][i % n] = value
        else:
            doc[field][i % n][j % n] = value
        f = tmp_path_factory.getbasetemp() / "fuzz-table.json"
        f.write_text(json.dumps(doc))
        if exit_code([command, str(f)]) == 0:
            assert all(type(v) is int and 0 <= v < n for v in entries(doc))

    @settings(max_examples=200, deadline=None)
    @given(doc=st.fixed_dictionaries({
        "kind": st.sampled_from(["table", "table", "upset", "heyting", 1]),
        "meet": st.lists(st.lists(ENTRIES, max_size=3), max_size=3),
        "join": st.one_of(st.lists(st.lists(ENTRIES, max_size=3), max_size=3), ENTRIES),
        "star": st.one_of(st.lists(ENTRIES, max_size=3), ENTRIES),
        "zero": ENTRIES, "one": ENTRIES}))
    def test_table_documents_of_any_shape(self, tmp_path_factory, doc):
        f = tmp_path_factory.getbasetemp() / "fuzz-shape.json"
        f.write_text(json.dumps(doc))
        if exit_code(["convert", str(f)]) == 0:
            assert all(type(v) is int for v in entries(doc))

    @settings(max_examples=300, deadline=None)
    @given(term=NF_TERMS, level=st.sampled_from(["0", "1", "2", "3", "omega", "w", "-1", "two"]))
    def test_nf_terms(self, term, level):
        exit_code(["nf", "-n", level, "--", term])

    @settings(max_examples=300, deadline=None)
    @given(lhs=TEXT_TERMS, rhs=TEXT_TERMS,
           variety=st.sampled_from(["pa", "pa0", "pa1", "pa2", "pa3", "pa-1", "boole"]),
           witness=st.booleans())
    def test_eq_terms(self, lhs, rhs, variety, witness):
        exit_code(["eq", "--variety", variety, *(["--witness"] if witness else []),
                   "--", lhs, rhs])

    @settings(max_examples=200, deadline=None)
    @given(doc=st.one_of(
               st.fixed_dictionaries({"premises": st.lists(EQUATIONS, max_size=3),
                                      "conclusion": EQUATIONS}),
               st.fixed_dictionaries({"conclusion": EQUATIONS}),
               st.fixed_dictionaries({"premises": st.sampled_from([5, "x1", {}, None]),
                                      "conclusion": EQUATIONS}),
               st.sampled_from([[], {}, "qi", 3, None])),
           algebra=st.sampled_from(["si:1", "si:2", "chain:3"]),
           strategy=st.sampled_from(["exhaustive", "pruned"]))
    def test_quasi_identity_documents(self, tmp_path_factory, doc, algebra, strategy):
        f = tmp_path_factory.getbasetemp() / "fuzz-qi.json"
        f.write_text(json.dumps(doc))
        exit_code(["qi", str(f), "--algebra", algebra, "--strategy", strategy])

    @settings(max_examples=100, deadline=None)
    @given(spec=st.one_of(
               st.tuples(st.sampled_from(["si", "chain", "dist", "heyting", ""]),
                         st.one_of(st.integers(-2, 5).map(str), st.sampled_from(["4097", "5000"]),
                                   st.text(alphabet="0123456789+- x", max_size=5)))
               .map(":".join),
               st.tuples(st.sampled_from(["0", "1", "2", "omega", "w", "-1", "x", ""]),
                         st.sampled_from(["-1", "0", "1", "2", "3", "", "x", "1,1"]))
               .map(lambda p: f"free:{p[0]},{p[1]}")),
           command=st.sampled_from(["convert", "dual"]))
    def test_algebra_specs(self, spec, command):
        exit_code([command, spec])

    @settings(max_examples=200, deadline=None)
    @given(name=st.sampled_from([f"PALGEBRA_{f.upper()}" for f in Config._fields]),
           value=st.one_of(st.integers(-3, 5000).map(str),
                           st.text(st.characters(blacklist_categories=("Cs",),
                                                 blacklist_characters="\x00"), max_size=6)),
           argv=st.sampled_from([["eq", "x1 & x1*", "0"], ["convert", "si:2"],
                                 ["eq", "x1**", "x1", "--variety", "pa2", "--witness"],
                                 ["dual", "chain:3"], ["free", "-n", "2", "-k", "2"]]))
    def test_environment_values(self, name, value, argv):
        config.DEFAULT  # exists before the patch, so leaving the context restores it
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv(name, value)
            mp.delattr(config, "DEFAULT")  # read again, from the patched environment
            exit_code(argv)


# per subcommand, argv that argparse refuses, the parser that refuses it
# and the end of its message
USAGE_ERRORS = [
    ([], "palgebra", "the following arguments are required: command"),
    (["bogus"], "palgebra", "invalid choice: 'bogus' (choose from 'free', 'nf', 'eq', 'qi', "
                            "'si', 'dual', 'report', 'convert')"),
    (["free", "-n", "2", "--count-only"], "palgebra free",
     "the following arguments are required: -k"),
    (["free", "-n", "2", "-k", "x"], "palgebra free", "argument -k: invalid int value: 'x'"),
    (["nf", "x1"], "palgebra nf", "the following arguments are required: -n"),
    (["eq", "x1"], "palgebra eq", "the following arguments are required: rhs"),
    (["eq", "x1", "x1", "--witness=yes"], "palgebra eq",
     "argument --witness: ignored explicit argument 'yes'"),
    (["qi", "f.json"], "palgebra qi", "the following arguments are required: --algebra"),
    (["qi", "f.json", "--algebra", "si:1", "--strategy", "greedy"], "palgebra qi",
     "argument --strategy: invalid choice: 'greedy' (choose from 'exhaustive', 'pruned')"),
    (["si", "abc"], "palgebra si", "argument n: invalid int value: 'abc'"),
    (["si", "1", "2"], "palgebra", "unrecognized arguments: 2"),
    (["dual"], "palgebra dual", "the following arguments are required: algebra"),
    (["report", "x"], "palgebra report", "argument n: invalid int value: 'x'"),
    (["convert", "si:1", "--fast"], "palgebra", "unrecognized arguments: --fast"),
]


@pytest.mark.parametrize("argv, prog, message", USAGE_ERRORS,
                         ids=[" ".join(argv) or "-" for argv, _, _ in USAGE_ERRORS])
def test_usage_errors_exit_1(argv, prog, message, capsys):
    """argparse's refusals end in exit 1, as README says, with argparse's
    usage line and message on stderr and nothing on stdout."""
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    *usage, error = err.splitlines()  # a long usage line wraps
    assert usage[0].startswith(f"usage: {prog} [-h]")
    assert error.startswith(f"{prog}: error: ") and error.endswith(message)


@pytest.mark.parametrize("argv", [["-h"], ["si", "--help"], ["qi", "-h"]], ids=" ".join)
def test_help_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0 and capsys.readouterr().out.startswith("usage: palgebra")


class TestParserReuse:
    """main builds its parser once; a reused parser answers each call as a
    freshly built one does."""

    @staticmethod
    def outcome(argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = ("SystemExit", exc.code)
        return code, out.getvalue(), err.getvalue()

    def test_import_builds_no_parser(self):
        src = str(Path(cli.__file__).parents[1])
        probe = "import palgebra.cli as c; print(c.build_parser.cache_info().currsize)"
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=60)
        assert done.stdout == "0\n", done.stderr

    def test_second_call_builds_no_parser(self, capsys):
        cli.build_parser.cache_clear()
        main(["free", "-n", "1", "-k", "1"])
        main(["report", "1"])
        info = cli.build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_replay_against_fresh_parsers(self, tmp_path, monkeypatch):
        qb3 = tmp_path / "qb3.json"
        qb3.write_text(json.dumps(QB3))
        calls = [
            ["free", "-n", "2", "-k", "2", "--count-only"],
            ["free", "-n", "2", "-k", "2"],
            ["eq", "x1* | x1**", "1", "--variety", "pa2", "--witness"],
            ["eq", "x1* | x1**", "1", "--variety", "pa2"],
            ["qi", str(qb3), "--algebra", "si:3", "--strategy", "pruned"],
            ["qi", str(qb3), "--algebra", "si:3"],
            ["free", "-n", "2", "--count-only"],
            ["eq", "x1", "x1"],
        ]
        cli.build_parser.cache_clear()
        reused = [self.outcome(argv) for argv in calls]
        assert cli.build_parser.cache_info().misses == 1
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        fresh = [self.outcome(argv) for argv in calls]
        assert reused == fresh
        assert reused[6][0] == 1 and "required" in reused[6][2]
        assert [r[0] for r in reused[:6]] == [0, 0, 1, 1, 1, 1]
