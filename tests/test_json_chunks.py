"""``algebras.json_chunks``, the one JSON writer, replayed against
``json.dumps(doc, indent=2)``: on random documents and on what the CLI
prints."""

import ast
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import palgebra
from palgebra import algebra_dumps, algebras, build_chain, build_si, cli
from palgebra.algebras import json_chunks

from .test_cli import QB3


def as_lists(data):
    """Proved index data (``algebras._Indices``, which ``dual``, ``si`` and
    ``convert`` print) as the plain lists it stands for."""
    if type(data) is not algebras._Indices:
        raise TypeError(f"{type(data).__name__} is not JSON serializable")
    if data.row is None:
        return list(data.values)
    return [list(data.row(v)) for v in data.values]


def old_dumps(doc) -> str:
    return json.dumps(doc, indent=2, default=as_lists) + "\n"


TEXT = st.text(alphabet=st.sampled_from('ax1 "\\/\n\t\x00\x7f∨∧é 😀'), max_size=6)
SCALARS = st.one_of(st.integers(-(2**70), 2**70), st.booleans(), st.none(), TEXT)
# table entries: mostly indices, sometimes what the table path must leave to
# the general one (a bool, a negative, a float) or to str (a long int)
ENTRIES = st.integers(0, 40) | st.sampled_from([True, False, -1, -(2**70), 2**70, 0.5, 10**6])
ROWS = st.lists(ENTRIES, max_size=4)
TABLES = st.lists(ROWS | ROWS.map(tuple), min_size=1, max_size=4)
# record keys, so that lists of dicts repeat them
KEYS = st.sampled_from(["mu", "muPlus", "psi", "storey"])
DOCS = st.recursive(
    SCALARS | st.lists(st.integers(-300, 300), max_size=5) | TABLES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(TEXT | KEYS, inner, max_size=4),
    max_leaves=25)


@settings(max_examples=400, deadline=None)
@given(DOCS)
def test_random_documents(doc):
    assert "".join(json_chunks(doc)) == old_dumps(doc)


@pytest.mark.parametrize("doc", [
    [], {}, [[]], {"a": {}}, [True, 1, False, 0], [1, None], [1, 2.5], (1, 2), [(3, 4), ()],
    {1: "int key", 2.5: "float key", False: "bool key", None: "null key"},
    {"∨": ["x1 ∨ x2", "tab\there"]}, 2**200, "",
    [[0, 1], [1, True]], [[0], []], [(1, 2), (3, -4)], [[2**70, 1]], [[0.5, 1]],
    [[10**6, 0], [1]], [0, 10**6], [[0, 1], 2], [{"mu": [0, 1]}, {"mu": [1, 0], "psi": 1}],
], ids=repr)
def test_edge_documents(doc):
    assert "".join(json_chunks(doc)) == old_dumps(doc)


@pytest.mark.parametrize("A", [build_si(3), build_chain(5), build_si(2)], ids=repr)
def test_algebra_dumps(A):
    assert algebra_dumps(A) == old_dumps(algebras.algebra_to_json_dict(A))


@pytest.mark.parametrize("A", [build_chain(2), build_si(2), build_si(5)], ids=repr)
def test_tables_stream_by_row(A):
    """A table document of size n is written in at least 2n pieces: one per
    row of meet and of join."""
    doc = algebras.algebra_to_json_dict(A)
    pieces = list(json_chunks(doc))
    assert len(pieces) >= 2 * A.size and "".join(pieces) == old_dumps(doc)


def _stdout(argv) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


@pytest.fixture
def qb3_file(tmp_path):
    f = tmp_path / "qb3.json"
    f.write_text(json.dumps(QB3))
    return str(f)


@pytest.fixture
def table_file(tmp_path):
    f = tmp_path / "table.json"
    f.write_text(json.dumps(algebras.algebra_to_json_dict(algebras.to_table(build_si(3)))))
    return str(f)


CLI_CASES = (
    [["dual", s] for s in ("si:2", "si:3", "chain:4", "dist:2", "free:1,2", "TABLE")]
    + [["convert", s] for s in ("si:3", "chain:5", "dist:3", "free:2,1", "TABLE")]
    + [["si", "3"], ["free", "-n", "2", "-k", "2"],
       ["free", "-n", "omega", "-k", "2", "--count-only"]]
    + [["eq", "x1* | x1**", "1", "--variety", "pa2", "--witness"],
       ["eq", "x1 ∨ x2", "x1", "--witness"],
       ["eq", "(x1 & x2)**", "x1** & x2**", "--witness"]]
    + [["qi", "QB3", "--algebra", s, "--strategy", strategy] for s in ("si:3", "free:2,2")
       for strategy in ("exhaustive", "pruned")]
    + [["report", str(n)] for n in range(1, 7)])


@pytest.mark.parametrize("argv", CLI_CASES, ids=" ".join)
def test_cli_output_is_the_old_encoders(argv, qb3_file, table_file, monkeypatch):
    argv = [{"QB3": qb3_file, "TABLE": table_file}.get(a, a) for a in argv]
    new = _stdout(argv)
    monkeypatch.setattr(cli, "json_chunks", lambda doc: [old_dumps(doc)])
    assert new == _stdout(argv)


def test_one_pretty_printer():
    """No json.dumps/json.dump call in the package passes indent=: every
    indented document is written by json_chunks."""
    calls = []
    for path in sorted(Path(palgebra.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("dumps", "dump")
                    and any(kw.arg == "indent" for kw in node.keywords)):
                calls.append(f"{path.name}:{node.lineno}")
    assert calls == []
