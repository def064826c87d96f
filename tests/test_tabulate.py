"""``algebras.tabulate`` is the one table builder: every derived table
algebra replays the hand-written loop it replaced, and no other code in the
library writes the table layout."""

import ast
from pathlib import Path

import pytest

import palgebra
from palgebra import (
    MalformedTables,
    build_chain,
    build_free,
    build_si,
    free_distributive,
    glivenko,
    principal_congruence,
    product,
    quotient,
    subalgebra,
    to_table,
)
from palgebra.algebras import UpsetAlgebra, tabulate
from .helpers import (
    generated_subuniverse,
    ref_build_chain,
    ref_build_si,
    ref_glivenko_skeleton,
    ref_product,
    ref_quotient,
    ref_subalgebra,
    ref_to_table,
    small_corpus,
)


def tables(T):
    return (T.meet_table, T.join_table, T.star_table, T.zero, T.one, T.labels)


CORPUS = small_corpus() + [("dist:2", free_distributive(2)),
                           ("si:2 x chain:4", product(build_si(2), build_chain(4)))]
FACTORS = [build_si(0), build_si(1), build_si(2), build_chain(3), build_chain(4),
           build_free(1, 1).algebra, free_distributive(2)]


def test_tabulate_fills_rows_then_columns():
    T = tabulate(3, lambda i, j: j, lambda i, j: (i + 2 * j) % 3, lambda i: 2 - i, 0, 2,
                 labels="abc")
    assert T.meet_table == ((0, 1, 2),) * 3
    assert T.join_table == ((0, 2, 1), (1, 0, 2), (2, 1, 0))
    assert (T.star_table, T.zero, T.one, T.labels) == ((2, 1, 0), 0, 2, ("a", "b", "c"))


def test_tabulate_shares_one_int_object_per_value():
    T = build_si(9)  # 513 elements: most values are past the interpreter's small ints
    rows = T.meet_table + T.join_table + (T.star_table,)
    assert all(type(row) is tuple for row in rows)
    assert len({id(v) for row in rows for v in row}) == T.size


def chain_with(size, value, where):
    """The tables of the size-element chain with value put at meet(1, 2),
    join(0, 1) or star(1)."""
    top = size - 1
    return (size,
            lambda i, j: value if where == "meet" and (i, j) == (1, 2) else min(i, j),
            lambda i, j: value if where == "join" and (i, j) == (0, 1) else max(i, j),
            lambda i: value if where == "star" and i == 1 else top if i == 0 else 0,
            0, top)


MESSAGES = {"meet": "meet table has a bad row", "join": "join table has a bad row",
            "star": "star table out of range"}
SIZES = [3, 300]  # rows of a table past 257 elements are mapped to shared ints


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("where", sorted(MESSAGES))
def test_tabulate_refuses_a_value_out_of_range(size, where):
    """-1 is not read as the last index, nor size as any index."""
    for value in (-1, size):
        with pytest.raises(MalformedTables, match=f"^{MESSAGES[where]}$"):
            tabulate(*chain_with(size, value, where))


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("where", sorted(MESSAGES))
def test_tabulate_refuses_a_value_that_is_no_int(size, where):
    """1.0 and True equal the index 1, but are not read as it."""
    for value in (1.0, True):
        with pytest.raises(MalformedTables, match=f"^{MESSAGES[where]}$"):
            tabulate(*chain_with(size, value, where))


def test_tabulate_builds_the_chain_it_is_given():
    assert tables(tabulate(*chain_with(300, 0, "none"))) == tables(build_chain(300))


@pytest.mark.parametrize("n", range(8))
def test_build_si(n):
    assert tables(build_si(n)) == tables(ref_build_si(n))


@pytest.mark.parametrize("m", range(2, 10))
def test_build_chain(m):
    assert tables(build_chain(m)) == tables(ref_build_chain(m))


def test_product_pairs():
    checked = 0
    for A in FACTORS:
        for B in FACTORS:
            P = product(A, B)
            if isinstance(A, UpsetAlgebra) and isinstance(B, UpsetAlgebra):
                continue  # the upset branch builds no tables
            assert tables(P) == tables(ref_product(A, B))
            checked += 1
    assert checked == 45


@pytest.mark.parametrize("name, A", CORPUS, ids=[name for name, _ in CORPUS])
def test_to_table_and_glivenko(name, A):
    assert tables(to_table(A)) == tables(ref_to_table(A))
    assert tables(glivenko(A)[1]) == tables(ref_glivenko_skeleton(A))


SMALL = [(name, A) for name, A in CORPUS if A.size <= 40]


@pytest.mark.parametrize("name, A", SMALL, ids=[name for name, _ in SMALL])
def test_principal_quotients(name, A):
    for a in range(A.size):
        for b in range(a + 1, A.size):
            theta = principal_congruence(A, a, b)
            assert tables(quotient(A, theta).algebra) == tables(ref_quotient(A, theta.rep))


def outcome(fn, A, subset):
    try:
        S, elems = fn(A, subset)
    except ValueError as exc:
        return "error", str(exc)
    return tables(S), elems


@pytest.mark.parametrize("name, A", CORPUS, ids=[name for name, _ in CORPUS])
def test_subalgebra(name, A):
    """Closed subuniverses give the same tables; open ones the same error,
    found in the same order."""
    errors = 0
    for c in range(A.size):
        w = A.join(c, A.star(c))
        for subset in ({A.zero, w, A.one}, generated_subuniverse(A, {c}),
                       {A.zero, A.one, c}, {c}, {A.zero, c, A.star(c), A.one}):
            got = outcome(subalgebra, A, subset)
            assert got == outcome(ref_subalgebra, A, subset)
            errors += got[0] == "error"
    assert errors > 0


def test_no_other_code_writes_the_table_layout():
    """``TableAlgebra(...)`` is called only by ``tabulate`` and by the JSON
    reader, which is the input boundary for table files."""
    callers = set()
    for path in sorted(Path(palgebra.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id == "TableAlgebra"):
                    callers.add(f"{path.name}:{fn.name}")
    assert callers == {"algebras.py:tabulate", "algebras.py:algebra_from_json_dict"}
