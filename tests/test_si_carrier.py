"""si:n has one definition, ``algebras.si_carrier``: the upsets of n atoms
above one point, numbered as ``build_si`` numbers its tables (index = the
Boolean mask, the new top last).  Every answer of the carrier is replayed
against ``helpers.ref_build_si``, the hand-written tables, and the commands
that read si:n run without building a table."""

import json
import random

import pytest

from palgebra import (
    Equation,
    Poset,
    QuasiIdentity,
    UpsetAlgebra,
    algebra_dumps,
    algebra_loads,
    algebra_to_json_dict,
    algebras,
    build_si,
    cm_all,
    cm_posets,
    random_term,
    si_carrier,
    to_table,
)
from palgebra.cli import load_algebra, main
from palgebra.decide import _sweep_equation
from palgebra.terms import code_vars, compile_postfix

from .helpers import ref_birkhoff_masks, ref_build_si, ref_quasi_exhaustive, small_corpus

SI = range(9)


def tables(A):
    T = to_table(A)
    return T.meet_table, T.join_table, T.star_table, T.zero, T.one


def leq_row(A, c, bound):
    return sum(1 << x for x in range(A.size)
               if (A.leq(x, c) if bound == "below" else A.leq(c, x)))


@pytest.mark.parametrize("n", SI)
def test_operations_replay_the_tables(n):
    A, R = si_carrier(n), ref_build_si(n)
    assert isinstance(A, UpsetAlgebra)
    assert (A.size, A.zero, A.one) == (R.size, R.zero, R.one) == ((1 << n) + 1, 0, 1 << n)
    rng = range(A.size)
    assert [[A.meet(a, b) for b in rng] for a in rng] == [list(r) for r in R.meet_table]
    assert [[A.join(a, b) for b in rng] for a in rng] == [list(r) for r in R.join_table]
    assert [A.star(a) for a in rng] == list(R.star_table)
    assert [[A.leq(a, b) for b in rng] for a in rng] == [[R.leq(a, b) for b in rng] for a in rng]
    assert tables(build_si(n)) == tables(R)


@pytest.mark.parametrize("n", SI)
def test_carrier_answers_replay_the_tables(n):
    A, R = si_carrier(n), ref_build_si(n)
    for c in range(A.size):
        assert A.up_row(c) == R.up_row(c) == leq_row(R, c, "above"), c
        assert A.down_row(c) == leq_row(R, c, "below"), c
    assert A.star_classes() == {s: sum(1 << x for x, t in enumerate(R.star_table) if t == s)
                                for s in R.star_table}
    order = Poset.from_leq(R.size, R.leq)
    ja, below = ref_birkhoff_masks(order)
    assert A.birkhoff() == (ja, [order.up[p] for p in ja], below)


@pytest.mark.parametrize("n", SI)
def test_cm_records_replay_the_tables(n):
    records = cm_all(si_carrier(n))
    want = cm_all(ref_build_si(n))
    assert records == want
    got, ref = cm_posets(records), cm_posets(want)
    assert [P.covers() for P in got] == [P.covers() for P in ref]
    if n <= 3:
        assert cm_all(si_carrier(n), verify=True) == want


@pytest.mark.parametrize("n", range(7))
def test_documents_are_the_tables(n):
    # an upset document would reload in (cardinality, mask) order, which is
    # not si:n's numbering from si:2 on: the carrier is written as tables
    A = si_carrier(n)
    doc = algebra_to_json_dict(A)
    assert doc == algebra_to_json_dict(ref_build_si(n))
    assert doc["kind"] == "table"
    assert tables(algebra_loads(algebra_dumps(A))) == tables(A)


def test_json_round_trips_keep_the_indices():
    corpus = small_corpus() + [(f"si:{n} carrier", si_carrier(n)) for n in range(7)]
    for name, A in corpus:
        B = algebra_loads(algebra_dumps(A))
        assert (B.size, B.zero, B.one) == (A.size, A.zero, A.one), name
        assert tables(B) == tables(A), name


@pytest.mark.parametrize("n, k", [(n, k) for n in range(9) for k in (1, 2) if n <= 5 or k == 1])
def test_sweep_replays_the_reference_sweep(n, k):
    # the witness sweep in the carrier against the per-valuation reference
    # sweep in the hand-written tables, on seeded random identities
    rng = random.Random(f"si-sweep:{n}:{k}")
    for _ in range(6):
        e = Equation(random_term(rng, 3, k), random_term(rng, 3, k))
        codes = (compile_postfix(e.lhs), compile_postfix(e.rhs))
        m = max(code_vars(*codes), default=0)
        witness, used = _sweep_equation(e, n, m, codes)
        ref = ref_quasi_exhaustive(QuasiIdentity((), e), ref_build_si(n), tuple(range(1, m + 1)))
        assert used == ref.budget_used
        if ref.holds:
            assert witness is None
        else:
            assert witness == {"algebra": f"si:{n}", "valuation": ref.witness["valuation"],
                               **ref.witness["conclusion"]}


def test_load_algebra_gives_the_carrier():
    A = load_algebra("si:3")
    assert isinstance(A, UpsetAlgebra)
    assert tables(A) == tables(ref_build_si(3))


def refuse(*args, **kwargs):
    raise AssertionError("a table was built")


@pytest.mark.parametrize("argv", [
    ["eq", "x1**", "x1", "--variety", "pa11", "--witness"],
    ["qi", "QB2", "--algebra", "si:8", "--strategy", "pruned"],
    ["dual", "si:6"],
    ["report", "3"],
    ["si", "6"],
    ["convert", "si:6"],
], ids=["eq", "qi", "dual", "report", "si", "convert"])
def test_commands_build_no_table(monkeypatch, tmp_path, capsys, argv):
    path = tmp_path / "qb2.json"
    path.write_text(json.dumps({
        "premises": [{"lhs": "x1*", "rhs": "x2"}, {"lhs": "x2*", "rhs": "x1"}],
        "conclusion": {"lhs": "x1 | x2", "rhs": "1"}}))
    argv = [str(path) if a == "QB2" else a for a in argv]
    code = main(argv)
    want = capsys.readouterr()
    monkeypatch.setattr(algebras, "tabulate", refuse)
    assert main(argv) == code
    assert capsys.readouterr() == want
    if argv[0] == "eq":
        assert code == 1
        assert json.loads(want.out)["witness"] == {
            "algebra": "si:11", "valuation": {"x1": 2047}, "lhs": 2048, "rhs": 2047}
