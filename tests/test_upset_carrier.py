"""Every algebra is searched and taken apart as an upset carrier.

``algebras.upset_carrier`` reads a table as the upsets of its
join-irreducibles in the table's own numbering, the carrier its law check
proved, and refuses a lawless table; chain:m has one definition,
``algebras.chain_carrier``.  The quasi-identity searches through a table's
carrier are replayed against ``helpers.ref_quasi_exhaustive`` and
``helpers.ref_quasi_pruned`` run on the table itself, and chain:m against
``helpers.ref_build_chain``, the hand-written tables.
"""

import json
import random

import pytest

from palgebra import (
    MalformedTables,
    TableAlgebra,
    UpsetAlgebra,
    algebra_dumps,
    build_chain,
    build_si,
    chain_carrier,
    check_quasi_identity,
    glivenko,
    product,
    qb_quasi_identity,
    to_table,
    upset_carrier,
    validate,
)
from palgebra.cli import load_algebra, main

from .helpers import ref_build_chain, ref_build_si, ref_quasi_exhaustive, ref_quasi_pruned
from .test_pruned_replay import outcome, shaped_quasi

CHAINS = range(2, 13)


def tables(A):
    T = to_table(A)
    return T.meet_table, T.join_table, T.star_table, T.zero, T.one


@pytest.fixture(scope="module")
def lawful_tables(tmp_path_factory):
    """si:0-4 and chain:2-7 as hand-written tables, a product, a Glivenko
    skeleton and a table file."""
    path = tmp_path_factory.mktemp("tables") / "table.json"
    path.write_text(algebra_dumps(product(build_chain(2), build_si(2))), encoding="utf-8")
    out = {f"si:{n}": ref_build_si(n) for n in range(5)}
    out.update({f"chain:{m}": ref_build_chain(m) for m in range(2, 8)})
    out["si:1 x chain:3"] = product(build_si(1), build_chain(3))
    out["glivenko"] = glivenko(product(build_si(2), build_chain(3)))[1]
    out["table file"] = load_algebra(str(path))
    assert all(isinstance(A, TableAlgebra) and validate(A) == [] for A in out.values())
    return out


def quasi_identities(name):
    rng = random.Random(f"upset-carrier:{name}")
    return [qb_quasi_identity(2), qb_quasi_identity(3)] + [shaped_quasi(rng) for _ in range(12)]


def checked(strategy):
    """``check_quasi_identity`` with the reference searches' signature."""
    return lambda q, A, variables: check_quasi_identity(q, A, strategy)


@pytest.mark.parametrize("name", ["si:0", "si:1", "si:2", "si:3", "si:4", "chain:2", "chain:3",
                                  "chain:4", "chain:5", "chain:6", "chain:7", "si:1 x chain:3",
                                  "glivenko", "table file"])
def test_searches_through_the_carrier_replay_the_table(lawful_tables, name):
    T = lawful_tables[name]
    for q in quasi_identities(name):
        assert outcome(checked("exhaustive"), q, T) == outcome(ref_quasi_exhaustive, q, T), q
        assert outcome(checked("pruned"), q, T) == outcome(ref_quasi_pruned, q, T), q


def test_a_table_keeps_one_carrier_in_its_numbering(lawful_tables):
    for name, T in lawful_tables.items():
        C = upset_carrier(T)
        assert isinstance(C, UpsetAlgebra) and upset_carrier(T) is C
        assert tables(C) == tables(T), name
    U = load_algebra("free:1,2")
    assert upset_carrier(U) is U


def lawless_tables(count, size=5):
    """Seeded tables of random entries that break some law."""
    rng = random.Random(f"lawless:{size}")
    while count:
        def table():
            return [[rng.randrange(size) for _ in range(size)] for _ in range(size)]

        T = TableAlgebra(table(), table(), [rng.randrange(size) for _ in range(size)],
                         rng.randrange(size), rng.randrange(size))
        if validate(T):
            count -= 1
            yield T


@pytest.mark.parametrize("strategy", ["exhaustive", "pruned"])
def test_a_lawless_table_is_refused(strategy):
    # a one-entry break of a lawful table, and tables of random entries
    doc = json.loads(algebra_dumps(build_si(2)))
    doc["star"][1] = 0
    broken = TableAlgebra(doc["meet"], doc["join"], doc["star"], doc["zero"], doc["one"])
    for T in [broken, *lawless_tables(40)]:
        first = validate(T)[0]
        for q in (qb_quasi_identity(2), qb_quasi_identity(3)):
            with pytest.raises(MalformedTables) as exc:
                check_quasi_identity(q, T, strategy)
            assert str(exc.value) == f"the tables violate the laws: {first}"


@pytest.mark.parametrize("m", CHAINS)
def test_chain_carrier_replays_the_tables(m):
    A, R = chain_carrier(m), ref_build_chain(m)
    assert isinstance(A, UpsetAlgebra) and A.base.n == m - 1
    assert tables(A) == tables(R) == tables(build_chain(m))
    rng = range(m)
    assert [[A.leq(a, b) for b in rng] for a in rng] == [[R.leq(a, b) for b in rng] for a in rng]
    # the carrier a law check proves for the tables is the same upset carrier
    C = upset_carrier(R)
    assert (C.base, C.elements) == (A.base, A.elements)
    assert isinstance(load_algebra(f"chain:{m}"), UpsetAlgebra)


@pytest.mark.parametrize("m", CHAINS)
def test_convert_and_dual_print_the_tables_answers(m, tmp_path, capsys):
    path = tmp_path / "chain.json"
    path.write_text(algebra_dumps(ref_build_chain(m)), encoding="utf-8")
    assert main(["convert", f"chain:{m}"]) == 0
    assert capsys.readouterr().out == path.read_text(encoding="utf-8")
    assert main(["dual", f"chain:{m}"]) == 0
    got = capsys.readouterr().out
    assert main(["dual", str(path)]) == 0
    want = capsys.readouterr().out
    assert got == want.replace(json.dumps(str(path)), json.dumps(f"chain:{m}"), 1)
