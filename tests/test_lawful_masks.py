"""A table's laws are checked in its Birkhoff masks, and the upset carrier
that check proves is kept (``upset_carrier`` reads it), so ``dual`` of a
table file builds one element order.  ``cm_all`` labels each record's
classes by one AND per element and ``merge_classes`` keeps the least members
it has; both replay what they replaced (``helpers.ref_cm_all``, and
``Congruence`` of the merged labels).
"""

import json
import random

import pytest

from palgebra import (Congruence, Poset, TableAlgebra, UpsetAlgebra, algebras, build_chain,
                      build_si, cm_all, product, to_table)
from palgebra.algebras import _law_scan, _lawful, element_order, violations
from palgebra.cli import load_algebra, main

from .helpers import checked_poset, ref_birkhoff_masks, ref_cm_all, ref_law_scan
from .test_table_golden import PRODUCTS, file_name, table_doc
from .test_validate import BASES, mutate, relabel, seeded_tables

# the laws that hold once meet and join are those of a distributive lattice
LATTICE_LAWS = {"meet-idempotent", "join-idempotent", "meet-commutative", "join-commutative",
                "absorption-meet", "absorption-join", "meet-associative", "join-associative",
                "distributive"}


def test_the_kept_carrier_is_the_checked_one():
    lawful = lattices = 0
    corpus = [(-1, name, to_table(B)) for name, B in BASES.items()]
    for trial, name, A in corpus + list(seeded_tables()):
        assert A._carrier is None
        ok = _lawful(A)  # None: no lattice proved; False: a lattice, lawless
        assert ok in (True, False, None) and (A._carrier is not None) == bool(ok), (trial, name)
        if ok is None:
            continue
        lattices += 1
        if not ok:  # a lawless table proves a lattice only where its lattice laws all hold
            assert not {v.law for v in ref_law_scan(A)} & LATTICE_LAWS, (trial, name)
            continue
        lawful += 1
        C, rng = A._carrier, range(A.size)
        assert (C.size, C.zero, C.one) == (A.size, A.zero, A.one), (trial, name)
        assert checked_poset(C.base) == C.base, (trial, name)
        assert [[C.meet(a, b) for b in rng] for a in rng] == [list(r) for r in A.meet_table]
        assert [[C.join(a, b) for b in rng] for a in rng] == [list(r) for r in A.join_table]
        assert [C.star(a) for a in rng] == list(A.star_table), (trial, name)
        order = Poset.from_leq(A.size, A.leq)
        ja, below = ref_birkhoff_masks(order)
        assert C.birkhoff() == (ja, [order.up[p] for p in ja], below), (trial, name)
    assert lawful > 500 and lattices > lawful


# masks of 3 bytes (16 join-irreducibles) and of 2 (8), and rows of more
# than 256 elements, which are not read as byte strings
WIDE = {"chain:9 x chain:9": (product(build_chain(9), build_chain(9)), 20),
        "si:3 x si:3": (product(build_si(3), build_si(3)), 20),
        "si:8": (build_si(8), 3)}


@pytest.mark.parametrize("name", sorted(WIDE))
def test_wide_masks_and_long_rows_replay_the_row_scan(name):
    """The row scan with every law (checked against ``ref_law_scan`` in
    ``test_validate``) is the oracle here; the lattice skip must not change
    the first violation."""
    B, trials = WIDE[name]
    rng = random.Random(name)
    lawful = 0
    for trial in range(trials):
        perm = list(range(B.size))
        rng.shuffle(perm)
        A = mutate(relabel(B, perm), rng, rng.randint(1, 2) if trial else 0)
        scan = list(_law_scan(A))
        assert (_lawful(A) is True) == (scan == []), (name, trial)
        assert list(violations(A)) == scan, (name, trial)
        lawful += scan == []
    assert 0 < lawful < trials


def test_an_unchecked_table_gets_the_validated_order():
    # a meet table whose relation is not transitive, never checked
    cyc = TableAlgebra([[0, 0, 2], [0, 1, 1], [2, 1, 2]], [[0, 1, 0], [1, 1, 2], [0, 2, 2]],
                       [0, 0, 0], 0, 0)
    with pytest.raises(ValueError, match="not transitive"):
        element_order(cyc)
    assert _lawful(cyc) is None and cyc._carrier is None


def test_dual_of_a_table_file_builds_one_element_order(monkeypatch, tmp_path, capsys):
    factors = PRODUCTS[4]  # si:3 x si:2, 45 elements
    path = tmp_path / file_name(factors)
    path.write_text(json.dumps(table_doc(factors)), encoding="utf-8")
    size = load_algebra(str(path)).size
    built = []
    init, trusted = Poset.__init__, Poset._trusted.__func__

    def counted_init(self, up, cap=None):
        built.append(len(up))
        init(self, up, cap)

    def counted_trusted(cls, up, down):
        built.append(len(up))
        return trusted(cls, up, down)

    monkeypatch.setattr(Poset, "__init__", counted_init)
    monkeypatch.setattr(Poset, "_trusted", classmethod(counted_trusted))
    assert main(["dual", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 7
    assert built.count(size) == 1 and size == 45


def random_labels(rng, n):
    """n labels from a small pool of mixed hashables, so classes repeat."""
    pool = [rng.randrange(6), -rng.randrange(3), (rng.randrange(2), "a"), "b", None, 2.5,
            frozenset({rng.randrange(2)})]
    return [rng.choice(pool[:rng.randint(1, len(pool))]) for _ in range(n)]


def test_merge_classes_is_the_congruence_of_the_merged_labels():
    rng = random.Random(30)
    for trial in range(2000):
        labels = random_labels(rng, rng.randint(1, 40))
        C = Congruence(labels)
        i, j = rng.randrange(len(labels)), rng.randrange(len(labels))
        merged = [labels[i] if lab == labels[j] else lab for lab in labels]
        got = C.merge_classes(i, j)
        assert got == Congruence(merged) and got.classes() == Congruence(merged).classes()


CM_CARRIERS = [(file_name(f), f) for f in PRODUCTS] + [("free:2,2", None)]


@pytest.mark.parametrize("name, factors", CM_CARRIERS, ids=[n for n, _ in CM_CARRIERS])
def test_cm_all_replays_the_reference(name, factors, tmp_path):
    if factors is None:
        carriers = [load_algebra(name), to_table(load_algebra(name))]
    else:
        path = tmp_path / name
        path.write_text(json.dumps(table_doc(factors)), encoding="utf-8")
        A = load_algebra(str(path))
        assert isinstance(A._carrier, UpsetAlgebra)  # checked on load, so its carrier is kept
        carriers = [A, algebras.algebra_loads(path.read_text())]  # kept and unchecked
    for A in carriers:
        assert cm_all(A) == ref_cm_all(A)
