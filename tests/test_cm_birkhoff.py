"""``cm_all`` and ``cm_posets`` read the records and both record orders off
the Birkhoff answer of the upset carrier (its columns; a table's carrier
is the one its law check proved); ``helpers.ref_cm_all`` and
``helpers.ref_cm_posets`` (F-bar by star-star calls, labels by a scan of the
I-type filters, orders from pairwise calls) replay them on both carriers,
their table copies and relabelled table copies."""

import json
import random

import pytest

from palgebra import (
    Poset,
    TableAlgebra,
    UpsetAlgebra,
    build_chain,
    build_si,
    cm_all,
    cm_posets,
    congruences,
    product,
    to_table,
)
from palgebra import algebras
from palgebra.algebras import (
    algebra_to_json_dict,
    birkhoff_masks,
    element_order,
    tabulate,
    to_upset,
    upset_carrier,
)
from palgebra.cli import load_algebra, main

from .helpers import checked_poset, ref_birkhoff_masks, ref_cm_all, ref_cm_posets, small_corpus

SPECS = ([f"si:{n}" for n in range(6)] + [f"chain:{m}" for m in range(2, 9)]
         + [f"dist:{s}" for s in range(5)]
         + [f"free:{n},{k}" for k in (1, 2) for n in ("0", "1", "2", "3", "4", "omega")]
         + ["free:0,3"])


def permuted(A, seed):
    """A's table copy with its elements relabelled by a seeded shuffle."""
    T = to_table(A)
    perm = list(range(T.size))
    random.Random(seed).shuffle(perm)
    inv = [0] * T.size
    for i, p in enumerate(perm):
        inv[p] = i
    return tabulate(T.size,
                    lambda i, j: perm[T.meet(inv[i], inv[j])],
                    lambda i, j: perm[T.join(inv[i], inv[j])],
                    lambda i: perm[T.star(inv[i])], perm[T.zero], perm[T.one])


def corpus():
    out = [(spec, load_algebra(spec)) for spec in SPECS]
    out += [("si:2 x chain:3", product(build_si(2), build_chain(3))),
            ("dist:2 x free:1,1", product(load_algebra("dist:2"), load_algebra("free:1,1")))]
    copies = []
    for name, A in out:
        if A.size <= 600:
            copies += [(f"{name} table", to_table(A)), (f"{name} permuted", permuted(A, A.size))]
    return out + copies


CORPUS = corpus()
IDS = [name for name, _ in CORPUS]


def test_corpus_has_both_carriers():
    kinds = {type(A) for _, A in CORPUS}
    assert kinds == {TableAlgebra, UpsetAlgebra} and len(CORPUS) == 93


@pytest.mark.parametrize("name, A", CORPUS, ids=IDS)
def test_records_and_orders_replay(name, A):
    records = cm_all(A)
    assert records == ref_cm_all(A)
    for got, want in zip(cm_posets(records), ref_cm_posets(records)):
        assert (checked_poset(got).up, got.down) == (want.up, want.down)


# verify=True compares every mu with the operations, |A|^2 per record
VERIFIED = [(name, A) for name, A in CORPUS if A.size <= 120]


@pytest.mark.parametrize("name, A", VERIFIED, ids=[name for name, _ in VERIFIED])
def test_verified_records_replay(name, A):
    assert cm_all(A, verify=True) == ref_cm_all(A, verify=True) == cm_all(A)


def refuse(*args, **kwargs):
    raise AssertionError("the dual called a replaced route")


def test_dual_makes_no_star_closure_or_pairwise_call(monkeypatch, tmp_path, capsys):
    path = tmp_path / "table.json"
    path.write_text(json.dumps(algebra_to_json_dict(permuted(load_algebra("si:2"), 5))))
    specs = ["si:3", "chain:5", "dist:3", "free:2,2", str(path)]
    monkeypatch.setattr(TableAlgebra, "star", refuse)
    monkeypatch.setattr(UpsetAlgebra, "star", refuse)
    monkeypatch.setattr(congruences, "closure_filter", refuse)
    monkeypatch.setattr(Poset, "from_leq", refuse)
    for spec in specs:
        assert main(["dual", spec]) == 0, spec
        assert json.loads(capsys.readouterr().out)["count"] > 0


# upset carriers: free and dist algebras, and si products rebuilt as upsets
UPSET_CARRIERS = ([(f"free:{n},{k}", load_algebra(f"free:{n},{k}"))
                   for k in (1, 2) for n in range(3)]
                  + [(f"dist:{s}", load_algebra(f"dist:{s}")) for s in range(4)]
                  + [(f"upset si:{m} x si:{n}", to_upset(product(build_si(m), build_si(n))))
                     for m, n in [(0, 1), (1, 1), (1, 2), (2, 2)]])


@pytest.mark.parametrize("name, A", UPSET_CARRIERS, ids=[name for name, _ in UPSET_CARRIERS])
def test_upset_answer_is_the_tables(name, A):
    """An upset carrier's Birkhoff answer, off its columns, is the loop over
    its table copy's element order, and gives the records its table copy
    gives through its own carrier."""
    assert isinstance(A, UpsetAlgebra)
    T = to_table(A)
    order = element_order(T)
    ja, below = ref_birkhoff_masks(order)
    assert A.birkhoff() == (ja, [order.up[p] for p in ja], below)
    assert upset_carrier(T).birkhoff() == A.birkhoff()
    assert cm_all(A) == cm_all(T)
    assert cm_all(A, verify=True) == cm_all(T, verify=True)


def test_dual_builds_no_element_order(monkeypatch, capsys):
    """``dual`` of an upset carrier reads its records off the carrier's
    columns: no element order, no inclusion order of the elements."""
    main(["dual", "free:2,2"])
    want = capsys.readouterr().out
    monkeypatch.setattr(algebras, "element_order", refuse)
    monkeypatch.setattr(algebras, "inclusion_order", refuse)
    assert main(["dual", "free:2,2"]) == 0
    assert capsys.readouterr().out == want


SMALL = small_corpus()


@pytest.mark.parametrize("name, A", SMALL, ids=[name for name, _ in SMALL])
def test_birkhoff_masks_replay_the_loop(name, A):
    for B in (A, permuted(A, name)):
        order = element_order(B)
        assert birkhoff_masks(order) == ref_birkhoff_masks(order)
