"""An upset carrier answers order rows and star classes off its base
points' columns (``posets.point_columns``), and a table answers them
through its upset carrier in its own numbering (``upset_carrier``); a table
answers its up rows off its meet table too.  Each answer is replayed
against the scan it replaced, run on the algebra itself: a bound row
against |A| ``leq`` calls, the star classes and the mask-to-star map
against one star per element (``UpsetMasks.star`` for an upset carrier,
whose ``A.star`` reads ``star_masks`` itself), ``is_prime_filter`` against
its double loop and ``element_order`` against ``Poset.from_leq``.  The
corpus is every upset carrier the tests build (``free:0..4`` at ranks 1
and 2, ``dist:0..4``, an upset product and an upset JSON file), the same
as tables, ``si:0..4``, ``chain:2..6``, a product table, a Glivenko
skeleton, a table JSON file and a table that breaks the laws, which has no
upset carrier."""

import json
import random

import pytest

from palgebra import (
    MalformedTables,
    Poset,
    TableAlgebra,
    UpsetAlgebra,
    algebra_dumps,
    build_chain,
    build_free,
    build_si,
    free_distributive,
    glivenko,
    is_prime_filter,
    prime_filters,
    product,
    qb_quasi_identity,
    upset_carrier,
    validate,
)
from palgebra.algebras import element_order, to_table
from palgebra.cli import load_algebra
from palgebra.decide import _quasi_pruned
from palgebra.posets import point_columns

from .helpers import ref_is_prime_filter, ref_quasi_pruned
from .test_pruned_replay import CountingLeq

UPSETS = ([f"free:{n},{k}" for k in (1, 2) for n in range(5)]
          + [f"dist:{s}" for s in range(5)] + ["product", "json"])
TABLES = ([f"si:{n}" for n in range(5)] + [f"chain:{m}" for m in range(2, 7)]
          + [f"table {name}" for name in UPSETS]
          + ["product table", "glivenko", "table json", "unlawful"])
NAMES = UPSETS + TABLES

# an N-shaped poset beside a two-point chain and a lone point, as a file
UPSET_DOC = {"kind": "upset", "labels": [f"p{i}" for i in range(7)],
             "poset": {"size": 7, "covers": [[0, 2], [1, 2], [1, 3], [4, 5]]}}


def unlawful_table(size, seed):
    """Tables of random entries: meet is no lattice meet, and its relation
    is not even an order."""
    rng = random.Random(seed)

    def table():
        return [[rng.randrange(size) for _ in range(size)] for _ in range(size)]

    return TableAlgebra(table(), table(), [rng.randrange(size) for _ in range(size)], 0, 1)


@pytest.fixture(scope="module")
def carriers(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("carriers")
    (tmp / "n-shape.json").write_text(json.dumps(UPSET_DOC), encoding="utf-8")
    (tmp / "table.json").write_text(algebra_dumps(product(build_chain(2), build_si(2))),
                                    encoding="utf-8")
    out = {name: load_algebra(name) for name in UPSETS[:-2]}
    # load_algebra gives si:n and chain:m as upset carriers
    out.update({f"si:{n}": build_si(n) for n in range(5)})
    out.update({f"chain:{m}": build_chain(m) for m in range(2, 7)})
    out["product"] = product(build_free(1, 1).algebra, free_distributive(2))
    out["json"] = load_algebra(str(tmp / "n-shape.json"))
    assert all(isinstance(out[name], UpsetAlgebra) for name in UPSETS)
    out.update({f"table {name}": to_table(out[name]) for name in UPSETS})
    out["product table"] = product(build_si(1), build_chain(3))
    out["glivenko"] = glivenko(product(build_si(2), build_chain(3)))[1]
    out["table json"] = load_algebra(str(tmp / "table.json"))
    out["unlawful"] = unlawful_table(6, 23)
    assert all(isinstance(out[name], TableAlgebra) for name in TABLES)
    return out


def leq_row(A, c, bound):
    return sum(1 << x for x in range(A.size)
               if (A.leq(x, c) if bound == "below" else A.leq(c, x)))


def ref_star(A, x):
    """x's star: off the star table, or by ``UpsetMasks.star`` on x's mask."""
    if isinstance(A, UpsetAlgebra):
        return A.index[A.masks.star(A.elements[x])]
    return A.star_table[x]


def star_scan(A):
    classes = {}
    for x in range(A.size):
        s = ref_star(A, x)
        classes[s] = classes.get(s, 0) | 1 << x
    return classes


def outcome(f):
    try:
        return f()
    except ValueError as exc:
        return str(exc)


def answering(A):
    """The carrier that answers for A, which is A's upset carrier; None for
    the lawless table, which must be refused."""
    if not isinstance(A, TableAlgebra) or validate(A) == []:
        return upset_carrier(A)
    with pytest.raises(MalformedTables, match="the tables violate the laws: Violation"):
        upset_carrier(A)
    return None


def test_point_columns_replay_membership():
    rng = random.Random(22)
    for width in (0, 1, 7, 8, 9, 16, 17, 70):
        for count in (0, 1, 5, 40):
            masks = [rng.getrandbits(width) if width else 0 for _ in range(count)]
            assert point_columns(masks, width) == [
                sum(1 << i for i, m in enumerate(masks) if (m >> p) & 1) for p in range(width)]


@pytest.mark.parametrize("name", NAMES)
def test_rows_replay_the_leq_scan(carriers, name):
    A = carriers[name]
    C = answering(A)
    assert (C is None) == (name == "unlawful")
    for c in range(A.size):
        assert A.up_row(c) == leq_row(A, c, "above"), (name, c)
        if C is not None:
            assert C.down_row(c) == leq_row(A, c, "below"), (name, c)
            assert C.up_row(c) == leq_row(A, c, "above"), (name, c)


@pytest.mark.parametrize("name", NAMES)
def test_star_answers_replay_the_star_scan(carriers, name):
    A = carriers[name]
    C = answering(A)
    if C is None:
        return
    assert C.star_classes() == star_scan(A)
    assert [C.star(x) for x in range(A.size)] == [ref_star(A, x) for x in range(A.size)]
    assert C.star_masks() == {m: C.masks.star(m) for m in C.elements}


def test_prime_filter_check_replays_the_double_loop(carriers):
    small = [name for name in NAMES if carriers[name].size <= 9]  # every mask of each
    assert len(small) == 28
    for name in small:
        A = carriers[name]
        for mask in range(1 << A.size):
            assert is_prime_filter(A, mask) == ref_is_prime_filter(A, mask), (name, mask)


def near_misses(A, count, seed):
    """Prime filters and masks near them: one bit flipped (often no upset),
    the union of two (an upset not closed under meet) and the meet of two
    (a filter that need not be prime), and random masks."""
    rng = random.Random(seed)
    filters = prime_filters(A)
    out = filters[:4]
    while len(out) < count:
        f, g = rng.choice(filters), rng.choice(filters)
        out.append((f ^ 1 << rng.randrange(A.size), f | g, f & g,
                    rng.getrandbits(A.size))[rng.randrange(4)])
    return out


# the double loop costs |A|^2 joins a mask: few masks of the 539-element free:2,2
BIG = [("free:2,2", 12), ("table free:2,2", 12), ("si:4", 64), ("chain:9", 64), ("dist:3", 64)]


@pytest.mark.parametrize("name, count", BIG, ids=[name for name, _ in BIG])
def test_prime_filter_check_replays_near_misses(name, count):
    A = load_algebra(name.removeprefix("table "))
    A = to_table(A) if name.startswith("table ") else A
    masks = near_misses(A, count, name)
    got = [is_prime_filter(A, mask) for mask in masks]
    assert got == [ref_is_prime_filter(A, mask) for mask in masks]
    assert True in got and False in got


@pytest.mark.parametrize("name", NAMES)
def test_element_order_replays_from_leq(carriers, name):
    A = carriers[name]
    got = outcome(lambda: element_order(A).up)
    assert got == outcome(lambda: Poset.from_leq(A.size, A.leq, cap=A.size).up)
    assert (name == "unlawful") == isinstance(got, str)  # that relation is no order


class StarCounting(CountingLeq):
    """An algebra whose ``leq`` and ``star`` calls are counted."""

    def __init__(self, A):
        super().__init__(A)
        self.stars = 0

    def star(self, i):
        self.stars += 1
        return self.A.star(i)


@pytest.mark.parametrize("name", ["free:2,2", "free:3,2", "free:4,2"])
def test_the_search_reads_the_carrier_answers(carriers, name):
    # qb_3 pins x3 by a star and bounds x2 and x3: the upset carrier, and a
    # table's, even behind a wrapper, give both without a leq row or a
    # per-element star
    q = qb_quasi_identity(3)
    want = ref_quasi_pruned(q, carriers[name], (1, 2, 3))
    assert ref_quasi_pruned(q, carriers[f"table {name}"], (1, 2, 3)) == want
    for A in (carriers[name], upset_carrier(carriers[f"table {name}"])):
        wrapped = StarCounting(A)
        assert _quasi_pruned(q, wrapped, (1, 2, 3)) == want
        assert (wrapped.calls, wrapped.stars) == (0, 0)
