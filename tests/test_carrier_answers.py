"""Upset carriers answer order rows and star classes off their base
points' columns (``posets.point_columns``).  Each answer is replayed
against the scan it replaced in the pruned search: a bound row against |A|
``leq`` calls, the star classes and the mask-to-star map against one
``A.star`` per element.  The corpus is every upset carrier the tests build:
``free:0..4`` at ranks 1 and 2, ``dist:0..4``, an upset product and an
upset JSON file."""

import json
import random

import pytest

from palgebra import (
    UpsetAlgebra,
    build_free,
    free_distributive,
    product,
    qb_quasi_identity,
)
from palgebra.algebras import to_table
from palgebra.cli import load_algebra
from palgebra.decide import _quasi_pruned
from palgebra.posets import point_columns

from .helpers import ref_quasi_pruned
from .test_pruned_replay import CountingLeq

NAMES = ([f"free:{n},{k}" for k in (1, 2) for n in range(5)]
         + [f"dist:{s}" for s in range(5)] + ["product", "json"])

# an N-shaped poset beside a two-point chain and a lone point, as a file
UPSET_DOC = {"kind": "upset", "labels": [f"p{i}" for i in range(7)],
             "poset": {"size": 7, "covers": [[0, 2], [1, 2], [1, 3], [4, 5]]}}


@pytest.fixture(scope="module")
def carriers(tmp_path_factory):
    path = tmp_path_factory.mktemp("upsets") / "n-shape.json"
    path.write_text(json.dumps(UPSET_DOC), encoding="utf-8")
    out = {name: load_algebra(name) for name in NAMES[:-2]}
    out["product"] = product(build_free(1, 1).algebra, free_distributive(2))
    out["json"] = load_algebra(str(path))
    assert all(isinstance(A, UpsetAlgebra) for A in out.values())
    return out


def leq_row(A, c, bound):
    return sum(1 << x for x in range(A.size)
               if (A.leq(x, c) if bound == "below" else A.leq(c, x)))


def star_scan(A):
    classes = {}
    for x in range(A.size):
        classes[A.star(x)] = classes.get(A.star(x), 0) | 1 << x
    return classes


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
    for c in range(A.size):
        assert A.down_row(c) == leq_row(A, c, "below"), (name, c)
        assert A.up_row(c) == leq_row(A, c, "above"), (name, c)


@pytest.mark.parametrize("name", NAMES)
def test_star_answers_replay_the_star_scan(carriers, name):
    A = carriers[name]
    assert A.star_classes() == star_scan(A)
    assert A.star_masks() == {A.elements[x]: A.elements[A.star(x)] for x in range(A.size)}


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
    # qb_3 pins x3 by a star and bounds x2 and x3: an upset carrier, even
    # behind a wrapper, gives both without a leq row or a per-element star;
    # its table gives the same verdict through the scans
    q, A = qb_quasi_identity(3), carriers[name]
    want = ref_quasi_pruned(q, A, (1, 2, 3))
    wrapped = StarCounting(A)
    assert _quasi_pruned(q, wrapped, (1, 2, 3)) == want
    assert (wrapped.calls, wrapped.stars) == (0, 0)
    table = StarCounting(to_table(A))
    assert _quasi_pruned(q, table, (1, 2, 3)) == want
    assert table.calls >= A.size and table.stars >= A.size
