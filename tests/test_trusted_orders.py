"""Orders built right by construction skip the per-pair check of
``Poset(up)``; ``helpers.checked_poset`` re-runs that check on every poset
they build here, and ``helpers.ref_from_covers`` replays the closure that
``Poset.from_covers`` replaced."""

import json
import random
import re

import pytest

from palgebra import (
    Poset,
    UpsetAlgebra,
    build_chain,
    build_si,
    free,
    free_distributive,
    free_skeleton,
    is_isomorphic,
    prime_filters,
    product,
    stone_decompose,
    to_upset,
)
from palgebra.algebras import algebra_loads, element_order
from palgebra.cli import load_algebra, main
from palgebra.posets import disjoint_union, inclusion_order

from .helpers import checked_poset, ref_from_covers, small_corpus
from .test_algebras import ORDER_CORPUS
from .test_inclusion_order import LEVELS, random_masks


@pytest.fixture
def trusted(monkeypatch):
    """Every trusted poset built under this fixture, each checked as built."""
    built = []
    make = Poset._trusted

    def checked(up, down):
        P = make(up, down)
        checked_poset(P)
        built.append(P)
        return P

    monkeypatch.setattr(Poset, "_trusted", staticmethod(checked))
    return built


def test_algebra_orders_and_their_duals(trusted):
    for name, A in small_corpus() + ORDER_CORPUS:
        U = to_upset(A)
        assert is_isomorphic(A, U) is not None, name
        element_order(U).dual()
        prime_filters(U)
    for spec in ("si:4", "chain:5", "dist:3", "free:1,2", "free:2,2", "free:3,2"):
        A = load_algebra(spec)
        element_order(A).dual()
        if isinstance(A, UpsetAlgebra):
            A.base.dual()
    assert len(trusted) > 100


def test_skeletons_products_and_unions(trusted):
    free._skeleton.cache_clear()  # the skeletons below are built under the check
    try:
        for n, k in LEVELS:
            if k <= 4:
                free_skeleton(n, k)
    finally:
        free._skeleton.cache_clear()
    assert free_distributive(3).size == 20
    assert stone_decompose(2).iso is not None
    parts = [to_upset(build_si(2)), to_upset(build_chain(4)), to_upset(build_si(1))]
    P = product(product(parts[0], parts[1]), parts[2])
    assert P.base.n == sum(U.base.n for U in parts) and P.size == 5 * 4 * 3
    assert disjoint_union([]).n == 0
    assert len(trusted) > len(LEVELS)


@pytest.mark.parametrize("seed", range(20))
def test_inclusion_order_down_rows(trusted, seed):
    assert inclusion_order(random_masks(seed)).dual().dual() == trusted[0]
    assert len(trusted) == 3


def test_long_chains(trusted):
    n = 1500
    edges = [(i, i + 1) for i in range(n - 1)]
    for pairs in (edges, random.Random(1).sample(edges, len(edges))):
        P = Poset.from_covers(n, pairs)
        assert P.up[0] == P.universe and P.down[n - 1] == P.universe
    assert len(trusted) == 2


def random_edges(rng):
    n = rng.randint(0, 8)
    if n == 0:
        return 0, []
    edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 12))]
    if rng.random() < 0.7:  # mostly acyclic: each edge points upward
        edges = [(min(e), max(e)) for e in edges]
    return n, edges


def outcome(build, n, edges):
    try:
        P = build(n, edges)
    except ValueError as exc:
        return str(exc)
    return P.up, P.down


def test_from_covers_replays_the_fixed_point(trusted):
    rng = random.Random(11)
    cases = [random_edges(rng) for _ in range(400)]
    for n, edges in cases:
        assert outcome(Poset.from_covers, n, edges) == outcome(ref_from_covers, n, edges), edges
    cycles = sum(isinstance(outcome(ref_from_covers, n, e), str) for n, e in cases)
    assert 20 < cycles < 200 and len(trusted) == 400 - cycles


def test_cycles_keep_their_message(tmp_path, capsys):
    for edges, pair in (([(0, 1), (1, 0)], "(0, 1)"), ([(0, 1), (1, 2), (2, 0), (3, 3)], "(0, 1)"),
                        ([(2, 3), (3, 2), (0, 1)], "(2, 3)")):
        with pytest.raises(ValueError, match=re.escape(f"not antisymmetric at {pair}")):
            Poset.from_covers(4, edges)
        f = tmp_path / "cyclic.json"
        f.write_text(json.dumps({"kind": "upset", "labels": list("abcd"),
                                 "poset": {"size": 4, "covers": [list(e) for e in edges]}}))
        assert main(["convert", str(f)]) == 1
        err = capsys.readouterr().err
        assert f"relation is not antisymmetric at {pair}" in err


def test_self_loops_are_reflexive_pairs(trusted):
    P = Poset.from_covers(3, [(0, 0), (0, 1), (1, 1), (1, 2)])
    assert P.up == (0b111, 0b110, 0b100) and len(trusted) == 1
    assert algebra_loads(json.dumps({"kind": "upset", "labels": list("abc"),
                                     "poset": {"size": 3, "covers": [[0, 0], [1, 2]]}})).size == 6


def test_outside_rows_are_still_checked():
    for up in ([0b10, 0b10], [0b11, 0b11], [0b011, 0b110, 0b100]):
        with pytest.raises(ValueError):
            Poset(up)
