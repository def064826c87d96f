"""One mask-level upset algebra: ``algebras.UpsetMasks`` replayed against
the routes it replaced (normal forms over ``_SkeletonOps``, brute-force
pseudocomplements), join-irreducibles read off down rows replayed against
the cover count, and a guard that only ``UpsetMasks.star`` takes a
down-closure inside the library."""

import ast
import random
from pathlib import Path

import pytest
from hypothesis import given, settings

import palgebra
from palgebra import (
    UpsetAlgebra,
    build_chain,
    build_free,
    build_si,
    free_distributive,
    free_skeleton,
    normal_form,
    parse,
    product,
    random_term,
    to_table,
    to_text,
    to_upset,
)
from palgebra.algebras import UpsetMasks, element_order
from palgebra.posets import (
    Poset,
    downset_closure,
    enumerate_upsets,
    join_irreducible_points,
    max_elements,
    upset_closure,
)
from .helpers import (
    brute_pseudocomplement,
    ref_join_irreducible_points,
    ref_normal_form,
    small_corpus,
)
from .test_algebras import ORDER_CORPUS
from .test_posets import random_posets

LEVELS = [0, 1, 2, 3, None]

# Level 3 over four variables: 1,161 indices, the largest skeleton the
# normal-form replay reaches.
TERMS_34 = ["x1 & (x2 | x3* & x4)", "(x1 | x2)* | (x3 & x4)**",
            "((x1 & x2*) | (x3 & x4*))*", "x1* & x2 | x3* & x4 | x1 & x4**",
            "(x1 | x2 & x3 | x4*)**", "x4 & (x1* | x2**) & (x3 | x1)",
            "(x1 & x2 & x3 & x4)* | x1 & x2", "x2** & x3* | (x1 | x4)* & x3",
            "x1 & x2 | x3 & x4", "(x1 | x3) & (x2 | x4)", "(x1 & x2)* | x3**",
            "x1* | x2* | x3 & x4", "(x1 | x2 | x3 | x4)**", "x1** | x2** | x3** | x4**",
            "x1 & x2* & (x3 | x4*)", "x1 & (x2 & x3)* & x4", "x4 & x4*", "x4 | x4*"]
FIXED = ["0", "1", "x1 & x1*", "x1 | x1*", "(x1 & x1*)**", "x1*** | x1"]


def nf_cases():
    """(term, level, ambient k): seeded random terms at every level with
    k <= 3, the fixed terms (two of them normalise to the empty join), and the
    level-(3,4) terms."""
    cases = []
    for n in LEVELS:
        rng = random.Random(f"nf:{n}")
        for k in (1, 2, 3):
            cases += [(random_term(rng, rng.randint(1, 5), k), n, k) for _ in range(30)]
        cases += [(parse(t), n, k) for t in FIXED for k in (0, 1, 2)]
    return cases + [(parse(t), 3, 4) for t in TERMS_34]


class TestNormalFormReplay:
    def test_normal_forms_are_byte_identical(self):
        empty = 0
        for t, n, k in nf_cases():
            got, want = normal_form(t, n, k), ref_normal_form(t, n, k)
            assert to_text(got) == to_text(want), (to_text(t), n, k)
            assert got == want
            empty += to_text(got) == "0"
        assert empty >= 2 * len(LEVELS)


STAR_CORPUS = [("free:1,2", build_free(1, 2).algebra),
               ("free:2,1", build_free(2, 1).algebra),
               ("dist:3", free_distributive(3)),
               ("free:1,1 x dist:2", product(build_free(1, 1).algebra, free_distributive(2))),
               ("to_upset(si:3)", to_upset(build_si(3)))]


@pytest.mark.parametrize("name, A", STAR_CORPUS, ids=[name for name, _ in STAR_CORPUS])
def test_upset_star_is_the_pseudocomplement(name, A):
    assert isinstance(A, UpsetAlgebra)
    for a in range(A.size):
        assert A.star(a) == brute_pseudocomplement(A, a), (name, a)


def sampled_upsets(P, seed, count=200):
    """Upsets of P drawn from a seeded rng: the up-closures of random sets
    of points, so every upset can be drawn, and the empty and full ones."""
    rng = random.Random(seed)
    out = {0, P.universe}
    for _ in range(count):
        out.add(upset_closure(P, rng.getrandbits(P.n) & rng.getrandbits(P.n)))
    return sorted(out)


def star_bases():
    """(name, base, upsets): every upset of the small bases, a seeded sample
    of the large free skeletons."""
    out = []
    for k in range(4):
        for n in LEVELS:
            P = free_skeleton(n, k).poset
            whole = k <= 2 or n == 0  # (1, 3) already has 233,280 elements
            out.append((f"free:{n},{k}", P,
                        enumerate_upsets(P) if whole else sampled_upsets(P, f"{n},{k}")))
    for n, k in [(2, 4), (3, 4)]:
        P = free_skeleton(n, k).poset
        out.append((f"free:{n},{k}", P, sampled_upsets(P, f"{n},{k}", 100)))
    out += [(f"dist:{s}", free_distributive(s).base, free_distributive(s).elements)
            for s in range(5)]
    out += [(f"to_upset(si:{n})", to_upset(build_si(n)).base, to_upset(build_si(n)).elements)
            for n in range(1, 5)]
    out += [(f"to_upset(chain:{m})", to_upset(build_chain(m)).base,
             to_upset(build_chain(m)).elements) for m in range(2, 6)]
    antichain, chain = Poset([1 << i for i in range(5)]), Poset([(1 << 5) - (1 << i) for i in range(5)])
    empty = Poset([])
    out += [(name, P, enumerate_upsets(P))
            for name, P in [("antichain:5", antichain), ("chain base:5", chain), ("empty", empty)]]
    return out


STAR_BASES = star_bases()


@pytest.mark.parametrize("name, P, upsets", STAR_BASES, ids=[b[0] for b in STAR_BASES])
def test_star_from_the_maximal_points_replays_the_down_closure(name, P, upsets):
    ops = UpsetMasks(P)
    assert ops.tops == max_elements(P, P.universe)
    for a in upsets:
        assert ops.star(a) == P.universe & ~downset_closure(P, a), (name, a)


# Element orders of si, chain, dist, free, product and table algebras.
ORDERS = [(name, element_order(A)) for name, A in small_corpus() + ORDER_CORPUS + [
    ("si:4", build_si(4)), ("chain:7", build_chain(7)), ("dist:3", free_distributive(3)),
    ("free:2,2", build_free(2, 2).algebra), ("free:omega,1", build_free(None, 1).algebra),
    ("free:1,1 x dist:2", product(build_free(1, 1).algebra, free_distributive(2))),
    ("table dist:2 x chain:3", to_table(product(free_distributive(2), build_chain(3)))),
]]
SKELETONS = [(n, k) for k in range(4) for n in LEVELS] + [(2, 4), (3, 4)]


class TestJoinIrreduciblePoints:
    @pytest.mark.parametrize("name, P", ORDERS, ids=[name for name, _ in ORDERS])
    def test_element_orders(self, name, P):
        assert join_irreducible_points(P) == ref_join_irreducible_points(P)
        assert join_irreducible_points(P.dual()) == ref_join_irreducible_points(P.dual())

    @pytest.mark.parametrize("n, k", SKELETONS, ids=[f"{n},{k}" for n, k in SKELETONS])
    def test_skeletons(self, n, k):
        P = free_skeleton(n, k).poset
        assert join_irreducible_points(P) == ref_join_irreducible_points(P)
        assert join_irreducible_points(P.dual()) == ref_join_irreducible_points(P.dual())

    @settings(max_examples=300, deadline=None)
    @given(random_posets())
    def test_random_posets(self, P):
        """Most of these are not lattices: the rule holds in any finite poset."""
        assert join_irreducible_points(P) == ref_join_irreducible_points(P)
        assert join_irreducible_points(P.dual()) == ref_join_irreducible_points(P.dual())


def references(name):
    """'module.py:[Class.]function' for every function of the library that
    names ``name``, as a variable or as an attribute."""
    out = set()
    for path in sorted(Path(palgebra.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scopes = [("", tree)] + [(f"{c.name}.", c) for c in ast.walk(tree)
                                 if isinstance(c, ast.ClassDef)]
        for prefix, scope in scopes:
            for fn in scope.body:
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                for node in ast.walk(fn):
                    if (isinstance(node, ast.Name) and node.id == name
                            or isinstance(node, ast.Attribute) and node.attr == name):
                        out.add(f"{path.name}:{prefix}{fn.name}")
    return out


def test_only_upset_masks_takes_a_down_closure():
    assert references("downset_closure") == {"algebras.py:UpsetMasks.star"}
