import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from palgebra import CapExceeded, Poset, config
from palgebra.posets import (
    bit_indices,
    downset_closure,
    enumerate_upsets,
    export_dot,
    is_pp_morphism,
    is_upset,
    max_elements,
    min_elements,
    poset_isomorphic,
    upset_closure,
)

from .helpers import ref_bit_indices, ref_enumerate_upsets, ref_poset_isomorphic


def bit_masks():
    """0, single bits, and seeded sparse, dense and full masks of 1 to
    12,000 bits: both readings, and each side of the gate between them."""
    import random

    rng = random.Random(15)
    out = [0] + [1 << i for i in (0, 1, 7, 8, 63, 64, 10_000)]
    for length in [*range(1, 80), 100, 539, 626, 1025, 10_001, 12_000]:
        for density in (0.02, 0.1, 0.125, 0.2, 0.5, 0.9, 1.0):
            mask = sum(1 << i for i in range(length) if rng.random() < density)
            out.append(mask | 1 << (length - 1))
    return out


def test_bit_indices_replays_the_loop():
    for mask in bit_masks():
        assert bit_indices(mask) == ref_bit_indices(mask), mask


def chain(n):
    return Poset.from_leq(n, lambda a, b: a <= b)


def antichain(n):
    return Poset.from_leq(n, lambda a, b: a == b)


def cube(s):
    return Poset.from_leq(1 << s, lambda a, b: a & ~b == 0)


@st.composite
def random_posets(draw):
    # random DAG closed transitively: i < j allowed only when i < j as ints
    n = draw(st.integers(min_value=1, max_value=7))
    edges = draw(st.sets(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] < p[1]),
        max_size=12))
    up = [1 << i for i in range(n)]
    for lo, hi in sorted(edges):
        up[lo] |= 1 << hi
    for i in reversed(range(n)):
        row = up[i]
        for j in bit_indices(row):
            row |= up[j]
        up[i] = row
    return Poset(up)


class TestConstruction:
    def test_reflexive_required(self):
        with pytest.raises(ValueError):
            Poset([0b10, 0b10])

    def test_antisymmetry_required(self):
        with pytest.raises(ValueError):
            Poset([0b11, 0b11])

    def test_transitivity_required(self):
        # 0 <= 1 <= 2 but not 0 <= 2
        with pytest.raises(ValueError):
            Poset([0b011, 0b110, 0b100])

    def test_from_covers_matches_from_leq(self):
        P = Poset.from_covers(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        Q = Poset.from_leq(4, lambda a, b: a == b or (a == 0) or (b == 3))
        assert P.up == Q.up

    def test_covers_is_transitive_reduction(self):
        assert sorted(chain(4).covers()) == [(0, 1), (1, 2), (2, 3)]
        assert sorted(cube(2).covers()) == [(0, 1), (0, 2), (1, 3), (2, 3)]

    def test_dual_swaps(self):
        P = chain(3).dual()
        assert P.leq(2, 0) and not P.leq(0, 2)

    def test_cap(self):
        with pytest.raises(CapExceeded):
            Poset.from_leq(5, lambda a, b: a <= b, cap=4)

    def test_from_covers_checks_cap_before_reading_covers(self):
        def covers():
            raise AssertionError("covers read before the size check")
            yield

        with pytest.raises(CapExceeded):
            Poset.from_covers(config.DEFAULT.poset_cap + 1, covers())


class TestClosures:
    def test_upset_closure_chain(self):
        assert upset_closure(chain(4), 0b0010) == 0b1110

    def test_downset_closure_chain(self):
        assert downset_closure(chain(4), 0b0100) == 0b0111

    def test_min_max(self):
        P = cube(2)
        assert max_elements(P, P.universe) == 0b1000
        assert min_elements(P, P.universe) == 0b0001
        assert min_elements(P, 0b0110) == 0b0110  # the two atoms: an antichain

    @given(random_posets(), st.integers(min_value=0))
    def test_closures_are_upsets_downsets(self, P, seed):
        S = seed % (P.universe + 1)
        assert is_upset(P, upset_closure(P, S))
        assert is_upset(P.dual(), downset_closure(P, S))


class TestEnumeration:
    def test_chain_counts(self):
        for n in range(1, 7):
            assert len(enumerate_upsets(chain(n))) == n + 1

    def test_antichain_counts(self):
        for n in range(1, 7):
            assert len(enumerate_upsets(antichain(n))) == 2 ** n

    def test_cube_counts_are_dedekind(self):
        # upsets of 2^s = monotone boolean functions
        from .helpers import count_monotone_functions
        for s in range(4):
            assert len(enumerate_upsets(cube(s))) == count_monotone_functions(s)

    def test_all_results_are_upsets_and_sorted(self):
        P = cube(2)
        out = enumerate_upsets(P)
        assert len(set(out)) == len(out)
        assert out == sorted(out, key=lambda m: (bin(m).count("1"), m))
        assert all(is_upset(P, m) for m in out)

    def test_cap(self):
        with pytest.raises(CapExceeded):
            enumerate_upsets(antichain(6), cap=63)

    @given(random_posets())
    @settings(max_examples=40)
    def test_enumeration_matches_filter(self, P):
        brute = sorted(m for m in range(P.universe + 1) if is_upset(P, m))
        assert sorted(enumerate_upsets(P)) == brute


def upset_replay_posets():
    """Chains, antichains, cubes and the bases of free algebras of rank 2 and 3."""
    from palgebra import build_free
    out = [(f"chain {n}", chain(n)) for n in range(7)]
    out += [(f"antichain {n}", antichain(n)) for n in range(7)]
    out += [(f"cube {s}", cube(s)) for s in range(4)]
    out += [(f"free:{n},{k} base", build_free(n, k).algebra.base)
            for n, k in [(0, 3), (1, 2), (2, 2), (3, 2), (4, 2), (None, 2)]]
    return out


UPSET_POSETS = upset_replay_posets()


@pytest.mark.parametrize("name, P", UPSET_POSETS, ids=[name for name, _ in UPSET_POSETS])
def test_upsets_replay_the_stack(name, P):
    """The level-by-level enumeration gives the stack version's list, and
    with the cap just below the count, its refusal."""
    want = ref_enumerate_upsets(P, cap=10**9)
    assert enumerate_upsets(P, cap=len(want)) == want
    refusals = []
    for enumerate_ in (enumerate_upsets, ref_enumerate_upsets):
        with pytest.raises(CapExceeded) as exc:
            enumerate_(P, cap=len(want) - 1)
        refusals.append((exc.value.what, exc.value.count, exc.value.cap, str(exc.value)))
    assert refusals[0] == refusals[1]
    assert refusals[0][:3] == ("upset count", len(want), len(want) - 1)


class TestMorphisms:
    def test_identity_is_pp(self):
        P = cube(2)
        assert is_pp_morphism(P, P, tuple(range(P.n)))

    def test_collapse_not_pp(self):
        # constant map to the bottom of a chain is order-preserving but
        # fails the maximal-upper-bound condition
        P = chain(3)
        assert not is_pp_morphism(P, P, (0, 0, 0))

    def test_not_order_preserving(self):
        P = chain(3)
        assert not is_pp_morphism(P, P, (2, 1, 0))

    def test_wrong_length(self):
        assert not is_pp_morphism(chain(2), chain(2), (0,))


class TestIsomorphism:
    def test_chain_vs_antichain(self):
        assert poset_isomorphic(chain(3), antichain(3)) is None

    def test_cube_relabelled(self):
        P = cube(2)
        perm = [3, 1, 2, 0]  # swap bottom and top positions
        rows = [0] * 4
        for i in range(4):
            row = 0
            for j in bit_indices(P.up[i]):
                row |= 1 << perm[j]
            rows[perm[i]] = row
        f = poset_isomorphic(P, Poset(rows))
        assert f is not None
        assert list(f) == perm

    @given(random_posets(), st.randoms(use_true_random=False))
    @settings(max_examples=30)
    def test_random_relabelling_found(self, P, rnd):
        perm = list(range(P.n))
        rnd.shuffle(perm)
        rows = [0] * P.n
        for i in range(P.n):
            row = 0
            for j in bit_indices(P.up[i]):
                row |= 1 << perm[j]
            rows[perm[i]] = row
        f = poset_isomorphic(P, Poset(rows))
        assert f is not None
        for a in range(P.n):
            for b in range(P.n):
                assert P.leq(a, b) == ((rows[f[a]] >> f[b]) & 1 == 1)

    @given(random_posets(), random_posets(), st.randoms(use_true_random=False))
    @settings(max_examples=60)
    def test_mappings_replay_the_recursive_search(self, P, Q, rnd):
        perm = list(range(P.n))
        rnd.shuffle(perm)
        rows = [0] * P.n
        for i in range(P.n):
            rows[perm[i]] = sum(1 << perm[j] for j in bit_indices(P.up[i]))
        R = Poset(rows)
        for X, Y in ((P, R), (R, P), (P, Q), (Q, P)):
            assert poset_isomorphic(X, Y) == ref_poset_isomorphic(X, Y)

    def test_crowns_replay_the_recursive_search(self):
        # one 8-crown and two 4-crowns agree on every refined colour, so the
        # search tells them apart only by backing out of its choices
        def crowns(*sizes):
            rows, base = [], 0
            for m in sizes:  # m minimal points, each below two of m maximal ones
                rows += [1 << base + i | 1 << base + m + i | 1 << base + m + (i + 1) % m
                         for i in range(m)]
                rows += [1 << base + m + i for i in range(m)]
                base += 2 * m
            return Poset(rows)

        one, two = crowns(4), crowns(2, 2)
        assert poset_isomorphic(one, two) is None is ref_poset_isomorphic(one, two)
        for P in (one, two, crowns(3, 3), crowns(6)):
            assert poset_isomorphic(P, P) == ref_poset_isomorphic(P, P) is not None

    def test_deeper_than_the_recursion_limit(self):
        # positions are matched on a stack of their own, not one Python
        # frame each: a chain of more points than the limit allows frames
        P, limit = chain(300), sys.getrecursionlimit()
        sys.setrecursionlimit(200)
        try:
            f = poset_isomorphic(P, P)
        finally:
            sys.setrecursionlimit(limit)
        assert f == tuple(range(300))


def test_export_dot_shape():
    dot = export_dot(chain(3), labels=["bot", "mid", "top"])
    assert dot.startswith("digraph")
    assert "rankdir=BT" in dot
    assert '"bot"' in dot and '"top"' in dot
    assert "0 -> 1" in dot and "1 -> 2" in dot
    assert "0 -> 2" not in dot  # covers only


class TestLongChains:
    def test_upsets_of_a_1500_chain(self):
        n = 1500
        P = Poset.from_covers(n, [(i, i + 1) for i in range(n - 1)])
        ups = enumerate_upsets(P)
        assert len(ups) == n + 1
        assert ups[0] == 0 and ups[-1] == P.universe

    def test_cover_ends_must_be_points(self):
        for bad in ([(0, -1)], [(0, 3)], [(-1, 2)]):
            with pytest.raises(ValueError):
                Poset.from_covers(3, bad)
