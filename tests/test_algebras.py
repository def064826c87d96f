import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from palgebra import (
    MalformedTables,
    NotACongruence,
    Poset,
    TableAlgebra,
    UpsetAlgebra,
    algebra_dumps,
    algebra_from_json_dict,
    algebra_loads,
    algebra_to_json_dict,
    atoms,
    build_chain,
    build_free,
    build_si,
    chain_carrier,
    compatibility_witness,
    dense_elements,
    glivenko,
    is_isomorphic,
    is_prime_filter,
    join_irreducibles,
    prime_filters,
    principal_congruence,
    product,
    product_many,
    quotient,
    regular_elements,
    si_carrier,
    si_cond_check,
    to_table,
    to_upset,
    validate,
)
from palgebra import algebras, cli
from .helpers import (
    brute_atoms,
    brute_join_irreducibles,
    brute_pseudocomplement,
    ref_is_isomorphic,
    small_corpus,
)

CORPUS = small_corpus()


class TestSi:
    def test_sizes(self):
        assert [build_si(n).size for n in range(5)] == [2, 3, 5, 9, 17]

    def test_bounds_and_e(self):
        B = build_si(3)
        assert B.zero == 0 and B.one == 8
        e = B.size - 2
        assert B.star(e) == 0 and B.star(B.one) == 0 and B.star(0) == B.one

    def test_star_is_boolean_complement_inside(self):
        B = build_si(3)
        e = 7
        for a in range(1, 8):
            assert B.star(a) == e ^ a

    def test_meet_join_are_bitwise_below_top(self):
        B = build_si(2)
        for a in range(4):
            for b in range(4):
                assert B.meet(a, b) == a & b
                assert B.join(a, b) == a | b

    def test_si0_is_two_element(self):
        B = build_si(0)
        assert B.size == 2 and B.star(0) == 1 and B.star(1) == 0

    def test_si_cond_characterisation(self):
        # a n b* = 0 iff a <= b, except the single pair (1, e)
        for n in (1, 2, 3):
            assert si_cond_check(build_si(n)) == []

    def test_si_cond_flags_non_si(self):
        assert si_cond_check(build_chain(4)) != []
        assert si_cond_check(product(build_si(1), build_si(1))) != []


class TestValidation:
    @pytest.mark.parametrize("name,A", CORPUS, ids=[n for n, _ in CORPUS])
    def test_corpus_is_clean(self, name, A):
        assert validate(A) == []

    def test_pseudocomplement_is_max_annihilator(self):
        for name, A in CORPUS:
            for a in range(A.size):
                assert A.star(a) == brute_pseudocomplement(A, a), (name, a)

    def test_broken_star_reported(self):
        B = build_si(2)
        star = list(B.star_table)
        star[1] = 1  # 1 n 1 != 0
        bad = TableAlgebra(B.meet_table, B.join_table, star, B.zero, B.one)
        laws = {v.law for v in validate(bad)}
        assert laws  # pseudocomplement biconditional must fire
        assert any("pseudocomplement" in l or "star" in l for l in laws)

    def test_broken_absorption_reported(self):
        C = build_chain(3)
        join = [list(r) for r in C.join_table]
        join[0][1] = join[1][0] = 2
        bad = TableAlgebra(C.meet_table, join, C.star_table, C.zero, C.one)
        assert validate(bad) != []

    def test_malformed_tables(self):
        with pytest.raises(MalformedTables):
            TableAlgebra([[0]], [[0, 0]], [0], 0, 0)


class TestConstructions:
    def test_chain_stars(self):
        C = build_chain(5)
        assert C.star(0) == 4
        assert all(C.star(a) == 0 for a in range(1, 5))

    def test_chain_requires_two(self):
        with pytest.raises(ValueError):
            build_chain(1)

    def test_product_projections_are_homomorphic(self):
        A, B = build_si(1), build_chain(3)
        P = product(A, B)
        assert P.size == 9
        assert validate(P) == []
        # componentwise star
        for i in range(A.size):
            for j in range(B.size):
                p = i * B.size + j
                assert P.star(p) == A.star(i) * B.size + B.star(j)

    def test_product_of_upsets_stays_upset(self):
        A = build_free(1, 1).algebra
        P = product(A, A)
        assert isinstance(P, UpsetAlgebra)
        assert P.size == 36 and validate(P) == []

    def test_product_many(self):
        P = product_many([build_si(0), build_si(0), build_si(0)])
        assert P.size == 8 and validate(P) == []


class TestStructure:
    def test_join_irreducibles_chain(self):
        C = build_chain(4)
        assert join_irreducibles(C) == [1, 2, 3]

    def test_join_irreducibles_si(self):
        B = build_si(2)
        assert join_irreducibles(B) == [1, 2, 4]  # two atoms and the new top
        assert atoms(B) == [1, 2]

    def test_dense_and_regular_si(self):
        B = build_si(3)
        e, top = 7, 8
        assert dense_elements(B) == [e, top]
        # the boolean part below e plus the top; e itself is dense
        assert regular_elements(B) == [0, 1, 2, 3, 4, 5, 6, 8]

    def test_dense_regular_partition_property(self):
        for name, A in CORPUS:
            dense = set(dense_elements(A))
            reg = set(regular_elements(A))
            assert A.one in dense
            assert dense & reg == {A.one} if A.one in reg else not (dense & reg)
            for a in range(A.size):
                assert (A.star(A.star(a)) == a) == (a in reg)

    def test_glivenko_quotient_is_boolean(self):
        for name, A in CORPUS:
            theta, skel = glivenko(A)
            assert skel.size == len(regular_elements(A))
            assert validate(skel) == []
            # Boolean: x join x* = 1 in the skeleton
            for a in range(skel.size):
                assert skel.join(a, skel.star(a)) == skel.one, name

    def test_glivenko_on_si(self):
        B = build_si(3)
        theta, skel = glivenko(B)
        assert skel.size == 8
        assert theta.num_classes == 8
        assert theta.same(7, 8)  # e and top collapse


ORDER_CORPUS = CORPUS + [
    ("si:2 x chain:4", to_table(product(build_si(2), build_chain(4)))),
    ("si:3 x si:2", to_table(product(build_si(3), build_si(2)))),
]


class TestElementOrder:
    """The order-derived inventory replayed against pairwise-leq oracles."""

    @pytest.mark.parametrize("name,A", ORDER_CORPUS, ids=[n for n, _ in ORDER_CORPUS])
    def test_rows_are_the_order(self, name, A):
        up = algebras.element_order(A).up
        assert up == tuple(sum(1 << j for j in range(A.size) if A.leq(i, j))
                           for i in range(A.size))

    @pytest.mark.parametrize("name,A", ORDER_CORPUS, ids=[n for n, _ in ORDER_CORPUS])
    def test_inventory_matches_oracles(self, name, A):
        assert join_irreducibles(A) == brute_join_irreducibles(A)
        assert atoms(A) == brute_atoms(A)
        filters = prime_filters(A)
        assert len(filters) == len(join_irreducibles(A))
        assert all(is_prime_filter(A, F) for F in filters)

    def test_inventory_reads_no_leq(self, monkeypatch, capsys):
        specs = ("si:3", "chain:5", "free:1,2")
        loaded = [cli.load_algebra(spec) for spec in specs]

        def refuse(self, i, j):
            raise AssertionError("leq called")

        monkeypatch.setattr(TableAlgebra, "leq", refuse)
        monkeypatch.setattr(UpsetAlgebra, "leq", refuse)
        for A in loaded:
            assert join_irreducibles(A) and atoms(A) and prime_filters(A)
        assert cli.main(["dual", "si:3"]) == 0
        assert '"count": 4' in capsys.readouterr().out


class TestIsomorphism:
    def test_positive(self):
        F = build_free(1, 1).algebra
        P = product(build_si(1), build_si(0))
        f = is_isomorphic(F, P)
        assert f is not None
        # verify the witness is a real isomorphism
        for a in range(F.size):
            for b in range(F.size):
                assert f[F.meet(a, b)] == P.meet(f[a], f[b])
                assert f[F.join(a, b)] == P.join(f[a], f[b])
            assert f[F.star(a)] == P.star(f[a])

    def test_negative_same_size(self):
        # chain:5 and si:2 have different shapes at equal size
        assert is_isomorphic(build_chain(5), build_si(2)) is None

    def test_negative_boolean_vs_stone(self):
        assert is_isomorphic(build_si(1), build_chain(3)) is not None
        assert is_isomorphic(build_si(0), build_chain(2)) is not None
        assert is_isomorphic(build_si(2), product(build_si(1), build_si(1))) is None

    def test_replays_the_operation_check(self):
        # the map read off the Birkhoff masks is the one the old function
        # built by joins and then checked operation by operation
        corpus = [f(n) for n in range(4) for f in (si_carrier, build_si)]
        corpus += [f(m) for m in range(2, 10) for f in (chain_carrier, build_chain)]
        si, ch = build_si, build_chain
        corpus += [product(a, b) for a, b in (
            (si(0), si(0)), (si(1), si(0)), (si(0), si(1)), (si(1), si(1)), (si(2), si(0)),
            (ch(3), ch(3)), (ch(2), ch(4)), (ch(4), ch(2)), (ch(2), ch(3)), (ch(3), si(1)),
            (si(1), ch(3)), (product(si(0), si(0)), product(si(0), si(0))))]
        corpus += [glivenko(A)[1] for A in (si(3), ch(5), product(si(2), ch(3)),
                                            product(si(1), si(2)))]
        specs = ("dist:2", "dist:3", "free:0,1", "free:1,1", "free:2,1", "free:0,2", "free:1,2")
        corpus += [cli.load_algebra(s) for s in specs]
        corpus += [to_table(cli.load_algebra(s)) for s in ("dist:2", "free:1,1", "free:1,2")]
        found = 0
        for A in corpus:
            for B in corpus:
                f = is_isomorphic(A, B)
                assert f == ref_is_isomorphic(A, B), (A, B)
                found += f is not None
        assert found >= 140


class TestQuotient:
    def test_quotient_of_chain(self):
        C = build_chain(4)
        q = quotient(C, principal_congruence(C, 1, 2))
        assert q.algebra.size == 3
        assert validate(q.algebra) == []

    def test_projection_is_homomorphism(self):
        B = build_si(2)
        theta = principal_congruence(B, 1, 3)
        q = quotient(B, theta)
        p = q.proj
        for a in range(B.size):
            assert p[B.star(a)] == q.algebra.star(p[a])
            for b in range(B.size):
                assert p[B.meet(a, b)] == q.algebra.meet(p[a], p[b])

    def test_raw_labels_match_the_congruence(self):
        C = build_chain(5)
        theta = principal_congruence(C, 1, 3)
        assert theta.rep == (0, 1, 1, 1, 4)
        raw = quotient(C, ["top" if r == 4 else 7 - r for r in theta.rep])
        ref = quotient(C, theta)
        assert (raw.proj, raw.reps) == (ref.proj, ref.reps)
        assert algebra_to_json_dict(raw.algebra) == algebra_to_json_dict(ref.algebra)
        assert raw.algebra.labels == ref.algebra.labels

    def test_non_congruence_rejected(self):
        C = build_chain(4)
        with pytest.raises(NotACongruence):
            quotient(C, [0, 0, 1, 2])  # collapses 0,1 but not their joins

    def test_compatibility_witness_none_on_real(self):
        C = build_chain(4)
        theta = principal_congruence(C, 2, 3)
        assert compatibility_witness(C, theta.rep) is None


class TestCarriers:
    def test_to_table_round_trip(self):
        U = build_free(1, 1).algebra
        T = to_table(U)
        assert isinstance(T, TableAlgebra)
        assert is_isomorphic(T, U) is not None

    def test_to_upset_round_trip(self):
        B = build_si(2)
        U = to_upset(B)
        assert isinstance(U, UpsetAlgebra)
        assert U.size == B.size
        assert is_isomorphic(U, B) is not None

    def test_to_upset_requires_distributive(self):
        # M3-like join table is not distributive; build a small non-example
        # via a modified chain: break distributivity by hand is tricky, so
        # check the contract: every corpus member round-trips.
        for name, A in CORPUS:
            U = to_upset(A)
            assert is_isomorphic(U, A) is not None, name


class TestJson:
    @pytest.mark.parametrize("name,A", CORPUS[:6], ids=[n for n, _ in CORPUS[:6]])
    def test_round_trip(self, name, A):
        doc = algebra_to_json_dict(A)
        B = algebra_from_json_dict(json.loads(json.dumps(doc)))
        assert is_isomorphic(A, B) is not None

    def test_dumps_loads(self):
        A = build_si(2)
        B = algebra_loads(algebra_dumps(A))
        assert B.size == A.size
        assert all(B.star(a) == A.star(a) for a in range(A.size))

    def test_upset_kind_preserved(self):
        U = build_free(1, 1).algebra
        doc = algebra_to_json_dict(U)
        assert doc["kind"] == "upset"
        V = algebra_from_json_dict(doc)
        assert isinstance(V, UpsetAlgebra)
        assert is_isomorphic(U, V) is not None

    def test_malformed_rejected(self):
        with pytest.raises(MalformedTables):
            algebra_loads('{"kind": "table", "size": 2}')


@given(st.integers(min_value=0, max_value=4), st.data())
@settings(max_examples=60)
def test_si_pseudocomplement_law(n, data):
    # x n y = 0  iff  y <= x*
    B = build_si(n)
    x = data.draw(st.integers(0, B.size - 1))
    y = data.draw(st.integers(0, B.size - 1))
    assert (B.meet(x, y) == B.zero) == B.leq(y, B.star(x))
