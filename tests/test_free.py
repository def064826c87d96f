import itertools
import json
import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from palgebra import (
    BadIndex,
    CapExceeded,
    Equation,
    FreeAlgebra,
    JIndex,
    Poset,
    atoms,
    base_leq,
    build_free,
    build_si,
    check_identity,
    count_jirr,
    dense_elements,
    enumerate_jindices,
    enumerate_upsets,
    evaluate,
    free_distributive,
    free_elements,
    free_skeleton,
    h3_poset,
    homomorphism_g,
    is_isomorphic,
    is_pp_morphism,
    jirr_term,
    join_irreducibles,
    normal_form,
    parse,
    poset_isomorphic,
    product_many,
    quotient_to_distributive,
    stone_decompose,
    to_text,
    validate,
)
from palgebra import config
from palgebra.cli import main
from palgebra.terms import compile_postfix, eval_postfix
from .helpers import (
    count_monotone_functions,
    generated_subuniverse,
    paper_jirr_term,
    ref_count_jirr,
)

SIZES = {(1, 1): 6, (2, 1): 7, (3, 1): 7, (None, 1): 7,
         (1, 2): 108, (2, 2): 539, (3, 2): 625, (4, 2): 626, (None, 2): 626}


class TestJIndex:
    def test_validation(self):
        with pytest.raises(BadIndex):
            JIndex(2, (), 0)
        with pytest.raises(BadIndex):
            JIndex(2, (0b01, 0b01), 0)        # duplicates
        with pytest.raises(BadIndex):
            JIndex(2, (0b100,), 0)            # out of range
        with pytest.raises(BadIndex):
            JIndex(2, (0b01, 0b10), 0b01)     # L outside the intersection

    def test_atom_detection(self):
        assert JIndex(2, (0b11,), 0b11).is_atom
        assert JIndex(2, (0b00,), 0b00).is_atom
        assert not JIndex(2, (0b11,), 0b01).is_atom
        assert not JIndex(2, (0b01, 0b11), 0b01).is_atom

    def test_json_round_trip(self):
        j = JIndex(3, (0b011, 0b111), 0b001)
        assert JIndex.from_json_dict(j.to_json_dict(), 3) == j
        assert j.to_json_dict() == {"T": [[1, 2], [1, 2, 3]], "L": [1]}

    def test_base_leq(self):
        small = JIndex(2, (0b01, 0b11), 0)
        big = JIndex(2, (0b01,), 0b01)
        assert base_leq(small, big)
        assert not base_leq(big, small)
        assert base_leq(small, small)


class TestCounting:
    def test_figure_row(self):
        assert [count_jirr(n, 2) for n in (1, 2, 3, 4)] == [9, 17, 21, 22]

    def test_closed_forms(self):
        # level 1: 3^k; level 2: (5^k + 3^k)/2; saturation: sum C(k,l)(2^(2^l)-1)
        for k in range(5):
            assert count_jirr(1, k) == 3 ** k
            assert count_jirr(2, k) == (5 ** k + 3 ** k) // 2
            sat = sum(math.comb(k, l) * ((1 << (1 << l)) - 1) for l in range(k + 1))
            assert count_jirr(None, k) == sat
            assert count_jirr(1 << k, k) == sat
            assert count_jirr((1 << k) + 5, k) == sat  # saturates
        assert count_jirr(1, 2000) == 3 ** 2000
        assert count_jirr(2, 2000) == (5 ** 2000 + 3 ** 2000) // 2

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 8, None])
    def test_running_binomial_replays_the_reference(self, n):
        # the omega count at k has 2^k bits: replayed up to k = 16 only
        for k in range(41 if n is not None else 17):
            assert count_jirr(n, k) == ref_count_jirr(n, k), (n, k)

    def test_spot_values(self):
        assert count_jirr(3, 3) == 144
        assert count_jirr(3, 4) == 1161
        assert count_jirr(8, 3) == 310

    def test_boolean_level(self):
        for k in range(5):
            assert count_jirr(0, k) == 1 << k

    @given(st.integers(0, 8) | st.none(), st.integers(0, 3))
    @settings(max_examples=60)
    def test_formula_matches_enumeration(self, n, k):
        assert count_jirr(n, k) == len(enumerate_jindices(n, k))

    def test_enumeration_sorted_and_distinct(self):
        idx = enumerate_jindices(3, 2)
        assert len(set(idx)) == len(idx)
        assert [j.sort_key() for j in idx] == sorted(j.sort_key() for j in idx)


class TestBuild:
    @pytest.mark.parametrize("nk,size", sorted(SIZES.items(), key=str))
    def test_sizes(self, nk, size):
        n, k = nk
        assert build_free(n, k).size == size

    def test_boolean_case(self):
        F = build_free(0, 2)
        assert F.size == 16
        assert validate(F.algebra) == []
        B = F.algebra
        for a in range(B.size):
            assert B.join(a, B.star(a)) == B.one

    def test_rank_zero(self):
        assert build_free(1, 0).size == 2
        assert build_free(None, 0).size == 2

    def test_algebra_is_clean(self):
        # validate is cubic, so stop at the 108-element build
        for n, k in ((1, 1), (2, 1), (None, 1), (1, 2)):
            assert validate(build_free(n, k).algebra) == []

    def test_generators_generate(self):
        for n, k in ((2, 1), (1, 2), (2, 2)):
            F = build_free(n, k)
            A = F.algebra
            seen = {A.zero, A.one, *F.gens}
            frontier = list(seen)
            while frontier:
                a = frontier.pop()
                new = [A.star(a)]
                for b in list(seen):
                    new.append(A.meet(a, b))
                    new.append(A.join(a, b))
                for c in new:
                    if c not in seen:
                        seen.add(c)
                        frontier.append(c)
            assert len(seen) == A.size, (n, k)

    def test_jirr_count_matches_index_count(self):
        for n, k in ((1, 1), (2, 1), (1, 2), (2, 2), (3, 2)):
            F = build_free(n, k)
            assert len(join_irreducibles(F.algebra)) == len(F.indices)

    def test_index_terms_evaluate_to_their_upsets(self):
        F = build_free(2, 2)
        val = F.valuation()
        for pos, j in enumerate(F.indices):
            e = evaluate(j.term(), F.algebra, val)
            assert F.algebra.mask(e) == F.poset.up[pos]

    def test_index_terms_replay_the_paper_formula(self):
        # the emitted short forms (1 for a full family, a meet of literals
        # for a singleton) must equal p^L_T under every valuation into the
        # generators si:1..3
        targets = [build_si(s) for s in (1, 2, 3)]
        cases = [(n, k) for k in range(3) for n in (1, 2, 3, None)] + [(2, 3)]
        for n, k in cases:
            for j in enumerate_jindices(n, k):
                assert jirr_term(j.tees, j.ell, k) == j.term()
                got = compile_postfix(j.term())
                ref = compile_postfix(paper_jirr_term(j.tees, j.ell, k))
                for B in targets:
                    for tup in itertools.product(range(B.size), repeat=k):
                        val = dict(enumerate(tup, 1))
                        assert (eval_postfix(got, B, val)
                                == eval_postfix(ref, B, val)), (n, j, tup)

    def test_element_cap(self, monkeypatch):
        with pytest.raises(CapExceeded):
            build_free(1, 3)  # 233280 elements
        monkeypatch.setattr(config, "DEFAULT",
                            config.DEFAULT._replace(poset_cap=100))
        with pytest.raises(CapExceeded):
            build_free(3, 3)  # 144 indices

    def test_one_generated_figure(self):
        # four indices: x (atom), x** below it, x* on the side, and the
        # bottom index whose emitted term is the constant 1
        poset = free_skeleton(2, 1).poset
        labels = {}
        F = build_free(2, 1)
        for pos, j in enumerate(F.indices):
            labels[to_text(normal_form(j.term(), 2, k=1))] = pos
        assert set(labels) == {"x1", "x1**", "x1*", "1"}
        b, star, dstar, x = labels["1"], labels["x1*"], labels["x1**"], labels["x1"]
        expected = Poset.from_covers(4, [(b, star), (b, dstar), (dstar, x)])
        # relabel to compare literally
        assert poset.leq(b, star) and poset.leq(b, dstar) and poset.leq(b, x)
        assert poset.leq(dstar, x)
        assert not poset.leq(star, x) and not poset.leq(x, star)
        assert sorted(poset.covers()) == sorted(expected.covers())

    @pytest.mark.parametrize("n, k", [(-1, 2), (2, -1), (None, -1), (-1, 0)])
    def test_negative_level_or_rank_is_rejected(self, n, k):
        calls = [free_skeleton, build_free, h3_poset,
                 lambda n, k: free_elements([parse("x1")], n, k)]
        for call in calls:
            with pytest.raises(ValueError, match=r"need k >= 0 and n >= 0"):
                call(n, k)
        if n is not None and n < 0:
            with pytest.raises(ValueError, match=r"need k >= 0 and n >= 0"):
                normal_form(parse("x1"), n, k)
            with pytest.raises(ValueError, match=r"need k >= 0 and n >= 0"):
                check_identity(Equation(parse("x1 | x1*"), parse("1")), n)

    def test_f11_is_product_of_si1_si0(self):
        F = build_free(1, 1).algebra
        P = product_many([build_si(1), build_si(0)])
        assert F.size == 6
        assert is_isomorphic(F, P) is not None


class TestNormalForm:
    def test_goldens(self):
        for src, n, want in [
            ("x1*", 2, "x1*"),
            ("(x1 | x1*)**", 2, "1"),
            ("x1 & x1*", 3, "0"),
            ("x1", 2, "x1"),
            ("x1**", 2, "x1**"),
            ("(x1 & x1*)*", 2, "1"),
            ("x1 | x1*", 2, "x1* | x1"),
        ]:
            assert to_text(normal_form(parse(src), n)) == want, src

    def test_idempotent(self):
        for src in ("x1 & (x2 | x1*)", "(x1 | x2*) & (x2 | x1)*", "x1*"):
            for n in (1, 2, None):
                nf = normal_form(parse(src), n, k=2)
                assert normal_form(nf, n, k=2) == nf

    def test_normal_form_preserves_value(self):
        # t and nf(t) evaluate identically on the free algebra itself
        F = build_free(2, 2)
        val = F.valuation()
        for src in ("x1 & (x2 | x1*)", "(x1 | x2)**", "x2* | (x1 & x2)",
                    "x1 | 0", "x1 & 1", "(x1* & x2*)*"):
            t = parse(src)
            nf = normal_form(t, 2, k=2)
            assert evaluate(t, F.algebra, val) == evaluate(nf, F.algebra, val), src

    def test_level_sensitivity(self):
        # the Stone identity: one level up it stops holding
        t = parse("x1* | x1**")
        assert normal_form(t, 1, k=1) == normal_form(parse("1"), 1, k=1)
        assert normal_form(t, 2, k=1) != normal_form(parse("1"), 2, k=1)
        # at level >= 2 the top is emitted literally (the index poset
        # acquires a minimum whose scheme term is the constant)
        assert normal_form(parse("1"), 2, k=1) == parse("1")

    def test_ambient_variables_matter(self):
        # at ambient k=2 the canonical form of x1 spreads over both variables:
        # x1 = (x1 & x2*) | (x1 & x2**) is a level-1 identity
        a = normal_form(parse("x1"), 1, k=1)
        assert a == parse("x1")
        b = normal_form(parse("x1"), 1, k=2)
        assert b == normal_form(parse("(x1 & x2*) | (x1 & x2**)"), 1, k=2)
        assert b != parse("x1")

    def test_join_of_empty_is_zero(self):
        assert normal_form(parse("0"), 2) == parse("0")
        assert normal_form(parse("x1 & x1* & x2"), 3, k=2) == parse("0")

    def test_equality_decides_level(self):
        # x** = x holds at level 0 (Boolean) and fails from level 1 on
        t, s = parse("x1**"), parse("x1")
        assert normal_form(t, 0) == normal_form(s, 0)
        assert normal_form(t, 1) != normal_form(s, 1)


class TestDistributive:
    def test_sizes_match_monotone_oracle(self):
        for s in range(4):
            assert free_distributive(s).size == count_monotone_functions(s)

    def test_d4(self):
        assert free_distributive(4).size == 168

    def test_every_nonzero_is_dense(self):
        D = free_distributive(2)
        dense = dense_elements(D)
        assert sorted(dense) == [a for a in range(D.size) if a != D.zero]

    def test_validates(self):
        for s in range(4):
            assert validate(free_distributive(s)) == []

    def test_rejects_large(self):
        with pytest.raises(CapExceeded):
            free_distributive(5)


class TestQuotientTheorem:
    @pytest.mark.parametrize("k", [0, 1, 2])
    @pytest.mark.parametrize("n", [1, 2])
    def test_all_subsets(self, n, k):
        for T in range(1 << k):
            quo, iso = quotient_to_distributive(n, k, T)
            s = bin(T).count("1")
            assert quo.size == free_distributive(s).size, (n, k, T)
            assert iso is not None, (n, k, T)

    def test_bad_subset(self):
        with pytest.raises(BadIndex):
            quotient_to_distributive(1, 1, 0b10)


class TestStone:
    def test_k2_element_level(self):
        sd = stone_decompose(2)
        assert sd.level == "elements"
        assert sd.iso is not None
        assert math.prod(f.size for f in sd.factors) == 108

    def test_k1(self):
        sd = stone_decompose(1)
        assert sd.level == "elements" and sd.iso is not None
        assert [f.size for f in sd.factors] == [2, 3]

    def test_k0(self):
        sd = stone_decompose(0)
        assert sd.iso is not None

    def test_k3_poset_level(self):
        sd = stone_decompose(3)
        assert sd.level == "poset"
        assert sd.iso is not None
        assert math.prod(f.size for f in sd.factors) == 233280

    def test_rejects_k4(self):
        with pytest.raises(CapExceeded):
            stone_decompose(4)

    def test_negative_rank_is_a_value_error(self):
        with pytest.raises(ValueError, match=r"^need k >= 0 and n >= 0$"):
            stone_decompose(-1)

    def test_cap_names_the_rank_and_the_limit(self):
        with pytest.raises(CapExceeded) as info:
            stone_decompose(5)
        assert (info.value.what, info.value.count, info.value.cap) == (
            "generator count for the decomposition", 5, 3)


class TestH3:
    def test_one_generator_counts(self):
        for n in (2, 3, None):
            by_subset, by_one, ident = h3_poset(n, 1)
            assert len(enumerate_upsets(by_subset)) == 8
            assert len(enumerate_upsets(by_one)) == 7
            assert is_pp_morphism(by_subset, by_one, ident)

    def test_direction_matters(self):
        by_subset, by_one, ident = h3_poset(2, 1)
        assert not is_pp_morphism(by_one, by_subset, ident)

    def test_two_generators_still_pp(self):
        by_subset, by_one, ident = h3_poset(2, 2)
        assert is_pp_morphism(by_subset, by_one, ident)
        # the subset order is strictly coarser: fewer relations
        rel = lambda P: sum(bin(r).count("1") for r in P.up)
        assert rel(by_subset) < rel(by_one)


class TestHomomorphisms:
    def test_atom_indices_map_to_bounds(self):
        B, assignment = homomorphism_g(2, 2, (0b01,), 0b01)
        assert B.size == 3
        assert assignment == (B.one, 0)

    def test_non_atom_generates_everything(self):
        B, assignment = homomorphism_g(2, 2, (0b01, 0b11), 0b01)
        assert B.size == 5  # two-atom target

    def test_singleton_family_proviso(self):
        # ({T}, L) with L proper in T: one generator must land on the old top
        B, assignment = homomorphism_g(2, 2, (0b11,), 0b01)
        assert B.size == 3
        assert assignment[0] == B.one and assignment[1] == 1

    def test_family_too_large(self):
        with pytest.raises(BadIndex):
            homomorphism_g(1, 2, (0b01, 0b10), 0)

    def test_assignments_generate_their_targets(self):
        # every index at k <= 3 (levels 0 and omega) and k = 4 (levels 1-3):
        # a non-atom index generates all of B, an atom index just the bounds
        cases = [(n, k) for k in range(4) for n in (0, None)]
        cases += [(n, 4) for n in (1, 2, 3)]
        seen = 0
        for n, k in cases:
            for j in enumerate_jindices(n, k):
                B, assignment = homomorphism_g(n, k, j.tees, j.ell)
                image = generated_subuniverse(B, assignment)
                if j.is_atom:
                    assert image == {B.zero, B.one}, (n, j)
                else:
                    assert len(image) == B.size, (n, j)
                seen += 1
        assert seen == 1947


def accumulated_double_sum(k):
    """count_jirr(n, k) for n = 0..2^k + 1 by the binomial double sum, one
    term of each inner sum added per n: sum over L of C(k, |L|) times the
    sum of C(2^(k-|L|), m) for m = 1..n."""
    inner = [0] * (k + 1)
    out = [1 << k]
    for n in range(1, (1 << k) + 2):
        for ell in range(k + 1):
            inner[ell] += math.comb(1 << (k - ell), n)
        out.append(sum(math.comb(k, ell) * inner[ell] for ell in range(k + 1)))
    return out


class TestCountClosedForm:
    def test_matches_the_double_sum_for_every_level_up_to_k_10(self):
        for k in range(11):
            expected = accumulated_double_sum(k)
            assert [count_jirr(n, k) for n in range(len(expected))] == expected, k
            assert count_jirr(None, k) == expected[1 << k]

    def test_omega_at_13_variables_is_immediate(self, capsys):
        count_jirr.cache_clear()
        start = time.process_time()
        assert main(["nf", "-n", "omega", "x13"]) == 2
        assert time.process_time() - start < 1.0
        doc = json.loads(capsys.readouterr().err)
        assert doc["count"] == sum(math.comb(13, ell) * ((1 << (1 << (13 - ell))) - 1)
                                   for ell in range(14))

    def test_below_k_replays_the_reference(self):
        # below n = k the sum over L is taken in closed form
        for n in range(8):
            for k in range(12):
                count_jirr.cache_clear()
                assert count_jirr(n, k) == ref_count_jirr(n, k), (n, k)
        for n, k in [(3, 40), (5, 100), (20, 9), (17, 30), (40, 41), (1, 300), (2, 301)]:
            assert count_jirr(n, k) == ref_count_jirr(n, k), (n, k)

    def test_level_three_is_a_sum_of_three_powers(self):
        # C(W, 1) + C(W, 2) + C(W, 3) = (W^3 + 5W) / 6, summed over L
        for k in (4, 8000, 99999):
            assert count_jirr(3, k) == (9 ** k + 5 * 3 ** k) // 6, k

    @pytest.mark.parametrize("argv", [["nf", "-n", "3", "--", "x99999"],
                                      ["free", "-n", "3", "-k", "99999", "--count-only"]])
    def test_level_three_at_99999_variables_is_quick(self, argv, capsys):
        count_jirr.cache_clear()
        start = time.process_time()
        code = main(argv)
        assert time.process_time() - start < 5.0
        out = capsys.readouterr()
        count = (9 ** 99999 + 5 * 3 ** 99999) // 6
        text = f"2^{count.bit_length() - 1} or more"
        if argv[0] == "nf":
            assert (code, out.out) == (2, "")
            assert json.loads(out.err)["count"] == text
        else:
            assert (code, out.err) == (0, "")
            assert json.loads(out.out)["jCount"] == text

    def test_level_one_at_20000_variables_is_quick(self, capsys):
        # C(k, ell) is kept as a running product, not recomputed per ell
        count_jirr.cache_clear()
        start = time.process_time()
        assert main(["nf", "-n", "1", "--", "x20000"]) == 2
        assert time.process_time() - start < 20.0
        doc = json.loads(capsys.readouterr().err)
        assert doc["count"] == f"2^{(3 ** 20000).bit_length() - 1} or more"
