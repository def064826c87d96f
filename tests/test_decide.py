import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from palgebra import (
    BudgetExceeded,
    Equation,
    Join,
    Meet,
    QuasiIdentity,
    admissible_in_free,
    atoms,
    build_free,
    build_si,
    check_identity,
    check_quasi_identity,
    dense_elements,
    evaluate,
    five_element_witness,
    ib_term,
    oracle_equivalence,
    parse,
    qb_quasi_identity,
    random_term,
    structural_completeness_report,
    subalgebra,
    three_element_witness,
    to_text,
)
from palgebra.decide import _nest_operands
from palgebra.terms import compile_postfix

from .helpers import _operands
from .test_terms import terms


def eq(lhs, rhs):
    return Equation(parse(lhs), parse(rhs))


class TestEquation:
    def test_json_round_trip(self):
        e = eq("x1 & x2*", "0")
        d = e.to_json_dict()
        assert Equation.from_json_dict(d) == e
        assert d == {"lhs": "x1 & x2*", "rhs": "0"}

    def test_json_accepts_term_trees(self):
        d = {"lhs": ["meet", ["var", 1], ["star", ["var", 2]]],
             "rhs": "x1 & x2*"}
        e = Equation.from_json_dict(d)
        assert e.lhs == e.rhs

    def test_quasi_json(self):
        q = qb_quasi_identity(3)
        d = q.to_json_dict()
        assert QuasiIdentity.from_json_dict(d) == q
        assert len(d["premises"]) == 3


class TestCheckIdentity:
    def test_pseudocomplement_axiom_everywhere(self):
        v = check_identity(eq("x1 & (x1 & x2)*", "x1 & x2*"), None)
        assert v.holds and v.method == "normal-form"

    def test_level_identity_boundary(self):
        for m in (1, 2, 3):
            ib = Equation(ib_term(m), parse("1"))
            assert check_identity(ib, m).holds
            below = check_identity(ib, m + 1)
            assert not below.holds

    def test_witness_for_ib2(self):
        v = check_identity(Equation(ib_term(2), parse("1")), 3,
                           want_witness=True)
        assert not v.holds and v.method == "exhaustive"
        w = v.witness
        assert w["algebra"] == "si:3"
        assert w["valuation"] == {"x1": 1, "x2": 2, "x3": 4}

    def test_witness_reevaluates(self):
        v = check_identity(eq("x1**", "x1"), 1, want_witness=True)
        assert not v.holds
        w = v.witness
        n = int(w["algebra"].split(":")[1])
        B = build_si(n)
        val = {int(name[1:]): value for name, value in w["valuation"].items()}
        lhs = evaluate(parse("x1**"), B, val)
        rhs = evaluate(parse("x1"), B, val)
        assert lhs == w["lhs"] and rhs == w["rhs"] and lhs != rhs

    def test_double_star_fails_from_level_one(self):
        v = check_identity(eq("x1**", "x1"), 1, want_witness=True)
        assert v.witness["valuation"] == {"x1": 1}

    def test_boolean_level(self):
        assert check_identity(eq("x1**", "x1"), 0).holds
        assert check_identity(eq("x1 | x1*", "1"), 0).holds
        assert not check_identity(eq("x1 | x1*", "1"), 1).holds

    def test_pa_uses_saturated_level(self):
        # the Stone identity fails in Pa; one variable saturates at 2^1
        v = check_identity(eq("x1* | x1**", "1"), None, want_witness=True)
        assert not v.holds
        assert v.witness["algebra"] == "si:2"
        v2 = check_identity(eq("(x1 & x2)*", "x1* | x2*"), None,
                            want_witness=True)
        assert not v2.holds
        assert v2.witness["algebra"] == "si:4"

    def test_constant_identities(self):
        assert check_identity(eq("0*", "1"), None).holds
        assert check_identity(eq("1*", "0"), None).holds
        assert check_identity(eq("0", "1"), None).holds is False

    def test_monotone_in_level(self):
        # anything valid in Pa_{n+1} is valid in Pa_n
        rng = random.Random(7)
        for trial in range(40):
            t = random_term(rng, 4, k=2)
            s = random_term(rng, 4, k=2)
            e = Equation(t, s)
            verdicts = [check_identity(e, n).holds for n in (0, 1, 2, 3)]
            # once False, stays False as n grows
            assert verdicts == sorted(verdicts, reverse=True), to_text(t)

    def test_budget_guard(self):
        with pytest.raises(BudgetExceeded):
            check_identity(eq("x1 & x2 & x3 & x4 & x5 & x6 & x7 & x8", "0"),
                           None, want_witness=True)


class TestQuasiIdentity:
    def test_qb3_fails_in_si3(self):
        B = build_si(3)
        v = check_quasi_identity(qb_quasi_identity(3), B)
        assert not v.holds
        assert v.witness["valuation"] == {"x1": 1, "x2": 2, "x3": 4}
        assert v.witness["conclusion"] == {"lhs": 7, "rhs": B.one}

    def test_qb3_holds_in_si2(self):
        B = build_si(2)
        for strategy in ("exhaustive", "pruned"):
            v = check_quasi_identity(qb_quasi_identity(3), B,
                                     strategy=strategy)
            assert v.holds, strategy

    def test_qb3_holds_in_free41(self):
        F = build_free(4, 1).algebra
        v = check_quasi_identity(qb_quasi_identity(3), F,
                                 strategy="exhaustive")
        assert v.holds and v.budget_used == 7 ** 3

    def test_qb3_holds_in_free32_pruned(self):
        F = build_free(3, 2).algebra
        v = check_quasi_identity(qb_quasi_identity(3), F, strategy="pruned")
        assert v.holds
        assert v.budget_used < 10 ** 7

    def test_ground_premise_short_circuits(self):
        # premise 0 = 1 is false, so the quasi-identity holds vacuously
        q = QuasiIdentity((eq("0", "1"),), eq("x1", "0"))
        v = check_quasi_identity(q, build_si(2), strategy="pruned")
        assert v.holds

    def test_no_premises_is_equation(self):
        q = QuasiIdentity((), eq("x1 & x1*", "0"))
        for strategy in ("exhaustive", "pruned"):
            assert check_quasi_identity(q, build_si(2), strategy=strategy).holds

    def test_dense_not_one(self):
        # x* = 0 does not force x = 1 once a dense non-top element exists
        q = QuasiIdentity((eq("x1*", "0"),), eq("x1", "1"))
        assert check_quasi_identity(q, build_si(0)).holds
        v = check_quasi_identity(q, build_si(2), strategy="pruned")
        assert not v.holds
        B = build_si(2)
        x1 = v.witness["valuation"]["x1"]
        assert x1 in dense_elements(B) and x1 != B.one

    @given(st.integers(0, 2 ** 31), st.integers(2, 3))
    @settings(max_examples=25, deadline=None)
    def test_pruned_matches_exhaustive(self, seed, nvars):
        rng = random.Random(seed)
        prem = tuple(Equation(random_term(rng, 2, k=nvars),
                              random_term(rng, 2, k=nvars))
                     for _ in range(rng.randint(1, 2)))
        q = QuasiIdentity(prem, Equation(random_term(rng, 2, k=nvars),
                                         random_term(rng, 2, k=nvars)))
        A = build_si(rng.randint(1, 2))
        ve = check_quasi_identity(q, A, strategy="exhaustive")
        vp = check_quasi_identity(q, A, strategy="pruned")
        assert ve.holds == vp.holds
        if not vp.holds:
            # the pruned witness must genuinely break the implication
            val = {int(name[1:]): v
                   for name, v in vp.witness["valuation"].items()}
            assert all(evaluate(p.lhs, A, val) == evaluate(p.rhs, A, val)
                       for p in q.premises)
            assert evaluate(q.conclusion.lhs, A, val) != \
                evaluate(q.conclusion.rhs, A, val)

    def test_budget_exceeded_exhaustive(self):
        F = build_free(3, 2).algebra  # 625 elements, 3 vars -> 244 million
        with pytest.raises(BudgetExceeded):
            check_quasi_identity(qb_quasi_identity(3), F,
                                 strategy="exhaustive")

    def test_bad_strategy(self):
        with pytest.raises(ValueError):
            check_quasi_identity(qb_quasi_identity(3), build_si(1),
                                 strategy="telepathy")


class TestAdmissible:
    def test_qb3_admissible_at_level3(self):
        # F_3(3) exceeds the element cap, so the rank degrades to 2 and the
        # 625-element sweep space forces the pruned strategy
        v = admissible_in_free(qb_quasi_identity(3), 3)
        assert v.holds is True
        assert v.method == "pruned"

    def test_small_free_algebra_stays_exhaustive(self):
        q = QuasiIdentity((eq("x1*", "0"),), eq("x1**", "1"))
        v = admissible_in_free(q, 2)
        assert v.holds is True and v.method == "exhaustive"
        assert v.budget_used <= 7  # one variable over the 7-element F_2(1)

    def test_no_premises_agrees_with_check_identity(self):
        e = eq("x1 & (x1 & x2)*", "x1 & x2*")
        v = admissible_in_free(QuasiIdentity((), e), 2)
        assert v.holds == check_identity(e, 2).holds is True
        e2 = eq("x1**", "x1")
        v2 = admissible_in_free(QuasiIdentity((), e2), 2)
        assert v2.holds == check_identity(e2, 2).holds is False

    def test_dense_witness_in_f11(self):
        q = QuasiIdentity((eq("x1*", "0"),), eq("x1", "1"))
        v = admissible_in_free(q, 1)
        assert v.holds is False
        F = build_free(1, 1)
        A, g = F.algebra, F.gens[0]
        x1 = v.witness["valuation"]["x1"]
        assert x1 == A.join(g, A.star(g))
        assert x1 in dense_elements(A) and x1 != A.one

    def test_k_extra_increases_rank(self):
        q = QuasiIdentity((eq("x1*", "0"),), eq("x1**", "1"))
        v = admissible_in_free(q, 1, k_extra=1)
        assert v.holds is True
        assert v.budget_used > 7  # swept F_1(2), not F_1(1)


class TestStructuralReport:
    def test_low_levels_classified(self):
        for n in (0, 1, 2):
            rep = structural_completeness_report(n)
            assert rep["structurallyComplete"] is True
            assert rep["hereditarily"] is True
            assert rep["subquasivarieties"] == \
                ["Pa_-1", "Pa_0", "Pa_1", "Pa_2"][: n + 2]
            for w in rep["witnesses"]:
                assert w["verified"] is True
        assert len(structural_completeness_report(2)["witnesses"]) == 2

    def test_three_element_witness(self):
        from palgebra import build_chain
        w = three_element_witness(build_chain(4), 1)
        assert w["isomorphicTo"] == "si:1"
        assert len(w["subuniverse"]) == 3
        assert w["verified"] is True
        # degenerate choices give nothing: c v c* is a bound
        assert three_element_witness(build_si(0), 0) is None

    def test_five_element_witness(self):
        w = five_element_witness(build_si(2), 1)
        assert w["isomorphicTo"] == "si:2"
        assert len(w["subuniverse"]) == 5
        assert w["verified"] is True
        assert five_element_witness(build_si(1), 1) is None

    def test_level_three_report(self):
        rep = structural_completeness_report(3)
        assert rep["structurallyComplete"] is False
        assert rep["quasiIdentity"] == "qb_3"
        free_checks = rep["admissibleInFree"]
        assert {c["algebra"] for c in free_checks} == {"free:3,1", "free:3,2"}
        assert all(c["verdict"]["holds"] for c in free_checks)
        fail = rep["failsIn"]
        assert fail["algebra"] == "si:3"
        assert fail["verdict"]["witness"]["valuation"] == \
            {"x1": 1, "x2": 2, "x3": 4}
        assert "machine-checked" in rep["note"]

    def test_subalgebra_helper(self):
        B = build_si(2)
        sub, elems = subalgebra(B, [B.zero, B.one])
        assert sub.size == 2 and elems == (B.zero, B.one)
        with pytest.raises(ValueError):
            subalgebra(B, [1, B.one])     # bounds missing
        with pytest.raises(ValueError):
            subalgebra(B, [B.zero, 1, B.one])  # not closed under star


class TestOracleEquivalence:
    def test_single_pair_examples(self):
        r = oracle_equivalence(parse("x1**"), parse("x1"), 0)
        assert r["agree"] is True and r["pair"]["agree"] is True
        r = oracle_equivalence(parse("x1* | x1**"), parse("1"), 1)
        assert r["agree"] is True
        r = oracle_equivalence(parse("x1* | x1**"), parse("1"), 2)
        assert r["agree"] is True  # both oracles say "not equal"

    def test_omega_sweeps_at_level_two_to_the_k(self):
        r = oracle_equivalence(parse("x1 | x1*"), parse("1"), None)
        assert r["agree"] is True
        pair = r["pair"]
        assert (pair["normalFormEqual"], pair["exhaustiveEqual"]) == (False, False)
        assert pair["witness"]["algebra"] == "si:2"

    def test_omega_sweep_over_the_budget_raises(self):
        # three variables at omega: (2^8 + 1)^3 valuations of si:8
        with pytest.raises(BudgetExceeded):
            oracle_equivalence(parse("x1 | x2 | x3"), parse("1"), None)

    def test_batch(self):
        r = oracle_equivalence(parse("x1"), parse("x1"), 2,
                               trials=60, k=2, seed=11)
        assert r["agree"] is True
        assert r["trials"] == 60
        assert r["disagreements"] == []

    def test_deterministic_under_seed(self):
        a = oracle_equivalence(parse("0"), parse("0"), 1, trials=25, seed=5)
        b = oracle_equivalence(parse("0"), parse("0"), 1, trials=25, seed=5)
        assert a == b


class TestRandomTerm:
    def test_depth_zero_is_leaf(self):
        rng = random.Random(0)
        for _ in range(50):
            t = random_term(rng, 0, k=3)
            assert type(t).__name__ in ("Var", "Zero", "One")

    def test_respects_k(self):
        rng = random.Random(1)
        from palgebra import vars_of
        for _ in range(100):
            t = random_term(rng, 5, k=2)
            assert all(1 <= v <= 2 for v in vars_of(t))

    def test_seeded_stream_is_stable(self):
        a = [to_text(random_term(random.Random(42), 4, k=2)) for _ in range(3)]
        b = [to_text(random_term(random.Random(42), 4, k=2)) for _ in range(3)]
        assert a == b


class TestNestOperands:
    """The pruned search reads a premise side's root join or meet nest off
    its compiled code; ``helpers._operands`` is the tree walk it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(terms(max_depth=6, k=4))
    def test_replays_the_tree_walk(self, t):
        code = compile_postfix(t)
        for op, kind in ((Join, "join"), (Meet, "meet")):
            assert _nest_operands(code, kind) == [compile_postfix(s) for s in _operands(t, op)]

    def test_nests_in_either_association(self):
        t = parse("(x1 | x2*) | (x3 & x4 | (x1 | x2)**)")
        assert _nest_operands(compile_postfix(t), "join") == [
            compile_postfix(parse(s)) for s in ("x1", "x2*", "x3 & x4", "(x1 | x2)**")]
        assert _nest_operands(compile_postfix(t), "meet") == [compile_postfix(t)]
