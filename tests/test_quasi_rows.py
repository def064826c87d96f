"""The sweep that evaluates the last variable as a row against the
per-valuation sweep it replaced.

``decide._quasi_exhaustive`` fixes every variable but the last and evaluates
each side over all of the last one's values at once; ``helpers.
ref_quasi_exhaustive`` is the loop before that change.  Both must give equal
verdicts: holds, witness, method and budget count.  Each case runs on the
bare carrier and through a proxy that forwards every attribute (and so
takes the carrier's own path).
"""

import random

import pytest

from palgebra import (
    ONE,
    ZERO,
    Equation,
    QuasiIdentity,
    Star,
    Var,
    max_var,
    parse,
    qb_quasi_identity,
    random_term,
)
from palgebra import decide
from palgebra.cli import load_algebra
from palgebra.decide import _quasi_exhaustive, _quasi_vars, _sweep_equation

from .helpers import ref_quasi_exhaustive
from .test_pruned_replay import CountingLeq

SMALL = ["si:1", "si:2", "si:3", "si:4", "chain:3", "chain:4", "chain:5", "dist:3"]
ALGEBRAS = {spec: load_algebra(spec)
            for spec in SMALL + ["free:1,2", "free:2,2", "free:3,2", "free:4,2"]}


def carriers(A):
    return A, CountingLeq(A)


def assert_replays(q, A):
    variables = _quasi_vars(q)
    want = ref_quasi_exhaustive(q, A, variables)
    for B in carriers(A):
        assert _quasi_exhaustive(q, B, variables) == want, (q, B)
    return want


@pytest.mark.parametrize("spec", SMALL + ["free:1,2"])
def test_qb2_and_qb3_replay(spec):
    for n in (2, 3):
        assert_replays(qb_quasi_identity(n), ALGEBRAS[spec])


@pytest.mark.parametrize("spec", ["free:2,2", "free:3,2", "free:4,2"])
def test_qb2_replays_in_rank_two_free_algebras(spec):
    assert_replays(qb_quasi_identity(2), ALGEBRAS[spec])


def random_quasi(rng, k):
    prems = tuple(Equation(random_term(rng, 3, k), random_term(rng, 3, k))
                  for _ in range(rng.randint(0, 3)))
    return QuasiIdentity(prems, Equation(random_term(rng, 3, k), random_term(rng, 3, k)))


def test_random_quasi_identities_replay():
    rng = random.Random(17)
    cases = failing = 0
    for _ in range(160):
        k = rng.randint(1, 3)
        # three variables stay off free:1,2, whose 108^3 reference sweep is slow
        spec = rng.choice(SMALL + ["free:1,2"] * (k < 3))
        failing += not assert_replays(random_quasi(rng, k), ALGEBRAS[spec]).holds
        cases += 1
    assert cases >= 120 and 0 < failing < cases


def test_ground_and_skipped_variables_replay():
    x1, x3 = Var(1), Var(3)
    qs = [
        QuasiIdentity((), Equation(ZERO, ONE)),
        QuasiIdentity((Equation(Star(ONE), ZERO),), Equation(Star(ZERO), ONE)),
        QuasiIdentity((Equation(ZERO, ONE),), Equation(ZERO, ONE)),
        QuasiIdentity((Equation(Star(x1), x3),), Equation(parse("x1 | x3"), ONE)),
        QuasiIdentity((Equation(x3, Star(Star(x3))),), Equation(x1, parse("x1**"))),
        QuasiIdentity((), Equation(parse("x3 & x3*"), ZERO)),
    ]
    for spec in ("si:1", "si:3", "chain:4", "dist:3", "free:1,2"):
        verdicts = [assert_replays(q, ALGEBRAS[spec]) for q in qs]
        assert [v.budget_used for v in verdicts[:3]] == [1, 1, 1]


def test_identity_sweeps_replay(monkeypatch):
    # premise-less quasi-identities back eq --witness and oracle_equivalence
    rng = random.Random(5)
    pairs = [(random_term(rng, 4, k), random_term(rng, 4, k))
             for k in (1, 1, 2, 2, 2, 3) for _ in range(6)]
    pairs += [(parse("x1**"), Var(1)), (parse("x1 | x1*"), ONE), (Var(2), Var(2))]
    cases = []
    for lhs, rhs in pairs:
        k = max(1, max_var(lhs, rhs))
        cases += [(Equation(lhs, rhs), n, k) for n in (1, 2, 3)]
    got = [_sweep_equation(*c) for c in cases]
    monkeypatch.setattr(decide, "_quasi_exhaustive", ref_quasi_exhaustive)
    assert got == [_sweep_equation(*c) for c in cases]
    assert any(w is None for w, _ in got) and any(w is not None for w, _ in got)


def test_the_last_variable_is_a_row(monkeypatch):
    # one evaluation per side and valuation of the other variables
    calls = 0
    real = decide._Rows.eval

    def counted(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(decide._Rows, "eval", counted)
    q, A = qb_quasi_identity(2), ALGEBRAS["free:1,2"]
    variables = _quasi_vars(q)
    v = _quasi_exhaustive(q, A, variables)
    assert v == ref_quasi_exhaustive(q, A, variables)
    sides = 2 * (len(q.premises) + 1)
    assert calls <= A.size ** (len(variables) - 1) * sides < v.budget_used
