"""The planned pruned search against the search it replaced.

``decide._quasi_pruned`` plans each depth once and keeps its order-bound
rows for the whole search; ``helpers.ref_quasi_pruned`` is the search before
that change.  Both must give the same verdict, witness and budget count (or
the same budget error), and the new one must call ``leq`` no more often.
"""

import dataclasses
import random
import sys

import pytest

from palgebra import (
    ONE,
    ZERO,
    BudgetExceeded,
    Equation,
    Join,
    Meet,
    QuasiIdentity,
    Star,
    Var,
    config,
    qb_quasi_identity,
    random_term,
)
from palgebra.cli import load_algebra
from palgebra import decide
from palgebra.decide import _Budget, _quasi_pruned, _quasi_vars

from .helpers import ref_quasi_pruned

SPECS = ["si:1", "si:2", "si:3", "si:4", "chain:3", "chain:4", "chain:5", "dist:3",
         "free:1,2", "free:2,2", "free:3,2", "free:4,2"]
ALGEBRAS = {spec: load_algebra(spec) for spec in SPECS}
SHAPES = ("pin", "star", "join", "meet", "generic", "ground")


def term_over(rng, hi, depth=2):
    """A random term over x1..x_hi; a ground one when hi is 0."""
    if hi == 0:
        return rng.choice((ZERO, ONE, Star(ZERO), Star(ONE)))
    return random_term(rng, depth, hi)


def premise(rng, shape, j, k):
    """One premise of the given shape for variable x_j of x1..x_k."""
    x, closed = Var(j), term_over(rng, j - 1)
    if shape == "pin":
        mine = x
    elif shape == "star":
        mine = Star(x)
    elif shape in ("join", "meet"):
        op, other = (Join if shape == "join" else Meet), term_over(rng, k, 1)
        mine = op(x, other) if rng.random() < 0.5 else op(other, x)
    elif shape == "generic":
        mine, closed = term_over(rng, j), term_over(rng, j)
    else:
        mine, closed = term_over(rng, 0), term_over(rng, 0)
    return Equation(mine, closed) if rng.random() < 0.5 else Equation(closed, mine)


def shaped_quasi(rng):
    k = rng.choice((1, 2, 2, 3))
    prems = tuple(premise(rng, rng.choice(SHAPES), rng.randint(1, k), k)
                  for _ in range(rng.randint(1, 3)))
    return QuasiIdentity(prems, Equation(term_over(rng, k), term_over(rng, k)))


def outcome(search, q, A):
    """The verdict document, or the budget error's text."""
    try:
        return search(q, A, _quasi_vars(q)).to_json_dict()
    except BudgetExceeded as exc:
        return str(exc)


class CountingLeq:
    """An algebra whose ``leq`` calls are counted."""

    def __init__(self, A):
        self.A, self.calls = A, 0

    def __getattr__(self, name):
        return getattr(self.A, name)

    def leq(self, i, j):
        self.calls += 1
        return self.A.leq(i, j)


def test_shaped_corpus_replays(monkeypatch):
    # a small budget keeps unpinned searches short and replays the budget
    # error too, whose text holds the count at which it fired
    monkeypatch.setattr(config, "DEFAULT", dataclasses.replace(config.DEFAULT, budget=20_000))
    rng = random.Random(10)
    errors = cases = 0
    for spec in SPECS:
        for _ in range(45):
            q = shaped_quasi(rng)
            want = outcome(ref_quasi_pruned, q, ALGEBRAS[spec])
            assert outcome(_quasi_pruned, q, ALGEBRAS[spec]) == want, (spec, q)
            errors += isinstance(want, str)
            cases += 1
    assert cases >= 500 and 0 < errors < cases // 4


@pytest.mark.parametrize("spec", SPECS)
def test_qb2_and_qb3_replay(spec):
    for n in (2, 3):
        q = qb_quasi_identity(n)
        assert outcome(_quasi_pruned, q, ALGEBRAS[spec]) == \
            outcome(ref_quasi_pruned, q, ALGEBRAS[spec]), n


def pinned_quasi(rng, k):
    """x_j = t(x_1..x_{j-1}) for j >= 2, one premise over every variable and
    a random conclusion: every variable but x1 is pinned."""
    prems = [Equation(Var(j), term_over(rng, j - 1)) for j in range(2, k + 1)]
    prems.append(Equation(term_over(rng, k), term_over(rng, k)))
    return QuasiIdentity(tuple(prems), Equation(term_over(rng, k), term_over(rng, k)))


@pytest.mark.parametrize("spec", ["free:2,2", "free:4,2"])
def test_no_more_leq_calls_than_the_reference(spec):
    rng = random.Random(spec)
    for q in [qb_quasi_identity(2)] + [pinned_quasi(rng, 2 + r % 2) for r in range(8)]:
        new, ref = CountingLeq(ALGEBRAS[spec]), CountingLeq(ALGEBRAS[spec])
        assert outcome(_quasi_pruned, q, new) == outcome(ref_quasi_pruned, q, ref)
        assert new.calls <= ref.calls, q


def test_bound_rows_are_reused():
    A = CountingLeq(ALGEBRAS["free:3,2"])
    ref = CountingLeq(ALGEBRAS["free:3,2"])
    q = qb_quasi_identity(3)
    assert _quasi_pruned(q, A, (1, 2, 3)) == ref_quasi_pruned(q, ref, (1, 2, 3))
    assert A.calls * 5 < ref.calls


def generic_closing_quasi(rng):
    """Two or three variables, the last closing a premise of no pinned or
    bounded shape, so it filters its pool as a row."""
    k = rng.choice((2, 3))
    prems = (Equation(Join(Var(k), term_over(rng, k - 1)), Star(Meet(Var(k), term_over(rng, k)))),
             premise(rng, rng.choice(("pin", "star", "join", "meet")), rng.randint(1, k), k))
    return QuasiIdentity(prems, Equation(term_over(rng, k), term_over(rng, k)))


class SiteBudget(_Budget):
    """A budget that notes the function and the step count of every charge
    of more than one step that ran out."""
    sites: set = set()

    def spend(self, amount=1, times=1):
        try:
            super().spend(amount, times)
        except BudgetExceeded:
            if times > 1:
                self.sites.add(sys._getframe(1).f_code.co_name)
            raise


@pytest.mark.parametrize("spec", ["si:3", "chain:5", "dist:3", "free:1,2"])
def test_budget_errors_replay_at_every_crossing(spec, monkeypatch):
    # count U with an ample budget, then replay at budgets below U (every one
    # while U is at most 300): the error text holds the count at the step that
    # crossed, inside the closing row filter and the last depth's conclusion
    # row as much as anywhere else
    monkeypatch.setattr(decide, "_Budget", SiteBudget)
    monkeypatch.setattr(SiteBudget, "sites", set())
    A, rng = ALGEBRAS[spec], random.Random(spec)
    qs = [qb_quasi_identity(2), qb_quasi_identity(3)] + [generic_closing_quasi(rng)
                                                         for _ in range(4)]
    ample = config.DEFAULT
    for q in qs:
        monkeypatch.setattr(config, "DEFAULT", ample)
        U = ref_quasi_pruned(q, A, _quasi_vars(q)).budget_used
        for budget in {*range(1, U, 1 if U <= 300 else U // 30), *range(max(1, U - 3), U)}:
            monkeypatch.setattr(config, "DEFAULT",
                                dataclasses.replace(config.DEFAULT, budget=budget))
            want = outcome(ref_quasi_pruned, q, A)
            assert want.startswith("pruned search: ")
            assert outcome(_quasi_pruned, q, A) == want, (q, budget)
    assert {"candidates", "conclude"} <= SiteBudget.sites
