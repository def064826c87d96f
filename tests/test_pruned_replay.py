"""The planned pruned search against the search it replaced.

``decide._quasi_pruned`` plans each depth once and keeps its order-bound
rows for the whole search; ``helpers.ref_quasi_pruned`` is the search before
that change.  Both must give the same verdict, witness and budget count (or
the same budget error), and the new one must call ``leq`` no more often.
"""

import dataclasses
import random
import sys
from bisect import bisect_right
from collections import Counter

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

from . import helpers
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
    assert {"candidates", "conclude", "frontier"} <= SiteBudget.sites


# ------------------------------------------------- the search as a frontier
#
# Below the first variable the search runs depth by depth over chunks of
# prefixes at once and charges each chunk as one sum.  The tests below replay
# it where the chunks are many and wide (the free algebras), at the budget
# crossings inside them, and pin the work it leaves out.

FREE = ["free:1,2", "free:2,2", "free:3,2", "free:4,2"]


def free_corpus(spec, count):
    """qb_2, qb_3 and ``count`` pinned quasi-identities over 2 and 3 variables."""
    rng = random.Random(spec)
    return [qb_quasi_identity(2), qb_quasi_identity(3)] + [pinned_quasi(rng, 2 + r % 2)
                                                         for r in range(count)]


@pytest.mark.parametrize("spec", FREE)
def test_pinned_replay_on_free(spec):
    A = ALGEBRAS[spec]
    for q in free_corpus(spec, 10)[2:]:
        assert outcome(_quasi_pruned, q, A) == outcome(ref_quasi_pruned, q, A), q


def charge_steps(q, A, monkeypatch):
    """The reference search's charges at an ample budget, in order, each as
    (count before it, amount, times)."""
    steps = []

    class StepBudget(_Budget):
        def spend(self, amount=1, times=1):
            steps.append((self.used, amount, times))
            super().spend(amount, times)

    with monkeypatch.context() as m:
        m.setattr(helpers, "_Budget", StepBudget)
        ref_quasi_pruned(q, A, _quasi_vars(q))
    return steps


def error_at(steps, budget):
    """The reference's budget error at ``budget``: the first charge whose
    end passes it, replayed on a budget holding the count before it."""
    i = bisect_right([used + amount * times for used, amount, times in steps], budget)
    spent = _Budget(budget, "pruned search")
    spent.used = steps[i][0]
    with pytest.raises(BudgetExceeded) as exc:
        spent.spend(*steps[i][1:])
    return str(exc.value)


@pytest.mark.parametrize("spec", ["free:1,2", "free:3,2"])
def test_budget_errors_replay_in_chunks(spec, monkeypatch):
    # every charge of the reference is a crossing: its budget error is the one
    # at the count before it; searches of more than 1,000 charges are replayed
    # at 30 spread budgets and the last three below their total U instead
    monkeypatch.setattr(decide, "_Budget", SiteBudget)
    monkeypatch.setattr(SiteBudget, "sites", set())
    A, ample = ALGEBRAS[spec], config.DEFAULT
    for q in free_corpus(spec, 6):
        monkeypatch.setattr(config, "DEFAULT", ample)
        steps = charge_steps(q, A, monkeypatch)
        U = steps[-1][0] + steps[-1][1] * steps[-1][2]
        if len(steps) <= 1000:
            budgets = {used for used, amount, times in steps if amount * times}
        else:
            budgets = {*range(1, U, U // 30), *range(U - 3, U)}
        for budget in sorted(budgets):
            monkeypatch.setattr(config, "DEFAULT", dataclasses.replace(ample, budget=budget))
            assert outcome(_quasi_pruned, q, A) == error_at(steps, budget), (q, budget)
    assert "frontier" in SiteBudget.sites  # a chunk's sum crossed, then its replay


class PairLeq(CountingLeq):
    """An algebra whose ``leq`` calls are kept as argument pairs."""

    def __init__(self, A):
        super().__init__(A)
        self.pairs = []

    def leq(self, i, j):
        self.pairs.append((i, j))
        return super().leq(i, j)


def test_qb3_fast_path_counts(monkeypatch):
    # the closed sides are evaluated as rows over the prefixes, not one
    # scalar evaluation per node (8,290 before); each bound row is built once
    calls = []
    scalar = decide.eval_postfix
    monkeypatch.setattr(decide, "eval_postfix", lambda *a: calls.append(a) or scalar(*a))
    A, q = PairLeq(ALGEBRAS["free:3,2"]), qb_quasi_identity(3)
    assert _quasi_pruned(q, A, (1, 2, 3)) == ref_quasi_pruned(q, ALGEBRAS["free:3,2"], (1, 2, 3))
    assert len(calls) <= A.size
    assert len(set(A.pairs)) == len(A.pairs)  # no order test is made twice
    assert set(Counter(c for _, c in A.pairs).values()) == {A.size}  # whole rows only


def widest_rows(monkeypatch):
    """The lengths of the rows ``_Rows.eval`` is given, as it is called."""
    widths, rows = [], decide._Rows.eval

    def eval(self, code, val, v=None, xs=()):
        widths.append(max(len(xs), *(len(x) for x in val.values() if type(x) is list), 0))
        return rows(self, code, val, v, xs)

    monkeypatch.setattr(decide._Rows, "eval", eval)
    return widths


# x2 and x3 range over all of A and x4 is pinned to x1 & x2 & x3, so the
# chunk of the first x1 alone fills |A|^2 (x2, x3) prefixes at x4's depth,
# where an unchunked frontier would hold |A|^3 and a chunk of two would pass
# |A|^2; the conclusion holds at x1 = 0 and fails at x1 = 1
WIDE = QuasiIdentity((Equation(Var(4), Meet(Meet(Var(1), Var(2)), Var(3))),),
                     Equation(Join(Var(1), Meet(Var(4), ZERO)), ZERO))


def test_frontier_holds_at_most_a_squared_prefixes(monkeypatch):
    A, widths = ALGEBRAS["free:1,2"], widest_rows(monkeypatch)
    v = _quasi_pruned(WIDE, A, (1, 2, 3, 4))
    assert v == ref_quasi_pruned(WIDE, A, (1, 2, 3, 4))
    assert v.witness["valuation"] == {"x1": 1, "x2": 0, "x3": 0, "x4": 0}
    assert max(widths) == A.size ** 2


def test_frontier_holds_no_more_prefixes_than_budget_units(monkeypatch):
    # each prefix costs a unit at least, so a chunk never grows past the
    # units left; here the budget runs out inside the first x1's subtree
    monkeypatch.setattr(config, "DEFAULT", dataclasses.replace(config.DEFAULT, budget=5000))
    A, widths = ALGEBRAS["free:1,2"], widest_rows(monkeypatch)
    want = outcome(ref_quasi_pruned, WIDE, A)
    assert want.startswith("pruned search: ")
    assert outcome(_quasi_pruned, WIDE, A) == want
    assert max(widths) <= 5000


def test_wide_pools_are_rows_per_prefix(monkeypatch):
    # no premises over three variables: every pool is all of A, so each
    # (x1, x2) prefix gets its own row over A instead of a share of one
    # |A|^2-wide row; the conclusion holds at x1 = 0 and fails at x1 = 1
    A, widths = ALGEBRAS["free:1,2"], widest_rows(monkeypatch)
    q = QuasiIdentity((), Equation(Join(Var(1), Meet(Meet(Var(2), Var(3)), ZERO)), ZERO))
    v = _quasi_pruned(q, A, (1, 2, 3))
    assert v == ref_quasi_pruned(q, A, (1, 2, 3))
    assert max(widths) == A.size
