"""The planned pruned search against the search it replaced.

``decide._quasi_pruned`` plans each depth once and reads its order-bound
rows off the carrier, which keeps them; ``helpers.ref_quasi_pruned`` is the
search before that change.  Both must give the same verdict, witness and
budget count (or the same budget error), and the new one must call ``leq``
no more often.
"""

import ast
import json
import random
import sys
from bisect import bisect_right
from pathlib import Path

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
from palgebra.algebras import UpsetAlgebra, to_table, upset_carrier
from palgebra.terms import compile_postfix
from palgebra.cli import load_algebra, main
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
    monkeypatch.setattr(config, "DEFAULT", config.DEFAULT._replace(budget=20_000))
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
    """A budget that notes where every charge of more than one step that ran
    out was made: the charging function, and whether it charged a chunk of
    the frontier (a search with a cap on its width) or a node searched on
    its own."""
    sites: set = set()

    def spend(self, amount=1, times=1):
        try:
            super().spend(amount, times)
        except BudgetExceeded:
            if times > 1:
                site = sys._getframe(1)
                chunk = site.f_back.f_locals.get("cap") is not None
                self.sites.add((site.f_code.co_name, "chunk" if chunk else "node"))
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
                                config.DEFAULT._replace(budget=budget))
            want = outcome(ref_quasi_pruned, q, A)
            assert want.startswith("pruned search: ")
            assert outcome(_quasi_pruned, q, A) == want, (q, budget)
    assert {("charge", "node"), ("charge", "chunk")} <= SiteBudget.sites


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
            monkeypatch.setattr(config, "DEFAULT", ample._replace(budget=budget))
            assert outcome(_quasi_pruned, q, A) == error_at(steps, budget), (q, budget)
    assert ("charge", "chunk") in SiteBudget.sites  # a chunk's sum crossed, then its walk


class KeptRows(dict):
    """A carrier's kept order rows, each (direction, c) noted as it is built."""

    def __init__(self, direction, built):
        super().__init__()
        self.direction, self.built = direction, built

    def __setitem__(self, c, row):
        self.built.append((self.direction, c))
        super().__setitem__(c, row)


def counted_rows(A, built):
    """A, its row slots emptied and counting each row built into built."""
    A._up_rows, A._down_rows = KeptRows("above", built), KeptRows("below", built)
    return A


def test_qb3_fast_path_counts(monkeypatch):
    # the closed sides are evaluated as rows over the prefixes, not one
    # scalar evaluation per node (8,290 before); the bound rows are read off
    # the carrier, which builds each once and keeps it, with no leq call on
    # any carrier (10,000 before)
    q, free32, T = qb_quasi_identity(3), ALGEBRAS["free:3,2"], to_table(ALGEBRAS["free:1,2"])
    want = ref_quasi_pruned(q, free32, (1, 2, 3)), ref_quasi_pruned(q, T, (1, 2, 3))
    calls, pairs = [], []
    rows, leq = decide._Rows.eval, UpsetAlgebra.leq
    monkeypatch.setattr(decide._Rows, "eval", lambda *a: calls.append(a) or rows(*a))
    monkeypatch.setattr(UpsetAlgebra, "leq", lambda A, i, j: pairs.append((i, j)) or leq(A, i, j))
    built = []
    A = counted_rows(UpsetAlgebra._trusted(free32.base, free32.elements), built)
    assert _quasi_pruned(q, A, (1, 2, 3)) == want[0]
    assert len(calls) <= A.size
    assert built and len(set(built)) == len(built)  # no row is built twice
    # nor again by a second search on the carrier, which reads the kept rows
    first = list(built)
    assert _quasi_pruned(q, A, (1, 2, 3)) == want[0]
    assert built == first
    # a table is searched in its upset carrier, each row built once there too
    built = []
    A = counted_rows(upset_carrier(T), built)
    for _ in range(2):
        assert _quasi_pruned(q, A, (1, 2, 3)) == want[1]
    assert built and len(set(built)) == len(built)
    assert pairs == []


def test_decide_evaluates_terms_only_as_rows():
    # every search and sweep evaluates through ``_Rows``: no scalar
    # evaluator of the term layer is imported into decide or named there
    tree = ast.parse(Path(decide.__file__).read_text(encoding="utf-8"))
    names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             for alias in node.names}
    names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert "eval_postfix" not in names


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
    monkeypatch.setattr(config, "DEFAULT", config.DEFAULT._replace(budget=5000))
    A, widths = ALGEBRAS["free:1,2"], widest_rows(monkeypatch)
    want = outcome(ref_quasi_pruned, WIDE, A)
    assert want.startswith("pruned search: ")
    assert outcome(_quasi_pruned, WIDE, A) == want
    assert max(widths) <= 5000


# x1 | (x2 & x2*) = 1 keeps values of x2 only where x1 = 1, and x3* = x2 pins
# x3 to the star preimages of x2: a chunk cut short by the budget right after
# x1 = 1 has no node at x3's depth, and leaves every node below it to the
# next chunk; such chunks replay at every budget
LATE_STAR = QuasiIdentity((Equation(Join(Var(1), Meet(Var(2), Star(Var(2)))), ONE),
                           Equation(Star(Var(3)), Var(2))),
                          Equation(Join(Var(4), Var(3)), Var(4)))


@pytest.mark.parametrize("spec", ["si:2", "si:3"])
def test_a_chunk_cut_short_above_the_pin_replays_at_every_budget(spec, monkeypatch):
    A, ample = ALGEBRAS[spec], config.DEFAULT
    U = ref_quasi_pruned(LATE_STAR, A, (1, 2, 3, 4)).budget_used
    for budget in range(1, U + 1):
        monkeypatch.setattr(config, "DEFAULT", ample._replace(budget=budget))
        assert outcome(_quasi_pruned, LATE_STAR, A) == outcome(ref_quasi_pruned, LATE_STAR, A), \
            budget


def test_wide_pools_are_rows_per_prefix(monkeypatch):
    # no premises over three variables: every pool is all of A, so each
    # (x1, x2) prefix gets its own row over A instead of a share of one
    # |A|^2-wide row; the conclusion holds at x1 = 0 and fails at x1 = 1
    A, widths = ALGEBRAS["free:1,2"], widest_rows(monkeypatch)
    q = QuasiIdentity((), Equation(Join(Var(1), Meet(Meet(Var(2), Var(3)), ZERO)), ZERO))
    v = _quasi_pruned(q, A, (1, 2, 3))
    assert v == ref_quasi_pruned(q, A, (1, 2, 3))
    assert max(widths) == A.size


# ------------------------------------------- one row step, grouped two ways
#
# Each depth runs one row step over groups of prefixes: a group per prefix
# where the pools are wide, one group for all prefixes where they are
# narrow.  The cases below replay it where both groupings meet in one
# search, where the witness lies in a later group, and at every budget
# crossing inside either kind of group; each is run with the groupings as
# they fall and with every depth forced to one grouping or the other.

# x2 pinned to x1* (narrow), x3 free over free:1,2 (wide), x4 pinned to
# x3 & x2 (narrow); the conclusion fails at x1 = 1, x3 = 1
MIXED = QuasiIdentity((Equation(Var(2), Star(Var(1))),
                       Equation(Var(4), Meet(Var(3), Var(2)))),
                      Equation(Var(4), Var(3)))

# x2 filtered to the regular elements inside each wide group; the
# conclusion holds for every x2 at x1 = 0 and x1 = 1 and fails at x1 = 2,
# the second group of the chunk {1, 2}
LATER_GROUP = QuasiIdentity((Equation(Star(Star(Var(2))), Var(2)),),
                            Equation(Join(Join(Var(1), Star(Var(1))), Star(Var(2))), ONE))


@pytest.mark.parametrize("wide", [0, decide._WIDE, 10 ** 9], ids=["all-wide", "as-is", "all-narrow"])
def test_grouped_row_step_replays(wide, monkeypatch):
    monkeypatch.setattr(decide, "_WIDE", wide)
    A = ALGEBRAS["free:1,2"]
    v = _quasi_pruned(MIXED, A, (1, 2, 3, 4))
    assert v == ref_quasi_pruned(MIXED, A, (1, 2, 3, 4))
    assert v.witness["valuation"] == {"x1": 1, "x2": 106, "x3": 1, "x4": 0}
    v = _quasi_pruned(LATER_GROUP, A, (1, 2))
    assert v == ref_quasi_pruned(LATER_GROUP, A, (1, 2))
    assert v.witness["valuation"] == {"x1": 2, "x2": 6}


@pytest.mark.parametrize("wide", [0, decide._WIDE, 10 ** 9], ids=["all-wide", "as-is", "all-narrow"])
def test_grouped_row_step_budget_errors_replay(wide, monkeypatch):
    # every charge of the reference is a crossing, inside the wide groups
    # of x3 and the narrow ones of x2 and x4 alike
    monkeypatch.setattr(decide, "_WIDE", wide)
    A, ample = ALGEBRAS["free:1,2"], config.DEFAULT
    for q in (MIXED, LATER_GROUP):
        steps = charge_steps(q, A, monkeypatch)
        for budget in sorted({used for used, amount, times in steps if amount * times}):
            monkeypatch.setattr(config, "DEFAULT", ample._replace(budget=budget))
            assert outcome(_quasi_pruned, q, A) == error_at(steps, budget), (q, budget)
        monkeypatch.setattr(config, "DEFAULT", ample)

# ------------------------------------------------------- deep searches
#
# A search hundreds of variables deep keeps its nodes on a stack of its own,
# not on the interpreter's: it ends in its verdict or its budget error, as
# the reference does when it is given room to recurse.

def qi_file(tmp_path, premises, conclusion):
    path = tmp_path / "q.json"
    path.write_text(json.dumps({
        "premises": [{"lhs": l, "rhs": r} for l, r in premises],
        "conclusion": {"lhs": conclusion[0], "rhs": conclusion[1]}}))
    return str(path)


def test_a_deep_chain_of_pins_runs_out_of_budget(tmp_path, monkeypatch, capsys):
    # x_j = x_{j-1}* for j = 2..700: one candidate per depth below x1, so
    # the second chunk of x1's values crosses the budget 699 depths down
    monkeypatch.delattr(config, "DEFAULT")  # read again on first use
    monkeypatch.setenv("PALGEBRA_BUDGET", "3000")
    path = qi_file(tmp_path, [(f"x{j}", f"x{j - 1}*") for j in range(2, 701)], ("x700", "x1"))
    assert main(["qi", path, "--algebra", "si:1", "--strategy", "pruned"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert json.loads(out.err) == {"error": "budget-exceeded", "what": "pruned search",
                                   "needed": 3001, "budget": 3000}


def test_deep_unpinned_depths_find_their_witness(tmp_path, capsys):
    # x_j & x_j = x_j filters nothing: every depth keeps all of chain:3, so
    # each first child's subtree outgrows |A|^2 and is searched on its own
    path = qi_file(tmp_path, [(f"x{j} & x{j}", f"x{j}") for j in range(1, 601)], ("x600", "x1"))
    assert main(["qi", path, "--algebra", "chain:3", "--strategy", "pruned"]) == 1
    out = capsys.readouterr()
    assert out.err == ""
    verdict = json.loads(out.out)
    assert (verdict["holds"], verdict["method"], verdict["budgetUsed"]) == (False, "pruned", 3004)
    valuation = verdict["witness"].pop("valuation")
    assert valuation == {**{f"x{j}": 0 for j in range(1, 600)}, "x600": 1}
    assert verdict["witness"] == {"conclusion": {"lhs": 1, "rhs": 0}}


# ------------------------------------------------- the star-pin lookahead
#
# Where a star pin x_j* = S closes at x_{j-1}'s depth, x_{j-1} not the
# first variable, a candidate for x_{j-1} whose S has no star preimage is
# cut there, never becoming a prefix at x_j's depth, and is charged nothing
# past the closing filter it passed; the reference skips it the same way.
# The cut is the same at every ``_WIDE``, which only groups prefixes: the
# ``cut-everywhere`` cases run with ``_WIDE`` = 0, every prefix a group of
# its own, the ``as-is`` cases with the grouping as it falls.

_REF = {}


def ref_outcome(q, spec):
    """The reference's outcome at the default budget, once per case."""
    key = (json.dumps(q.to_json_dict()), spec)
    if key not in _REF:
        _REF[key] = outcome(ref_quasi_pruned, q, ALGEBRAS[spec])
    return _REF[key]


class CutLog:
    """Counts the candidates the lookahead cuts: those ``_Rows.within``
    finds without a star preimage."""

    def __init__(self, monkeypatch):
        self.cuts, within = 0, decide._Rows.within

        def logged(rows, code, allowed, val, v, xs):
            ok = within(rows, code, allowed, val, v, xs)
            self.cuts += ok.count(False)
            return ok

        monkeypatch.setattr(decide._Rows, "within", logged)


@pytest.mark.parametrize("wide", [0, decide._WIDE], ids=["cut-everywhere", "as-is"])
@pytest.mark.parametrize("spec", SPECS)
def test_qb_n_replays_with_the_lookahead(spec, wide, monkeypatch):
    monkeypatch.setattr(decide, "_WIDE", wide)
    log = CutLog(monkeypatch)
    for n in (2, 3, 4):
        q = qb_quasi_identity(n)
        assert outcome(_quasi_pruned, q, ALGEBRAS[spec]) == ref_outcome(q, spec), n
    assert log.cuts  # qb_3 and qb_4 pin their last variable by S = x1 | ... | x_{n-1}


def star_pinned_quasi(rng):
    """x_k* = S for an S over x1..x_{k-1} that holds x_{k-1}, so that the pin
    closes one depth early, among 0-2 premises of the other shapes."""
    k = rng.choice((3, 3, 4))
    s = term_over(rng, k - 1)
    s = rng.choice((Join(s, Var(k - 1)), Meet(Var(k - 1), s), Join(Var(k - 2), Var(k - 1))))
    pin = Equation(Star(Var(k)), s) if rng.random() < 0.5 else Equation(s, Star(Var(k)))
    others = [premise(rng, rng.choice(SHAPES), rng.randint(1, k), k)
              for _ in range(rng.randint(0, 2))]
    others.insert(rng.randint(0, len(others)), pin)
    return QuasiIdentity(tuple(others), Equation(term_over(rng, k), term_over(rng, k)))


@pytest.mark.parametrize("wide", [0, decide._WIDE], ids=["cut-everywhere", "as-is"])
def test_star_pinned_corpus_replays(wide, monkeypatch):
    # a small budget keeps the searches short and replays budget errors too
    monkeypatch.setattr(config, "DEFAULT", config.DEFAULT._replace(budget=20_000))
    monkeypatch.setattr(decide, "_WIDE", wide)
    log = CutLog(monkeypatch)
    rng, errors, cases = random.Random(28), 0, 0
    for spec in SPECS:
        for _ in range(20):
            q = star_pinned_quasi(rng)
            want = outcome(ref_quasi_pruned, q, ALGEBRAS[spec])
            assert outcome(_quasi_pruned, q, ALGEBRAS[spec]) == want, (spec, q)
            errors += isinstance(want, str)
            cases += 1
    assert 0 < errors < cases // 3
    assert log.cuts >= 100


# x1 | x1* = x1 keeps x1 at the dense elements, the first of them below 1
# in si:n, so S = x1 | x2 has no star preimage at the first candidate: the
# first candidate for x2 is cut
FIRST_CUT = QuasiIdentity((Equation(Join(Var(1), Star(Var(1))), Var(1)),
                           Equation(Star(Var(3)), Join(Var(1), Var(2)))),
                          Equation(Join(Var(3), Var(2)), Join(Var(2), Var(3))))


@pytest.mark.parametrize("spec", ["si:2", "si:3", "chain:4"])
def test_lookahead_budget_errors_replay_at_every_crossing(spec, monkeypatch):
    # every charge of the reference is a crossing: the same error at each,
    # where a chunk's sum crosses and its walk passes over cut candidates
    monkeypatch.setattr(decide, "_WIDE", 0)
    A, ample, rng = ALGEBRAS[spec], config.DEFAULT, random.Random(spec)
    qs = [qb_quasi_identity(3), qb_quasi_identity(4), FIRST_CUT]
    qs += [star_pinned_quasi(rng) for _ in range(6)]
    log = CutLog(monkeypatch)
    for q in qs:
        monkeypatch.setattr(config, "DEFAULT", ample)
        steps = charge_steps(q, A, monkeypatch)
        assert outcome(_quasi_pruned, q, A) == outcome(ref_quasi_pruned, q, A)
        for budget in sorted({used for used, amount, times in steps if amount * times}):
            monkeypatch.setattr(config, "DEFAULT", ample._replace(budget=budget))
            assert outcome(_quasi_pruned, q, A) == error_at(steps, budget), (q, budget)
    assert log.cuts


def test_qb3_cuts_dead_prefixes_one_depth_early(monkeypatch):
    # prefixes at x3's depth, counted as the width of the rows the pin side
    # x1 | x2 is read over there: 2,557 without the lookahead, 31 with it
    pin_side = compile_postfix(Join(Var(1), Var(2)))
    widths, rows = [], decide._Rows.eval

    def eval(self, code, val, v=None, xs=()):
        if code == pin_side and v is None:
            widths.append(len(val[1]))
        return rows(self, code, val, v, xs)

    monkeypatch.setattr(decide._Rows, "eval", eval)
    A, q = ALGEBRAS["free:4,2"], qb_quasi_identity(3)
    assert _quasi_pruned(q, A, (1, 2, 3)) == ref_quasi_pruned(q, A, (1, 2, 3))
    assert 0 < sum(widths) <= 64
    widths.clear()
    monkeypatch.setattr(decide, "_lookahead", lambda sides, v: None)
    assert _quasi_pruned(q, A, (1, 2, 3)).budget_used == 2_448_246
    assert sum(widths) == 2_557


# x4 ranges over all of A below the pin x3* = x1 | x2, so a chunk of four
# x1 values passes |A|^2 prefixes at x4's depth and keeps its leading ones:
# the candidates at x2's depth under the x1 values it drops are filtered,
# cut and charged in the chunks that search them, not there
CAP_CUT = QuasiIdentity((Equation(Star(Var(3)), Join(Var(1), Var(2))),),
                        Equation(Join(Var(4), Var(3)), Join(Var(3), Var(4))))

# x1 | (x2 & x2*) = 1 keeps values of x2 only at x1 = 1, x2 | x2* = x2 keeps
# the dense ones, and x3* = x2 cuts the first of them below 1; x4 and x5
# range over all of A.  A chunk of the x1 just before 1 and 1 itself, kept
# short by the budget at x5's depth, keeps only that x1 and leaves the cut
# to the next chunk
LATE_CUT = QuasiIdentity((Equation(Join(Var(1), Meet(Var(2), Star(Var(2)))), ONE),
                          Equation(Join(Var(2), Star(Var(2))), Var(2)),
                          Equation(Star(Var(3)), Var(2))),
                         Equation(Join(Join(Var(4), Var(3)), Var(5)),
                                  Join(Var(5), Join(Var(3), Var(4)))))


@pytest.mark.parametrize("spec", ["si:3", "chain:5", "dist:3"])
def test_a_chunk_kept_short_by_the_cap_replays_its_cuts(spec, monkeypatch):
    monkeypatch.setattr(decide, "_WIDE", 0)
    log = CutLog(monkeypatch)
    A = ALGEBRAS[spec]
    assert outcome(_quasi_pruned, CAP_CUT, A) == outcome(ref_quasi_pruned, CAP_CUT, A)
    assert log.cuts


@pytest.mark.parametrize("spec", ["si:2", "si:3"])
def test_a_chunk_kept_short_before_its_cut_replays_at_every_budget(spec, monkeypatch):
    monkeypatch.setattr(decide, "_WIDE", 0)
    log = CutLog(monkeypatch)
    A, ample = ALGEBRAS[spec], config.DEFAULT
    U = ref_quasi_pruned(LATE_CUT, A, (1, 2, 3, 4, 5)).budget_used
    for budget in range(1, U + 1):
        monkeypatch.setattr(config, "DEFAULT", ample._replace(budget=budget))
        assert outcome(_quasi_pruned, LATE_CUT, A) == outcome(ref_quasi_pruned, LATE_CUT, A), \
            budget
    assert log.cuts


@pytest.mark.parametrize("corpus", ["shaped", "star-pinned"])
def test_the_lookahead_changes_no_verdict_and_raises_no_charge(corpus, monkeypatch):
    # the search with its lookahead off is an oracle for the one with it on:
    # the same verdict and witness and no lower ``budgetUsed``, and a budget
    # error with the lookahead on fires with it off too, at the same budget
    monkeypatch.setattr(config, "DEFAULT", config.DEFAULT._replace(budget=20_000))
    rng, quasi = ((random.Random(10), shaped_quasi) if corpus == "shaped" else
                  (random.Random(28), star_pinned_quasi))
    dropped = errors = 0
    for spec in SPECS:
        for _ in range(20):
            q, A = quasi(rng), ALGEBRAS[spec]
            on = outcome(_quasi_pruned, q, A)
            with monkeypatch.context() as m:
                m.setattr(decide, "_lookahead", lambda sides, v: None)
                off = outcome(_quasi_pruned, q, A)
            if isinstance(on, str):
                assert isinstance(off, str), (spec, q)
                errors += 1
            elif isinstance(off, dict):
                used_on, used_off = on.pop("budgetUsed"), off.pop("budgetUsed")
                assert on == off and used_on <= used_off, (spec, q)
                dropped += used_on < used_off
    assert errors and dropped
