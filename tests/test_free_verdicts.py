"""Free-algebra verdicts are decided once per saturated level.

free:n,k is the same algebra for every n >= 2^k, so ``decide`` keeps each
verdict of ``_check_in_free`` under min(n, 2^k), with the compiled sides,
the strategy and the budget.  These tests replay the kept verdicts against
``ref_check_in_free``, which decides each check cold, and check that the
caps and budget still fire, and that a caller cannot change a kept verdict.
"""

import json
import random

import pytest

from palgebra import (BudgetExceeded, CapExceeded, Equation, QuasiIdentity, admissible_in_free,
                      config, parse, qb_quasi_identity, structural_completeness_report)
from palgebra import decide

from .helpers import clear_every_cache, ref_admissible_in_free, ref_check_in_free
from .test_limits import lower


def eq(lhs, rhs):
    return Equation(parse(lhs), parse(rhs))


QUASI = {
    "qb_2": qb_quasi_identity(2),
    "qb_3": qb_quasi_identity(3),
    # a dense element other than 1, in free:n,1 at every level from 1 on
    "dense": QuasiIdentity((eq("x1*", "0"),), eq("x1", "1")),
    # x1 and x1 | x1* have one star
    "stars": QuasiIdentity((eq("x1*", "x2*"),), eq("x1", "x2")),
}
LEVELS = [1, 2, 3, 4, 5, None]


def raised(call):
    """The type, what, count and budget or cap of the limit error call raises."""
    with pytest.raises((BudgetExceeded, CapExceeded)) as exc:
        call()
    e = exc.value
    if isinstance(e, BudgetExceeded):
        return BudgetExceeded, e.what, e.needed, e.budget
    return CapExceeded, e.what, e.count, e.cap


def test_reports_replay_the_cold_checks_in_any_order(monkeypatch):
    levels = list(range(9))
    with monkeypatch.context() as m:  # every free check decided by the reference
        m.setattr(decide, "_check_in_free", ref_check_in_free)
        want = {n: structural_completeness_report(n) for n in levels}
    assert [want[n]["admissibleInFree"][1]["verdict"]["budgetUsed"] for n in (3, 4, 8)] == \
        [424_344, 425_647, 425_647]
    for seed in (0, 1):  # the second pass reads what the first one kept
        random.Random(seed).shuffle(levels)
        for n in levels:
            got = structural_completeness_report(n)
            assert json.dumps(got) == json.dumps(want[n]), n


@pytest.mark.parametrize("name", QUASI)
def test_admissible_in_free_replays_the_cold_checks(name):
    q = QUASI[name]
    want = {n: ref_admissible_in_free(q, n) for n in LEVELS}
    assert name.startswith("qb") or not any(v.holds for v in want.values())
    for n in LEVELS + LEVELS[::-1]:
        got = admissible_in_free(q, n)
        assert got == want[n], n
        assert json.dumps(got.to_json_dict()) == json.dumps(want[n].to_json_dict()), n


def test_a_lowered_budget_refuses_a_kept_search(monkeypatch):
    used = structural_completeness_report(4)["admissibleInFree"][1]["verdict"]["budgetUsed"]
    lower(monkeypatch, budget=used - 1)
    got = raised(lambda: structural_completeness_report(5))
    clear_every_cache()  # as a fresh process finds them
    assert got == raised(lambda: structural_completeness_report(5))
    assert got == (BudgetExceeded, "pruned search", used, used - 1)
    assert got == raised(lambda: structural_completeness_report(5))  # an error is not kept
    lower(monkeypatch, budget=used)  # and the search fits its own count
    assert structural_completeness_report(5)["admissibleInFree"][1]["verdict"]["budgetUsed"] == used


def test_a_lowered_cap_refuses_a_kept_verdict(monkeypatch):
    ample = config.DEFAULT
    structural_completeness_report(4)
    q = qb_quasi_identity(3)
    kept = admissible_in_free(q, 4)
    assert kept.method == "pruned"  # from free:4,2
    lower(monkeypatch, element_cap=600)  # free:4,2 has 626 elements, free:4,1 7
    got = raised(lambda: structural_completeness_report(5))
    degraded = admissible_in_free(q, 4)
    clear_every_cache()
    assert got == raised(lambda: structural_completeness_report(5))
    assert got[0] is CapExceeded
    # admissible_in_free drops to free:4,1, as a cold run does
    assert degraded == ref_admissible_in_free(q, 4) != kept
    # a poset cap that refuses every rank refuses the kept free:2,1 verdict
    lower(monkeypatch, element_cap=ample.element_cap, poset_cap=1)
    assert raised(lambda: admissible_in_free(q, 4)) == (CapExceeded, "free algebra rank", 3, 0)


def test_a_caller_cannot_change_a_kept_witness():
    q = QUASI["stars"]
    want = ref_admissible_in_free(q, 3)
    first = admissible_in_free(q, 3)
    assert first == want and first.witness is not None
    first.witness["valuation"]["x1"] = 99
    first.witness["conclusion"].clear()
    doc = admissible_in_free(q, 3).to_json_dict()
    doc["witness"]["valuation"]["x2"] = 77
    doc["witness"]["extra"] = True
    again = admissible_in_free(q, 3)
    assert again == want
    assert again.witness is not admissible_in_free(q, 3).witness
