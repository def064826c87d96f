"""Identities decided on free-algebra elements: ``free.free_elements``
round-trips every element through its written-out normal form,
``check_identity`` and the oracle harness replay the tree comparison they
replaced, and a guard that ``decide`` never names ``normal_form``."""

import ast
import random
from pathlib import Path

import pytest

import palgebra
from palgebra import (
    ONE,
    ZERO,
    BudgetExceeded,
    Equation,
    Join,
    Star,
    build_free,
    check_identity,
    free_elements,
    ib_term,
    join_all,
    min_elements,
    normal_form,
    oracle_equivalence,
    parse,
    random_term,
    to_text,
)
from palgebra import decide
from palgebra.posets import bit_indices
from .helpers import ref_check_identity, ref_pair_report

ROUND_TRIP = [(0, 2), (1, 1), (2, 1), (1, 2), (2, 2), (None, 1), (None, 2)]


@pytest.mark.parametrize("n, k", ROUND_TRIP, ids=[f"{n},{k}" for n, k in ROUND_TRIP])
def test_every_element_round_trips_through_its_written_out_term(n, k):
    """Comparing elements decides what comparing normal-form trees did: the
    term written out at an element's minimal indices maps back to it, and
    distinct elements are written out as distinct texts."""
    F = build_free(n, k)
    elements = [F.algebra.mask(e) for e in range(F.size)]
    terms = [join_all([F.indices[p].term() for p in bit_indices(min_elements(F.poset, U))])
             for U in elements]
    assert free_elements(terms, n, k) == elements
    texts = {to_text(t) for t in terms}
    assert len(texts) == F.size


LEVELS = [0, 1, 2, 3, None]

# Level 3 over four variables (1,161 indices): laws instantiated and fixed
# pairs, half of which fail.
PAIRS_34 = [("x1 & x2 | x3 & x4", "(x1 | x3) & (x2 | x4)"),
            ("(x1 & x2)* | x3**", "x1* | x2* | x3 & x4"),
            ("(x1 | x2 | x3 | x4)**", "x1** | x2** | x3** | x4**"),
            ("x1 & x2* & (x3 | x4*)", "x1 & (x2 & x3)* & x4"),
            ("x1 & ((x2 | x4*) | x3 & x4)", "x1 & (x2 | x4*) | x1 & (x3 & x4)"),
            ("(x1 & (x2 | x4*))**", "x1** & (x2 | x4*)**"),
            ("((x3 & x4) | x1)*", "(x3 & x4)* & x1*"),
            ("(x2 | x4*)***", "(x2 | x4*)*")]


def identity_cases():
    """(equation, level): seeded random pairs with k <= 3 at every level,
    mixed with pairs that hold everywhere, at low levels only, or at one
    level and not the next; then the level-(3,4) pairs."""
    cases = []
    for n in LEVELS:
        rng = random.Random(f"eq:{n}")
        for k in (1, 2, 3):
            for _ in range(8):
                a = random_term(rng, rng.randint(1, 4), k)
                b = random_term(rng, rng.randint(1, 4), k)
                pairs = [(a, b), (Star(a), Star(Star(Star(a)))), (Join(a, b), Join(b, a)),
                         (Star(Star(a)), a), (Join(Star(a), Star(Star(a))), ONE)]
                cases += [(Equation(l, r), n) for l, r in pairs]
        cases += [(Equation(ZERO, ONE), n), (Equation(Star(ZERO), ONE), n)]
        cases += [(Equation(ib_term(m), ONE), n) for m in (1, 2)]
    return cases + [(Equation(parse(l), parse(r)), 3) for l, r in PAIRS_34]


def outcome(decide_identity, e, n, want_witness):
    try:
        return decide_identity(e, n, want_witness=want_witness).to_json_dict()
    except BudgetExceeded as exc:  # the omega sweep at k = 3
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("want_witness", [False, True])
def test_check_identity_replays_the_tree_comparison(want_witness):
    verdicts = {}
    for e, n in identity_cases():
        got = outcome(check_identity, e, n, want_witness)
        assert got == outcome(ref_check_identity, e, n, want_witness), (e.to_json_dict(), n)
        key = got[0] if isinstance(got, tuple) else (got["holds"], got["method"])
        verdicts[key] = verdicts.get(key, 0) + 1
    # both answers are reached by both routes
    assert verdicts[True, "normal-form"] > 100
    assert verdicts[False, "normal-form" if not want_witness else "exhaustive"] > 100


ORACLE_RUNS = [(n, k) for n in (0, 1, 2, 3) for k in (1, 2, 3)] + [(None, 1), (None, 2)]


@pytest.mark.parametrize("n, k", ORACLE_RUNS, ids=[f"{n},{k}" for n, k in ORACLE_RUNS])
def test_oracle_equivalence_replays_the_tree_comparison(monkeypatch, n, k):
    args = (parse("x1 | x1*"), ONE, n)
    kwargs = dict(trials=40, seed=10 * (4 if n is None else n) + k, k=k, max_depth=4)
    got = oracle_equivalence(*args, **kwargs)
    monkeypatch.setattr(decide, "_pair_report", ref_pair_report)
    assert got == oracle_equivalence(*args, **kwargs)
    assert got["agree"] is True


def test_decide_does_not_name_normal_form():
    """Verdicts compare free-algebra elements: decide writes no normal form
    out, so no verdict builds or compares a term tree."""
    path = Path(palgebra.__file__).parent / "decide.py"
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names |= {node.name, node.asname}
    assert "free_elements" in names
    assert "normal_form" not in names
