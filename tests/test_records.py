"""Term nodes, indices and result records are plain slotted classes built on
``records.Record``: exact-class equality, the field-tuple hash, field reprs,
no assignment, pickling, and term nodes no larger than before."""

import dataclasses
import inspect
import pickle
import sys

import pytest

import palgebra.cli  # noqa: F401  (every module of the package is loaded)
from palgebra import (
    ONE,
    ZERO,
    CmRecord,
    Equation,
    JIndex,
    Join,
    Meet,
    QuasiIdentity,
    Quotient,
    Star,
    StoneDecomposition,
    Term,
    Var,
    Verdict,
    Violation,
    Zero,
)
from palgebra.records import Record

X1 = Var(1)
EQ = Equation(X1, ZERO)
SAMPLES = [
    (Term(), "Term()"),
    (ZERO, "Zero()"),
    (ONE, "One()"),
    (X1, "Var(index=1)"),
    (Meet(X1, ONE), "Meet(left=Var(index=1), right=One())"),
    (Join(ZERO, X1), "Join(left=Zero(), right=Var(index=1))"),
    (Star(X1), "Star(arg=Var(index=1))"),
    (JIndex(2, (1, 3), 1), "JIndex(k=2, tees=(1, 3), ell=1)"),
    (EQ, "Equation(lhs=Var(index=1), rhs=Zero())"),
    (QuasiIdentity((EQ,), EQ),
     "QuasiIdentity(premises=(Equation(lhs=Var(index=1), rhs=Zero()),), "
     "conclusion=Equation(lhs=Var(index=1), rhs=Zero()))"),
    (Verdict(False, None, "pruned", 7),
     "Verdict(holds=False, witness=None, method='pruned', budget_used=7)"),
    (CmRecord("mu", "mu+", "II", 6, 2, 0),
     "CmRecord(mu='mu', mu_plus='mu+', storey='II', one_mask=6, psi=2, e_mu=0)"),
    (Violation("distributive", (1, 2, 3)), "Violation(law='distributive', witness=(1, 2, 3))"),
    (Quotient("A", (0, 0, 1), (0, 2)), "Quotient(algebra='A', proj=(0, 0, 1), reps=(0, 2))"),
    (StoneDecomposition(1, (0, 1), ("D0", "D1"), "elements", (0, 1, 2)),
     "StoneDecomposition(k=1, subset_masks=(0, 1), factors=('D0', 'D1'), level='elements', "
     "iso=(0, 1, 2))"),
]
IDS = [type(x).__name__ for x, _ in SAMPLES]


def values(x):
    return tuple(getattr(x, name) for name in type(x)._fields)


@pytest.mark.parametrize("x, text", SAMPLES, ids=IDS)
def test_record_semantics(x, text):
    cls = type(x)
    assert repr(x) == text
    assert x == cls(*values(x)) and hash(x) == hash(values(x))
    # equal fields in another class, a subclass included, are not equal
    twin = type("Twin", (Record,), {"__slots__": cls._fields})(*values(x))
    sub = type("Sub", (cls,), {"__slots__": ()})(*values(x))
    assert x != twin and twin != x and x != sub and sub != x
    assert x.__eq__(values(x)) is NotImplemented
    for name in (*cls._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(x, name, 0)
    for name in cls._fields:
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert repr(x) == text
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(x, protocol))
        assert type(back) is cls and back == x and repr(back) == text


def test_construction_by_keyword_and_default():
    assert Verdict(True, None, "normal-form") == Verdict(True, None, "normal-form", 0)
    assert Verdict(holds=True, method="exhaustive", witness=None).budget_used == 0
    assert CmRecord("mu", "mu+", "I", 1, psi=1, e_mu=2).e_mu == 2
    for args, kwargs in [((1,), {}), ((1, 2, 3), {}), ((1,), {"lhs": 2}),
                         ((1, 2), {"side": 3})]:
        with pytest.raises(TypeError):
            Equation(*args, **kwargs)


def test_term_nodes_keep_their_size():
    sizes = {type(x).__name__: sys.getsizeof(x) for x in (X1, Meet(X1, X1), Join(X1, X1),
                                                          Star(X1), ZERO, ONE)}
    assert sizes == {"Var": 40, "Meet": 48, "Join": 48, "Star": 40, "Zero": 32, "One": 32}
    assert not hasattr(X1, "__dict__") and not hasattr(Zero(), "__dict__")


def test_no_class_is_a_dataclass():
    # config.Config is a NamedTuple, so importing the CLI imports no
    # dataclasses (test_stdlib_only.py)
    found = {obj for mod in list(sys.modules.values())
             if mod is not None and mod.__name__.split(".")[0] == "palgebra"
             for obj in vars(mod).values()
             if inspect.isclass(obj) and dataclasses.is_dataclass(obj)
             and obj.__module__.startswith("palgebra")}
    assert found == set()
