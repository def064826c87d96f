"""``principal_congruence``, ``congruence_closure``, ``all_congruences`` and
``compatibility_witness`` read the dual of the upset carrier (the p-closed
sets of base points); ``helpers.ref_principal_congruence``,
``ref_congruence_closure`` and ``ref_all_congruences`` (the worklist closure
and the join-closure over the operations) replay them on the small corpus,
its table copies and relabelled table copies."""

import random

import pytest

from palgebra import (
    Congruence,
    MalformedTables,
    UpsetAlgebra,
    all_congruences,
    cm_all,
    compatibility_witness,
    congruence_closure,
    principal_congruence,
    to_table,
    validate,
)
from palgebra.cli import load_algebra

from .helpers import (brute_is_congruence, permuted, ref_all_congruences,
                      ref_compatibility_witness, ref_congruence_closure, ref_join,
                      ref_principal_congruence, small_corpus)
from .test_upset_carrier import lawless_tables


def corpus():
    out = []
    for name, A in small_corpus():
        out.append((name, A))
        if isinstance(A, UpsetAlgebra):
            out.append((f"{name} table", to_table(A)))
        out.append((f"{name} permuted", permuted(A, name)))
    return out


CORPUS = corpus()
IDS = [name for name, _ in CORPUS]
# the worklist closure costs |A|^2 operations a pair: every pair up to 40
# elements, a seeded sample above
SAMPLED = 40


def pairs_of(name, A):
    pairs = [(a, b) for a in range(A.size) for b in range(A.size)]
    if A.size > SAMPLED:
        pairs = random.Random(name).sample(pairs, 60)
    return pairs


@pytest.mark.parametrize("name, A", CORPUS, ids=IDS)
def test_principal_congruences_replay(name, A):
    for a, b in pairs_of(name, A):
        assert principal_congruence(A, a, b).rep == ref_principal_congruence(A, a, b).rep, (a, b)


@pytest.mark.parametrize("name, A", CORPUS, ids=IDS)
def test_closures_of_pair_lists_replay(name, A):
    rng = random.Random(name)
    for _ in range(8 if A.size > SAMPLED else 30):
        pairs = [(rng.randrange(A.size), rng.randrange(A.size)) for _ in range(rng.randrange(4))]
        assert congruence_closure(A, pairs).rep == ref_congruence_closure(A, pairs).rep, pairs


# the join-closure is exponential: carriers up to 40 elements
LATTICES = [(name, A) for name, A in CORPUS if A.size <= SAMPLED]


@pytest.mark.parametrize("name, A", LATTICES, ids=[name for name, _ in LATTICES])
def test_lattice_replays_in_order(name, A):
    lattice = all_congruences(A, cap=A.size)
    assert [c.rep for c in lattice] == [c.rep for c in ref_all_congruences(A, cap=A.size)]
    assert all(brute_is_congruence(A, c.rep) for c in lattice)


@pytest.mark.parametrize("spec", ["dist:3", "free:1,2", "free:2,1"])
def test_dual_test_replays_the_scan_near_congruences(spec):
    """The records' mu, the principal congruences of 12 sampled pairs and
    each of those with one entry moved: the same verdict and witness as the
    scan, on the carrier and its table copy."""
    A = load_algebra(spec)
    rng = random.Random(spec)
    reps = [r.mu.rep for r in cm_all(A)]
    for _ in range(12):
        rep = list(principal_congruence(A, rng.randrange(A.size), rng.randrange(A.size)).rep)
        reps.append(tuple(rep))
        rep[rng.randrange(A.size)] = rep[rng.randrange(A.size)]
        reps.append(Congruence(rep).rep)
    found = [ref_compatibility_witness(A, rep) for rep in reps]
    assert None in found and any(found)
    for B in (A, to_table(A)):
        assert [compatibility_witness(B, rep) for rep in reps] == found


def test_join_replays_the_old_union_find():
    rng = random.Random(36)
    for _ in range(300):
        n = rng.randrange(1, 40)
        theta, phi = (Congruence([rng.randrange(1 + rng.randrange(n)) for _ in range(n)])
                      for _ in range(2))
        assert theta.join(phi).rep == ref_join(theta, phi).rep


def test_a_lawless_table_is_refused():
    for T in lawless_tables(20):
        message = f"the tables violate the laws: {validate(T)[0]}"
        for closure in (lambda: principal_congruence(T, 0, 1),
                        lambda: congruence_closure(T, [(0, 1), (1, 2)]),
                        lambda: all_congruences(T)):
            with pytest.raises(MalformedTables) as exc:
                closure()
            assert str(exc.value) == message
