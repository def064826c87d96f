"""The index layer as one object per level and rank: ``free.Skeleton``."""

import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import palgebra
from palgebra import (
    CapExceeded,
    JIndex,
    Join,
    Meet,
    Star,
    atom_term,
    build_free,
    config,
    enumerate_jindices,
    free,
    free_elements,
    free_skeleton,
    h3_poset,
    max_var,
    normal_form,
    parse,
    random_term,
    to_text,
)
from palgebra.cli import main

from .helpers import ref_gen_masks, ref_normal_form, ref_to_text
from .test_upset_masks import TERMS_34

GEN_CASES = [(n, k) for k in range(4) for n in (0, 1, 2, 3, None)] + [(3, 4)]


def subterms(t):
    stack = [t]
    while stack:
        t = stack.pop()
        yield t
        if isinstance(t, (Meet, Join)):
            stack += [t.left, t.right]
        elif isinstance(t, Star):
            stack.append(t.arg)


@pytest.mark.parametrize("n, k", GEN_CASES, ids=[f"{n},{k}" for n, k in GEN_CASES])
def test_gen_masks_replay_the_reference(n, k):
    skeleton = free_skeleton(n, k)
    assert skeleton.gen_masks == ref_gen_masks(skeleton.indices, k)


def test_each_level_and_rank_is_built_once():
    # levels 4 and 9 over two variables are both the saturated key 4;
    # omega keeps a key of its own
    free._skeleton.cache_clear()
    levels = [(0, 2), (1, 1), (2, 2), (4, 2), (9, 2), (None, 2)]
    for n, k in levels:
        free_elements([parse("x1 | x1*")], n, k)
        normal_form(parse("x1 & x1**"), n, k)
        build_free(n, k)
        h3_poset(n, k)
    info = free._skeleton.cache_info()
    assert (info.misses, info.currsize) == (5, 5)
    assert info.hits == 4 * len(levels) - 5


def test_build_free_keeps_the_skeleton_objects():
    for n, k in [(0, 2), (1, 2), (2, 2), (None, 1)]:
        skeleton, F = free_skeleton(n, k), build_free(n, k)
        assert F.indices is skeleton.indices
        assert F.poset is skeleton.poset
        assert F.gen_masks is skeleton.gen_masks


def test_first_field_is_the_indices():
    # bench/tracing.py's hook on free_skeleton counts len(result[0])
    skeleton = free_skeleton(2, 2)
    assert skeleton[0] is skeleton.indices and len(skeleton[0]) == 17


def test_index_terms_share_their_atoms():
    k = 2
    holders = {}
    for j in free_skeleton(2, k).indices:
        if 1 < len(j.tees) < 1 << k:  # the families written with atoms
            for T in j.tees:
                assert any(sub is atom_term(T, k) for sub in subterms(j.term())), (j, T)
                holders[T] = holders.get(T, 0) + 1
    assert max(holders.values()) >= 2  # so two index terms hold one atom object


INDEX_LEVELS = GEN_CASES + [(2, 4)]


@pytest.mark.parametrize("n, k", INDEX_LEVELS, ids=[f"{n},{k}" for n, k in INDEX_LEVELS])
def test_enumerated_indices_pass_the_checks(n, k):
    """enumerate_jindices makes its indices without JIndex's checks; each
    one rebuilt through them is equal, field by field."""
    indices = enumerate_jindices(n, k)
    rebuilt = [JIndex(k, j.tees, j.ell) for j in indices]
    assert rebuilt == indices
    assert [hash(j) for j in rebuilt] == [hash(j) for j in indices]
    assert all(type(j.tees) is tuple and type(j.ell) is int and j.k == k for j in indices)


@pytest.mark.parametrize("n, k", GEN_CASES, ids=[f"{n},{k}" for n, k in GEN_CASES])
def test_index_terms_are_built_once(n, k):
    free._skeleton.cache_clear()
    skeleton = free_skeleton(n, k)
    assert skeleton.terms == [None] * len(skeleton.indices)
    for p, j in enumerate(skeleton.indices):
        t = skeleton.term(p)
        assert t == j.term()
        assert skeleton.term(p) is t
    assert None not in skeleton.terms
    free._skeleton.cache_clear()  # and the terms go with the skeleton
    assert free_skeleton(n, k).terms == [None] * len(skeleton.indices)


def test_normal_forms_and_labels_read_the_skeleton_terms():
    free._skeleton.cache_clear()
    skeleton = free_skeleton(2, 2)
    form = normal_form(parse("x1 | x2*"), 2)
    joinands = [u for u in subterms(form) if any(u is t for t in skeleton.terms)]
    assert len(joinands) >= 2
    F = build_free(2, 2)
    assert None not in skeleton.terms  # filled by build_free's labels
    assert F.algebra.labels == tuple(map(to_text, skeleton.terms))


def test_one_free_algebra_per_skeleton():
    # levels 4, 5 and 6 over two variables share the saturated skeleton
    free._skeleton.cache_clear()
    A = build_free(4, 2).algebra
    assert build_free(6, 2).algebra is A
    assert build_free(5, 2).algebra is A
    assert free_skeleton(4, 2).carrier == [A]
    assert build_free(3, 2).algebra is not A  # a skeleton of its own
    free._skeleton.cache_clear()  # and the algebra goes with the skeleton
    assert free_skeleton(4, 2).carrier == [None]
    B = build_free(4, 2).algebra
    assert B is not A and B.elements == A.elements and B.labels == A.labels


def test_a_lowered_element_cap_fires_on_a_cached_algebra(monkeypatch):
    # free:3,2 has 625 elements; a cap below that is checked on each call,
    # outside the cache, with the text of the build that passes it
    free._skeleton.cache_clear()
    A = build_free(3, 2).algebra
    monkeypatch.setattr(config, "DEFAULT", config.DEFAULT._replace(element_cap=600))
    with pytest.raises(CapExceeded) as warm:
        build_free(3, 2)
    free._skeleton.cache_clear()
    with pytest.raises(CapExceeded) as cold:
        build_free(3, 2)
    assert str(warm.value) == str(cold.value) == "upset count: 601 exceeds cap 600"
    assert (warm.value.count, warm.value.cap) == (cold.value.count, cold.value.cap)
    monkeypatch.undo()
    assert build_free(3, 2).algebra.elements == A.elements


def test_a_report_after_another_prints_the_bytes_it_prints_alone(capsys):
    # report 5 reads the free algebras report 4 built; run alone, in a
    # fresh process, it builds them itself
    src = str(Path(palgebra.__file__).parents[1])
    alone = subprocess.run([sys.executable, "-m", "palgebra", "report", "5"],
                           capture_output=True, env={**os.environ, "PYTHONPATH": src},
                           timeout=120)
    assert alone.returncode == 0, alone.stderr
    free._skeleton.cache_clear()
    assert main(["report", "4"]) == 0
    capsys.readouterr()
    assert main(["report", "5"]) == 0
    assert capsys.readouterr().out.encode() == alone.stdout


# The identity workload's strata (level, variables), every term mentioning
# its top variable, and the level-3, 4-variable terms.
STRATA = [(1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (None, 2), (None, 3)]


def stratum_terms(n, k, count=12):
    rng = random.Random(f"stratum:{n},{k}")
    out = []
    while len(out) < count:
        t = random_term(rng, rng.randint(3, 4), k)
        if max_var(t) == k:
            out.append(t)
    return out


def corpus_forms():
    cases = [(t, n) for n, k in STRATA for t in stratum_terms(n, k)]
    return cases + [(parse(t), 3) for t in TERMS_34]


def test_normal_forms_replay_the_reference_on_the_workload_strata():
    for t, n in corpus_forms():
        got, want = normal_form(t, n), ref_normal_form(t, n)
        assert got == want, (to_text(t), n)
        assert to_text(got) == ref_to_text(want), (to_text(t), n)


def test_normal_forms_print_recurring_meets():
    # so the replays here take to_text's path for a meet seen three times
    # and more: index terms share their atoms x_T
    recurring = 0
    for t, n in corpus_forms():
        visits = Counter(id(u) for u in subterms(normal_form(t, n)) if type(u) is Meet)
        recurring += max(visits.values(), default=0) >= 3
    assert recurring >= 40


@pytest.mark.parametrize("pretty", [False, True])
def test_to_text_replays_the_recursive_printer(pretty):
    rng = random.Random("to_text")
    terms = [random_term(rng, rng.randint(0, 7), rng.randint(1, 5)) for _ in range(400)]
    terms += [normal_form(t, n) for t, n in corpus_forms()]
    for t in terms:
        assert to_text(t, pretty=pretty) == ref_to_text(t, pretty=pretty)
