"""The index layer as one object per level and rank: ``free.Skeleton``."""

import pytest

from palgebra import (
    Join,
    Meet,
    Star,
    atom_term,
    build_free,
    free,
    free_elements,
    free_skeleton,
    h3_poset,
    normal_form,
    parse,
)
from .helpers import ref_gen_masks

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
