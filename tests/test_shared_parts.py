"""The index layer built once, from shared parts: the skeleton from one pass
of its enumeration, index terms from memoised heads, halves, meets and
literals, and the built-in carriers si:n, chain:m and dist:s once per size.
Each fast path is replayed against the code it replaced (``helpers``), and
each cache against a cold build."""

import sys

import pytest

import palgebra.cli  # noqa: F401  (every module of the package is loaded)
from palgebra import (
    CapExceeded,
    atom_term,
    chain_carrier,
    config,
    free,
    free_distributive,
    free_skeleton,
    si_carrier,
    terms,
)
from palgebra.terms import compile_postfix, family_head, to_text

from .helpers import ref_index_term, ref_skeleton

TERM_GRID = [(n, k) for k in range(4) for n in (0, 1, 2, 3, 4, None)] + [(2, 4), (3, 4)]
SKELETON_GRID = TERM_GRID + [(n, 4) for n in (0, 1, 4)]  # (2, 4) and (3, 4) are in already


def ids(grid):
    return [f"{n},{k}" for n, k in grid]


@pytest.mark.parametrize("n, k", TERM_GRID, ids=ids(TERM_GRID))
def test_index_terms_replay_the_reference(n, k):
    for j in free_skeleton(n, k).indices:
        t, ref = j.term(), ref_index_term(j.tees, j.ell, k)
        assert t == ref, j
        assert to_text(t) == to_text(ref), j
        assert compile_postfix(t) == compile_postfix(ref), j


@pytest.mark.parametrize("n, k", SKELETON_GRID, ids=ids(SKELETON_GRID))
def test_skeletons_replay_the_reference(n, k):
    # (4, 4) has 3,267 indices, over the poset cap: read past free_skeleton
    skeleton = free._skeleton(n, k)
    indices, up, down, gen_masks = ref_skeleton(n, k)
    assert skeleton.indices == indices
    assert skeleton.poset.up == up and skeleton.poset.down == down
    assert skeleton.gen_masks == gen_masks and type(skeleton.gen_masks) is tuple


def test_every_index_of_a_family_shares_its_head():
    k = 3
    by_family = {}
    for j in free_skeleton(None, k).indices:
        if 1 < len(j.tees) < 1 << k:  # the families written with a head
            t = j.term()
            by_family.setdefault(j.tees, []).append(t if j.ell == 0 else t.left)
    assert max(map(len, by_family.values())) > 1
    for fam, heads in by_family.items():
        assert all(h is family_head(fam, k) for h in heads), fam


def test_families_share_the_halves_of_their_joins():
    # the first half of (0, 1, 2, 5) is (0, 1), as is that of (0, 1, 3, 6)
    a = family_head((0, 1, 2, 5), 3).arg.arg
    b = family_head((0, 1, 3, 6), 3).arg.arg
    assert a.left is b.left and a.right is not b.right


CARRIERS = [(si_carrier, 3), (chain_carrier, 5), (free_distributive, 3)]


@pytest.mark.parametrize("make, size", CARRIERS, ids=["si:3", "chain:5", "dist:3"])
def test_a_carrier_is_built_once_per_size(make, size):
    A = make(size)
    assert make(size) is A
    A.star_classes()
    A.columns()
    assert make(size)._star_classes is A._star_classes is not None


@pytest.mark.parametrize("make, size, cap", [(si_carrier, 3, 8), (chain_carrier, 5, 4),
                                             (free_distributive, 3, 19)],
                         ids=["si:3", "chain:5", "dist:3"])
def test_a_lowered_element_cap_fires_on_a_cached_carrier(make, size, cap, monkeypatch):
    # the cap is checked on each call, outside the cache, with the text of
    # the build that passes it
    A = make(size)
    monkeypatch.setattr(config, "DEFAULT", config.DEFAULT._replace(element_cap=cap))
    with pytest.raises(CapExceeded) as warm:
        make(size)
    clear_every_cache()
    with pytest.raises(CapExceeded) as cold:
        make(size)
    assert str(warm.value) == str(cold.value)
    assert (warm.value.count, warm.value.cap) == (cold.value.count, cold.value.cap)
    assert warm.value.cap == cap
    monkeypatch.undo()
    assert make(size).elements == A.elements


def clear_every_cache():
    """Every ``cache_clear`` in palgebra's modules, as a round of the
    benchmark calls them to start cold."""
    for name, mod in list(sys.modules.items()):
        if name == "palgebra" or name.startswith("palgebra."):
            for obj in list(vars(mod).values()):
                clear = getattr(obj, "cache_clear", None)
                if callable(clear):
                    clear()


def test_clearing_every_cache_starts_cold():
    def built():
        skeleton = free_skeleton(2, 2)
        return {"si": si_carrier(2), "chain": chain_carrier(4), "dist": free_distributive(2),
                "skeleton": skeleton, "free": free.build_free(2, 2).algebra,
                "term": skeleton.term(len(skeleton.indices) - 1),
                "atom": atom_term(0b101, 3), "head": family_head((1, 3, 5), 3)}

    before = built()
    again = built()
    assert all(again[key] is before[key] for key in before)
    clear_every_cache()
    after = built()
    for key in before:
        assert after[key] is not before[key], key
    for key in ("si", "chain", "dist", "free"):
        assert after[key].elements == before[key].elements, key
    assert after["skeleton"].indices == before["skeleton"].indices
    assert all(after[key] == before[key] for key in ("term", "atom", "head"))


def test_the_term_memos_are_functools_caches():
    # so that clearing them is one cache_clear each, with no dict aside
    for fn in (terms.atom_term, terms.family_head, terms._atom_join, terms._literal,
               terms._variables_meet, free._skeleton):
        assert callable(fn.cache_clear) and fn.cache_info().maxsize is None
