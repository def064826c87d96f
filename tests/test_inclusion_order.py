"""One inclusion-order builder: ``posets.inclusion_order`` replayed against
the pairwise orders it replaced, and guards that no order in the library is
built from pairwise ``leq`` calls."""

import ast
import random
from pathlib import Path

import pytest

import palgebra
from palgebra import (
    Poset,
    TableAlgebra,
    UpsetAlgebra,
    base_leq,
    build_free,
    free,
    free_distributive,
    free_skeleton,
    h3_poset,
    is_isomorphic,
    normal_form,
    parse,
    stone_decompose,
    to_upset,
)
from palgebra.cli import main
from palgebra.posets import inclusion_order
from .helpers import checked_poset, ref_h3_subset_leq
from .test_algebras import ORDER_CORPUS

SMALL = [(n, k) for k in range(4) for n in (0, 1, 2, 3, None)]
LEVELS = SMALL + [(2, 4), (3, 4), (2, 5)]


def random_masks(seed):
    """Distinct masks, the empty one included; many are drawn inside or
    around earlier ones, so inclusions are common even at wide widths."""
    rng = random.Random(seed)
    size, width = rng.randint(0, 60), rng.randint(0, 70)
    masks = {0}
    for _ in range(size):
        pick = rng.choice(sorted(masks))
        masks.add(rng.choice([rng.getrandbits(width), pick & rng.getrandbits(width),
                              pick | (1 << rng.randrange(width) if width else 0)]))
    masks = sorted(masks)
    rng.shuffle(masks)
    return masks


def transpose(rows):
    """The down rows of an order given by its up rows, bit by bit."""
    return tuple(sum(1 << i for i, row in enumerate(rows) if (row >> j) & 1)
                 for j in range(len(rows)))


def masks_of_width(width, seed):
    """Distinct masks whose widest is exactly width bits: the empty and the
    full mask, single bits and random masks around the byte boundaries."""
    rng = random.Random(f"width:{width}:{seed}")
    full = (1 << width) - 1
    masks = {0, full} | {1 << b for b in range(width)}
    for _ in range(40):
        pick = rng.choice(sorted(masks))
        masks.add(rng.choice([rng.getrandbits(width), pick & rng.getrandbits(width),
                              pick | rng.getrandbits(width)]))
    masks = sorted(masks)
    rng.shuffle(masks)
    return masks


WIDTHS = [0, 1, 7, 8, 9, 16, 17, 20, 70]


class TestReplay:
    @pytest.mark.parametrize("seed", range(60))
    def test_inclusion_order_is_the_pairwise_order(self, seed):
        masks = random_masks(seed)
        want = Poset.from_leq(len(masks), lambda a, b: not masks[a] & ~masks[b])
        got = inclusion_order(masks)
        assert got.up == want.up
        assert got.down == want.down == transpose(got.up)

    @pytest.mark.parametrize("width", WIDTHS)
    def test_widths_around_byte_boundaries(self, width):
        for seed in range(3):
            masks = masks_of_width(width, seed)
            assert max(masks).bit_length() == width
            want = Poset.from_leq(len(masks), lambda a, b: not masks[a] & ~masks[b])
            got = inclusion_order(masks)
            assert (got.up, got.down) == (want.up, want.down), (width, seed)
            assert got.universe == (1 << len(masks)) - 1

    def test_edges(self):
        assert inclusion_order([]).up == ()
        assert inclusion_order([0]).up == (1,)
        assert inclusion_order([3, 0, 1, 2]).up == (0b0001, 0b1111, 0b0101, 0b1001)
        assert inclusion_order([]).down == ()
        assert inclusion_order([0]).down == (1,)
        assert inclusion_order([3, 0, 1, 2]).down == (0b1111, 0b0010, 0b0110, 0b1010)

    @pytest.mark.parametrize("n, k", LEVELS, ids=[f"{n},{k}" for n, k in LEVELS])
    def test_skeleton_rows_are_base_leq(self, n, k):
        skeleton = free_skeleton(n, k)
        indices, poset = skeleton.indices, skeleton.poset
        assert poset.up == tuple(sum(1 << q for q, b in enumerate(indices) if base_leq(a, b))
                                 for a in indices)
        assert poset.down == transpose(poset.up)

    @pytest.mark.parametrize("n, k", SMALL, ids=[f"{n},{k}" for n, k in SMALL])
    def test_h3_subset_rows_are_the_pairwise_order(self, n, k):
        indices = free_skeleton(n, k).indices
        want = Poset.from_leq(len(indices), ref_h3_subset_leq(indices), cap=len(indices))
        got = h3_poset(n, k)[0]
        assert (checked_poset(got).up, got.down) == (want.up, want.down)

    def test_free_distributive_base_is_the_subset_cube(self):
        for s in range(5):
            cube = Poset.from_leq(1 << s, lambda a, b: not a & ~b)
            assert free_distributive(s).base == cube


def refuse(*args, **kwargs):
    raise AssertionError("an order was built from pairwise calls")


def test_orders_are_built_without_pairwise_calls(monkeypatch, capsys):
    term = parse("x1 & x2* | x3** & x4")
    want = normal_form(term, 3, 4)
    free._skeleton.cache_clear()  # the skeletons below are built under the patch
    monkeypatch.setattr(Poset, "from_leq", refuse)
    monkeypatch.setattr(TableAlgebra, "leq", refuse)
    monkeypatch.setattr(UpsetAlgebra, "leq", refuse)
    assert normal_form(term, 3, 4) == want
    assert build_free(2, 2).size == 539
    assert free_distributive(3).size == 20
    for name, A in ORDER_CORPUS:
        U = to_upset(A)
        assert is_isomorphic(A, U) is not None and is_isomorphic(U, A) is not None, name
    assert h3_poset(2, 2)[0].n == 17
    assert stone_decompose(2).iso is not None
    assert main(["free", "-n", "2", "-k", "2", "--export", "-"]) == 0
    assert capsys.readouterr().out.startswith("digraph poset {")


def test_no_library_function_builds_an_order_pairwise():
    """``Poset.from_leq`` stays public, as the tests' oracle, but no function
    in the library calls it: ``cm_posets`` reads both record orders off the
    1-class masks."""
    callers = set()
    for path in sorted(Path(palgebra.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "from_leq"):
                    callers.add(f"{path.name}:{fn.name}")
    assert callers == set()
