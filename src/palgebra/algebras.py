"""Finite distributive p-algebras in two carriers.

UpsetMasks computes with the upsets of a base poset as masks (meet/join are
and/or, the pseudocomplement is the complement of a down-closure) and
UpsetAlgebra numbers them; TableAlgebra holds explicit operation tables.
Most functions accept either carrier.
"""

from __future__ import annotations

import json
from collections import deque
from functools import lru_cache, reduce
from itertools import chain, compress, repeat
from json.encoder import encode_basestring_ascii
from operator import and_, itemgetter, not_, or_
from typing import Iterable, Iterator, Sequence, Union

from . import config
from .congruences import Congruence
from .errors import CapExceeded, MalformedTables, NotACongruence, shown
from .posets import (
    Poset,
    bit_indices,
    disjoint_union,
    downset_closure,
    enumerate_upsets,
    inclusion_order,
    join_irreducible_points,
    point_columns,
    poset_isomorphic,
)
from .records import Record
from .terms import json_kind


# translates the bytes 0 and 1 to the digits b"0" and b"1"; _DIGIT_AT[i]
# translates the byte i to b"1" and every other byte to b"0"
_DIGIT = bytes.maketrans(b"\0\1", b"01")
_DIGIT_AT = [b"0" * i + b"1" + b"0" * (255 - i) for i in range(256)]


class Violation(Record):
    """One failed law plus a witnessing tuple of element indices."""
    __slots__ = ("law", "witness")


class TableAlgebra:
    """A p-algebra given by meet/join/star tables over indices 0..size-1.
    ``_lawful`` notes ``_lattice`` once meet and join are proved a
    distributive lattice's, and keeps ``_carrier`` once every law holds."""

    __slots__ = ("size", "meet_table", "join_table", "star_table", "zero", "one", "labels",
                 "_lattice", "_carrier")

    def __init__(self, meet, join, star, zero, one, labels=None):
        n = len(star)
        if len(meet) != n or len(join) != n:
            raise MalformedTables("meet/join/star tables disagree on size")
        # entries must have type int: a float, bool or string is refused, not
        # coerced; each check is one pass in C over every entry of a table
        for name, table in (("meet", meet), ("join", join)):
            if n and ({*map(len, table)} != {n}
                      or list(map(type, chain.from_iterable(table))).count(int) != n * n
                      or not set(chain.from_iterable(table)) <= set(range(n))):
                raise MalformedTables(f"{name} table has a bad row")
        if any(type(v) is not int or not 0 <= v < n for v in star):
            raise MalformedTables("star table out of range")
        if any(type(v) is not int or not 0 <= v < n for v in (zero, one)):
            raise MalformedTables("zero/one out of range")
        self.size = n
        self.meet_table = tuple(map(tuple, meet))
        self.join_table = tuple(map(tuple, join))
        self.star_table = tuple(star)
        self.zero = zero
        self.one = one
        self.labels = tuple(labels) if labels is not None else None
        self._lattice, self._carrier = False, None

    def meet(self, i: int, j: int) -> int:
        return self.meet_table[i][j]

    def join(self, i: int, j: int) -> int:
        return self.join_table[i][j]

    def star(self, i: int) -> int:
        return self.star_table[i]

    def leq(self, i: int, j: int) -> bool:
        return self.meet_table[i][j] == i

    def meet_row(self, i: int) -> tuple[int, ...]:
        """The meets of i with 0..size-1, as ``UpsetAlgebra.meet_row``."""
        return self.meet_table[i]

    def join_row(self, i: int) -> tuple[int, ...]:
        return self.join_table[i]

    def star_row(self) -> tuple[int, ...]:
        return self.star_table

    def up_row(self, i: int) -> int:
        """The mask of the j with i <= j, read off the meet table as ``leq``
        does: the row's tests m == i as binary digits, in C.  Up to 256
        elements a row is a byte string, and the digits its translation."""
        row = self.meet_table[i]
        if self.size <= 256:
            digits = bytes(row).translate(_DIGIT_AT[i])
        else:
            digits = bytes(map(i.__eq__, row)).translate(_DIGIT)
        return int(digits[::-1], 2)

    def __repr__(self) -> str:
        return f"TableAlgebra(size={self.size})"


class UpsetMasks:
    """The upsets of a base poset held as masks: meet and join are and/or,
    and the pseudocomplement is the complement of the down-closure.  Upset
    carriers (free algebras, products, ``dist:s``) and normal forms share it."""

    __slots__ = ("base", "one", "tops")
    zero = 0

    def __init__(self, base: Poset):
        self.base = base
        self.one = base.universe
        # the maximal points: those whose up row is the point alone
        self.tops = sum(1 << i for i, row in enumerate(base.up) if row == 1 << i)

    def meet(self, a: int, b: int) -> int:
        return a & b

    def join(self, a: int, b: int) -> int:
        return a | b

    def star(self, a: int) -> int:
        """The pseudocomplement of a, which must be an upset: everything
        outside its down-closure.  An upset holds a maximal point above each
        of its points, so that closure is the one of its maximal points (in
        a free skeleton, at most the 2^k atom indices)."""
        return self.one & ~downset_closure(self.base, a & self.tops)


class UpsetAlgebra:
    """The p-algebra of all upsets of a base poset: the masks of
    ``UpsetMasks(base)``, numbered.  Order rows and star classes are read
    off the base points' columns (``point_columns`` of the elements), built
    once when first asked for and kept, as is the element order; ``star``
    reads ``star_masks``."""

    __slots__ = ("base", "masks", "elements", "index", "size", "zero", "one", "labels",
                 "_numbered", "_columns", "_order", "_star_classes", "_star_masks")

    def __init__(self, base: Poset, labels: Sequence[str] | None = None):
        self._number(base, enumerate_upsets(base), labels, False)

    @classmethod
    def _trusted(cls, base: Poset, elements: Sequence[int]) -> "UpsetAlgebra":
        """Every upset of base, numbered in the order ``elements`` lists
        them: right by construction, so nothing is enumerated or checked
        (as ``Poset._trusted``).  An upset document reloads in the order of
        ``__init__``, so ``algebra_to_json_dict`` writes such a carrier as
        tables."""
        A = cls.__new__(cls)
        A._number(base, elements, None, True)
        return A

    def _number(self, base: Poset, elements: Sequence[int], labels, numbered: bool) -> None:
        self.base = base
        self.masks = UpsetMasks(base)
        self.elements = tuple(elements)
        self.index = {m: i for i, m in enumerate(self.elements)}
        self.size = len(self.elements)
        self.zero = self.index[self.masks.zero]
        self.one = self.index[self.masks.one]
        self.labels = tuple(labels) if labels is not None else None
        self._numbered = numbered
        self._columns = self._order = self._star_classes = self._star_masks = None

    def mask(self, i: int) -> int:
        return self.elements[i]

    def meet(self, i: int, j: int) -> int:
        return self.index[self.elements[i] & self.elements[j]]

    def join(self, i: int, j: int) -> int:
        return self.index[self.elements[i] | self.elements[j]]

    def star(self, i: int) -> int:
        return self.index[self.star_masks()[self.elements[i]]]

    def leq(self, i: int, j: int) -> bool:
        return not (self.elements[i] & ~self.elements[j])

    def meet_row(self, i: int) -> Iterable[int]:
        """The meets of i with 0..size-1: j at each j <= i, i at each j >= i."""
        order = self.order()
        return self._row(i, and_, order.down[i], order.up[i])

    def join_row(self, i: int) -> Iterable[int]:
        """The joins of i with 0..size-1: j at each j >= i, i at each j <= i."""
        order = self.order()
        return self._row(i, or_, order.up[i], order.down[i])

    def _row(self, i: int, op, same: int, fixed: int) -> Iterable[int]:
        """Row i of op (and_ or or_), in C: j at each j in the mask same, i
        at each j in fixed, and the rest computed on the masks and looked up
        in ``index``.  Where under half the elements are comparable to i,
        every entry is looked up."""
        n, elements, at = self.size, self.elements, self.index.__getitem__
        rest = (1 << n) - 1 & ~(same | fixed)
        if 2 * rest.bit_count() > n:
            return map(at, map(op, elements, repeat(elements[i])))
        row = list(range(n))
        deque(map(row.__setitem__, bit_indices(fixed), repeat(i)), maxlen=0)
        rest = bit_indices(rest)
        looked_up = map(at, map(op, map(elements.__getitem__, rest), repeat(elements[i])))
        deque(map(row.__setitem__, rest, looked_up), maxlen=0)
        return row

    def star_row(self) -> tuple[int, ...]:
        """The stars of 0..size-1, looked up in C."""
        return tuple(map(self.index.__getitem__, map(self.star_masks().__getitem__, self.elements)))

    def columns(self) -> list[int]:
        """Per base point, the mask of the elements that hold it."""
        if self._columns is None:
            self._columns = point_columns(self.elements, self.base.n)
        return self._columns

    def order(self) -> Poset:
        """The order of the elements: inclusion of their masks."""
        if self._order is None:
            self._order = inclusion_order(self.elements)
        return self._order

    def up_row(self, i: int) -> int:
        """The mask of the elements above i: those holding every point of i."""
        return reduce(and_, map(self.columns().__getitem__, bit_indices(self.elements[i])),
                      (1 << self.size) - 1)

    def down_row(self, i: int) -> int:
        """The mask of the elements below i: those holding no point outside i."""
        outside = bit_indices(self.masks.one & ~self.elements[i])
        return (1 << self.size) - 1 & ~reduce(or_, map(self.columns().__getitem__, outside), 0)

    def birkhoff(self) -> tuple[list[int], list[int], list[int]]:
        """The join-irreducibles ja, ascending, their up rows and the masks
        of the t with ja[t] <= a, off the columns: ja are the principal
        upsets up(x) of the base points, and column x is the up row of up(x)."""
        columns, index = self.columns(), self.index
        by_index = sorted((index[row], x) for x, row in enumerate(self.base.up))
        ups = [columns[x] for _, x in by_index]
        return [j for j, _ in by_index], ups, point_columns(ups, self.size)

    def star_classes(self) -> dict[int, int]:
        """{s: the mask of the elements whose star is s}.  An upset's star
        is fixed by the maximal base points it holds, and distinct sets of
        them give distinct stars (each set is the maximal points of its
        down-closure), so the classes are the elements split along the
        columns of those points, at one star per class."""
        if self._star_classes is None:
            columns, classes = self.columns(), [(1 << self.size) - 1]
            for t in bit_indices(self.masks.tops):
                col = columns[t]
                classes = [c for part in classes for c in (part & col, part & ~col) if c]
            self._star_classes = {
                self.index[self.masks.star(self.elements[c.bit_length() - 1])]: c
                for c in classes}
        return self._star_classes

    def star_masks(self) -> dict[int, int]:
        """{element mask: the mask of its star}, over every element."""
        if self._star_masks is None:
            elements, tops = self.elements, self.masks.tops
            # a class's star, by the maximal points its members hold
            star_of = {elements[c.bit_length() - 1] & tops: elements[s]
                       for s, c in self.star_classes().items()}
            self._star_masks = {m: star_of[m & tops] for m in elements}
        return self._star_masks

    def __repr__(self) -> str:
        return f"UpsetAlgebra(base={self.base.n}, size={self.size})"


PAlgebra = Union[TableAlgebra, UpsetAlgebra]


# ---------------------------------------------------------------- validation

def validate(A: PAlgebra) -> list[Violation]:
    """All failed bounded-distributive-p-algebra laws, one witness each."""
    return list(violations(A))


def violations(A: PAlgebra) -> Iterator[Violation]:
    """``validate``'s violations, lazily: the scan runs as far as the caller reads."""
    A = to_table(A)
    if A._carrier is None and not _lawful(A):
        yield from _law_scan(A, lattice=A._lattice)


def _lawful(A: PAlgebra) -> bool:
    """True iff A satisfies every law ``_law_scan`` checks, decided in the
    Birkhoff masks of the meet table's relation ``a <= b iff a & b = a``.

    Its up rows must be reflexive and pairwise distinct (early refusals:
    the row check below implies both).  Taken as an order (unchecked), they
    give join-irreducibles ja and, per element a, the mask ``below[a]`` of
    the t with ja[t] <= a, which must be injective.  Then
    each row is compared with the masks, packed a few bytes apiece and read
    in C: ``below[a & b]`` must be ``below[a] & below[b]`` at every b, and
    ``below[a | b]`` must be ``below[a] | below[b]``.  That makes ``below``
    an isomorphism onto a family of sets closed under both, so meet and
    join are those of a distributive lattice, and a <= b iff below[a] lies
    in below[b]: the up rows were a partial order after all, and the
    table notes (``_lattice``) for ``_law_scan`` that no law in three
    variables can fail.  Last, one must be the top, zero's mask empty (so
    zero is the bottom), and each ``below[a*]`` the t with below[ja[t]] &
    below[a] = 0: the largest mask disjoint from below[a], as
    ``UpsetMasks.star`` computes it, which gives every star law.  Two passes
    over the rows, and O(|J|) work per element.  A lawful table keeps its
    upset carrier: point t has the up row below[ja[t]], element a is the
    upset below[a].
    """
    A = to_table(A)
    M, J, S, n = A.meet_table, A.join_table, A.star_table, A.size
    if [row[a] for a, row in enumerate(M)] != list(range(n)):
        return False
    up = list(map(A.up_row, range(n)))
    if len(set(up)) < n:
        return False
    order = Poset._trusted(up, point_columns(up, n))
    ja, below = birkhoff_masks(order)
    if len(set(below)) < n:
        return False
    # the masks packed w bytes apiece, below[b] in slot b: a row of the meet
    # table must read, slot by slot, as ba in every slot ANDed with them
    w = len(ja) // 8 + 1
    slots = [m.to_bytes(w, "little") for m in below]
    packed, width = int.from_bytes(b"".join(slots), "little"), n * w
    ones = int.from_bytes(b"\1".ljust(w, b"\0") * n, "little")
    slot = slots.__getitem__
    for ba, Ma, Ja in zip(below, M, J):
        every = ba * ones
        if (b"".join(map(slot, Ma)) != (every & packed).to_bytes(width, "little")
                or b"".join(map(slot, Ja)) != (every | packed).to_bytes(width, "little")):
            return False
    A._lattice = True
    if order.down[A.one] != order.universe or below[A.zero]:
        return False
    ups, bits = [below[p] for p in ja], [1 << t for t in range(len(ja))]
    if (list(map(below.__getitem__, S))
            != [sum(compress(bits, map(not_, map(ba.__and__, ups)))) for ba in below]):
        return False
    A._carrier = UpsetAlgebra._trusted(Poset._trusted(ups, point_columns(ups, len(ja))), below)
    return True


def _law_scan(A: PAlgebra, lattice: bool = False) -> Iterator[Violation]:
    """The per-law witness scan behind ``validate``: the first witness of each
    failed law, yielded as found, with witnesses in lexicographic order.  A
    law is compared one row (all values of its last variable) at a time, so
    the laws in three variables cost |A|^2 row comparisons.  With
    ``lattice``, the caller has proved meet and join those of a distributive
    lattice (``_lawful`` does, before it looks at zero, one and star), so the
    associative and distributive laws hold and are not scanned."""
    A = to_table(A)
    rng = range(A.size)
    M, J, S, zero, one = A.meet_table, A.join_table, A.star_table, A.zero, A.one

    def pick(idx):
        """The function t -> (t[i] for i in idx) as a tuple, looped in C."""
        return itemgetter(*idx) if len(idx) > 1 else lambda t: (t[idx[0]],)

    GM, GJ, GS = [pick(r) for r in M], [pick(r) for r in J], pick(S)

    def law(name, rows):
        """rows yields (prefix, lhs, rhs): the witness is the prefix plus the
        first position where the two rows differ."""
        for prefix, lhs, rhs in rows:
            lhs, rhs = tuple(lhs), tuple(rhs)
            if lhs != rhs:
                c = next(c for c in rng if lhs[c] != rhs[c])
                yield Violation(name, prefix + (c,))
                return

    def pairs(lhs, rhs):
        """The rows at each a of a law in two variables."""
        return (((a,), lhs(a), rhs(a)) for a in rng)

    def triples(lhs, rhs):
        """The rows at each (a, b) of a law in three variables."""
        return (((a, b), lhs(a, b), rhs(a, b)) for a in rng for b in rng)

    ident, n = tuple(rng), len(rng)
    yield from law("meet-idempotent", [((), (M[a][a] for a in rng), ident)])
    yield from law("join-idempotent", [((), (J[a][a] for a in rng), ident)])
    MT, JT = list(zip(*M)), list(zip(*J))
    yield from law("meet-commutative", pairs(M.__getitem__, MT.__getitem__))
    yield from law("join-commutative", pairs(J.__getitem__, JT.__getitem__))
    yield from law("absorption-meet", pairs(lambda a: GJ[a](M[a]), lambda a: (a,) * n))
    yield from law("absorption-join", pairs(lambda a: GM[a](J[a]), lambda a: (a,) * n))
    if not lattice:
        yield from law("meet-associative",
                       triples(lambda a, b: M[M[a][b]], lambda a, b: GM[b](M[a])))
        yield from law("join-associative",
                       triples(lambda a, b: J[J[a][b]], lambda a, b: GJ[b](J[a])))
        yield from law("distributive",
                       triples(lambda a, b: GJ[b](M[a]), lambda a, b: GM[a](J[M[a][b]])))
    yield from law("zero-meet", [((), M[zero], (zero,) * n)])
    yield from law("zero-join", [((), J[zero], ident)])
    yield from law("one-meet", [((), M[one], ident)])
    yield from law("one-join", [((), J[one], (one,) * n)])
    if S[one] != zero:
        yield Violation("star-one", (one,))
    if S[zero] != one:
        yield Violation("star-zero", (zero,))
    yield from law("star-meet", pairs(lambda a: pick(GM[a](S))(M[a]), lambda a: GS(M[a])))
    yield from law("pseudocomplement", pairs(lambda a: (m == zero for m in M[a]),
                                             lambda a: (x == a for x in GS(M[a]))))


def compatibility_witness(A: PAlgebra, rep: Sequence[int]):
    """None if the partition is operation-compatible, else a witness tuple:
    at the least i that is not its class's least member r and breaks
    compatibility, ("star", i, r) if i* and r* lie in distinct classes, else
    ("meet", i, r, c) or ("join", i, r, c) at the least c where the rows of
    i and r fall in distinct classes, meet first.  Each row is mapped to its
    classes in C, and r's rows are kept until its class's last member."""
    at, kept = rep.__getitem__, {}
    last = dict(zip(rep, range(A.size)))  # per r, the last i with rep[i] = r

    def rows(i):
        return tuple(map(at, A.meet_row(i))), tuple(map(at, A.join_row(i)))

    for i in range(A.size):
        r = rep[i]
        if r == i:
            continue
        if rep[A.star(i)] != rep[A.star(r)]:
            return ("star", i, r)
        (mi, ji), (mr, jr) = rows(i), kept.pop(r, None) or rows(r)
        if last[r] != i:
            kept[r] = mr, jr
        if mi != mr or ji != jr:
            c = next(c for c in range(A.size) if mi[c] != mr[c] or ji[c] != jr[c])
            return ("meet" if mi[c] != mr[c] else "join", i, r, c)
    return None


# ------------------------------------------------------------- constructions

def tabulate(size: int, meet, join, star, zero: int, one: int, labels=None) -> TableAlgebra:
    """The TableAlgebra on indices 0..size-1 whose tables hold meet(i, j),
    join(i, j) and star(i); every derived table algebra is built here.  Each
    row is a tuple of one shared int object per value."""
    rng = range(size)
    shared = {i: i for i in rng}  # CPython shares only the ints up to 256

    def row(values):
        if size > 257 and {*map(type, values)} <= {int}:  # a bool or float finds an int's key
            return tuple(map(shared.get, values, values))
        return tuple(values)  # TableAlgebra refuses a bad entry

    return TableAlgebra([row([meet(i, j) for j in rng]) for i in rng],
                        [row([join(i, j) for j in rng]) for i in rng],
                        row([star(i) for i in rng]), zero, one, labels)


def si_carrier(n: int) -> UpsetAlgebra:
    """The subdirectly irreducible member with n atoms: a 2^n-element Boolean
    algebra with a new top glued above its unit e.  By Birkhoff duality it is
    the upsets of n atoms a_i (points 0..n-1) above one point b (point n): the
    sets of atoms and the whole base.  Indices 0..2^n-1 are the Boolean masks,
    index 2^n is the new top, the whole base; a's star is e ^ a.  Built once
    per n and then shared (``_si_carrier``)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    cap = config.DEFAULT.element_cap
    # outside the cache, so a lowered cap still fires on a carrier built before
    if n >= cap.bit_length():  # 2^n + 1 > cap, told before it is built; from
        # 2^14285 > 10^4300 on it is shown as text, as in ``_sweep_equation``
        raise CapExceeded("algebra size", shown(n, 1) if n >= 14_285 else (1 << n) + 1, cap)
    size = (1 << n) + 1
    if size > cap:
        raise CapExceeded("algebra size", size, cap)
    return _si_carrier(n)


@lru_cache(maxsize=None)  # si_carrier checks the caps before every lookup
def _si_carrier(n: int) -> UpsetAlgebra:
    b, whole = 1 << n, (2 << n) - 1
    base = Poset._trusted([*(1 << i for i in range(n)), whole],
                          [*(1 << i | b for i in range(n)), b])
    return UpsetAlgebra._trusted(base, (*range(b), whole))


def build_si(n: int) -> TableAlgebra:
    """``si_carrier(n)``'s tables, in its numbering."""
    return to_table(si_carrier(n))


def si_cond_check(B: TableAlgebra) -> list[tuple[int, int]]:
    """Witnesses against: a & b* = 0  iff  a <= b or (a = 1 and b = e).

    Empty list means the characterization holds (expected for n >= 1).
    """
    top = B.one
    e = top - 1
    bad = []
    for a in range(B.size):
        for b in range(B.size):
            lhs = B.meet(a, B.star(b)) == B.zero
            rhs = B.leq(a, b) or (a == top and b == e)
            if lhs != rhs:
                bad.append((a, b))
    return bad


def chain_carrier(m: int) -> UpsetAlgebra:
    """The m-element chain with 0* = 1 and x* = 0 elsewhere (m >= 2): the
    upsets of an (m-1)-point chain whose point t lies below points 0..t-1.
    Index i is the upset of the i highest points, the mask 2^i - 1.  Built
    once per m and then shared (``_chain_carrier``)."""
    if m < 2:
        raise ValueError("chains need at least two elements")
    cap = config.DEFAULT.element_cap
    if m > cap:  # outside the cache, as in si_carrier
        raise CapExceeded("algebra size", m, cap)
    return _chain_carrier(m)


@lru_cache(maxsize=None)  # chain_carrier checks the cap before every lookup
def _chain_carrier(m: int) -> UpsetAlgebra:
    whole = (1 << (m - 1)) - 1
    base = Poset._trusted([(2 << t) - 1 for t in range(m - 1)],
                          [whole & -(1 << t) for t in range(m - 1)])
    return UpsetAlgebra._trusted(base, [(1 << i) - 1 for i in range(m)])


def build_chain(m: int) -> TableAlgebra:
    """``chain_carrier(m)``'s tables, in its numbering."""
    return to_table(chain_carrier(m))


def product(A: PAlgebra, B: PAlgebra) -> PAlgebra:
    """Direct product; upset carriers combine as a disjoint union of bases."""
    if isinstance(A, UpsetAlgebra) and isinstance(B, UpsetAlgebra):
        labels = None
        if A.labels is not None and B.labels is not None:
            labels = A.labels + B.labels
        return UpsetAlgebra(disjoint_union([A.base, B.base]), labels=labels)
    Ta, Tb = to_table(A), to_table(B)
    size = Ta.size * Tb.size
    cap = config.DEFAULT.element_cap
    if size > cap:
        raise CapExceeded("product size", size, cap)

    nb = Tb.size  # the pair (i, j) is index i * nb + j
    return tabulate(size,
                    lambda p, q: Ta.meet(p // nb, q // nb) * nb + Tb.meet(p % nb, q % nb),
                    lambda p, q: Ta.join(p // nb, q // nb) * nb + Tb.join(p % nb, q % nb),
                    lambda p: Ta.star(p // nb) * nb + Tb.star(p % nb),
                    Ta.zero * nb + Tb.zero, Ta.one * nb + Tb.one)


def product_many(algebras: Sequence[PAlgebra]) -> PAlgebra:
    out = algebras[0]
    for nxt in algebras[1:]:
        out = product(out, nxt)
    return out


class Quotient(Record):
    """A quotient algebra (a TableAlgebra); class i has least member reps[i],
    and the tuple proj maps each element to its class."""
    __slots__ = ("algebra", "proj", "reps")


def quotient(A: PAlgebra, theta, check: bool = True) -> Quotient:
    """Quotient by a congruence (a Congruence or a raw class-label array)."""
    rep = (theta if isinstance(theta, Congruence) else Congruence(theta)).rep
    if len(rep) != A.size:
        raise NotACongruence("partition size does not match the algebra")
    if check:
        witness = compatibility_witness(A, rep)
        if witness is not None:
            raise NotACongruence(f"incompatible partition, witness {witness}")
    reps = sorted(set(rep))
    pos = {r: i for i, r in enumerate(reps)}
    proj = tuple(pos[r] for r in rep)
    alg = tabulate(len(reps),
                   lambda i, j: proj[A.meet(reps[i], reps[j])],
                   lambda i, j: proj[A.join(reps[i], reps[j])],
                   lambda i: proj[A.star(reps[i])],
                   proj[A.zero], proj[A.one], labels=[str(r) for r in reps])
    return Quotient(alg, proj, tuple(reps))


# ------------------------------------------------------ structural inventory

def element_order(A: PAlgebra) -> Poset:
    """The order of A on its element indices; ``up[i]`` is the mask of all j >= i.
    A table its law check has proved reads its kept carrier's order; any
    other table's up rows must pass ``Poset``'s check."""
    if isinstance(A, TableAlgebra):
        if A._carrier is None:
            return Poset(list(map(A.up_row, range(A.size))), cap=A.size)
        A = A._carrier
    return A.order()


def birkhoff_masks(order: Poset) -> tuple[list[int], list[int]]:
    """The join-irreducibles ja of an element order and, per element a, the
    mask of all t with ja[t] <= a."""
    ja = join_irreducible_points(order)
    return ja, point_columns([order.up[p] for p in ja], order.n)


def join_irreducibles(A: PAlgebra) -> list[int]:
    """Elements with exactly one lower cover."""
    return join_irreducible_points(element_order(A))


def atoms(A: PAlgebra) -> list[int]:
    return [hi for lo, hi in element_order(A).covers() if lo == A.zero]


def dense_elements(A: PAlgebra) -> list[int]:
    return [a for a in range(A.size) if A.star(a) == A.zero]


def regular_elements(A: PAlgebra) -> list[int]:
    return [a for a in range(A.size) if A.star(A.star(a)) == a]


def glivenko(A: PAlgebra):
    """The congruence a ~ b iff a** = b**, and the skeleton on the regular
    elements with x join-regular y := (x v y)**; the pair (Congruence, TableAlgebra)."""
    theta = Congruence([A.star(A.star(a)) for a in range(A.size)])
    regs = regular_elements(A)
    pos = {r: i for i, r in enumerate(regs)}
    skeleton = tabulate(len(regs),
                        lambda i, j: pos[A.meet(regs[i], regs[j])],
                        lambda i, j: pos[A.star(A.star(A.join(regs[i], regs[j])))],
                        lambda i: pos[A.star(regs[i])],
                        pos[A.zero], pos[A.one], labels=[str(r) for r in regs])
    return theta, skeleton


def is_isomorphic(A: PAlgebra, B: PAlgebra):
    """An operation-preserving bijection A -> B as an index tuple, or None.

    Matches the join-irreducible skeleton posets of the upset carriers.
    Both carriers are lawful, so a match is an isomorphism of the lattices,
    which keeps the bounds and the pseudocomplement: each element maps to
    the element whose Birkhoff mask is the image of its own.
    """
    if A.size != B.size:
        return None
    ja, _, ma = upset_carrier(A).birkhoff()
    jb, _, mb = upset_carrier(B).birkhoff()
    f = poset_isomorphic(inclusion_order([ma[p] for p in ja]),
                         inclusion_order([mb[q] for q in jb]))
    if f is None:
        return None
    at = {m: b for b, m in enumerate(mb)}
    return tuple(at[sum(1 << f[t] for t in bit_indices(m))] for m in ma)


# ----------------------------------------------------------------- carriers

def to_table(A: PAlgebra) -> TableAlgebra:
    if isinstance(A, TableAlgebra):
        return A
    cap = config.DEFAULT.element_cap
    if A.size > cap:
        raise CapExceeded("table size", A.size, cap)
    return tabulate(A.size, A.meet, A.join, A.star, A.zero, A.one)


def upset_carrier(A: PAlgebra) -> UpsetAlgebra:
    """A as the upsets of a base poset, in A's own numbering: A itself if it
    is no table, else the carrier ``_lawful`` proves and keeps, checked on
    the first call.  A lawless table is refused with its first violation."""
    if not isinstance(A, TableAlgebra):
        return A
    problem = next(violations(A), None)
    if problem is not None:
        raise MalformedTables(f"the tables violate the laws: {problem}")
    return A._carrier


def to_upset(A: PAlgebra) -> UpsetAlgebra:
    """Rebuild A as the upsets of its reversed join-irreducible poset, the
    base of ``upset_carrier(A)``, numbered as ``UpsetAlgebra`` numbers them."""
    if isinstance(A, UpsetAlgebra):
        return A
    C = upset_carrier(A)
    labels = None
    if A.labels is not None:  # point t's up row is its join-irreducible
        labels = [A.labels[C.index[row]] for row in C.base.up]
    return UpsetAlgebra(C.base, labels=labels)


# -------------------------------------------------------------------- JSON

class _Indices(Record):
    """Index data the library has proved: ints in ``range(size)``, read off
    a checked table, a carrier's ``index`` or a poset's covers.  With no
    ``row`` it is the list ``values``; with one, the table whose rows are
    ``row(v)`` for v in ``values``, each nonempty and made as
    ``json_chunks`` writes it.  The writer prints it through its digit
    table, with no check."""
    __slots__ = ("size", "values", "row")

    def __init__(self, size: int, values, row=None):
        _set_size(self, size)
        _set_values(self, values)
        _set_row(self, row)


_set_size, _set_values, _set_row = (_Indices.size.__set__, _Indices.values.__set__,
                                    _Indices.row.__set__)


def proved_indices(size: int, values, row=None) -> _Indices:
    """``values`` (or with ``row``, the table of rows ``row(v)``), ints the
    caller has proved to lie in ``range(size)``, for ``json_chunks`` to
    write without checking them."""
    return _Indices(size, values, row)


def _lists(size: int, values, row=None) -> list:
    """``_Indices``' data as plain lists."""
    return list(values) if row is None else [list(row(v)) for v in values]


def _algebra_doc(A: PAlgebra, indices) -> dict:
    """A's document, its index data made by ``indices(size, values, row)``.
    A table's rows and a numbered carrier's (si:n, chain:m, whose order is
    not the one an upset document reloads in) are read off A, not copied."""
    if isinstance(A, TableAlgebra) or A._numbered:
        n, rng = A.size, range(A.size)
        return {
            "kind": "table",
            "size": n,
            "meet": indices(n, rng, A.meet_row),
            "join": indices(n, rng, A.join_row),
            "star": indices(n, A.star_row()),
            "zero": A.zero,
            "one": A.one,
        }
    labels = A.labels if A.labels is not None else tuple(str(i) for i in range(A.base.n))
    return {
        "kind": "upset",
        "poset": {"size": A.base.n, "covers": indices(A.base.n, A.base.covers(), tuple)},
        "labels": list(labels),
    }


def algebra_to_json_dict(A: PAlgebra) -> dict:
    """A's JSON document, in plain mutable lists."""
    return _algebra_doc(A, _lists)


def proved_algebra_doc(A: PAlgebra) -> dict:
    """``algebra_to_json_dict(A)`` with its index data proved, for
    ``json_chunks`` to write unchecked: each table row is made off A as it
    is written, so no table is built or held."""
    return _algebra_doc(A, proved_indices)


def algebra_from_json_dict(doc: dict) -> PAlgebra:
    try:
        kind = doc["kind"]
        if kind == "table":
            A = TableAlgebra(doc["meet"], doc["join"], doc["star"], doc["zero"], doc["one"])
            size = doc["size"]
            if type(size) is not int:
                raise ValueError(f"table size must be an integer, got {json_kind(size)}")
            if size != A.size:
                raise ValueError(f"table size {size} for {A.size} rows")
            return A
        if kind == "upset":
            poset, labels = doc["poset"], doc["labels"]
            if type(labels) is not list:
                raise ValueError(f"labels must be a list of strings, got {json_kind(labels)}")
            for i, label in enumerate(labels):
                if type(label) is not str:
                    raise ValueError(f"labels[{i}] must be a string, got {json_kind(label)}")
            if type(poset["size"]) is not int:
                raise ValueError(f"poset size must be an integer, got {poset['size']!r}")
            if len(labels) != poset["size"]:
                raise ValueError(f"{len(labels)} labels for {poset['size']} points")
            base = Poset.from_covers(poset["size"], [tuple(c) for c in poset["covers"]])
            return UpsetAlgebra(base, labels=labels)
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise MalformedTables(f"bad algebra document: {exc}") from exc
    raise MalformedTables(f"unknown algebra kind {kind!r}")


def json_chunks(doc):
    """Text pieces of ``json.dumps(doc, indent=2) + "\\n"``, byte for byte.

    The stdlib writes an indented document with its pure-Python encoder,
    one piece per value, and so does this writer, with each key's text made
    once per document and a str or int written without ``json.dumps``.
    Ints reach it by one route of their own: proved index data
    (``proved_indices``), printed unchecked through a table of the digits of
    0..size-1 made once per document.  A list of it is one piece, and a
    table one piece per row, each row made as it is written, so a large
    table streams and no row outlives its write.
    """
    digits: list[str] = []  # digits[i] is str(i), for i up to the largest size seen
    keys: dict[str, str] = {}  # a str key's JSON text

    def digits_to(size: int):
        """The int -> text map by lookup, for ints in range(size)."""
        if size > len(digits):
            digits.extend(map(str, range(len(digits), size)))
        return digits.__getitem__

    def leaf(x, pad: str) -> str | None:
        """x's text if it is one piece: a scalar, an empty container or a
        list of proved indices."""
        t = type(x)
        if t is str:
            return encode_basestring_ascii(x)
        if t is int:
            return int.__repr__(x)
        if t is _Indices:
            if not x.values:
                return "[]"
            if x.row is not None:
                return None
            inner = pad + "  "
            return ("[\n" + inner + (",\n" + inner).join(map(digits_to(x.size), x.values))
                    + "\n" + pad + "]")
        if isinstance(x, (list, tuple)):
            return None if x else "[]"
        if isinstance(x, dict):
            return None if x else "{}"
        return json.dumps(x)

    def key_text(key) -> str:
        if type(key) is not str:  # json writes a non-str key as the string of its value
            return json.dumps(json.dumps(key))
        text = keys.get(key)
        if text is None:
            text = keys[key] = encode_basestring_ascii(key)
        return text

    def pieces(x, pad: str):
        """The pieces of a nonempty dict or list x that is no leaf."""
        inner = pad + "  "
        head, sep = "[\n" + inner, ",\n" + inner
        if type(x) is _Indices:  # a table: one piece per row
            text, row_pad = digits_to(x.size), inner + "  "
            row_sep, row_end = ",\n" + row_pad, "\n" + inner + "]"
            for row in map(x.row, x.values):
                yield head + "[\n" + row_pad + row_sep.join(map(text, row)) + row_end
                head = sep
            yield "\n" + pad + "]"
            return
        if isinstance(x, dict):
            head, close = "{\n" + inner, "\n" + pad + "}"
            items = ((key_text(key) + ": ", value) for key, value in x.items())
        else:
            close = "\n" + pad + "]"
            items = (("", value) for value in x)
        for label, value in items:
            text = leaf(value, inner)
            if text is None:
                yield head + label
                yield from pieces(value, inner)
            else:
                yield head + label + text
            head = sep
        yield close

    top = leaf(doc, "")
    if top is None:
        yield from pieces(doc, "")
    else:
        yield top
    yield "\n"


def algebra_dumps(A: PAlgebra) -> str:
    return "".join(json_chunks(proved_algebra_doc(A)))


def algebra_loads(text: str) -> PAlgebra:
    try:
        doc = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an int of too many digits
        raise MalformedTables(f"bad JSON: {exc}") from exc
    return algebra_from_json_dict(doc)
