"""Finite distributive p-algebras in two carriers.

UpsetMasks computes with the upsets of a base poset as masks (meet/join are
and/or, the pseudocomplement is the complement of a down-closure) and
UpsetAlgebra numbers them; TableAlgebra holds explicit operation tables.
Most functions accept either carrier.
"""

from __future__ import annotations

import json
from functools import reduce
from operator import and_, itemgetter, or_
from typing import Iterator, Sequence, Union

from . import config
from .congruences import Congruence
from .errors import CapExceeded, MalformedTables, NotACongruence
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


class Violation(Record):
    """One failed law plus a witnessing tuple of element indices."""
    __slots__ = ("law", "witness")


class TableAlgebra:
    """A p-algebra given by meet/join/star tables over indices 0..size-1."""

    __slots__ = ("size", "meet_table", "join_table", "star_table", "zero", "one", "labels")

    def __init__(self, meet, join, star, zero, one, labels=None):
        n = len(star)
        if len(meet) != n or len(join) != n:
            raise MalformedTables("meet/join/star tables disagree on size")
        # entries must have type int: a float, bool or string is refused, not coerced
        for name, table in (("meet", meet), ("join", join)):
            for row in table:
                if (len(row) != n or not {*map(type, row)} <= {int}
                        or min(row) < 0 or max(row) >= n):
                    raise MalformedTables(f"{name} table has a bad row")
        if any(type(v) is not int or not 0 <= v < n for v in star):
            raise MalformedTables("star table out of range")
        if any(type(v) is not int or not 0 <= v < n for v in (zero, one)):
            raise MalformedTables("zero/one out of range")
        self.size = n
        self.meet_table = tuple(tuple(row) for row in meet)
        self.join_table = tuple(tuple(row) for row in join)
        self.star_table = tuple(star)
        self.zero = zero
        self.one = one
        self.labels = tuple(labels) if labels is not None else None

    def meet(self, i: int, j: int) -> int:
        return self.meet_table[i][j]

    def join(self, i: int, j: int) -> int:
        return self.join_table[i][j]

    def star(self, i: int) -> int:
        return self.star_table[i]

    def leq(self, i: int, j: int) -> bool:
        return self.meet_table[i][j] == i

    def up_row(self, i: int) -> int:
        """The mask of the j with i <= j, read off the meet table as ``leq`` does."""
        return sum(1 << j for j, m in enumerate(self.meet_table[i]) if m == i)

    def down_row(self, i: int) -> int:
        """The mask of the j with j <= i."""
        return sum(1 << j for j, row in enumerate(self.meet_table) if row[i] == j)

    def star_classes(self) -> dict[int, int]:
        """{s: the mask of the elements whose star is s}."""
        classes: dict[int, int] = {}
        for x, s in enumerate(self.star_table):
            classes[s] = classes.get(s, 0) | 1 << x
        return classes

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
    once when first asked for and kept; ``star`` reads ``star_masks``."""

    __slots__ = ("base", "masks", "elements", "index", "size", "zero", "one", "labels",
                 "_columns", "_star_classes", "_star_masks")

    def __init__(self, base: Poset, labels: Sequence[str] | None = None):
        self.base = base
        self.masks = UpsetMasks(base)
        self.elements = tuple(enumerate_upsets(base))
        self.index = {m: i for i, m in enumerate(self.elements)}
        self.size = len(self.elements)
        self.zero = self.index[self.masks.zero]
        self.one = self.index[self.masks.one]
        self.labels = tuple(labels) if labels is not None else None
        self._columns = self._star_classes = self._star_masks = None

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

    def columns(self) -> list[int]:
        """Per base point, the mask of the elements that hold it."""
        if self._columns is None:
            self._columns = point_columns(self.elements, self.base.n)
        return self._columns

    def up_row(self, i: int) -> int:
        """The mask of the elements above i: those holding every point of i."""
        return reduce(and_, map(self.columns().__getitem__, bit_indices(self.elements[i])),
                      (1 << self.size) - 1)

    def down_row(self, i: int) -> int:
        """The mask of the elements below i: those holding no point outside i."""
        outside = bit_indices(self.masks.one & ~self.elements[i])
        return (1 << self.size) - 1 & ~reduce(or_, map(self.columns().__getitem__, outside), 0)

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
    if not _lawful(A):
        yield from _law_scan(A)


def _lawful(A: PAlgebra) -> bool:
    """True iff A satisfies every law ``_law_scan`` checks.

    The meet table's relation ``a <= b iff a & b = a`` must be a partial
    order (``Poset`` checks) with ``down[a & b] = down[a] & down[b]``, so meet
    is its meet, and with one as its top, so it is a finite lattice.  There
    each element is the join of the join-irreducibles below it, so
    ``below[a | b] = below[a] | below[b]`` on those masks makes the join
    table the lattice join and every join-irreducible join-prime (Birkhoff:
    distributivity).  Last, the elements below b* must be those whose meet
    with b is zero: that gives every star law, and at b = zero it puts the
    bottom above zero, so zero is the bottom.
    """
    A = to_table(A)
    M, J, S, zero = A.meet_table, A.join_table, A.star_table, A.zero
    try:
        order = element_order(A)
    except ValueError:  # the meet table's relation is not a partial order
        return False
    down = order.down
    if down[A.one] != order.universe:
        return False
    below = birkhoff_masks(order)[1]
    for a in range(A.size):
        da, ba, Ma = down[a], below[a], M[a]
        if ([down[m] for m in Ma] != [da & d for d in down]
                or [below[j] for j in J[a]] != [ba | t for t in below]
                or down[S[a]] != sum(1 << b for b, m in enumerate(Ma) if m == zero)):
            return False
    return True


def _law_scan(A: PAlgebra) -> Iterator[Violation]:
    """The per-law witness scan behind ``validate``: the first witness of each
    failed law, yielded as found, with witnesses in lexicographic order.  A
    law is compared one row (all values of its last variable) at a time, so
    the laws in three variables cost |A|^2 row comparisons."""
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
    yield from law("meet-associative", triples(lambda a, b: M[M[a][b]], lambda a, b: GM[b](M[a])))
    yield from law("join-associative", triples(lambda a, b: J[J[a][b]], lambda a, b: GJ[b](J[a])))
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
    """None if the partition is operation-compatible, else a witness tuple."""
    rng = range(A.size)
    for i in rng:
        r = rep[i]
        if r == i:
            continue
        if rep[A.star(i)] != rep[A.star(r)]:
            return ("star", i, r)
        for c in rng:
            if rep[A.meet(i, c)] != rep[A.meet(r, c)]:
                return ("meet", i, r, c)
            if rep[A.join(i, c)] != rep[A.join(r, c)]:
                return ("join", i, r, c)
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


def build_si(n: int) -> TableAlgebra:
    """The subdirectly irreducible member with n atoms: a 2^n-element Boolean
    algebra with a new top glued above its unit e.  Indices 0..2^n-1 are the
    Boolean masks, index 2^n is the new top."""
    if n < 0:
        raise ValueError("n must be >= 0")
    cap = config.DEFAULT.element_cap
    if n >= cap.bit_length():  # 2^n + 1 > cap, told before it is built; from
        # 2^14285 > 10^4300 on it is shown as text, as in ``_sweep_equation``
        raise CapExceeded("algebra size", f"2^{n} or more" if n >= 14_285 else (1 << n) + 1, cap)
    size = (1 << n) + 1
    if size > cap:
        raise CapExceeded("algebra size", size, cap)
    top = size - 1
    e = top - 1
    return tabulate(size,
                    lambda a, b: b if a == top else a if b == top else a & b,
                    lambda a, b: top if top in (a, b) else a | b,
                    lambda a: top if a == 0 else 0 if a == top else e ^ a,
                    0, top)


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


def build_chain(m: int) -> TableAlgebra:
    """The m-element chain with 0* = 1 and x* = 0 elsewhere (m >= 2)."""
    if m < 2:
        raise ValueError("chains need at least two elements")
    cap = config.DEFAULT.element_cap
    if m > cap:
        raise CapExceeded("algebra size", m, cap)
    return tabulate(m, min, max, lambda a: m - 1 if a == 0 else 0, 0, m - 1)


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
    """The order of A on its element indices; ``up[i]`` is the mask of all j >= i."""
    if isinstance(A, UpsetAlgebra):
        return inclusion_order(A.elements)
    return Poset(list(map(A.up_row, range(A.size))), cap=A.size)


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

    Matches the join-irreducible skeleton posets first, then verifies every
    operation of the induced map.
    """
    if A.size != B.size:
        return None
    ja, ma = birkhoff_masks(element_order(A))
    jb, mb = birkhoff_masks(element_order(B))
    f = poset_isomorphic(inclusion_order([ma[p] for p in ja]),
                         inclusion_order([mb[q] for q in jb]))
    if f is None:
        return None
    mapping = []
    for m in ma:
        img = B.zero
        for t in bit_indices(m):
            img = B.join(img, jb[f[t]])
        mapping.append(img)
    if len(set(mapping)) != A.size:
        return None
    for a in range(A.size):
        if mapping[A.star(a)] != B.star(mapping[a]):
            return None
        for b in range(A.size):
            if mapping[A.meet(a, b)] != B.meet(mapping[a], mapping[b]):
                return None
            if mapping[A.join(a, b)] != B.join(mapping[a], mapping[b]):
                return None
    if mapping[A.zero] != B.zero or mapping[A.one] != B.one:
        return None
    return tuple(mapping)


# ----------------------------------------------------------------- carriers

def to_table(A: PAlgebra) -> TableAlgebra:
    if isinstance(A, TableAlgebra):
        return A
    cap = config.DEFAULT.element_cap
    if A.size > cap:
        raise CapExceeded("table size", A.size, cap)
    return tabulate(A.size, A.meet, A.join, A.star, A.zero, A.one)


def to_upset(A: PAlgebra) -> UpsetAlgebra:
    """Rebuild A as the upsets of its reversed join-irreducible poset."""
    if isinstance(A, UpsetAlgebra):
        return A
    ja, masks = birkhoff_masks(element_order(A))
    base = inclusion_order([masks[p] for p in ja]).dual()
    if sorted(masks) != sorted(enumerate_upsets(base)):
        raise ValueError("carrier is not the full upset lattice of its join-irreducibles")
    labels = None
    if A.labels is not None:
        labels = [A.labels[p] for p in ja]
    return UpsetAlgebra(base, labels=labels)


# -------------------------------------------------------------------- JSON

def algebra_to_json_dict(A: PAlgebra) -> dict:
    if isinstance(A, TableAlgebra):
        return {
            "kind": "table",
            "size": A.size,
            "meet": [list(row) for row in A.meet_table],
            "join": [list(row) for row in A.join_table],
            "star": list(A.star_table),
            "zero": A.zero,
            "one": A.one,
        }
    labels = A.labels if A.labels is not None else tuple(str(i) for i in range(A.base.n))
    return {
        "kind": "upset",
        "poset": {"size": A.base.n, "covers": [list(c) for c in A.base.covers()]},
        "labels": list(labels),
    }


def algebra_from_json_dict(doc: dict) -> PAlgebra:
    try:
        kind = doc["kind"]
        if kind == "table":
            return TableAlgebra(doc["meet"], doc["join"], doc["star"], doc["zero"], doc["one"])
        if kind == "upset":
            poset, labels = doc["poset"], [str(s) for s in doc["labels"]]
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
    one piece per value; here a list of plain ints (a table row) is one
    join, and every other scalar and every key goes through ``json.dumps``.
    """
    yield from _json_pieces(doc, "")
    yield "\n"


def _json_pieces(x, pad: str):
    if isinstance(x, dict):
        if not x:
            yield "{}"
            return
        inner = pad + "  "
        sep = "{\n" + inner
        for key, value in x.items():
            # json writes a non-str key (int, float, bool, None) as the string of its value
            yield sep + json.dumps(key if isinstance(key, str) else json.dumps(key)) + ": "
            yield from _json_pieces(value, inner)
            sep = ",\n" + inner
        yield "\n" + pad + "}"
    elif isinstance(x, (list, tuple)):
        if not x:
            yield "[]"
            return
        inner = pad + "  "
        if all(type(v) is int for v in x):  # not isinstance: a bool is written true/false
            yield "[\n" + inner + (",\n" + inner).join(map(str, x)) + "\n" + pad + "]"
            return
        sep = "[\n" + inner
        for value in x:
            yield sep
            yield from _json_pieces(value, inner)
            sep = ",\n" + inner
        yield "\n" + pad + "]"
    else:
        yield json.dumps(x)


def algebra_dumps(A: PAlgebra) -> str:
    return "".join(json_chunks(algebra_to_json_dict(A)))


def algebra_loads(text: str) -> PAlgebra:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedTables(f"bad JSON: {exc}") from exc
    return algebra_from_json_dict(doc)
