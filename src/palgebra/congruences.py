"""Congruences of finite p-algebras.

Read off the dual of ``upset_carrier(A)``: Y -> theta(Y), where a ~ b iff
a & Y == b & Y, maps the p-closed sets of base points (those holding
max(up(y)) with each y) order-reversingly onto Con(A).  The completely
meet-irreducible records: every prime filter F determines a unique
congruence whose 1-class is F, built from F-bar = {a : a** in F} and the
I-type prime filters above it, all read off the Birkhoff masks.  Records
carry the unique cover mu+, the storey tag, psi = min 1/mu, and the
subcover witness e_mu.
"""

from __future__ import annotations

from functools import partial
from itertools import compress
from typing import Hashable, Iterable, Sequence

from . import config
from .errors import CapExceeded, NotACongruence, NotPrime
from .posets import (Poset, bit_indices, enumerate_upsets, inclusion_order, is_upset,
                     point_columns)
from .records import Record


class Congruence:
    """A partition of 0..size-1; rep[i] is the least member of i's class."""

    __slots__ = ("rep", "_classes")

    def __init__(self, labels: Iterable[Hashable]):
        """Any class labels, e.g. tuples; each is replaced by the least
        index that carries it."""
        labels = tuple(labels)
        # over the labels reversed, each label's last write is its least index
        least = dict(zip(labels[::-1], range(len(labels) - 1, -1, -1)))
        self.rep = tuple(map(least.__getitem__, labels))
        self._classes: tuple[int, ...] | None = None

    @classmethod
    def _trusted(cls, rep: tuple[int, ...]) -> "Congruence":
        """The partition whose least members rep already lists."""
        C = cls.__new__(cls)
        C.rep, C._classes = rep, None
        return C

    @property
    def size(self) -> int:
        return len(self.rep)

    def same(self, i: int, j: int) -> bool:
        return self.rep[i] == self.rep[j]

    def class_mask(self, i: int) -> int:
        r = self.rep[i]
        return sum(1 << j for j, s in enumerate(self.rep) if s == r)

    def classes(self) -> tuple[int, ...]:
        """Class masks ordered by least member."""
        if self._classes is None:
            by_rep: dict[int, int] = {}
            for i, r in enumerate(self.rep):
                by_rep[r] = by_rep.get(r, 0) | (1 << i)
            self._classes = tuple(by_rep[r] for r in sorted(by_rep))
        return self._classes

    @property
    def num_classes(self) -> int:
        return len(self.classes())

    def is_identity(self) -> bool:
        return self.num_classes == self.size

    def is_full(self) -> bool:
        return self.num_classes == 1

    def refines(self, other: "Congruence") -> bool:
        """self <= other in the congruence lattice (every class fits inside one)."""
        return all(other.rep[i] == other.rep[r] for i, r in enumerate(self.rep))

    def join(self, other: "Congruence") -> "Congruence":
        """The least partition above both, by union-find under least roots:
        self's classes are a forest already, each hung off its least member."""
        parent = list(self.rep)

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i, j in enumerate(other.rep):
            ri, rj = find(i), find(j)
            parent[max(ri, rj)] = min(ri, rj)
        return Congruence._trusted(tuple(map(find, range(self.size))))

    def meet(self, other: "Congruence") -> "Congruence":
        return Congruence(zip(self.rep, other.rep))

    def merge_classes(self, i: int, j: int) -> "Congruence":
        """The smallest partition above self that puts i and j together
        (not closed under the algebra operations)."""
        ri, rj = self.rep[i], self.rep[j]
        lo, hi = min(ri, rj), max(ri, rj)  # lo stays the least of the merged class
        return Congruence._trusted(tuple(map({hi: lo}.get, self.rep, self.rep)))

    def __eq__(self, other) -> bool:
        return isinstance(other, Congruence) and self.rep == other.rep

    def __hash__(self) -> int:
        return hash(self.rep)

    def __repr__(self) -> str:
        return f"Congruence({self.num_classes} classes on {self.size})"


def identity_congruence(size: int) -> Congruence:
    return Congruence._trusted(tuple(range(size)))


def full_congruence(size: int) -> Congruence:
    return Congruence._trusted((0,) * size)


def principal_congruence(A, a: int, b: int) -> Congruence:
    """Theta(a,b), the least congruence with a ~ b."""
    return congruence_closure(A, [(a, b)])


def congruence_closure(A, pairs: Sequence[tuple[int, int]]) -> Congruence:
    """Smallest congruence of A containing all the given pairs: theta(Y) of
    the points whose p-closed row misses every a xor b (a lawless table is
    refused)."""
    from .algebras import upset_carrier

    C = upset_carrier(A)
    split = 0
    for a, b in pairs:
        split |= C.elements[a] ^ C.elements[b]
    return _theta(C, sum(1 << y for y, row in enumerate(_p_closed_order(C).up) if not row & split))


def all_congruences(A, cap: int | None = None) -> list[Congruence]:
    """The whole congruence lattice sorted by ``rep``: theta(Y) of every
    upset Y of the p-closed order.  Guarded by the oracle cap."""
    from .algebras import upset_carrier

    cap = config.DEFAULT.oracle_cap if cap is None else cap
    if A.size > cap:
        raise CapExceeded("carrier for congruence-lattice enumeration", A.size, cap)
    C = upset_carrier(A)
    return sorted(map(partial(_theta, C), enumerate_upsets(_p_closed_order(C))),
                  key=lambda c: c.rep)


def _p_closed_order(C) -> Poset:
    """The order on the upset carrier C's base points in which y lies below
    itself and the maximal points above it; its upsets are the p-closed sets."""
    tops = C.masks.tops
    up = [1 << y | row & tops for y, row in enumerate(C.base.up)]
    return Poset._trusted(up, point_columns(up, len(up)))


def _theta(C, Y: int) -> Congruence:
    return Congruence(map(Y.__and__, C.elements))


def is_dual_congruence(C, rep: Sequence[int]) -> bool:
    """Whether rep, a list of least members, is a congruence of the upset
    carrier C: Y, the points whose column is a union of rep's classes, must
    be p-closed and theta(Y) rep's partition."""
    digits = [format(column, f"0{C.size}b")[::-1].encode() for column in C.columns()]
    Y = sum(1 << y for y, d in enumerate(digits) if bytes(map(d.__getitem__, rep)) == d)
    return is_upset(_p_closed_order(C), Y) and _theta(C, Y).rep == tuple(rep)


# ------------------------------------------------------------- prime filters

# translate the binary digits of a mask, least first, to 1 at each member
# (_MEMBER) or at each outsider (_OUTSIDER) and 0 elsewhere
_MEMBER = bytes.maketrans(b"01", b"\0\1")
_OUTSIDER = bytes.maketrans(b"01", b"\1\0")


def is_prime_filter(A, mask: int) -> bool:
    """Whether mask is a prime filter of A: a proper nonempty upset closed
    under meet whose complement is closed under join.  Each member's up row
    and meet row and each outsider's join row are read whole, through a
    membership list, in C."""
    n = A.size
    if not mask or mask == (1 << n) - 1:
        return False
    digits = format(mask, f"0{n}b")[::-1].encode()
    inside, outside = digits.translate(_MEMBER), digits.translate(_OUTSIDER)
    members = bit_indices(mask)
    if any(A.up_row(a) & ~mask for a in members):
        return False
    if not all(all(map(inside.__getitem__, compress(A.meet_row(a), inside))) for a in members):
        return False
    return not any(any(map(inside.__getitem__, compress(A.join_row(a), outside)))
                   for a in bit_indices(mask ^ (1 << n) - 1))


def prime_filters(A) -> list[int]:
    """All prime filters, as element masks: in a finite distributive lattice
    these are exactly the up-sets of join-irreducibles."""
    from .algebras import upset_carrier
    return upset_carrier(A).birkhoff()[1]


def closure_filter(A, mask: int) -> int:
    """F-bar = {a : a** in F}."""
    return sum(1 << a for a in range(A.size) if (mask >> A.star(A.star(a))) & 1)


def i_type_filters(A) -> list[int]:
    """Prime filters F with: a** in F implies a in F (the 1-classes of the
    congruences whose quotient is the 2-element algebra)."""
    return [F for F in prime_filters(A) if closure_filter(A, F) == F]


# ---------------------------------------------------------------- Cm records

class CmRecord(Record):
    """A completely meet-irreducible congruence mu with its derived data:
    the congruence mu_plus, the storey ("I" or "II"), and the ints one_mask,
    psi and e_mu."""
    __slots__ = ("mu", "mu_plus", "storey", "one_mask", "psi", "e_mu")

    @property
    def one_class(self) -> tuple[int, ...]:
        return tuple(bit_indices(self.one_mask))

    def to_json_dict(self, indices=list) -> dict:
        """The record as JSON; its index lists are passed through ``indices``
        (``dual`` writes them as ``algebras.proved_indices``)."""
        return {
            "mu": indices(self.mu.rep),
            "muPlus": indices(self.mu_plus.rep),
            "storey": self.storey,
            "oneClass": indices(self.one_class),
            "psi": self.psi,
            "eMu": self.e_mu,
        }


def _unique_subcover_check(A, mu: Congruence, one_mask: int) -> bool:
    """The quotient must have a unique subcover of the 1-class."""
    classes = mu.classes()
    reps = [next(iter(bit_indices(c))) for c in classes]
    one_rep = mu.rep[next(iter(bit_indices(one_mask)))]
    below = [r for r in reps if r != one_rep]
    maximal = [r for r in below
               if not any(s != r and mu.rep[A.meet(r, s)] == r for s in below)]
    return len(maximal) == 1


def cm_from_prime_filter(A, F: int, *, verify: bool = False) -> CmRecord:
    """The unique completely meet-irreducible congruence with 1-class F,
    taken from cm_all; raises NotPrime if F is not a prime filter."""
    if not is_prime_filter(A, F):
        raise NotPrime("not a prime filter mask")
    for record in cm_all(A, verify=verify):
        if record.one_mask == F:
            return record
    raise NotPrime("no join-irreducible generates this filter")


def cm_all(A, *, verify: bool = False) -> list[CmRecord]:
    """One record per prime filter F = up(p), p join-irreducible, read off
    ``upset_carrier(A).birkhoff()`` (a lawless table is refused).  With Q
    the atoms below p, F-bar = {a : a** in F} is the meet of their filters,
    the I-type filters above it, and F is I-type iff Q = {p}.  Classes: F;
    F-bar minus F; outside F-bar, one per set of atoms of Q below.
    verify=True re-proves from the operations that the filters are prime,
    mu and mu+ compatible and each quotient's subcover of 1 unique, and that
    the records are theta of the points' p-closed rows: the completely
    meet-irreducible congruences, read in the dual."""
    from .algebras import compatibility_witness, upset_carrier

    C = upset_carrier(A)
    ja, ups, below = C.birkhoff()
    if verify and not all(is_prime_filter(A, F) for F in ups):
        raise NotPrime("an up-set of a join-irreducible failed the prime check")
    atoms = sum(1 << t for t, p in enumerate(ja) if below[p] == 1 << t)
    records = []
    for t, p in enumerate(ja):
        F, under, fbar = ups[t], below[p] & atoms, (1 << A.size) - 1
        for q in bit_indices(under):
            fbar &= ups[q]
        # label a by below[a] & (Q + t): F (above p, so above Q) reads Q + t,
        # F-bar minus F reads Q (it is empty when p is an atom, Q = {t}), and
        # the rest read the atoms of Q below them
        mu = Congruence(map((under | 1 << t).__and__, below))
        if under == 1 << t:
            records.append(CmRecord(mu, full_congruence(A.size), "I", F, p, _low_bit(~F)))
        else:
            e = _low_bit(fbar & ~F)
            records.append(CmRecord(mu, mu.merge_classes(_low_bit(F), e), "II", F, p, e))
    if not verify:
        return records
    for r in records:
        for cong, tag in ((r.mu, "mu"), (r.mu_plus, "mu-plus")):
            w = compatibility_witness(A, cong.rep)
            if w is not None:
                raise NotACongruence(f"{tag} construction broke compatibility at {w}")
        if not _unique_subcover_check(A, r.mu, r.one_mask):
            raise NotACongruence("quotient lacks a unique subcover of 1")
    if {r.mu for r in records} != set(map(partial(_theta, C), _p_closed_order(C).up)):
        raise RuntimeError("record construction disagrees with the dual's meet-irreducibles")
    return records


def cm_leq(r: CmRecord, s: CmRecord) -> bool:
    """The tight order: inclusion of 1-classes."""
    return not (r.one_mask & ~s.one_mask)


def cm_subset(r: CmRecord, s: CmRecord) -> bool:
    """Plain congruence inclusion."""
    return r.mu.refines(s.mu)


def cm_posets(records: Sequence[CmRecord]) -> tuple[Poset, Poset]:
    """(inclusion order, 1-class order) over ``cm_all(A)`` for a lawful A.
    Distinct records compare by inclusion only as a storey-II record below a
    storey-I one whose 1-class holds its own: an order by construction, as
    only storey-I records lie above others and none lies above them."""
    by_one = inclusion_order([sum(1 << s for s, t in enumerate(records) if r.one_mask >> t.psi & 1)
                              for r in records])  # F_s lies in F_r iff psi_s is in F_r
    i_mask = sum(1 << s for s, r in enumerate(records) if r.storey == "I")
    up = [1 << i | (by_one.up[i] & i_mask if r.storey == "II" else 0)
          for i, r in enumerate(records)]
    return Poset._trusted(up, point_columns(up, len(up))), by_one


def _low_bit(mask: int) -> int:
    """The least i with bit i set; for ~F, the least element outside F."""
    return (mask & -mask).bit_length() - 1


def m_of(phi: Congruence, records: Sequence[CmRecord]) -> list[CmRecord]:
    """M(phi): the records above phi."""
    return [r for r in records if phi.refines(r.mu)]


def m_hat(A, a: int, records: Sequence[CmRecord] | None = None) -> list[CmRecord]:
    """M-hat(a): the records whose 1-class contains a."""
    records = cm_all(A) if records is None else records
    return [r for r in records if (r.one_mask >> a) & 1]


def compose_check_permutability(A, c: int, n: int = 2,
                                congruences: Sequence[Congruence] | None = None,
                                cap: int | None = None) -> list[tuple[int, int]]:
    """Pairs (i, j) of congruence indices whose n-fold alternating relational
    compositions starting at c give different sets.  Empty means the algebra
    is n-permutable at c."""
    cons = all_congruences(A, cap=cap) if congruences is None else list(congruences)

    def chain(first: Congruence, second: Congruence) -> int:
        mask = 1 << c
        for step in range(n):
            th = first if step % 2 == 0 else second
            grown = 0
            for cls in th.classes():
                if cls & mask:
                    grown |= cls
            mask = grown
        return mask

    out = []
    for i in range(len(cons)):
        for j in range(i + 1, len(cons)):
            if chain(cons[i], cons[j]) != chain(cons[j], cons[i]):
                out.append((i, j))
    return out
