"""Free p-algebras of finite rank.

The join-irreducibles of the k-generated free algebra at level n are indexed
by pairs (family, L): a nonempty family of at most n subsets of the generator
set, and L a subset of the family's intersection.  The index poset, with
(fam_a, L_a) <= (fam_b, L_b)  iff  fam_b is a subfamily of fam_a and
L_a a subset of L_b, is the reversed algebra order on join-irreducibles; the
free algebra is the lattice of its upsets.  n = None stands for the
unbounded level, which saturates at n = 2^k; n = 0 degenerates the index set
to the 2^k atom indices and yields the free Boolean algebra (an extension
beyond the n > 0 indexing).
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence

from .algebras import UpsetAlgebra, UpsetMasks, build_si, is_isomorphic, product_many, quotient
from . import config
from .congruences import Congruence, principal_congruence
from .errors import COUNT_BITS_LIMIT, BadIndex, CapExceeded
from .posets import (
    Poset,
    bit_indices,
    disjoint_union,
    inclusion_order,
    min_elements,
    poset_isomorphic,
)
from .records import Record
from .terms import (
    Star,
    Term,
    atom_term,
    code_vars,
    compile_postfix,
    eval_postfix,
    index_term,
    join_all,
    to_text,
)


class JIndex(Record):
    """One join-irreducible index: subset masks over variables 1..k, the
    family tees (a strictly ascending nonempty tuple) and L = ell."""
    __slots__ = ("k", "tees", "ell")

    def __init__(self, k: int, tees: tuple[int, ...], ell: int):
        if not tees or list(tees) != sorted(set(tees)):
            raise BadIndex("the family must be nonempty and strictly ascending")
        common = (1 << k) - 1
        for T in tees:
            if T >> k:
                raise BadIndex("family member exceeds the variable count")
            common &= T
        if ell & ~common:
            raise BadIndex("L must be included in every family member")
        Record.__init__(self, k, tees, ell)

    @classmethod
    def _trusted(cls, k: int, tees: tuple[int, ...], ell: int) -> "JIndex":
        """An index valid by construction, made without the checks (as
        ``enumerate_jindices`` makes them; its tests re-validate each one)."""
        j = object.__new__(cls)
        _set_k(j, k)
        _set_tees(j, tees)
        _set_ell(j, ell)
        return j

    @property
    def is_atom(self) -> bool:
        return len(self.tees) == 1 and self.ell == self.tees[0]

    @property
    def storey(self) -> str:
        return "I" if self.is_atom else "II"

    def sort_key(self):
        return (len(self.tees), self.tees, self.ell)

    def term(self) -> Term:
        return index_term(self.tees, self.ell, self.k)

    def to_json_dict(self) -> dict:
        return {
            "T": [[i + 1 for i in bit_indices(T)] for T in self.tees],
            "L": [i + 1 for i in bit_indices(self.ell)],
        }

    @classmethod
    def from_json_dict(cls, doc: dict, k: int) -> "JIndex":
        tees = tuple(sorted(sum(1 << (i - 1) for i in T) for T in doc["T"]))
        ell = sum(1 << (i - 1) for i in doc["L"])
        return cls(k, tees, ell)


_set_k, _set_tees, _set_ell = JIndex.k.__set__, JIndex.tees.__set__, JIndex.ell.__set__


def jirr_term(tees: Iterable[int], ell: int, k: int) -> Term:
    """The term of the index (family tees, L = ell) over k variables, from
    raw index data; JIndex rejects an invalid index."""
    return JIndex(k, tuple(sorted(set(tees))), ell).term()


def base_leq(a: JIndex, b: JIndex) -> bool:
    """The index order (reversed algebra order on join-irreducibles)."""
    return set(b.tees) <= set(a.tees) and not (a.ell & ~b.ell)


def _check_level(n: int | None, k: int) -> None:
    if k < 0 or (n is not None and n < 0):
        raise ValueError("need k >= 0 and n >= 0")


def enumerate_jindices(n: int | None, k: int) -> list[JIndex]:
    """All indices at level n over k variables, canonically sorted."""
    _check_level(n, k)
    subsets = range(1 << k)
    if n == 0:
        return [JIndex._trusted(k, (T,), T) for T in subsets]
    n_eff = (1 << k) if n is None else min(n, 1 << k)
    out = []
    for size in range(1, n_eff + 1):
        for fam in itertools.combinations(subsets, size):
            common = (1 << k) - 1
            for T in fam:
                common &= T
            ell = common
            while True:
                out.append(JIndex._trusted(k, fam, ell))
                if ell == 0:
                    break
                ell = (ell - 1) & common
    out.sort(key=JIndex.sort_key)
    return out


@lru_cache(maxsize=None)  # free_skeleton checks it before every cache lookup
def count_jirr(n: int | None, k: int) -> int:
    """The index count, by the binomial double sum (no enumeration): per L,
    the families of 1 to n of the 2^(k-|L|) subsets above L.

    Below n = k the sum over L is taken in closed form.  With W = 2^(k-|L|),
    n! * (C(W, 1) + ... + C(W, n)) is a polynomial sum_j c_j W^j, and
    summing C(k, |L|) W^j over L gives (2^j + 1)^k.  As C(W, m) = 0 for
    m > W, the polynomial also counts the L with W <= n right, where every
    nonempty family is allowed."""
    _check_level(n, k)
    if n == 0:
        return 1 << k
    if n is not None and n < k:
        falling, scale, poly = [1], math.factorial(n), [0] * (n + 1)
        for m in range(1, n + 1):  # falling: W(W-1)...(W-m+1), scale: n!/m!
            falling = [a - (m - 1) * b for a, b in zip([0] + falling, falling + [0])]
            scale //= m
            for j, c in enumerate(falling):
                poly[j] += scale * c
        return sum(c * ((1 << j) + 1) ** k for j, c in enumerate(poly) if c) // math.factorial(n)
    total, choose = 0, 1
    for ell in range(k + 1):  # choose = C(k, ell), each from the one before
        width = 1 << (k - ell)
        if n is None or n >= width:  # every nonempty family: the closed form
            inner = (1 << width) - 1
        else:
            inner, c = 0, 1
            for m in range(1, n + 1):  # c = C(width, m), each from the one before
                c = c * (width - m + 1) // m
                inner += c
        total += choose * inner
        choose = choose * (k - ell) // (ell + 1)
    return total


class Skeleton(NamedTuple):
    """The index layer of one free algebra, built once per level and rank."""
    indices: tuple[JIndex, ...]  # in sort_key order
    poset: Poset
    ops: UpsetMasks  # the free algebra, as upset masks of the poset
    gen_masks: tuple[int, ...]  # x_i as the mask of the indices whose L holds i
    terms: list[Term | None]  # index terms, filled in by term() on first use
    carrier: list[UpsetAlgebra | None]  # [the free algebra], filled in by algebra()

    def term(self, p: int) -> Term:
        """The index term of indices[p], built once and then shared."""
        t = self.terms[p]
        if t is None:
            t = self.terms[p] = self.indices[p].term()
        return t

    def algebra(self) -> UpsetAlgebra:
        """The free algebra, labelled by the index terms, built once and then
        shared (``build_free`` checks the element cap before reading it)."""
        A = self.carrier[0]
        if A is None:
            labels = [to_text(self.term(p)) for p in range(len(self.indices))]
            A = self.carrier[0] = UpsetAlgebra(self.poset, labels=labels)
        return A

    def elements(self, codes: Iterable[Sequence[tuple]]) -> list[int]:
        """The upset mask of each compiled term."""
        valuation = dict(enumerate(self.gen_masks, 1))
        return [eval_postfix(code, self.ops, valuation) for code in codes]


@lru_cache(maxsize=None)
def _skeleton(n_key: int | None, k: int) -> Skeleton:
    indices = tuple(enumerate_jindices(n_key, k))
    # mask i within mask j iff fam_j within fam_i and L_i within L_j: base_leq
    every = (1 << (1 << k)) - 1
    poset = inclusion_order([(every & ~sum(1 << T for T in j.tees)) << k | j.ell for j in indices])
    gen_masks = tuple(sum(1 << p for p, j in enumerate(indices) if (j.ell >> i) & 1)
                      for i in range(k))
    return Skeleton(indices, poset, UpsetMasks(poset), gen_masks, [None] * len(indices), [None])


def count_jirr_or_text(n: int | None, k: int) -> int | str:
    """count_jirr(n, k), or a text "2^N or more" where that is known without
    the sum.  With every family allowed (level omega, or n >= 2^k) and
    k >= 14, the count lies in [2^(2^k), 2^(2^k + 1)) and has more than 4,300
    digits, as errors.shown would write it.  Where n < 2^k and n * k (about
    the count's bit length below n = k) passes COUNT_BITS_LIMIT, N is a lower
    bound: the count is at least 3^k > 2^k and at least its largest term
    C(2^k, n) >= (2^k / n)^n."""
    if k >= 14 and (n is None or n.bit_length() > k):
        return f"2^{1 << k} or more" if k < 14_000 else f"2^(2^{k}) or more"
    if n is not None and n.bit_length() <= k and n * k > COUNT_BITS_LIMIT:
        return f"2^{max(k, n * (k - n.bit_length()))} or more"
    return count_jirr(n, k)


def free_skeleton(n: int | None, k: int) -> Skeleton:
    """The level-n, rank-k Skeleton, without materializing elements."""
    _check_level(n, k)
    n_key = None if n is None else n if n.bit_length() <= k else 1 << k  # min(n, 2^k)
    expected, cap = count_jirr_or_text(n_key, k), config.DEFAULT.poset_cap
    # outside the cache, so a lowered cap still fires; a count too long to
    # print passes any cap
    if isinstance(expected, str) or expected > cap:
        raise CapExceeded("join-irreducible index set", expected, cap)
    return _skeleton(n_key, k)


class FreeAlgebra:
    """A materialized free algebra with its index layer kept visible."""

    def __init__(self, n, k, skeleton: Skeleton, algebra):
        self.n = n
        self.k = k
        self.indices, self.poset = skeleton.indices, skeleton.poset
        self.gen_masks = skeleton.gen_masks
        self.algebra = algebra
        self.gens = tuple(algebra.index[m] for m in self.gen_masks)

    @property
    def size(self) -> int:
        return self.algebra.size

    def valuation(self) -> dict[int, int]:
        """Generators as a ready-made valuation x_i -> element."""
        return {i + 1: g for i, g in enumerate(self.gens)}

    def __repr__(self) -> str:
        return (f"FreeAlgebra(n={self.n}, k={self.k}, "
                f"jirr={len(self.indices)}, size={self.algebra.size})")


def build_free(n: int | None, k: int) -> FreeAlgebra:
    """The level-n free algebra on k generators; its carrier is the
    skeleton's, built once per skeleton."""
    skeleton = free_skeleton(n, k)
    built, cap = skeleton.carrier[0], config.DEFAULT.element_cap
    # outside the cache, so a lowered cap still fires, with the cold build's text
    if built is not None and built.size > cap:
        raise CapExceeded("upset count", cap + 1, cap)
    return FreeAlgebra(n, k, skeleton, skeleton.algebra())


def free_elements(terms: Iterable[Term], n: int | None, k: int | None = None) -> list[int]:
    """Each term's element of the level-n free algebra on k generators (by
    default the largest variable index among the terms): an upset mask of
    free_skeleton's index poset.  Terms are equal there iff masks are.  A
    term may come compiled (``compile_postfix``'s tuple), as checks that
    evaluate it again pass it."""
    codes = [t if type(t) is tuple else compile_postfix(t) for t in terms]
    if k is None:
        k = max(code_vars(*codes), default=0)
    return free_skeleton(n, k).elements(codes)


def normal_form(t: Term, n: int | None, k: int | None = None) -> Term:
    """t's element (free_elements) written out: the canonical join of the index
    terms at its minimal indices, the maximal join-irreducibles below t at
    level n.  Idempotent.  k widens the ambient variable set beyond max_var(t).
    """
    code = compile_postfix(t)
    k = max(max(code_vars(code), default=0), 0 if k is None else k)
    skeleton = free_skeleton(n, k)
    [mask] = skeleton.elements([code])
    # the indices are in sort_key order, so ascending positions list the
    # heads canonically; no head joins to ZERO
    heads = bit_indices(min_elements(skeleton.poset, mask))
    return join_all([skeleton.term(p) for p in heads])


# --------------------------------------------------- free distributive D(s)

def free_distributive(s: int) -> UpsetAlgebra:
    """The free bounded distributive lattice on s generators as a p-algebra:
    upsets of the subset cube ordered by inclusion.  The base has a single
    maximal node, so every nonzero element is dense."""
    if s < 0:
        raise ValueError("s must be >= 0")
    if s > 4:
        raise CapExceeded("distributive generator count", s, 4)
    cube = inclusion_order(range(1 << s))
    labels = ["{" + ",".join(str(i + 1) for i in bit_indices(m)) + "}"
              for m in range(1 << s)]
    return UpsetAlgebra(cube, labels=labels)


def quotient_to_distributive(n: int | None, k: int, T: int):
    """Collapse 1 with the double star of the atom term of T; the quotient
    is the free distributive lattice on |T| generators.  Returns the quotient
    and the element-level isomorphism (None if the comparison fails)."""
    if T >> k:
        raise BadIndex("T exceeds the variable count")
    F = build_free(n, k)
    target = eval_postfix(compile_postfix(Star(Star(atom_term(T, k)))),
                          F.algebra, F.valuation())
    theta = principal_congruence(F.algebra, F.algebra.one, target)
    quo = quotient(F.algebra, theta, check=False)
    D = free_distributive(bin(T).count("1"))
    return quo.algebra, is_isomorphic(quo.algebra, D)


class StoneDecomposition(Record):
    """The level-1 free algebra on k generators matched against the product
    of the factors (UpsetAlgebras), one per subset mask; level is "elements"
    or "poset", and iso the matching, or None."""
    __slots__ = ("k", "subset_masks", "factors", "level", "iso")


def stone_decompose(k: int) -> StoneDecomposition:
    """Match the level-1 free algebra against the product of free
    distributive lattices, one factor of rank |T| per subset T.  Element-level
    when the element count fits under the cap, index-poset-level otherwise."""
    _check_level(None, k)
    if k > 3:
        raise CapExceeded("generator count for the decomposition", k, 3)
    subset_masks = tuple(range(1 << k))
    factors = tuple(free_distributive(bin(T).count("1")) for T in subset_masks)
    total = math.prod(f.size for f in factors)
    if total <= config.DEFAULT.element_cap:
        F = build_free(1, k)
        prod = product_many(list(factors))
        iso = is_isomorphic(F.algebra, prod)
        return StoneDecomposition(k, subset_masks, factors, "elements", iso)
    iso = poset_isomorphic(free_skeleton(1, k).poset, disjoint_union([f.base for f in factors]))
    return StoneDecomposition(k, subset_masks, factors, "poset", iso)


# ------------------------------------------------------------ H3 digression

def h3_poset(n: int | None, k: int):
    """The two orders carried by the same index set: plain congruence
    inclusion (reflexive pairs plus non-atom-below-atom pairs where the
    atom's subset belongs to the family) and the 1-class order (the index
    poset itself).  The identity is a pp-morphism from the first onto the
    second."""
    skeleton = free_skeleton(n, k)
    indices, by_one = skeleton.indices, skeleton.poset
    atom_at = {j.tees[0]: p for p, j in enumerate(indices) if j.is_atom}
    rows = [1 << p | (0 if j.is_atom else sum(1 << atom_at[T] for T in j.tees))
            for p, j in enumerate(indices)]
    by_subset = Poset(rows, cap=len(indices))
    return by_subset, by_one, tuple(range(len(indices)))


# -------------------------------------------------- analytic homomorphisms

def homomorphism_g(n: int | None, k: int, tees, ell: int):
    """The generator assignment whose kernel is the congruence of the index
    (tees, ell): x_i goes to the top if i is in L, else to the Boolean tuple
    recording which family members contain i.  Returns (B, assignment) with
    B the subdirectly irreducible target of rank |family|; the assignment
    generates all of B, or just its bounds for an atom index."""
    j = JIndex(k, tuple(sorted(set(tees))), ell)  # validates the index data
    if n is not None and n != 0 and len(j.tees) > n:
        raise BadIndex("family too large for the level")
    s = len(j.tees)
    B = build_si(s)
    top = B.one
    assignment = []
    for i in range(k):
        if (ell >> i) & 1:
            assignment.append(top)
        else:
            assignment.append(sum(1 << t for t, T in enumerate(j.tees) if (T >> i) & 1))
    return B, tuple(assignment)


def kernel_congruence(F: FreeAlgebra, j: JIndex):
    """The kernel of the homomorphism induced by homomorphism_g — an
    independent route to the meet-irreducible congruence of index j."""
    B, assignment = homomorphism_g(F.n, F.k, j.tees, j.ell)
    valuation = {i + 1: assignment[i] for i in range(F.k)}
    per_index = [
        eval_postfix(compile_postfix(idx.term()), B, valuation)
        for idx in F.indices
    ]
    labels = []
    for e in range(F.algebra.size):
        acc = B.zero
        for p in bit_indices(F.algebra.mask(e)):
            acc = B.join(acc, per_index[p])
        labels.append(acc)
    return Congruence(labels)
