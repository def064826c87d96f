"""Shared fixtures: the small-algebra corpus and independent oracles."""

import itertools
import math
import re
from itertools import product as iproduct

from palgebra import (
    ONE,
    ZERO,
    BudgetExceeded,
    CapExceeded,
    Equation,
    Join,
    Meet,
    One,
    ParseError,
    Poset,
    Star,
    TableAlgebra,
    UnknownIdentifier,
    Var,
    Zero,
    build_chain,
    build_free,
    build_si,
    glivenko,
    join_all,
    meet_all,
    normal_form,
    principal_congruence,
    product,
    quotient,
    to_text,
)
from palgebra import JIndex, Verdict, config, free_skeleton, max_var, vars_of
from palgebra.algebras import Violation, upset_carrier
from palgebra.decide import _Budget, _quasi_witness, _sweep_equation
from palgebra.posets import (bit_indices, downset_closure, inclusion_order, min_elements,
                             poset_isomorphic)
from palgebra.terms import compile_postfix, eval_postfix


def ref_bit_indices(mask):
    """``posets.bit_indices`` as one Python step per set bit, before dense
    masks were spread in C."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def small_corpus():
    """(name, algebra) pairs: the si members, chains, small free algebras,
    a product, and a few proper quotients of those."""
    out = [(f"si:{n}", build_si(n)) for n in range(4)]
    out += [(f"chain:{m}", build_chain(m)) for m in range(3, 7)]
    out += [
        ("free:1,1", build_free(1, 1).algebra),
        ("free:2,1", build_free(2, 1).algebra),
        ("free:1,2", build_free(1, 2).algebra),
        ("si:1 x si:1", product(build_si(1), build_si(1))),
    ]
    c4 = build_chain(4)
    out.append(("chain:4 / theta(1,2)", quotient(c4, principal_congruence(c4, 1, 2)).algebra))
    f11 = build_free(1, 1).algebra
    out.append(("free:1,1 / glivenko", quotient(f11, glivenko(f11)[0]).algebra))
    b2 = build_si(2)
    out.append(("si:2 / theta(1,3)", quotient(b2, principal_congruence(b2, 1, 3)).algebra))
    return out


def leq_pairs(A):
    return [(a, b) for a in range(A.size) for b in range(A.size) if A.leq(a, b)]


def brute_pseudocomplement(A, a):
    """max{b : a n b = 0} computed by scan; None if no maximum exists."""
    zeros = [b for b in range(A.size) if A.meet(a, b) == A.zero]
    best = zeros[0]
    for b in zeros[1:]:
        best = A.join(best, b)
    return best if A.meet(a, best) == A.zero else None


def paper_jirr_term(tees, ell, k):
    """Reference for the index term, straight from the paper's formula
    p^L_T = (join of x_T over T in the family)** meet (meet of x_i, i in L),
    where x_T meets x_i for i in T and x_i* for the other i <= k; no short
    forms."""
    def x(T):
        return meet_all([Var(i + 1) if (T >> i) & 1 else Star(Var(i + 1))
                         for i in range(k)])

    head = Star(Star(join_all([x(T) for T in tees])))
    return meet_all([head] + [Var(i + 1) for i in range(k) if (ell >> i) & 1])


def count_monotone_functions(s: int) -> int:
    """Independent oracle for the free distributive lattice size: monotone
    maps 2^s -> 2 counted by direct enumeration (feasible for s <= 4).
    Monotone iff f never drops along a cover edge p -> p | bit."""
    pts = list(range(1 << s))
    count = 0
    for bits in range(1 << (1 << s)):
        ok = True
        for p in pts:
            if not (bits >> p) & 1:
                continue
            for i in range(s):
                q = p | (1 << i)
                if q != p and not (bits >> q) & 1:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            count += 1
    return count


def brute_is_congruence(A, labels) -> bool:
    """Reference compatibility check straight from the definition."""
    for a, b in iproduct(range(A.size), repeat=2):
        if labels[a] != labels[b]:
            continue
        if labels[A.star(a)] != labels[A.star(b)]:
            return False
        for c in range(A.size):
            if labels[A.meet(a, c)] != labels[A.meet(b, c)]:
                return False
            if labels[A.join(a, c)] != labels[A.join(b, c)]:
                return False
    return True


def congruences_via_cm(A):
    """The full congruence lattice as the meet-closure of the completely
    meet-irreducible congruences (plus the full one) — every congruence of a
    finite algebra is the meet of the meet-irreducibles above it.  Far
    cheaper than join-closing principal congruences on larger carriers."""
    from palgebra import cm_all, full_congruence

    closed = {full_congruence(A.size)}
    frontier = [r.mu for r in cm_all(A)]
    closed.update(frontier)
    while frontier:
        x = frontier.pop()
        for y in list(closed):
            z = x.meet(y)
            if z not in closed:
                closed.add(z)
                frontier.append(z)
    return sorted(closed, key=lambda c: c.rep)


def generated_subuniverse(B, seed) -> set[int]:
    """The subuniverse of B generated by the seed elements: the bounds and
    the seed, closed under meet, join and star by a worklist."""
    out = {B.zero, B.one, *seed}
    frontier = list(out)
    while frontier:
        a = frontier.pop()
        for b in list(out):
            for c in (B.meet(a, b), B.join(a, b)):
                if c not in out:
                    out.add(c)
                    frontier.append(c)
        st = B.star(a)
        if st not in out:
            out.add(st)
            frontier.append(st)
    return out


def brute_lower_covers(A, a) -> list[int]:
    """The elements a covers, by pairwise leq: b < a with nothing between."""
    below = [b for b in range(A.size) if b != a and A.leq(b, a)]
    return [b for b in below
            if not any(c != b and A.leq(b, c) for c in below)]


def brute_join_irreducibles(A) -> list[int]:
    """Reference: the elements with exactly one lower cover."""
    return [a for a in range(A.size) if len(brute_lower_covers(A, a)) == 1]


def brute_atoms(A) -> list[int]:
    """Reference: the elements whose only lower cover is the zero."""
    return [a for a in range(A.size) if brute_lower_covers(A, a) == [A.zero]]


# Reference table constructions: the hand-written loops that each wrote the
# operation tables before ``algebras.tabulate`` became the one table builder.

def ref_build_si(n):
    size = (1 << n) + 1
    top = size - 1
    e = top - 1
    meet = [[0] * size for _ in range(size)]
    join = [[0] * size for _ in range(size)]
    for a in range(size):
        for b in range(size):
            if a == top:
                meet[a][b], join[a][b] = b, top
            elif b == top:
                meet[a][b], join[a][b] = a, top
            else:
                meet[a][b], join[a][b] = a & b, a | b
    star = [0] * size
    star[0] = top
    star[top] = 0
    for a in range(1, top):
        star[a] = e ^ a if n > 0 else 0
    return TableAlgebra(meet, join, star, 0, top)


def ref_build_chain(m):
    meet = [[min(a, b) for b in range(m)] for a in range(m)]
    join = [[max(a, b) for b in range(m)] for a in range(m)]
    star = [0] * m
    star[0] = m - 1
    return TableAlgebra(meet, join, star, 0, m - 1)


def ref_product(A, B):
    """The table branch of ``product``."""
    Ta, Tb = ref_to_table(A), ref_to_table(B)
    size = Ta.size * Tb.size

    def pair(i, j):
        return i * Tb.size + j

    meet = [[0] * size for _ in range(size)]
    join = [[0] * size for _ in range(size)]
    star = [0] * size
    for i in range(Ta.size):
        for j in range(Tb.size):
            p = pair(i, j)
            star[p] = pair(Ta.star(i), Tb.star(j))
            for x in range(Ta.size):
                for y in range(Tb.size):
                    q = pair(x, y)
                    meet[p][q] = pair(Ta.meet(i, x), Tb.meet(j, y))
                    join[p][q] = pair(Ta.join(i, x), Tb.join(j, y))
    return TableAlgebra(meet, join, star, pair(Ta.zero, Tb.zero), pair(Ta.one, Tb.one))


def ref_quotient(A, rep):
    """The quotient tables for a least-member class array ``rep``."""
    reps = sorted(set(rep))
    pos = {r: i for i, r in enumerate(reps)}
    proj = tuple(pos[r] for r in rep)
    q = len(reps)
    meet = [[proj[A.meet(reps[i], reps[j])] for j in range(q)] for i in range(q)]
    join = [[proj[A.join(reps[i], reps[j])] for j in range(q)] for i in range(q)]
    star = [proj[A.star(reps[i])] for i in range(q)]
    return TableAlgebra(meet, join, star, proj[A.zero], proj[A.one],
                        labels=[str(r) for r in reps])


def ref_glivenko_skeleton(A):
    regs = [a for a in range(A.size) if A.star(A.star(a)) == a]
    pos = {r: i for i, r in enumerate(regs)}
    meet = [[pos[A.meet(a, b)] for b in regs] for a in regs]
    join = [[pos[A.star(A.star(A.join(a, b)))] for b in regs] for a in regs]
    star = [pos[A.star(a)] for a in regs]
    return TableAlgebra(meet, join, star, pos[A.zero], pos[A.one],
                        labels=[str(r) for r in regs])


def ref_to_table(A):
    if isinstance(A, TableAlgebra):
        return A
    rng = range(A.size)
    meet = [[A.meet(i, j) for j in rng] for i in rng]
    join = [[A.join(i, j) for j in rng] for i in rng]
    star = [A.star(i) for i in rng]
    return TableAlgebra(meet, join, star, A.zero, A.one)


def ref_subalgebra(A, subset):
    """``decide.subalgebra`` with its closure checks inside the table loop."""
    elems = tuple(sorted(subset))
    pos = {e: i for i, e in enumerate(elems)}
    if A.zero not in pos or A.one not in pos:
        raise ValueError("subuniverse must contain the bounds")
    m = len(elems)
    meet = [[0] * m for _ in range(m)]
    join = [[0] * m for _ in range(m)]
    star = [0] * m
    for i, x in enumerate(elems):
        sx = A.star(x)
        if sx not in pos:
            raise ValueError(f"not closed under star at {x}")
        star[i] = pos[sx]
        for j, y in enumerate(elems):
            mv, jv = A.meet(x, y), A.join(x, y)
            if mv not in pos or jv not in pos:
                raise ValueError(f"not closed under meet/join at ({x}, {y})")
            meet[i][j] = pos[mv]
            join[i][j] = pos[jv]
    return TableAlgebra(meet, join, star, pos[A.zero], pos[A.one]), elems


def ref_join_irreducible_points(P):
    """The points with exactly one lower cover, counted off ``P.covers()``,
    the transitive reduction: how ``posets.join_irreducible_points`` found
    them before it read them off the down rows."""
    lower = [0] * P.n
    for _, hi in P.covers():
        lower[hi] += 1
    return [i for i in range(P.n) if lower[i] == 1]



def ref_birkhoff_masks(order):
    """``algebras.birkhoff_masks`` as a loop over the up row of each
    join-irreducible, before it took the rows' point columns."""
    ja = ref_join_irreducible_points(order)
    masks = [0] * order.n
    for t, p in enumerate(ja):
        for a in bit_indices(order.up[p]):
            masks[a] |= 1 << t
    return ja, masks


class RefSkeletonOps:
    """Upset-mask arithmetic over an index poset, as ``free.normal_form``
    had it before ``algebras.UpsetMasks``."""

    zero = 0

    def __init__(self, poset):
        self.poset = poset
        self.one = poset.universe

    def meet(self, a, b):
        return a & b

    def join(self, a, b):
        return a | b

    def star(self, a):
        return self.poset.universe & ~downset_closure(self.poset, a)


def ref_gen_masks(indices, k):
    """Generator x_i as an upset mask: the indices whose L contains i, as
    ``free._gen_masks`` computed it before ``free.Skeleton`` held the masks."""
    return tuple(
        sum(1 << p for p, j in enumerate(indices) if (j.ell >> i) & 1)
        for i in range(k)
    )


def ref_skeleton(n, k):
    """(indices, up rows, down rows, gen_masks) of the level-n, rank-k index
    layer as ``free._skeleton`` built it before its one-pass enumeration:
    every family's L listed downwards, all indices sorted by
    ``JIndex.sort_key``, and each index's family bits and each generator's
    mask summed on their own."""
    subsets = range(1 << k)
    if n == 0:
        indices = [JIndex(k, (T,), T) for T in subsets]
    else:
        n_eff = (1 << k) if n is None else min(n, 1 << k)
        indices = []
        for size in range(1, n_eff + 1):
            for fam in itertools.combinations(subsets, size):
                common = (1 << k) - 1
                for T in fam:
                    common &= T
                ell = common
                while True:
                    indices.append(JIndex(k, fam, ell))
                    if ell == 0:
                        break
                    ell = (ell - 1) & common
        indices.sort(key=JIndex.sort_key)
    every = (1 << (1 << k)) - 1
    poset = inclusion_order([(every & ~sum(1 << T for T in j.tees)) << k | j.ell
                             for j in indices])
    return tuple(indices), poset.up, poset.down, ref_gen_masks(indices, k)


def ref_index_term(fam, ell, k):
    """``terms.index_term`` as it built every term from nothing, before it
    took the family head, the meet of L and the literals from memos, with
    the atoms x_T built as ``atom_term`` built them then."""
    if len(fam) == 1 << k:
        return ONE
    if len(fam) == 1:
        T = fam[0]
        factors = []
        for i in range(k):
            v = Var(i + 1)
            if (ell >> i) & 1:
                factors.append(v)
            elif (T >> i) & 1:
                factors.append(Star(Star(v)))
            else:
                factors.append(Star(v))
        return meet_all(factors)
    atoms = [meet_all([Var(i + 1) if (T >> i) & 1 else Star(Var(i + 1)) for i in range(k)])
             for T in fam]
    head = Star(Star(join_all(atoms)))
    if not ell:
        return head
    return Meet(head, meet_all([Var(i + 1) for i in bit_indices(ell)]))


def ref_count_jirr(n, k):
    """``free.count_jirr`` with ``math.comb(k, ell)`` per L, before C(k, ell)
    was kept as a running product."""
    if k < 0 or (n is not None and n < 0):
        raise ValueError("need k >= 0 and n >= 0")
    if n == 0:
        return 1 << k
    total = 0
    for ell in range(k + 1):
        width = 1 << (k - ell)
        if n is None or n >= width:  # every nonempty family: the closed form
            inner = (1 << width) - 1
        else:
            inner, c = 0, 1
            for m in range(1, n + 1):  # c = C(width, m), each from the one before
                c = c * (width - m + 1) // m
                inner += c
        total += math.comb(k, ell) * inner
    return total


def ref_normal_form(t, n, k=None):
    """``free.normal_form`` before ``UpsetMasks``: the heads re-sorted by
    ``JIndex.sort_key`` and no head written as an explicit ZERO."""
    k = max(max_var(t), 0 if k is None else k)
    skeleton = free_skeleton(n, k)
    indices, poset = skeleton.indices, skeleton.poset
    valuation = dict(enumerate(ref_gen_masks(indices, k), 1))
    mask = eval_postfix(compile_postfix(t), RefSkeletonOps(poset), valuation)
    heads = sorted((indices[p] for p in bit_indices(min_elements(poset, mask))),
                   key=JIndex.sort_key)
    if not heads:
        return ZERO
    return join_all([j.term() for j in heads])


def ref_check_identity(e, n=None, want_witness=False):
    """``decide.check_identity`` before it compared free-algebra elements:
    both normal forms written out as term trees and compared with ``==``,
    and the same sweep when the index skeleton passes its cap."""
    k = max_var(e.lhs, e.rhs)
    n_eff = (1 << k) if n is None else n
    try:
        if normal_form(e.lhs, n, k=k) == normal_form(e.rhs, n, k=k):
            return Verdict(True, None, "normal-form", 0)
        if not want_witness:
            return Verdict(False, None, "normal-form", 0)
    except CapExceeded:
        pass
    witness, used = _sweep_equation(e, n_eff, k)
    return Verdict(witness is None, witness, "exhaustive", used)


def ref_pair_report(t1, t2, n):
    """``decide._pair_report`` with ``ref_check_identity``'s tree comparison
    as its normal-form side."""
    e, k = Equation(t1, t2), max_var(t1, t2)
    decided = ref_check_identity(e, n)
    assert decided.method == "normal-form"
    witness, _ = _sweep_equation(e, (1 << k) if n is None else n, k)
    out = {
        "lhs": to_text(t1),
        "rhs": to_text(t2),
        "normalFormEqual": decided.holds,
        "exhaustiveEqual": witness is None,
        "agree": decided.holds == (witness is None),
    }
    if witness is not None:
        out["witness"] = witness
    return out


def checked_poset(P):
    """P rebuilt from its ``up`` rows by ``Poset(up)``, which re-proves the
    order pair by pair; the ``down`` rows P carries must be the ones that
    check derives."""
    Q = Poset(P.up, cap=P.n)
    assert (Q.n, Q.universe, Q.down) == (P.n, P.universe, P.down)
    return Q


def ref_enumerate_upsets(P, cap):
    """``posets.enumerate_upsets`` before it went level by level: one stack
    push per (position, partial upset), then a sort."""
    order = sorted(range(P.n), key=lambda i: (P.up[i].bit_count(), i))
    strict_up = [P.up[i] & ~(1 << i) for i in range(P.n)]
    found = []
    stack = [(0, 0)]  # (next position in order, upset decided so far)
    while stack:
        pos, cur = stack.pop()
        if pos == len(order):
            if len(found) >= cap:
                raise CapExceeded("upset count", len(found) + 1, cap)
            found.append(cur)
            continue
        i = order[pos]
        if not (strict_up[i] & ~cur):
            stack.append((pos + 1, cur | (1 << i)))
        stack.append((pos + 1, cur))
    found.sort(key=lambda m: (m.bit_count(), m))
    return found


def ref_from_covers(n, pairs):
    """``Poset.from_covers`` before its topological pass: close by a fixed
    point over the edges, then check every pair."""
    rows = [1 << i for i in range(n)]
    changed = True
    while changed:
        changed = False
        for lo, hi in pairs:
            if rows[lo] | rows[hi] != rows[lo]:
                rows[lo] |= rows[hi]
                changed = True
    return Poset(rows, cap=n)


def ref_h3_subset_leq(indices):
    """The pairwise order ``free.h3_poset`` built its subset order from: each
    index below itself, and a non-atom below every atom whose subset is in
    its family."""
    def subset_leq(i, j):
        a, b = indices[i], indices[j]
        return a == b or (not a.is_atom and b.is_atom and b.tees[0] in a.tees)

    return subset_leq


_TOKEN = re.compile(r"\s*(?:(x\d+)|([01&|*()∧∨])|([A-Za-z_]\w*))")
_ALIAS = {"∧": "&", "∨": "|"}


def ref_tokenize(text):
    """The tokenizer of ``ref_parse``: one match and a (kind, text, position)
    tuple per token, raising at the first unexpected character or unknown
    identifier before any token is parsed."""
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            rest = text[pos:].lstrip()
            if not rest:
                break
            at = len(text) - len(rest)
            raise ParseError(f"unexpected character {rest[0]!r}", at)
        if m.group(1):
            out.append(("var", m.group(1), m.start(1)))
        elif m.group(2):
            sym = _ALIAS.get(m.group(2), m.group(2))
            out.append((sym, sym, m.start(2)))
        else:
            raise UnknownIdentifier(f"unknown identifier {m.group(3)!r}", m.start(3))
        pos = m.end()
    return out


def ref_parse(text):
    """The recursive-descent parser ``terms.parse`` replaced: one Python frame
    per nesting level and a separate tokenizing pass; same results and
    errors."""
    tokens = ref_tokenize(text)
    n = len(tokens)
    i = 0

    def peek():
        return tokens[i][0] if i < n else None

    def here():
        return tokens[i][2] if i < n else len(text)

    def primary():
        nonlocal i
        kind = peek()
        if kind == "0":
            i += 1
            return ZERO
        if kind == "1":
            i += 1
            return ONE
        if kind == "var":
            idx = int(tokens[i][1][1:])
            if idx < 1:
                raise UnknownIdentifier("variable indices start at x1", tokens[i][2])
            i += 1
            return Var(idx)
        if kind == "(":
            i += 1
            t = disjunct()
            if peek() != ")":
                raise ParseError("expected ')'", here())
            i += 1
            return t
        raise ParseError("expected a term", here())

    def starred():
        nonlocal i
        t = primary()
        while peek() == "*":
            i += 1
            t = Star(t)
        return t

    def conjunct():
        nonlocal i
        t = starred()
        while peek() == "&":
            i += 1
            t = Meet(t, starred())
        return t

    def disjunct():
        nonlocal i
        t = conjunct()
        while peek() == "|":
            i += 1
            t = Join(t, conjunct())
        return t

    out = disjunct()
    if i < n:
        raise ParseError("trailing input", here())
    return out


def ref_to_text(t, pretty=False):
    """The recursive printer ``terms.to_text`` replaced."""
    meet_sym, join_sym = ("∧", "∨") if pretty else ("&", "|")

    def prec(u):
        return 1 if isinstance(u, Join) else 2 if isinstance(u, Meet) else \
            3 if isinstance(u, Star) else 4

    def wrap(child, floor):
        s = walk(child)
        return f"({s})" if prec(child) < floor else s

    def walk(node):
        if isinstance(node, Zero):
            return "0"
        if isinstance(node, One):
            return "1"
        if isinstance(node, Var):
            return f"x{node.index}"
        if isinstance(node, Star):
            return wrap(node.arg, 3) + "*"
        if isinstance(node, Meet):
            return f"{wrap(node.left, 2)} {meet_sym} {wrap(node.right, 3)}"
        return f"{wrap(node.left, 1)} {join_sym} {wrap(node.right, 2)}"

    return walk(t)


# terms.vars_of, max_var and term_to_json before they read compiled code,
# copied unchanged: the replay oracles for the one walk of a term
def ref_vars_of(*terms):
    """The variable indices occurring in any of the terms, ascending."""
    seen: set[int] = set()
    stack = list(terms)
    pop = stack.pop
    while stack:
        node = pop()
        kind = type(node)
        if kind is Var:
            seen.add(node.index)
        elif kind is Star:
            stack.append(node.arg)
        elif kind is Meet or kind is Join:
            stack += (node.left, node.right)
    return tuple(sorted(seen))


def ref_max_var(*terms):
    """The largest variable index in any of the terms; 0 if there is none."""
    vs = ref_vars_of(*terms)
    return vs[-1] if vs else 0


def ref_term_to_json(t):
    """The JSON tree of a term, built with an explicit stack of nodes and of
    the tags of nodes whose operands are built; nodes are told apart by
    their exact type, as in ``to_text``."""
    out: list = []
    stack: list = [t]
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is str:
            if node == "star":
                out[-1] = ["star", out[-1]]
            else:
                right = out.pop()
                out[-1] = [node, out[-1], right]
        elif kind is Var:
            out.append(["var", node.index])
        elif kind is Star:
            stack += ("star", node.arg)
        elif kind is Meet or kind is Join:
            stack += ("meet" if kind is Meet else "join", node.right, node.left)
        else:
            out.append(["zero"] if kind is Zero else ["one"])
    return out[0]


# algebras.is_isomorphic before it read the map off the Birkhoff masks and
# left the operations unchecked, copied unchanged: the replay oracle for it
def ref_is_isomorphic(A, B):
    """An operation-preserving bijection A -> B as an index tuple, or None.

    Matches the join-irreducible skeleton posets first, then verifies every
    operation of the induced map."""
    if A.size != B.size:
        return None
    ja, _, ma = upset_carrier(A).birkhoff()
    jb, _, mb = upset_carrier(B).birkhoff()
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


# posets.poset_isomorphic before it matched positions on an explicit stack,
# copied unchanged: the replay oracle for its mappings
def ref_poset_isomorphic(P, Q):
    """An order isomorphism P -> Q as an index tuple, or None.

    Deterministic: vertices are matched in a canonical order derived from the
    refined color profile, and candidates are tried by ascending index.
    """
    from palgebra.posets import _refined_colors

    if P.n != Q.n:
        return None
    cp, cq = _refined_colors(P), _refined_colors(Q)
    if sorted(cp) != sorted(cq):
        return None
    freq: dict[int, int] = {}
    for c in cp:
        freq[c] = freq.get(c, 0) + 1
    order = sorted(range(P.n), key=lambda i: (freq[cp[i]], cp[i], i))
    by_color: dict[int, list[int]] = {}
    for j in range(Q.n):
        by_color.setdefault(cq[j], []).append(j)

    mapping = [-1] * P.n
    used = [False] * Q.n

    def rec(pos: int) -> bool:
        if pos == P.n:
            return True
        i = order[pos]
        for j in by_color.get(cp[i], ()):
            if used[j]:
                continue
            ok = True
            for i0 in order[:pos]:
                j0 = mapping[i0]
                if P.leq(i, i0) != Q.leq(j, j0) or P.leq(i0, i) != Q.leq(j0, j):
                    ok = False
                    break
            if ok:
                mapping[i] = j
                used[j] = True
                if rec(pos + 1):
                    return True
                mapping[i] = -1
                used[j] = False
        return False

    return tuple(mapping) if rec(0) else None


def ref_law_scan(A):
    """The element-by-element law scan ``algebras._law_scan`` replaced: the
    first witness of each failed law, cubic in |A| through the carrier's own
    meet, join, star and leq."""
    out = []
    rng = range(A.size)
    meet, join, star = A.meet, A.join, A.star
    zero, one = A.zero, A.one

    def first(law, gen):
        for w in gen:
            out.append(Violation(law, w))
            return

    first("meet-idempotent", ((a,) for a in rng if meet(a, a) != a))
    first("join-idempotent", ((a,) for a in rng if join(a, a) != a))
    first("meet-commutative", ((a, b) for a in rng for b in rng if meet(a, b) != meet(b, a)))
    first("join-commutative", ((a, b) for a in rng for b in rng if join(a, b) != join(b, a)))
    first("absorption-meet", ((a, b) for a in rng for b in rng if meet(a, join(a, b)) != a))
    first("absorption-join", ((a, b) for a in rng for b in rng if join(a, meet(a, b)) != a))
    first("meet-associative", ((a, b, c) for a in rng for b in rng for c in rng
                               if meet(meet(a, b), c) != meet(a, meet(b, c))))
    first("join-associative", ((a, b, c) for a in rng for b in rng for c in rng
                               if join(join(a, b), c) != join(a, join(b, c))))
    first("distributive", ((a, b, c) for a in rng for b in rng for c in rng
                           if meet(a, join(b, c)) != join(meet(a, b), meet(a, c))))
    first("zero-meet", ((a,) for a in rng if meet(zero, a) != zero))
    first("zero-join", ((a,) for a in rng if join(zero, a) != a))
    first("one-meet", ((a,) for a in rng if meet(one, a) != a))
    first("one-join", ((a,) for a in rng if join(one, a) != one))
    if star(one) != zero:
        out.append(Violation("star-one", (one,)))
    if star(zero) != one:
        out.append(Violation("star-zero", (zero,)))
    first("star-meet", ((a, b) for a in rng for b in rng
                        if meet(a, star(meet(a, b))) != meet(a, star(b))))
    first("pseudocomplement", ((a, b) for a in rng for b in rng
                               if (meet(a, b) == zero) != A.leq(a, star(b))))
    return out


# decide._quasi_exhaustive before it evaluated the last variable as a row,
# copied unchanged: the replay oracle for the row sweep
def ref_quasi_exhaustive(q, A, variables, sides=None) -> Verdict:
    # sides (the compiled sides ``decide`` passes along) is not read: the
    # reference compiles its own
    total, budget = A.size ** len(variables), config.DEFAULT.budget
    if total > budget:
        raise BudgetExceeded("valuation sweep", total, budget)
    prem = [(compile_postfix(p.lhs), compile_postfix(p.rhs)) for p in q.premises]
    ccl, ccr = compile_postfix(q.conclusion.lhs), compile_postfix(q.conclusion.rhs)
    used = 0
    for tup in iproduct(range(A.size), repeat=len(variables)):
        used += 1
        val = dict(zip(variables, tup))
        # identity sweeps have no premises: skip building the generator
        if prem and any(eval_postfix(l, A, val) != eval_postfix(r, A, val)
                        for l, r in prem):
            continue
        a, b = eval_postfix(ccl, A, val), eval_postfix(ccr, A, val)
        if a != b:
            return Verdict(False, _quasi_witness(variables, tup, a, b),
                           "exhaustive", used)
    return Verdict(True, None, "exhaustive", used)


def _operands(t, op):
    """The operands of a nest of ``op`` (Join or Meet) nodes, left to right:
    the tree walk ``decide._nest_operands`` replaced, which
    ``ref_quasi_pruned`` keeps as its own."""
    out, stack = [], [t]
    while stack:
        s = stack.pop()
        if isinstance(s, op):
            stack += (s.right, s.left)
        else:
            out.append(s)
    return out


# decide._quasi_pruned before its per-depth plan and order-bound rows, with
# two rules of the planned search added: a candidate whose next-depth star
# pin side has no preimage is skipped uncharged, and the star preimages are
# found with no charge.  The replay oracle for that search
def ref_quasi_pruned(q, A, variables) -> Verdict:
    """Backtracking in ascending variable order.  Premises are checked the
    moment their last variable is assigned; a premise one variable short of
    closed either pins that variable down (bare variable / starred variable
    against a closed side) or, failing a recognizable shape, filters the
    candidate pool by direct evaluation.  Bare join/meet operands of premises
    with one closed side contribute order bounds even earlier.  Below the
    root and above the last depth, a candidate is skipped, uncharged, where
    the first side that pins the next variable w by star preimages (w* = S,
    S closing at this depth) has no preimage."""
    spent = _Budget(config.DEFAULT.budget, "pruned search")
    prems = []
    for p in q.premises:
        vs = frozenset(vars_of(p.lhs, p.rhs))
        prems.append((p, compile_postfix(p.lhs), compile_postfix(p.rhs), vs))
    ccl, ccr = compile_postfix(q.conclusion.lhs), compile_postfix(q.conclusion.rhs)
    star_pre: dict[int, tuple[int, ...]] | None = None
    val: dict[int, int] = {}
    for _, cl, cr, vs in prems:
        if not vs:  # ground premise: decide it once up front
            spent.spend()
            if eval_postfix(cl, A, val) != eval_postfix(cr, A, val):
                return Verdict(True, None, "pruned", spent.used)

    def star_preimages() -> dict[int, tuple[int, ...]]:
        nonlocal star_pre
        if star_pre is None:
            acc: dict[int, list[int]] = {}
            for x in range(A.size):
                acc.setdefault(A.star(x), []).append(x)
            star_pre = {v: tuple(xs) for v, xs in acc.items()}
        return star_pre

    def closed_value(code, term_vars) -> int | None:
        if all(w in val for w in term_vars):
            spent.spend()
            return eval_postfix(code, A, val)
        return None

    def candidates(v: int) -> list[int]:
        pool: list[int] | None = None

        def narrow(xs):
            nonlocal pool
            if pool is None:
                pool = list(xs)
            else:
                keep = set(xs)
                pool = [x for x in pool if x in keep]

        generic: list[tuple] = []
        for p, cl, cr, vs in prems:
            if v not in vs:
                continue
            open_vars = vs - val.keys()
            for mine, mine_code, other, other_code in (
                (p.lhs, cl, p.rhs, cr), (p.rhs, cr, p.lhs, cl),
            ):
                c = closed_value(other_code, vars_of(other))
                if c is None:
                    continue
                if open_vars == {v}:
                    if mine == Var(v):
                        narrow([c])
                    elif mine == Star(Var(v)):
                        narrow(star_preimages().get(c, ()))
                if Var(v) in _operands(mine, Join):
                    spent.spend(A.size if pool is None else len(pool))
                    base = range(A.size) if pool is None else pool
                    narrow([x for x in base if A.leq(x, c)])
                elif Var(v) in _operands(mine, Meet):
                    spent.spend(A.size if pool is None else len(pool))
                    base = range(A.size) if pool is None else pool
                    narrow([x for x in base if A.leq(c, x)])
            if open_vars == {v}:
                generic.append((cl, cr))
        if pool is None:
            pool = list(range(A.size))
        if generic:
            kept = []
            for x in pool:
                val[v] = x
                spent.spend(len(generic))
                if all(eval_postfix(cl, A, val) == eval_postfix(cr, A, val)
                       for cl, cr in generic):
                    kept.append(x)
            val.pop(v, None)
            pool = kept
        return pool

    def star_pin_side(depth: int):
        """The code of S in the first w* = S over w = variables[depth + 1]
        whose S closes at variables[depth]; None at the root and the last
        depth."""
        if not 0 < depth < len(variables) - 1:
            return None
        v, w = variables[depth], variables[depth + 1]
        for p, cl, cr, vs in prems:
            if max(vs, default=0) != w:
                continue
            for mine, other, other_code in ((p.lhs, p.rhs, cr), (p.rhs, p.lhs, cl)):
                if mine == Star(Var(w)) and max(vars_of(other), default=0) == v:
                    return other_code
        return None

    ahead = [star_pin_side(d) for d in range(len(variables))]

    def search(depth: int):
        if depth == len(variables):
            spent.spend()
            a, b = eval_postfix(ccl, A, val), eval_postfix(ccr, A, val)
            if a != b:
                tup = tuple(val[v] for v in variables)
                return _quasi_witness(variables, tup, a, b)
            return None
        v = variables[depth]
        for x in candidates(v):
            val[v] = x
            if ahead[depth] is not None and \
                    eval_postfix(ahead[depth], A, val) not in star_preimages():
                del val[v]
                continue
            spent.spend()
            ok = True
            for p, cl, cr, vs in prems:
                if v in vs and vs <= val.keys():
                    spent.spend()
                    if eval_postfix(cl, A, val) != eval_postfix(cr, A, val):
                        ok = False
                        break
            if ok:
                found = search(depth + 1)
                if found is not None:
                    return found
            del val[v]
        return None

    witness = search(0)
    if witness is None:
        return Verdict(True, None, "pruned", spent.used)
    return Verdict(False, witness, "pruned", spent.used)


def ref_compatibility_witness(A, rep):
    """``algebras.compatibility_witness`` as one loop over the pairs (i, c):
    the star check first, then meet before join at each c."""
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


def ref_is_prime_filter(A, mask):
    """congruences.is_prime_filter before upward closure read ``A.up_row``:
    |A| ``leq`` calls per member."""
    members = list(bit_indices(mask))
    if not members or mask == (1 << A.size) - 1:
        return False
    for a in members:
        for b in range(A.size):
            if A.leq(a, b) and not (mask >> b) & 1:
                return False
        for b in members:
            if not (mask >> A.meet(a, b)) & 1:
                return False
    for a in range(A.size):
        for b in range(A.size):
            if (mask >> A.join(a, b)) & 1 and not ((mask >> a) & 1 or (mask >> b) & 1):
                return False
    return True


# congruences.cm_all and cm_posets before the records and orders were read
# off the Birkhoff masks, copied unchanged: the replay oracles for that route
def _ref_meet_fold(A, mask):
    acc = A.one
    for a in bit_indices(mask):
        acc = A.meet(acc, a)
    return acc


def ref_cm_all(A, *, verify=False):
    """One record per prime filter F, F-bar by |A| star-star calls per
    filter and the labels by a scan of every I-type filter."""
    from palgebra import (CmRecord, Congruence, NotACongruence, NotPrime,
                          all_congruences, closure_filter, compatibility_witness,
                          full_congruence, is_prime_filter, prime_filters)
    from palgebra.congruences import _unique_subcover_check

    filters = prime_filters(A)
    if verify and not all(is_prime_filter(A, F) for F in filters):
        raise NotPrime("an up-set of a join-irreducible failed the prime check")
    fbars = [closure_filter(A, F) for F in filters]
    i_types = [F for F, fbar in zip(filters, fbars) if fbar == F]
    records = []
    for F, fbar in zip(filters, fbars):
        if fbar == F:
            mu = Congruence([(F >> a) & 1 for a in range(A.size)])
            lo_o = min(bit_indices(((1 << A.size) - 1) & ~F))
            records.append(CmRecord(mu, full_congruence(A.size), "I", F,
                                    psi=_ref_meet_fold(A, F), e_mu=lo_o))
            continue
        gees = [G for G in i_types if not (fbar & ~G)]
        mu = Congruence([
            -1 if (F >> a) & 1 else -2 if (fbar >> a) & 1
            else sum(1 << t for t, G in enumerate(gees) if (G >> a) & 1)
            for a in range(A.size)
        ])
        lo_f, lo_e = min(bit_indices(F)), min(bit_indices(fbar & ~F))
        records.append(CmRecord(mu, mu.merge_classes(lo_f, lo_e), "II", F,
                                psi=_ref_meet_fold(A, F), e_mu=lo_e))
    if not verify:
        return records
    for r in records:
        for cong, tag in ((r.mu, "mu"), (r.mu_plus, "mu-plus")):
            w = compatibility_witness(A, cong.rep)
            if w is not None:
                raise NotACongruence(f"{tag} construction broke compatibility at {w}")
        if not _unique_subcover_check(A, r.mu, r.one_mask):
            raise NotACongruence("quotient lacks a unique subcover of 1")
    if A.size <= config.DEFAULT.oracle_cap:
        lattice = all_congruences(A)
        expected = set()
        for th in lattice:
            bound = full_congruence(A.size)
            for ph in lattice:
                if ph != th and th.refines(ph):
                    bound = bound.meet(ph)
            if bound != th:
                expected.add(th)
        if expected != {r.mu for r in records}:
            raise RuntimeError("record construction disagrees with the lattice oracle")
    return records


def ref_cm_posets(records):
    """(inclusion order, 1-class order), each from n^2 pairwise calls."""
    from palgebra import cm_leq, cm_subset

    n = len(records)
    by_subset = Poset.from_leq(n, lambda i, j: cm_subset(records[i], records[j]), cap=n)
    by_one = Poset.from_leq(n, lambda i, j: cm_leq(records[i], records[j]), cap=n)
    return by_subset, by_one
