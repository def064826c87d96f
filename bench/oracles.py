"""The benchmark's own term syntax, evaluators and algebra tables.

Nothing here imports palgebra: these are the independent computations that
the library's outputs are checked against.

Terms are tuples: ("v", i), ("0",), ("1",), ("*", a), ("&", a, b), ("|", a, b).
"""

from __future__ import annotations

import itertools
import math
import re
from functools import lru_cache

# ------------------------------------------------------------- term syntax

_TOKEN = re.compile(r"\s*(?:x(\d+)|([01&|*()]))")


def parse(text: str):
    """Precedence parser: postfix * binds tightest, then &, then |."""
    tokens = []
    pos = 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ValueError(f"bad term text at {pos}: {text[pos:pos + 20]!r}")
        tokens.append(("v", int(m.group(1))) if m.group(1) else (m.group(2),))
        pos = m.end()
    i = 0

    def peek():
        return tokens[i][0] if i < len(tokens) else None

    def primary():
        nonlocal i
        tok = tokens[i]
        i += 1
        if tok[0] == "(":
            t = disjunct()
            if peek() != ")":
                raise ValueError("expected )")
            i += 1
            return t
        if tok[0] in ("v", "0", "1"):
            return tok
        raise ValueError(f"unexpected token {tok}")

    def starred():
        nonlocal i
        t = primary()
        while peek() == "*":
            i += 1
            t = ("*", t)
        return t

    def conjunct():
        nonlocal i
        t = starred()
        while peek() == "&":
            i += 1
            t = ("&", t, starred())
        return t

    def disjunct():
        nonlocal i
        t = conjunct()
        while peek() == "|":
            i += 1
            t = ("|", t, conjunct())
        return t

    out = disjunct()
    if i != len(tokens):
        raise ValueError("trailing input")
    return out


def text(t) -> str:
    """Render with the parentheses the precedence rules need."""
    op = t[0]
    if op == "v":
        return f"x{t[1]}"
    if op in ("0", "1"):
        return op
    if op == "*":
        inner = text(t[1])
        return f"{inner}*" if t[1][0] in ("v", "0", "1", "*") else f"({inner})*"
    left, right = text(t[1]), text(t[2])
    if op == "&":
        if t[1][0] == "|":
            left = f"({left})"
        if t[2][0] in ("|", "&"):
            right = f"({right})"
        return f"{left} & {right}"
    if t[2][0] == "|":
        right = f"({right})"
    return f"{left} | {right}"


def vars_of(t) -> set[int]:
    if t[0] == "v":
        return {t[1]}
    out = set()
    for sub in t[1:]:
        out |= vars_of(sub)
    return out


def substitute(t, env):
    """Replace variables by the terms env[i]."""
    if t[0] == "v":
        return env[t[1]]
    if t[0] in ("0", "1"):
        return t
    return (t[0],) + tuple(substitute(sub, env) for sub in t[1:])


def random_term(rng, depth: int, k: int, leaf_p: float = 0.15):
    """Seeded random term over x1..xk; internal nodes are & and | (2/5 each)
    and * (1/5), leaves are variables (constants one time in twelve)."""
    if depth == 0 or rng.random() < leaf_p:
        if rng.random() < 1 / 12:
            return (rng.choice("01"),)
        return ("v", rng.randint(1, k))
    r = rng.random()
    if r < 0.2:
        return ("*", random_term(rng, depth - 1, k, leaf_p))
    op = "&" if r < 0.6 else "|"
    return (op, random_term(rng, depth - 1, k, leaf_p),
            random_term(rng, depth - 1, k, leaf_p))


# ------------------------------------------- bit-sliced evaluation over si:m
#
# si:m is the Boolean algebra on m atoms with a new top above its unit e, in
# the library's encoding: element = atom mask, top = 2^m.  A valuation space
# is a set of valuations evaluated all at once: bit v of every mask below
# belongs to valuation v.  A value is (top, slots): `top` marks the
# valuations where the value is the top, slots[s] those where atom s is in
# it (the top holds every present atom).  present[s] marks the valuations
# whose algebra has atom s at all.


class Space:
    def __init__(self, n_slots, count, present, tops, atoms):
        self.n_slots = n_slots
        self.all = (1 << count) - 1
        self.present = present
        self.tops = tops          # tops[i]: valuations with x_i = top
        self.atoms = atoms        # atoms[i][s]: valuations with atom s in x_i

    def var(self, i):
        top = self.tops[i]
        return top, tuple(a | (top & p) for a, p in zip(self.atoms[i], self.present))

    def eval(self, t, memo=None):
        memo = {} if memo is None else memo
        got = memo.get(t)
        if got is not None:
            return got
        op = t[0]
        if op == "v":
            out = self.var(t[1])
        elif op == "0":
            out = (0, (0,) * self.n_slots)
        elif op == "1":
            out = (self.all, tuple(self.present))
        elif op == "*":
            top, slots = self.eval(t[1], memo)
            nonzero = top
            for s in slots:
                nonzero |= s
            out = (self.all & ~nonzero,
                   tuple(p & ~s for p, s in zip(self.present, slots)))
        else:
            t1, s1 = self.eval(t[1], memo)
            t2, s2 = self.eval(t[2], memo)
            if op == "&":
                out = (t1 & t2, tuple(a & b for a, b in zip(s1, s2)))
            else:
                out = (t1 | t2, tuple(a | b for a, b in zip(s1, s2)))
        memo[t] = out
        return out

    def differ(self, lhs, rhs) -> int:
        """Mask of the valuations where the two terms take different values."""
        memo = {}
        (t1, s1), (t2, s2) = self.eval(lhs, memo), self.eval(rhs, memo)
        diff = t1 ^ t2
        for a, b in zip(s1, s2):
            diff |= a ^ b
        return diff


@lru_cache(maxsize=None)
def si_space(m: int, k: int) -> Space:
    """Every valuation of x1..xk in si:m, in the order of
    itertools.product(range(2^m + 1), repeat=k)."""
    top = 1 << m
    count = (top + 1) ** k
    tops = [0] * k
    atoms = [[0] * m for _ in range(k)]
    for v, tup in enumerate(itertools.product(range(top + 1), repeat=k)):
        bit = 1 << v
        for i, x in enumerate(tup):
            if x == top:
                tops[i] |= bit
            else:
                for s in range(m):
                    if (x >> s) & 1:
                        atoms[i][s] |= bit
    full = (1 << count) - 1
    return Space(m, count, [full] * m, [0] + tops, [[]] + atoms)


@lru_cache(maxsize=None)
def type_space(n: int, k: int) -> Space:
    """One valuation per (set S of atom types, set U of top variables) with
    |S| <= n.  An atom's type is the set of variables whose value holds it.
    Every value a term takes under a valuation in si:m is the top or a union
    of whole type classes, so atoms of one type can be merged: a k-variable
    identity holds at level n iff it holds on this space."""
    n_types = 1 << k
    combos = [S for size in range(min(n, n_types) + 1)
              for S in itertools.combinations(range(n_types), size)]
    count = len(combos) << k
    present = [0] * n_types
    tops = [0] * (k + 1)
    atoms = [[0] * n_types for _ in range(k + 1)]
    v = 0
    for S in combos:
        for U in range(1 << k):
            bit = 1 << v
            for tau in S:
                present[tau] |= bit
            for i in range(k):
                if (U >> i) & 1:
                    tops[i + 1] |= bit
                else:
                    for tau in S:
                        if (tau >> i) & 1:
                            atoms[i + 1][tau] |= bit
            v += 1

    return Space(n_types, count, present, tops, atoms)


SWEEP_LIMIT = 20_000


def identity_space(level: int | None, k: int) -> Space:
    """The si:n sweep where (2^n + 1)^k is small, else the type sweep."""
    n = (1 << k) if level is None else level
    if ((1 << n) + 1) ** k <= SWEEP_LIMIT:
        return si_space(n, k)
    return type_space(n, k)


def decide_identity(lhs, rhs, level, k) -> bool:
    return identity_space(level, k).differ(lhs, rhs) == 0


# ------------------------------------------------------------ finite tables

class Tables:
    """Operation tables over 0..size-1: meet[a][b], join[a][b], star[a]."""

    def __init__(self, meet, join, star, zero, one):
        self.meet = [list(r) for r in meet]
        self.join = [list(r) for r in join]
        self.star = list(star)
        self.zero = zero
        self.one = one
        self.size = len(star)

    def same_ops(self, other) -> bool:
        return (self.meet == other.meet and self.join == other.join
                and self.star == other.star and self.zero == other.zero
                and self.one == other.one)

    def eval1(self, t, val):
        """Value of t under one valuation (dict var -> element)."""
        op = t[0]
        if op == "v":
            return val[t[1]]
        if op == "0":
            return self.zero
        if op == "1":
            return self.one
        if op == "*":
            return self.star[self.eval1(t[1], val)]
        a, b = self.eval1(t[1], val), self.eval1(t[2], val)
        return self.meet[a][b] if op == "&" else self.join[a][b]

    def eval_all(self, t, cols, memo):
        """Values of t over a list of valuations given column-wise
        (cols[i] lists x_i's value in every valuation; cols[0] is any list
        of the same length)."""
        got = memo.get(t)
        if got is not None:
            return got
        op = t[0]
        if op == "v":
            out = cols[t[1]]
        elif op in ("0", "1"):
            c = self.zero if op == "0" else self.one
            out = [c] * len(cols[0])
        elif op == "*":
            star = self.star
            out = [star[a] for a in self.eval_all(t[1], cols, memo)]
        else:
            tab = self.meet if op == "&" else self.join
            xs, ys = self.eval_all(t[1], cols, memo), self.eval_all(t[2], cols, memo)
            out = [tab[a][b] for a, b in zip(xs, ys)]
        memo[t] = out
        return out

    def leq(self, a, b) -> bool:
        return self.meet[a][b] == a


def si_tables(m: int) -> Tables:
    top = 1 << m
    e = top - 1

    def mt(a, b):
        return b if a == top else a if b == top else a & b

    def jn(a, b):
        return top if top in (a, b) else a | b

    rng = range(top + 1)
    star = [top] + [e ^ a for a in range(1, top)] + [0] if m else [1, 0]
    return Tables([[mt(a, b) for b in rng] for a in rng],
                  [[jn(a, b) for b in rng] for a in rng], star, 0, top)


def chain_tables(m: int) -> Tables:
    rng = range(m)
    return Tables([[min(a, b) for b in rng] for a in rng],
                  [[max(a, b) for b in rng] for a in rng],
                  [m - 1] + [0] * (m - 1), 0, m - 1)


def product_tables(A: Tables, B: Tables) -> Tables:
    nb = B.size
    pairs = [(a, b) for a in range(A.size) for b in range(nb)]

    def code(a, b):
        return a * nb + b

    meet = [[code(A.meet[a][c], B.meet[b][d]) for c, d in pairs] for a, b in pairs]
    join = [[code(A.join[a][c], B.join[b][d]) for c, d in pairs] for a, b in pairs]
    star = [code(A.star[a], B.star[b]) for a, b in pairs]
    return Tables(meet, join, star, code(A.zero, B.zero), code(A.one, B.one))


def relabel(A: Tables, perm) -> Tables:
    """The isomorphic copy where element a is renamed perm[a]."""
    n = A.size
    inv = [0] * n
    for a, p in enumerate(perm):
        inv[p] = a
    meet = [[perm[A.meet[inv[x]][inv[y]]] for y in range(n)] for x in range(n)]
    join = [[perm[A.join[inv[x]][inv[y]]] for y in range(n)] for x in range(n)]
    star = [perm[A.star[inv[x]]] for x in range(n)]
    return Tables(meet, join, star, perm[A.zero], perm[A.one])


def tables_of(A) -> Tables:
    """Tables read off any object with meet/join/star/zero/one/size."""
    rng = range(A.size)
    return Tables([[A.meet(a, b) for b in rng] for a in rng],
                  [[A.join(a, b) for b in rng] for a in rng],
                  [A.star(a) for a in rng], A.zero, A.one)


def join_irreducible_count(A: Tables) -> int:
    """Nonzero elements that are not the join of the elements below them."""
    count = 0
    for a in range(A.size):
        if a == A.zero:
            continue
        acc = A.zero
        row = A.meet[a]
        for b in range(A.size):
            if b != a and row[b] == b:
                acc = A.join[acc][b]
        if acc != a:
            count += 1
    return count


def compatible(A: Tables, rep) -> bool:
    """True iff the partition with class representatives rep respects the
    three operations: elements of one class have equal rows after mapping
    every entry to its class."""
    if [rep[A.star[a]] for a in range(A.size)] != [rep[A.star[rep[a]]] for a in range(A.size)]:
        return False
    for table in (A.meet, A.join):
        mapped = {}
        for a in range(A.size):
            row = tuple(rep[x] for x in table[a])
            if mapped.setdefault(rep[a], row) != row:
                return False
    return True


def is_prime_filter(A: Tables, members: set) -> bool:
    if not members or len(members) == A.size:
        return False
    for a in members:
        if any(A.leq(a, b) and b not in members for b in range(A.size)):
            return False
        if any(A.meet[a][b] not in members for b in members):
            return False
    outside = [a for a in range(A.size) if a not in members]
    return all(A.join[a][b] not in members for a in outside for b in outside)


# ------------------------------------------------------- free algebra sizes

def count_jirr(n: int | None, k: int) -> int:
    """The join-irreducibles of free:n,k by the binomial double sum
    sum_l C(k, l) * sum_{m=1..n} C(2^(k-l), m)."""
    n_eff = (1 << k) if n is None else n
    return sum(math.comb(k, ell) * sum(math.comb(1 << (k - ell), m)
                                       for m in range(1, n_eff + 1))
               for ell in range(k + 1))


def free_size(n: int | None, k: int) -> int:
    """Element count of free:n,k as the number of upsets of the index poset
    (families of at most n subsets of the generators with an L inside their
    intersection; (F, L) <= (G, M) iff G is a subfamily of F and L <= M)."""
    n_eff = (1 << k) if n is None else min(n, 1 << k)
    idx = []
    for size in range(1, n_eff + 1):
        for fam in itertools.combinations(range(1 << k), size):
            common = (1 << k) - 1
            for T in fam:
                common &= T
            for ell in range(common + 1):
                if not ell & ~common:
                    idx.append((frozenset(fam), ell))
    above = [sum(1 << j for j, (g, m) in enumerate(idx) if g <= f and not ell & ~m)
             for f, ell in idx]
    return count_upsets(above)


def count_upsets(above) -> int:
    """Upsets of a poset given as masks above[i] = {j : i <= j}."""
    n = len(above)
    order = sorted(range(n), key=lambda i: above[i].bit_count())
    strict = [above[i] & ~(1 << i) for i in range(n)]
    memo = {}

    def rec(pos, cur):
        if pos == n:
            return 1
        key = (pos, cur)
        if key in memo:
            return memo[key]
        i = order[pos]
        total = rec(pos + 1, cur)
        if not strict[i] & ~cur:
            total += rec(pos + 1, cur | (1 << i))
        memo[key] = total
        return total

    return rec(0, 0)
