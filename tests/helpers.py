"""Shared fixtures: the small-algebra corpus and independent oracles."""

from itertools import product as iproduct

from palgebra import (
    Star,
    Var,
    build_chain,
    build_free,
    build_si,
    glivenko,
    join_all,
    meet_all,
    principal_congruence,
    product,
    quotient,
)


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
