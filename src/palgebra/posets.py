"""Finite posets over index sets, stored as bitmask reachability rows.

Elements are 0..n-1 and subsets travel as int bit masks, so every order
computation is a handful of word operations.
"""

from __future__ import annotations

from itertools import compress, count
from typing import Callable, Iterable, Sequence

from . import config
from .errors import CapExceeded


# translates the digits b"0" and b"1" to the bytes 0 and 1
_SPREAD = bytes.maketrans(b"01", b"\0\1")


def bit_indices(mask: int) -> list[int]:
    """Indices of the set bits, ascending.  A mask with more than 8 set bits
    and more than one in 8 of its length is spread in C: its binary digits,
    last first, select from a count.  Sparser ones are read a low bit at a
    time, which costs less there."""
    k = mask.bit_count()
    if k > 8 and k * 8 > mask.bit_length() + 24:
        return list(compress(count(), bin(mask)[:1:-1].encode().translate(_SPREAD)))
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class Poset:
    """A finite poset; ``up[i]`` is the mask of all j with i <= j."""

    __slots__ = ("n", "up", "down", "universe", "_covers")

    def __init__(self, up: Sequence[int], cap: int | None = None):
        self.n = n = _capped(len(up), cap)
        self.up = tuple(up)
        self.universe = (1 << n) - 1
        down = [0] * n
        for i, row in enumerate(self.up):
            if row & ~self.universe:
                raise ValueError(f"row {i} mentions elements outside 0..{n - 1}")
            if not (row >> i) & 1:
                raise ValueError(f"relation is not reflexive at {i}")
            for j in bit_indices(row):
                if j != i and (self.up[j] >> i) & 1:
                    raise ValueError(f"relation is not antisymmetric at ({i}, {j})")
                if self.up[j] & ~row:
                    raise ValueError(f"relation is not transitive at ({i}, {j})")
                down[j] |= 1 << i
        self.down = tuple(down)
        self._covers = None

    @classmethod
    def _trusted(cls, up: Sequence[int], down: Sequence[int]) -> "Poset":
        """An order right by construction, with its transpose: no cap and
        no per-pair check (``tests/helpers.checked_poset`` replays it)."""
        P = cls.__new__(cls)
        P.n, P.up, P.down = len(up), tuple(up), tuple(down)
        P.universe, P._covers = (1 << P.n) - 1, None
        return P

    @classmethod
    def from_leq(cls, n: int, leq: Callable[[int, int], bool], cap: int | None = None) -> "Poset":
        return cls([sum(1 << j for j in range(n) if leq(i, j)) for i in range(n)], cap=cap)

    @classmethod
    def from_covers(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "Poset":
        """Build from (lower, upper) edges; the reflexive-transitive closure is taken."""
        _capped(n)  # before the closure, which is quadratic in n
        edges = list(pairs)
        for edge in edges:  # a bool end is refused, not read as 0 or 1
            if not all(type(end) is int and 0 <= end < n for end in edge):
                raise ValueError(f"cover {list(edge)} mentions elements outside 0..{n - 1}")
        above: list[list[int]] = [[] for _ in range(n)]
        indegree = [0] * n  # a self-loop is a reflexive pair, not an edge
        for lo, hi in edges:
            if lo != hi:
                above[lo].append(hi)
                indegree[hi] += 1
        order = [i for i in range(n) if not indegree[i]]
        for i in order:  # one topological pass; it grows as points free up
            for j in above[i]:
                indegree[j] -= 1
                if not indegree[j]:
                    order.append(j)
        up, down = [1 << i for i in range(n)], [1 << i for i in range(n)]
        if len(order) < n:  # a cycle: close as before, and the full check names it
            changed = True
            while changed:
                changed = False
                for lo, hi in edges:
                    merged = up[lo] | up[hi]
                    if merged != up[lo]:
                        up[lo] = merged
                        changed = True
            return cls(up)
        for i in reversed(order):
            for j in above[i]:
                up[i] |= up[j]
        for i in order:
            for j in above[i]:
                down[j] |= down[i]
        return cls._trusted(up, down)

    def leq(self, i: int, j: int) -> bool:
        return bool((self.up[i] >> j) & 1)

    def covers(self) -> list[tuple[int, int]]:
        """Transitive reduction as (lower, upper) pairs, sorted."""
        if self._covers is None:
            out = []
            for i in range(self.n):
                for j in bit_indices(self.up[i] ^ (1 << i)):
                    # j covers i iff nothing sits strictly between them
                    if (self.up[i] & self.down[j]) == (1 << i) | (1 << j):
                        out.append((i, j))
            self._covers = sorted(out)
        return self._covers

    def dual(self) -> "Poset":
        return Poset._trusted(self.down, self.up)

    def __eq__(self, other) -> bool:
        return isinstance(other, Poset) and self.up == other.up

    def __hash__(self) -> int:
        return hash(self.up)

    def __repr__(self) -> str:
        return f"Poset(n={self.n}, covers={self.covers()})"


def _capped(n: int, cap: int | None = None) -> int:
    cap = config.DEFAULT.poset_cap if cap is None else cap
    if n > cap:
        raise CapExceeded("poset size", n, cap)
    return n


# _DIGITS[t] translates a byte to the digit b"0" or b"1" of its bit t
_DIGITS = [bytes(48 + ((v >> t) & 1) for v in range(256)) for t in range(8)]


def _byte_table(masks: Sequence[int], npoints: int) -> tuple[bytes, int]:
    """The masks as little-endian byte strings of one width, end to end."""
    nbytes = (npoints + 7) // 8
    return b"".join([m.to_bytes(nbytes, "little") for m in masks]), nbytes


def _columns(table: bytes, nbytes: int) -> list[int]:
    """``point_columns`` of a byte table, 8 points per byte position: the
    masks holding each bit are read off the column of bytes in C, as
    binary digits."""
    columns = []
    for q in range(nbytes):
        backwards = table[q::nbytes][::-1]  # digit j from the right is mask j's
        columns += [int(backwards.translate(digits) or b"0", 2) for digits in _DIGITS]
    return columns


def point_columns(masks: Sequence[int], npoints: int) -> list[int]:
    """Per point p < npoints, the mask of the indices i whose masks[i] holds
    p; every mask must lie below 2^npoints."""
    return _columns(*_byte_table(masks, npoints))[:npoints]


def inclusion_order(masks: Sequence[int]) -> Poset:
    """Distinct nonnegative masks ordered by inclusion: ``up[i]`` holds every
    j whose mask contains mask i, ``down[i]`` every j whose mask it contains.

    At each byte position of the masks, the up and down rows of each byte
    value that occurs there are built once from the point columns of its 8
    bits and ANDed into every row: O(n * bits / 8) row operations."""
    n = len(masks)
    table, nbytes = _byte_table(masks, max((m.bit_length() for m in masks), default=0))
    columns = _columns(table, nbytes)
    every = (1 << n) - 1
    up = [every] * n  # the empty mask is below everything
    down = [every] * n  # and the full one above everything
    for q in range(nbytes):
        column = table[q::nbytes]
        holding = columns[8 * q:8 * q + 8]
        up_of, down_of = {}, {}
        for v in set(column):
            row_up = row_down = every
            for t, h in enumerate(holding):
                if (v >> t) & 1:
                    row_up &= h
                else:
                    row_down &= ~h
            up_of[v], down_of[v] = row_up, row_down
        up = list(map(int.__and__, up, map(up_of.__getitem__, column)))
        down = list(map(int.__and__, down, map(down_of.__getitem__, column)))
    return Poset._trusted(up, down)


def disjoint_union(posets: Sequence[Poset]) -> Poset:
    """The posets side by side, each shifted past the ones before it."""
    up: list[int] = []
    down: list[int] = []
    for P in posets:
        shift = len(up)
        up.extend(row << shift for row in P.up)
        down.extend(row << shift for row in P.down)
    _capped(len(up))
    return Poset._trusted(up, down)


def join_irreducible_points(P: Poset) -> list[int]:
    """Points with exactly one lower cover (in a finite lattice, its
    join-irreducibles), ascending.  A point has one lower cover c exactly
    when its strict down-set is a down row, that of c; a minimal point's
    is empty, which no down row is."""
    rows = set(P.down)
    return [i for i, d in enumerate(P.down) if (d ^ (1 << i)) in rows]


def is_upset(P: Poset, S: int) -> bool:
    """True iff S is upward closed in P."""
    for i in bit_indices(S):
        if P.up[i] & ~S:
            return False
    return True


def upset_closure(P: Poset, S: int) -> int:
    out = 0
    for i in bit_indices(S):
        out |= P.up[i]
    return out


def downset_closure(P: Poset, S: int) -> int:
    out = 0
    for i in bit_indices(S):
        out |= P.down[i]
    return out


def max_elements(P: Poset, S: int) -> int:
    """Mask of elements of S with nothing of S strictly above them."""
    out = 0
    for i in bit_indices(S):
        if not (P.up[i] & S & ~(1 << i)):
            out |= 1 << i
    return out


def min_elements(P: Poset, S: int) -> int:
    out = 0
    for i in bit_indices(S):
        if not (P.down[i] & S & ~(1 << i)):
            out |= 1 << i
    return out


def enumerate_upsets(P: Poset, cap: int | None = None) -> list[int]:
    """All upsets of P as masks, sorted by (cardinality, mask value).

    Raises CapExceeded as soon as the count passes ``cap``.
    """
    cap = config.DEFAULT.element_cap if cap is None else cap
    # Points are taken maximal ones first, so those taken so far are an
    # upset and ``found`` holds its upsets: adding i to one is legal exactly
    # when everything strictly above i is already in.  The list only grows.
    found = [0]
    for i in sorted(range(P.n), key=lambda i: (P.up[i].bit_count(), i)):
        if len(found) > cap:
            break
        bit = 1 << i
        need = P.up[i] & ~bit
        found += [c | bit for c in found if not need & ~c]
    if len(found) > cap:
        raise CapExceeded("upset count", cap + 1, cap)
    found.sort(key=lambda m: (m.bit_count(), m))
    return found


def is_pp_morphism(P: Poset, Q: Poset, f: Sequence[int]) -> bool:
    """Order-preserving f with f(max up(x)) = max up(f(x)) for every x."""
    if len(f) != P.n or any(not (0 <= v < Q.n) for v in f):
        return False
    for i in range(P.n):
        for j in bit_indices(P.up[i]):
            if not Q.leq(f[i], f[j]):
                return False
    for i in range(P.n):
        image = 0
        for m in bit_indices(max_elements(P, P.up[i])):
            image |= 1 << f[m]
        if image != max_elements(Q, Q.up[f[i]]):
            return False
    return True


def _refined_colors(P: Poset) -> list[int]:
    """Stable vertex colors: degree profile refined along the cover relation."""
    cov_up = [[] for _ in range(P.n)]
    cov_down = [[] for _ in range(P.n)]
    for lo, hi in P.covers():
        cov_up[lo].append(hi)
        cov_down[hi].append(lo)
    colors = [
        (P.up[i].bit_count(), P.down[i].bit_count(), len(cov_up[i]), len(cov_down[i]))
        for i in range(P.n)
    ]
    ids = _canonical_ids(colors)
    for _ in range(P.n):
        keys = [
            (ids[i], tuple(sorted(ids[j] for j in cov_up[i])), tuple(sorted(ids[j] for j in cov_down[i])))
            for i in range(P.n)
        ]
        new_ids = _canonical_ids(keys)
        if new_ids == ids:
            break
        ids = new_ids
    return ids


def _canonical_ids(keys: list) -> list[int]:
    rank = {k: r for r, k in enumerate(sorted(set(keys)))}
    return [rank[k] for k in keys]


def poset_isomorphic(P: Poset, Q: Poset) -> tuple[int, ...] | None:
    """An order isomorphism P -> Q as an index tuple, or None.

    Deterministic: vertices are matched in a canonical order derived from the
    refined color profile, and candidates are tried by ascending index.
    """
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
    tried = [0] * P.n  # per position: how many of its candidates were tried
    pos = 0  # positions are matched on an explicit stack, not by recursion
    while 0 <= pos < P.n:
        i = order[pos]
        if mapping[i] >= 0:  # back from a dead end: free this position's match
            used[mapping[i]] = False
            mapping[i] = -1
        cands = by_color.get(cp[i], ())
        while tried[pos] < len(cands):
            j = cands[tried[pos]]
            tried[pos] += 1
            if not used[j] and all(P.leq(i, i0) == Q.leq(j, mapping[i0]) and
                                   P.leq(i0, i) == Q.leq(mapping[i0], j) for i0 in order[:pos]):
                mapping[i] = j
                used[j] = True
                pos += 1
                break
        else:
            tried[pos] = 0
            pos -= 1
    return tuple(mapping) if pos == P.n else None


def export_dot(P: Poset, labels: Sequence[str] | None = None, name: str = "poset") -> str:
    """DOT text with nodes in index order and cover edges lower -> upper."""
    if labels is None:
        labels = [str(i) for i in range(P.n)]
    lines = [f"digraph {name} {{", "  rankdir=BT;"]
    for i in range(P.n):
        text = str(labels[i]).replace('"', '\\"')
        lines.append(f'  {i} [label="{text}"];')
    for lo, hi in P.covers():
        lines.append(f"  {lo} -> {hi};")
    lines.append("}")
    return "\n".join(lines) + "\n"
