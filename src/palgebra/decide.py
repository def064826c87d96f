"""Decision procedures over varieties of distributive p-algebras.

Identity validity at level n is decided on free-algebra elements (or, when
a counter-valuation is wanted, by sweeping the level-n subdirectly
irreducible algebra, which generates the variety).  Level None stands for the
whole variety; with k variables it coincides with level 2^k.  Quasi-identities
are evaluated on a given finite algebra either exhaustively or by a pruned
backtracking search that solves premises for their last unassigned variable.
"""

from __future__ import annotations

import itertools
import math
import random
from bisect import bisect_left, bisect_right
from itertools import accumulate, compress, repeat
from operator import and_, eq, or_

from .algebras import (PAlgebra, TableAlgebra, chain_carrier, is_isomorphic, si_carrier, tabulate,
                       upset_carrier)
from . import config
from .errors import COUNT_BITS_LIMIT, BudgetExceeded, CapExceeded, shown
from .free import FreeAlgebra, build_free, free_elements
from .posets import bit_indices
from .records import Record
from .terms import (
    Join,
    Meet,
    ONE,
    Star,
    Term,
    Var,
    ZERO,
    code_vars,
    compile_postfix,
    json_kind,
    parse,
    qb_system,
    term_from_json,
    to_text,
    vars_of,
)


class Equation(Record):
    """lhs = rhs, two terms."""
    __slots__ = ("lhs", "rhs")

    def to_json_dict(self) -> dict:
        return {"lhs": to_text(self.lhs), "rhs": to_text(self.rhs)}

    @classmethod
    def from_json_dict(cls, doc: dict, field: str = "equation") -> "Equation":
        """The equation of a JSON object; an error names ``field``."""
        if not isinstance(doc, dict):
            raise ValueError(f"{field} must be an object with lhs and rhs, got {json_kind(doc)}")
        for side in ("lhs", "rhs"):
            if side not in doc:
                raise ValueError(f"{field} has no {side}")
        return cls(_term_in(doc["lhs"], f"{field}.lhs"), _term_in(doc["rhs"], f"{field}.rhs"))


class QuasiIdentity(Record):
    """A tuple of premise equations and a conclusion equation."""
    __slots__ = ("premises", "conclusion")

    def to_json_dict(self) -> dict:
        return {
            "premises": [p.to_json_dict() for p in self.premises],
            "conclusion": self.conclusion.to_json_dict(),
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "QuasiIdentity":
        """The quasi-identity of a JSON object: premises, a list of equations
        (none if absent), and a conclusion."""
        if not isinstance(doc, dict):
            raise ValueError("a quasi-identity document must be an object with premises "
                             f"and conclusion, got {json_kind(doc)}")
        premises = doc.get("premises", [])
        if not isinstance(premises, list):
            raise ValueError(f"premises must be a list of equations, got {json_kind(premises)}")
        if "conclusion" not in doc:
            raise ValueError("a quasi-identity document needs a conclusion")
        return cls(tuple(Equation.from_json_dict(p, f"premises[{i}]")
                         for i, p in enumerate(premises)),
                   Equation.from_json_dict(doc["conclusion"], "conclusion"))


def _term_in(obj, field: str) -> Term:
    if isinstance(obj, str):
        return parse(obj)
    if isinstance(obj, (list, tuple)):
        return term_from_json(obj)
    raise ValueError(f'{field} must be a term, as text or as an array such as ["var", 1], '
                     f"got {json_kind(obj)}")


def qb_quasi_identity(n: int) -> QuasiIdentity:
    premises, conclusion = qb_system(n)
    return QuasiIdentity(tuple(Equation(l, r) for l, r in premises),
                         Equation(*conclusion))


class Verdict(Record):
    """Whether a law holds, a witness dict or None, the method (normal-form,
    exhaustive or pruned) and the budget used, 0 if not given."""
    __slots__ = ("holds", "witness", "method", "budget_used")
    _defaults = {"budget_used": 0}

    def to_json_dict(self) -> dict:
        out = {"holds": self.holds, "method": self.method,
               "budgetUsed": self.budget_used}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def check_identity(e: Equation, n: int | None = None,
                   want_witness: bool = False) -> Verdict:
    """Validity of lhs = rhs at level n (None: the whole variety)."""
    codes = (compile_postfix(e.lhs), compile_postfix(e.rhs))
    k = max(code_vars(*codes), default=0)
    try:
        lhs, rhs = free_elements(codes, n, k)
        if lhs == rhs:
            return Verdict(True, None, "normal-form", 0)
        if not want_witness:
            return Verdict(False, None, "normal-form", 0)
    except CapExceeded:
        pass  # index skeleton too large; decide on the generating algebra
    witness, used = _sweep_equation(e, n, k, codes)
    if witness is None:
        return Verdict(True, None, "exhaustive", used)
    return Verdict(False, witness, "exhaustive", used)


def _sweep_equation(e: Equation, n: int | None, k: int, codes=None):
    """First counter-valuation of lhs = rhs over the level-n generator (2^k at
    None), in canonical valuation order; None if the identity holds there.
    codes are the sides compiled, where the caller has them."""
    budget = config.DEFAULT.budget
    if n is None and k > 14_270:  # k * 2^k, the count's bit length, has over 4,300 digits
        raise BudgetExceeded("valuation sweep", shown(k, 2), budget)
    n_eff = (1 << k) if n is None else n
    if n_eff == 0 and k >= 14_285:  # the count is 2^k, past 10^4300
        raise BudgetExceeded("valuation sweep", shown(k, 1), budget)
    # the count has at least k * n_eff + 1 bits, exactly that many while
    # k < 2^(n_eff - 1), as at level omega; from 2^14285 > 10^4300 on it is
    # shown as text, not built, and past COUNT_BITS_LIMIT bits from that bound
    if k * n_eff >= 14_285 and (k.bit_length() < n_eff or k * n_eff > COUNT_BITS_LIMIT):
        raise BudgetExceeded("valuation sweep", shown(k * n_eff, 1), budget)
    if k * n_eff >= budget.bit_length():  # over 2^(k * n_eff): refused before the count
        raise BudgetExceeded("valuation sweep", _sweep_needed(n_eff, k), budget)
    total = _sweep_count(n_eff, k)
    if total > budget:  # before si_carrier, whose size cap would fire first
        raise BudgetExceeded("valuation sweep", total, budget)
    v = _quasi_exhaustive(QuasiIdentity((), e), si_carrier(n_eff),
                          tuple(range(1, k + 1)), [codes] if codes else None)
    if v.holds:
        return None, v.budget_used
    witness = {"algebra": f"si:{n_eff}", "valuation": v.witness["valuation"],
               **v.witness["conclusion"]}
    return witness, v.budget_used


def _sweep_count(n_eff: int, k: int) -> int:
    """The valuations of k variables into the level-n_eff generator."""
    return ((1 << n_eff) + 1) ** k


def _sweep_needed(n_eff: int, k: int) -> int | str:
    """``_sweep_count`` as an error shows it, for k * n_eff at most
    ``COUNT_BITS_LIMIT``: the count itself below 2^14285, which ``shown``
    prints in full; past it "2^N or more", N = k * n_eff + floor(k *
    log2(1 + 2^-n_eff)) read off floats, or off the count where the
    fraction is too near a whole number for them to decide."""
    tail = k * math.log1p(2.0 ** -n_eff) / math.log(2)
    low = math.floor(tail)
    if k * n_eff + low < 14_285 or min(tail - low, low + 1 - tail) < 1e-6:
        return _sweep_count(n_eff, k)
    return shown(k * n_eff + low, 1)


# ------------------------------------------------------- quasi-identities

def _nest_operands(code: tuple, op: str) -> list[tuple]:
    """The operands of the root nest of ``op`` ("join" or "meet") nodes of
    compiled code, left to right, each as its own code; a root of another
    kind is the one operand."""
    begin, starts = [], []  # begin[i]: where the subterm ending at i starts
    for i, ins in enumerate(code):
        if ins[0] in ("meet", "join"):
            starts.pop()  # the left operand's start is the node's
        elif ins[0] != "star":
            starts.append(i)
        begin.append(starts[-1])
    out, ends = [], [len(code) - 1]
    while ends:
        e = ends.pop()
        if code[e][0] == op:  # the right operand ends just before it
            ends += (e - 1, begin[e - 1] - 1)
        else:
            out.append(code[begin[e]:e + 1])
    return out


class _Budget:
    __slots__ = ("limit", "used", "what")

    def __init__(self, limit: int, what: str):
        self.limit = limit
        self.used = 0
        self.what = what

    def spend(self, amount: int = 1, times: int = 1):
        """Charge ``times`` steps of ``amount`` units; the first step past the
        limit raises with the count reached at that step."""
        if self.used + amount * times > self.limit:
            self.used += amount * ((self.limit - self.used) // amount + 1)
            raise BudgetExceeded(self.what, self.used, self.limit)
        self.used += amount * times


def _lookahead(sides, v):
    """The code of the first of a depth's closed sides, given as (code, pin,
    bound, top variable), that pins by star preimages and closes at v, the
    variable of the depth before; None if there is none."""
    return next((code for code, pin, _, top in sides if pin == "star" and top == v), None)


class _Rows:
    """Compiled terms evaluated with every variable but v fixed, for a list of
    candidates for v at once: a value is a row over them, or one value where
    it does not depend on v.  A is an upset carrier (``upset_carrier``) or a
    proxy that forwards its attributes.  Values are held as masks, as
    ``elem`` gives them, and ``index`` maps them back; meet and join are
    ``&`` and ``|`` from ``operator``, which map faster than the methods of
    int, and commute; star is read off ``star_masks``."""

    def __init__(self, A):
        self.elem, self.index, self.star = A.elements, A.index, A.star_masks().__getitem__
        self.ops = {"meet": (and_, lambda c, row: map(and_, row, repeat(c))),
                    "join": (or_, lambda c, row: map(or_, row, repeat(c)))}
        self.zero, self.one = self.elem[A.zero], self.elem[A.one]
        self._xs = self._row = None

    def eval(self, code, val, v=None, xs=()):
        """The value of code at val, with v set to each candidate in xs (as
        element indices); a single candidate is evaluated as a scalar.  A
        variable of val is an element as ``elem`` holds it, or a row of them
        (a list lined up with xs, or with the other rows where no v is
        given)."""
        stack: list = []
        push, star, ops = stack.append, self.star, self.ops
        for ins in code:
            op = ins[0]
            if op == "var":
                if ins[1] == v:
                    push(self.row(xs))
                else:
                    push(val[ins[1]])
            elif op == "star":
                a = stack[-1]
                stack[-1] = list(map(star, a)) if type(a) is list else star(a)
            elif op in ("zero", "one"):
                push(self.zero if op == "zero" else self.one)
            else:
                b = stack.pop()
                a = stack[-1]
                both, by = ops[op]
                if type(a) is list:
                    stack[-1] = list(map(both, a, b) if type(b) is list else by(b, a))
                else:
                    stack[-1] = list(by(a, b)) if type(b) is list else both(a, b)
        return stack[-1]

    def row(self, xs):
        """The candidates xs as ``elem`` holds them, one value for one; kept
        for the list last asked for, which every side evaluated over it
        reads (no caller changes a list of candidates in place)."""
        if xs is not self._xs:
            self._xs = xs
            self._row = list(map(self.elem.__getitem__, xs)) if len(xs) != 1 else self.elem[xs[0]]
        return self._row

    def agree(self, pairs, val, v, xs, par=()):
        """The candidates, in order, at which both sides of every pair agree.
        Where par (each candidate's prefix) is given, it and the rows of val,
        all lined up with xs, are cut along with them, val in place."""
        rows = [w for w, x in val.items() if type(x) is list] if par else ()
        for l, r in pairs:
            if not xs:
                break
            ok = _agreeing(self.eval(l, val, v, xs), self.eval(r, val, v, xs), len(xs))
            xs = list(compress(xs, ok))
            if par:
                par = list(compress(par, ok))
                for w in rows:
                    val[w] = list(compress(val[w], ok))
        return xs, par

    def within(self, code, allowed, val, v, xs):
        """Whether the value of code lies in allowed, at each candidate."""
        a = self.eval(code, val, v, xs)
        return list(map(allowed.__contains__, a)) if type(a) is list else [a in allowed] * len(xs)

    def first_gap(self, l, r, val, v, xs):
        """(position, lhs, rhs) at the first candidate where l and r differ,
        the values as element indices; None if they agree on all of xs."""
        if not xs:
            return None
        a, b = self.eval(l, val, v, xs), self.eval(r, val, v, xs)
        ok = _agreeing(a, b, len(xs))
        if all(ok):
            return None
        i = ok.index(False)
        p, q = (a[i] if type(a) is list else a), (b[i] if type(b) is list else b)
        return i, self.index[p], self.index[q]


def _agreeing(a, b, n):
    """Whether a and b, rows or single values, agree at each of n positions."""
    if type(a) is not list and type(b) is not list:
        return [a == b] * n
    return list(map(eq, _each(a), _each(b)))


# A row evaluation costs about as much to set up as this many elements of
# work: above this average width, a pool is evaluated on its own.
_WIDE = 32


def _each(value):
    return value if type(value) is list else itertools.repeat(value)


def check_quasi_identity(q: QuasiIdentity, A: PAlgebra,
                         strategy: str = "exhaustive") -> Verdict:
    """Evaluate premises => conclusion over all valuations into A, searched
    as ``upset_carrier(A)``: a lawless table is refused."""
    if strategy not in ("exhaustive", "pruned"):
        raise ValueError(f"unknown strategy: {strategy!r}")
    sides = _compiled(q)
    variables = code_vars(*(code for pair in sides for code in pair))
    search = _quasi_exhaustive if strategy == "exhaustive" else _quasi_pruned
    return search(q, upset_carrier(A), variables, sides)


def _compiled(q: QuasiIdentity) -> list[tuple]:
    """Each premise's sides and then the conclusion's, compiled, as pairs."""
    return [(compile_postfix(e.lhs), compile_postfix(e.rhs))
            for e in (*q.premises, q.conclusion)]


def _quasi_vars(q: QuasiIdentity) -> tuple[int, ...]:
    """The variables of the premises and the conclusion, ascending."""
    return vars_of(*(t for e in (*q.premises, q.conclusion) for t in (e.lhs, e.rhs)))


def _strategy(size: int, nvars: int) -> str:
    """Exhaustive when the whole sweep over the carrier fits the budget."""
    return "exhaustive" if size ** nvars <= config.DEFAULT.budget else "pruned"


def _quasi_exhaustive(q, A, variables, sides=None) -> Verdict:
    """Sweep the valuations in canonical order, the last variable as a row;
    a ground quasi-identity sweeps the one empty valuation.  sides is
    ``_compiled(q)``, where the caller has it."""
    total, budget = A.size ** len(variables), config.DEFAULT.budget
    if total > budget:
        raise BudgetExceeded("valuation sweep", total, budget)
    ev = _Rows(A)
    *prem, (ccl, ccr) = sides or _compiled(q)
    *head, v = variables or (0,)
    width = A.size if variables else 1
    every = range(width)  # one object, so ``_Rows.row`` builds its row once
    for rank, tup in enumerate(itertools.product(range(A.size), repeat=len(head))):
        val = dict(zip(head, map(ev.elem.__getitem__, tup)))
        xs, _ = ev.agree(prem, val, v, every)
        gap = ev.first_gap(ccl, ccr, val, v, xs)
        if gap is not None:
            i, a, b = gap
            return Verdict(False, _quasi_witness(variables, (*tup, xs[i]), a, b),
                           "exhaustive", rank * width + xs[i] + 1)
    return Verdict(True, None, "exhaustive", total)


def _quasi_witness(variables, tup, a, b) -> dict:
    return {
        "valuation": {f"x{v}": tup[i] for i, v in enumerate(variables)},
        "conclusion": {"lhs": a, "rhs": b},
    }


def _quasi_pruned(q, A, variables, sides=None) -> Verdict:
    """Backtracking in ascending variable order, planned once per depth and
    run as a frontier of nodes, a node being a prefix of values.

    A depth fixes which premise sides are closed and what each closed side c
    does to its variable v: against a bare v it pins v to c, against v* to
    the star preimages of c (both once v is the premise's last variable),
    and where v is a bare join (meet) operand it bounds v below (above) c,
    even before the premise closes.  Premises whose last variable is v
    filter the pool by evaluation as a row over it (see ``_Rows``), and at
    the last depth the conclusion is one row over the pool.  A pool is an
    element mask, cut by one AND per side: a var pin by c's bit, a star pin
    by c's star preimages, a bound by c's row, kept per search under
    (direction, c) and built when first needed.  The carrier answers both
    (``star_classes``, ``down_row`` and ``up_row``).  A pool of at most one
    element (a bare-variable pin bounds its own side too) is bounded by at
    most one ``leq`` call and builds no row.  A closing premise that one of
    its sides pins holds wherever its pin leaves a candidate: it is charged
    as the others are, but not evaluated.

    The root is a node searched on its own; its children are taken in
    chunks of 1, 2, 4, ... in order, and each chunk goes depth by depth over
    all of its live prefixes at once, every closed side one row over them,
    every pool cut by mask ANDs.  Then one row step runs over groups of
    prefixes: where the pools are wide (more than ``_WIDE`` elements on
    average), a row over one pool already pays for its evaluation, so each
    live prefix is a group with its values fixed; where they are narrow, all
    live prefixes are one group, their values rows over its candidates.  A
    group's pools are flattened and filtered by the closing premises
    (``_Rows.agree``), and at the last depth the conclusion is one row over
    what is left.  A chunk expands to at most |A|² prefixes at a depth, and to no
    more than the budget has units left (each costs one at least); past
    that it keeps only its leading children, and a child whose subtree does
    not fit alone becomes a node searched on its own, its children chunked
    in turn.  Such nodes wait on a stack, not on the Python call stack.

    Where the next depth pins its variable by the star preimages of a side
    S that closes at this depth (x3* = x1 | x2 in qb_3), the plan holds a
    lookahead (``_lookahead``): at every depth but the root, the row step
    that applies the closing premises also cuts each candidate whose value
    of S has no class in ``star_classes``, in chunks and in nodes searched
    on their own alike, so it never becomes a prefix of the next depth and
    no rows, pools or groups are built for it.  A cut candidate is no node:
    it pays the closing filter it passed and nothing more.  The root is not
    cut: its cut costs a row over all of A, which an early witness does not
    repay.

    The budget is charged as by a search one node at a time, without plan,
    rows, masks or frontier, that cuts the same candidates: each depth
    keeps its nodes' charges as (amount, times) columns in the order that
    search makes them (the edge into the node, one per closed side, the
    bound popcounts, the closing filter, the conclusion).  A chunk is
    charged up to its first witness in search order, at once where the sum
    fits; otherwise its nodes are charged one column at a time in search
    order, so the budget runs out at the same step, with the same count,
    and ``budgetUsed`` is the same.  What is cut depends only on the plan
    and the depth, never on a chunk's width or the budget left, so
    ``budgetUsed`` does not either.
    """
    spent = _Budget(config.DEFAULT.budget, "pruned search")
    ev = _Rows(A)
    *pairs, (ccl, ccr) = sides or _compiled(q)
    prems = [(cl, cr, code_vars(cl, cr),
              (max(code_vars(cl), default=0), max(code_vars(cr), default=0)))
             for cl, cr in pairs]
    for cl, cr, vs, _ in prems:
        if not vs:  # ground premise: decide it once up front
            spent.spend()
            if ev.eval(cl, {}) != ev.eval(cr, {}):
                return Verdict(True, None, "pruned", spent.used)
    if not variables:
        spent.spend()
        gap = ev.first_gap(ccl, ccr, {}, None, [0])
        return Verdict(gap is None, gap and _quasi_witness((), (), *gap[1:]), "pruned", spent.used)
    # per depth: v, closed sides as (code, pin, bound, top variable), the
    # closing premises, and those of them that no pin of theirs decides
    plans = []
    for v in variables:
        sides, closing, checks = [], [], []
        bare = (("var", v),)
        for cl, cr, vs, tops in prems:
            if v not in vs:
                continue
            last, pinned = vs[-1] == v, False
            for mine, top, code in ((cl, tops[1], cr), (cr, tops[0], cl)):
                if top >= v:
                    continue  # the other side is still open at this depth
                pin = last and ("var" if mine == bare else
                                "star" if mine == (*bare, ("star",)) else None)
                bound = ("below" if bare in _nest_operands(mine, "join") else
                         "above" if bare in _nest_operands(mine, "meet") else None)
                sides.append((code, pin, bound, top))
                pinned = pinned or bool(pin)
            if last:
                closing.append((cl, cr))
                if not pinned:  # a pinned pool holds only where the premise does
                    checks.append((cl, cr))
        plans.append((v, sides, closing, checks))
    # per depth: the side of the next depth's star pin that cuts this one's
    # candidates; none at the root
    ahead = [None] + [_lookahead(nxt[1], p[0]) for p, nxt in zip(plans[1:], plans[2:])]
    ahead.append(None)
    leq, full = A.leq, (1 << A.size) - 1
    rows: dict[str, dict[int, int]] = {"below": {}, "above": {}}  # c -> mask of x below/above c
    row_of = {"below": A.down_row, "above": A.up_row}
    star_pre = A.star_classes()  # star value -> mask of its preimages
    regular = {ev.elem[s] for s in star_pre}  # the star values, as ``_Rows`` holds them
    spread: dict[int, list[int] | range] = {}  # a pool mask -> its elements

    def cut(pool, c, bound):
        """The pool's elements below (above) c, where c has no row yet."""
        if not pool or pool == 1 << c:  # empty, or c itself: nothing to cut
            return pool
        if pool & (pool - 1) == 0:  # one element: test it, build no row
            x = pool.bit_length() - 1
            return pool if (leq(x, c) if bound == "below" else leq(c, x)) else 0
        row = rows[bound][c] = row_of[bound](c)
        return pool & row

    def narrow(sides, cols, n, ones, charges):
        """n full pools cut by closed sides in order, the charges appended:
        a unit per side, each bound's popcount before its cut.  Returns the
        pools and the units not yet charged."""
        pools = start = [full] * n
        for code, pin, bound, _ in sides:
            ones += 1
            if not (pin or bound):
                continue
            vals = ev.eval(code, cols)
            cs = (list(map(ev.index.__getitem__, vals)) if type(vals) is list
                  else [ev.index[vals]] * n)
            if pin:
                pools = list(map(and_, pools, map(star_pre.get, cs, repeat(0)) if pin == "star"
                                 else map((1).__lshift__, cs)))
            if bound:
                charges += (1, ones), (A.size if pools is start else
                                       list(map(int.bit_count, pools)), 1)
                ones, got = 0, rows[bound]
                pools = [p & r if r is not None else cut(p, c, bound)
                         for p, c, r in zip(pools, cs, map(got.get, cs))]
        return pools, ones

    def elements(p):
        got = spread.get(p)
        if got is None:
            got = spread[p] = range(A.size) if p == full else bit_indices(p)
        return got

    def charge(levels, pars, upto):
        """Charge the first upto[k] nodes of each level k: their sum at once
        if it fits, else node by node in search order, one column at a time,
        up to the step that runs out."""
        total = 0
        for cols, u in zip(levels, upto):
            for a, t in cols:
                total += (sum(a[:u]) * t if type(a) is list else
                          a * sum(t[:u]) if type(t) is list else a * t * u)
        if spent.used + total <= spent.limit:
            spent.used += total
            return
        todo = [(0, i) for i in reversed(range(upto[0]))]
        while todo:
            k, i = todo.pop()
            for a, t in levels[k]:
                spent.spend(a[i] if type(a) is list else a, t[i] if type(t) is list else t)
            if k + 1 < len(levels):
                ps = pars[k + 1]
                todo += ((k + 1, j) for j in reversed(range(
                    bisect_left(ps, i), min(bisect_right(ps, i), upto[k + 1]))))

    def frontier(depth, cols, n, edge, cap=None):
        """(how many of the n prefixes at depth were searched, the witness or
        None, the last level's candidates), depth by depth over all their
        prefixes at once; cols holds each assigned variable's values, one per
        prefix, as ``_Rows`` holds them.  With no cap, one prefix's own depth
        only: a node of its own.  None searched (0) where the first prefix's
        subtree outgrows cap."""
        done, witness = n, None
        if len(spread) > A.size:  # pools recur across chunks, a bound's row say,
            spread.clear()  # but at most |A| of them outlive one: |A|^2 elements
        levels, pars, upto, par = [], [], [], range(n)  # par: each node's parent
        while True:
            v, sides, closing, checks = plans[depth]
            charges = []
            levels.append(charges)
            pars.append(par)
            upto.append(n)
            pools, ones = narrow(sides, cols, n, edge, charges)
            counts = list(map(int.bit_count, pools))
            width = sum(counts)
            if cap is not None and width > cap:
                # keep the leading first prefixes whose subtrees fit
                t = next(i for i, s in enumerate(accumulate(counts)) if s > cap)
                for ps in reversed(pars):
                    t = ps[t]
                if not t:
                    return 0, None, None
                done = u = t
                for k, ps in enumerate(pars):
                    upto[k] = u = bisect_left(ps, u)
                counts = counts[:u]
                width = sum(counts)
            last, pin_side = depth == len(plans) - 1, ahead[depth]
            live, xs, par = list(compress(range(len(counts)), counts)), [], []
            if last:
                unit, tried = 2 + len(closing), [0] * len(counts)
            # wide pools: a group per prefix, its values fixed; narrow: one group
            for ids in [[i] for i in live] if width > _WIDE * len(live) else [live]:
                got, of = [], []  # the group's candidates and their prefixes
                for i in ids:
                    got += elements(pools[i])
                    of += repeat(i, counts[i])
                val = {w: col[ids[0]] if len(ids) == 1 else list(map(col.__getitem__, of))
                       for w, col in cols.items()}
                got, of = ev.agree(checks, val, v, got, of)
                if not last:
                    if pin_side is not None:  # a child whose pin side has no preimage is cut
                        ok = ev.within(pin_side, regular, val, v, got)
                        got, of = list(compress(got, ok)), list(compress(of, ok))
                    xs += got
                    par += of
                    continue
                gap = ev.first_gap(ccl, ccr, val, v, got)
                end, lo = len(got) if gap is None else gap[0] + 1, 0
                for i in ids:  # of ascends: each prefix's candidates up to the gap
                    hi = bisect_right(of, i, lo, end)
                    tried[i], lo = unit * (hi - lo), hi
                if gap is not None:
                    g, a, b = gap
                    hit = of[g]
                    witness = _quasi_witness(
                        variables, (*(ev.index[cols[w][hit]] for w in variables[:-1]), got[g]),
                        a, b)
                    break
            if closing:
                charges += (1, ones), (len(closing), counts)
                ones = 0
            charges.append((1, [ones + k for k in tried] if last else ones))
            if last or cap is None or not xs:
                break
            cols = {w: list(map(col.__getitem__, par)) for w, col in cols.items()}
            depth, n, edge = depth + 1, len(xs), 1 + len(closing)
            cols[v] = list(map(ev.elem.__getitem__, xs))
        if witness is not None:  # the nodes up to it, and its ancestors
            for k in reversed(range(len(pars))):
                upto[k] = hit + 1
                hit = pars[k][hit]
        charge(levels, pars, upto)
        return done, witness, xs

    stack = []  # nodes searched on their own: [depth, cols, children, start, chunk size]

    def node(depth, cols, edge):
        _, found, children = frontier(depth, cols, 1, edge)
        stack.append([depth, cols, children, 0, 1])
        return found

    witness = node(0, {}, 0)
    while stack and witness is None:
        entry = stack[-1]
        depth, cols, children, start, size = entry
        if start == len(children):
            stack.pop()
            continue
        v, _, closing, _ = plans[depth]
        xs = children[start:start + size]
        sub = {w: col * len(xs) for w, col in cols.items()}
        sub[v] = list(map(ev.elem.__getitem__, xs))
        done, witness, _ = frontier(depth + 1, sub, len(xs), 1 + len(closing),
                                    min(A.size ** 2, spent.limit - spent.used))
        if not done:  # the first child's subtree alone is too wide
            done, witness = 1, node(depth + 1, {**cols, v: sub[v][:1]}, 1 + len(closing))
        entry[3:] = start + done, 2 * done
    return Verdict(witness is None, witness, "pruned", spent.used)


def admissible_in_free(q: QuasiIdentity, n: int | None, k_extra: int = 0) -> Verdict:
    """Necessary condition for admissibility at level n: validity of q in a
    free algebra of rank (variable count + k_extra), degrading the rank until
    the algebra fits the caps.  Exhaustive when the sweep fits the budget,
    pruned otherwise."""
    variables = _quasi_vars(q)
    k_want = max(1, (variables[-1] if variables else 1) + k_extra)
    for k_try in range(k_want, 0, -1):
        try:
            return _check_in_free(q, n, k_try, len(variables))[1]
        except CapExceeded:  # from build_free: the algebra is over a cap
            continue
    raise CapExceeded("free algebra rank", k_want, 0)


def _check_in_free(q: QuasiIdentity, n: int | None, k: int,
                   nvars: int) -> tuple[FreeAlgebra, Verdict]:
    """free:n,k and q checked in it (nvars variables): exhaustive when the
    sweep fits the budget, pruned otherwise."""
    F = build_free(n, k)
    return F, check_quasi_identity(q, F.algebra, _strategy(F.size, nvars))


# ----------------------------------------------- structural (in)completeness

def subalgebra(A: PAlgebra, subset) -> tuple[TableAlgebra, tuple[int, ...]]:
    """The induced algebra on a subuniverse (must contain the bounds and be
    closed under the three operations); returns it with the element list."""
    elems = tuple(sorted(subset))
    pos = {e: i for i, e in enumerate(elems)}
    if A.zero not in pos or A.one not in pos:
        raise ValueError("subuniverse must contain the bounds")
    for x in elems:
        if A.star(x) not in pos:
            raise ValueError(f"not closed under star at {x}")
        for y in elems:
            if A.meet(x, y) not in pos or A.join(x, y) not in pos:
                raise ValueError(f"not closed under meet/join at ({x}, {y})")
    return tabulate(len(elems),
                    lambda i, j: pos[A.meet(elems[i], elems[j])],
                    lambda i, j: pos[A.join(elems[i], elems[j])],
                    lambda i: pos[A.star(elems[i])],
                    pos[A.zero], pos[A.one]), elems


def three_element_witness(A: PAlgebra, c: int) -> dict | None:
    """{0, c∨c*, 1} as a subalgebra isomorphic to the level-1 generator,
    available whenever c∨c* is neither bound."""
    w = A.join(c, A.star(c))
    if w in (A.zero, A.one):
        return None
    sub, elems = subalgebra(A, {A.zero, w, A.one})
    iso = is_isomorphic(sub, si_carrier(1))
    return {"construction": "0, c ∨ c*, 1", "element": c,
            "subuniverse": list(elems), "isomorphicTo": "si:1",
            "verified": iso is not None}


def five_element_witness(A: PAlgebra, d: int) -> dict | None:
    """{0, d*, d**, d*∨d**, 1} as a subalgebra isomorphic to the level-2
    generator, available whenever d*∨d** is not 1 and d*, d** avoid the
    bounds."""
    ds = A.star(d)
    dss = A.star(ds)
    top = A.join(ds, dss)
    subset = {A.zero, ds, dss, top, A.one}
    if top == A.one or len(subset) != 5:
        return None
    sub, elems = subalgebra(A, subset)
    iso = is_isomorphic(sub, si_carrier(2))
    return {"construction": "0, d*, d**, d* ∨ d**, 1", "element": d,
            "subuniverse": list(elems), "isomorphicTo": "si:2",
            "verified": iso is not None}


def structural_completeness_report(n: int) -> dict:
    """Machine-checked witnesses for the structural completeness status of
    level n: below 3, the subquasivariety classification with its subalgebra
    constructions; from 3 on, the separating quasi-identity qb_3 (valid in
    the sampled free algebras, refuted in the level-3 generator)."""
    if n < 0:
        raise ValueError("level must be >= 0")
    if n < 3:
        names = ["Pa_-1", "Pa_0", "Pa_1", "Pa_2"]
        witnesses = []
        if n >= 1:
            witnesses.append({**three_element_witness(chain_carrier(4), 1), "algebra": "chain:4"})
        if n >= 2:
            witnesses.append({**five_element_witness(si_carrier(2), 1), "algebra": "si:2"})
        return {
            "variety": f"Pa_{n}",
            "n": n,
            "structurallyComplete": True,
            "hereditarily": True,
            "subquasivarieties": names[: n + 2],
            "witnesses": witnesses,
        }
    q = qb_quasi_identity(3)
    admissible, nvars = [], len(_quasi_vars(q))
    for k in (1, 2):
        F, v = _check_in_free(q, n, k, nvars)
        admissible.append({"algebra": f"free:{n},{k}", "size": F.size,
                           "verdict": v.to_json_dict()})
    refuted = check_quasi_identity(q, si_carrier(3), "exhaustive")
    return {
        "variety": f"Pa_{n}",
        "n": n,
        "structurallyComplete": False,
        "quasiIdentity": "qb_3",
        "admissibleInFree": admissible,
        "failsIn": {"algebra": "si:3", "verdict": refuted.to_json_dict()},
        "note": ("free-algebra validity is machine-checked at ranks 1 and 2 "
                 "only; the general statement covers every rank and level"),
    }


# ----------------------------------------------------- cross-validation

def random_term(rng: random.Random, max_depth: int = 6, k: int = 3) -> Term:
    """Seeded random term: uniform node choice, leaves forced at depth 0."""
    kinds = ("zero", "one", "var") if max_depth == 0 else (
        "zero", "one", "var", "star", "meet", "join")
    kind = rng.choice(kinds)
    if kind == "zero":
        return ZERO
    if kind == "one":
        return ONE
    if kind == "var":
        return Var(rng.randint(1, k))
    if kind == "star":
        return Star(random_term(rng, max_depth - 1, k))
    l = random_term(rng, max_depth - 1, k)
    r = random_term(rng, max_depth - 1, k)
    return Meet(l, r) if kind == "meet" else Join(l, r)


def _pair_report(t1: Term, t2: Term, n: int | None) -> dict:
    codes = (compile_postfix(t1), compile_postfix(t2))
    k = max(code_vars(*codes), default=0)
    lhs, rhs = free_elements(codes, n, k)
    nf_equal = lhs == rhs
    witness, _ = _sweep_equation(Equation(t1, t2), n, k, codes)
    out = {
        "lhs": to_text(t1),
        "rhs": to_text(t2),
        "normalFormEqual": nf_equal,
        "exhaustiveEqual": witness is None,
        "agree": nf_equal == (witness is None),
    }
    if witness is not None:
        out["witness"] = witness
    return out


def oracle_equivalence(t1: Term, t2: Term, n: int | None, trials: int = 0,
                       *, seed: int | None = None, k: int = 3,
                       max_depth: int = 6) -> dict:
    """Cross-validate the normal-form decision against the exhaustive sweep on
    the given pair, plus `trials` seeded random pairs; level None sweeps each
    pair at level 2^k, and a sweep over the budget raises BudgetExceeded."""
    report = {"pair": _pair_report(t1, t2, n)}
    if trials:
        rng = random.Random(config.DEFAULT.seed if seed is None else seed)
        disagreements = []
        for _ in range(trials):
            a = random_term(rng, max_depth, k)
            b = random_term(rng, max_depth, k)
            r = _pair_report(a, b, n)
            if not r["agree"]:
                disagreements.append(r)
        report["trials"] = trials
        report["disagreements"] = disagreements
    report["agree"] = report["pair"]["agree"] and not report.get("disagreements")
    return report
