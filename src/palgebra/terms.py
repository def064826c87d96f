"""Terms over the signature (meet, join, star, 0, 1) with variables x1, x2, ...

Surface syntax: `&` meet, `|` join, postfix `*` star, `0`, `1`, parentheses.
Star binds tightest, then `&`, then `|`; both binary operators associate left.
Empty meets render as 1 and empty joins as 0.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Sequence

from .errors import BadIndex, ParseError, UnboundVariable, UnknownIdentifier
from .posets import bit_indices
from .records import Record


class Term(Record):
    """A term node.  Parsing and normal forms make nodes in bulk, so the four
    node classes with fields set their slots through the slots' descriptors,
    not through ``Record.__init__``."""
    __slots__ = ()


class Zero(Term):
    __slots__ = ()


class One(Term):
    __slots__ = ()


class Var(Term):
    __slots__ = ("index",)  # 1-based

    def __init__(self, index: int):
        _set_index(self, index)


class Meet(Term):
    __slots__ = ("left", "right")

    def __init__(self, left: Term, right: Term):
        _set_meet_left(self, left)
        _set_meet_right(self, right)


class Join(Term):
    __slots__ = ("left", "right")

    def __init__(self, left: Term, right: Term):
        _set_join_left(self, left)
        _set_join_right(self, right)


class Star(Term):
    __slots__ = ("arg",)

    def __init__(self, arg: Term):
        _set_arg(self, arg)


_set_index = Var.index.__set__
_set_meet_left, _set_meet_right = Meet.left.__set__, Meet.right.__set__
_set_join_left, _set_join_right = Join.left.__set__, Join.right.__set__
_set_arg = Star.arg.__set__

ZERO = Zero()
ONE = One()


# ------------------------------------------------------------------- parsing

# One token per match: a variable, a symbol, an identifier, or any other
# character, which is an error.  Whitespace separates tokens and is skipped.
_SCAN = re.compile(r"x\d+|[01&|*()∧∨]|[A-Za-z_]\w*|\S")
_SYMBOLS = frozenset("01&|*()∧∨")


def parse(text: str) -> Term:
    """The term in text.  The tokens come from one scan; their positions are
    found only for an error.  Parentheses still open are kept on an explicit
    stack, so nesting depth is not bounded by the recursion limit."""
    tokens = _SCAN.findall(text)
    tokens.append("")  # the end of the text
    i = 0
    # per open '(': the join and the meet pending outside it
    frames: list[tuple[Term | None, Term | None]] = []
    join = meet = None
    while True:  # expecting a primary at token i
        tok = tokens[i]
        if tok == "(":
            frames.append((join, meet))
            join = meet = None
            i += 1
            continue
        if tok[:1] == "x" and tok[1:2].isdecimal():
            try:
                idx = int(tok[1:])
            except ValueError:  # more digits than int() converts
                raise _error(text, tokens, i, "variable index too long") from None
            if idx < 1:
                raise _error(text, tokens, i, "variable indices start at x1", UnknownIdentifier)
            t = Var(idx)
        elif tok == "0":
            t = ZERO
        elif tok == "1":
            t = ONE
        else:
            raise _error(text, tokens, i, "expected a term")
        i += 1
        tok = tokens[i]
        while True:  # t is a whole primary: stars bind first, then & and |
            while tok == "*":
                t = Star(t)
                i += 1
                tok = tokens[i]
            meet = t if meet is None else Meet(meet, t)
            if tok == "&" or tok == "∧":
                i += 1
                break
            join = meet if join is None else Join(join, meet)
            meet = None
            if tok == "|" or tok == "∨":
                i += 1
                break
            if not frames:
                if tok:
                    raise _error(text, tokens, i, "trailing input")
                return join
            if tok != ")":
                raise _error(text, tokens, i, "expected ')'")
            i += 1
            tok = tokens[i]
            t = join
            join, meet = frames.pop()


def _error(text: str, tokens: list[str], at: int, message: str,
           kind: type[ParseError] = ParseError) -> ParseError:
    """The error of a parse that fails at token ``at``, unless some token is
    an unknown identifier or an unexpected character: the first of those is
    reported, as a tokenizing pass before parsing would report it."""
    return _bad_token(text, tokens) or kind(message, _start(text, at))


def _bad_token(text: str, tokens: list[str]) -> ParseError | None:
    """The error of the first unknown identifier or unexpected character
    among the tokens; None if there is none."""
    for j, tok in enumerate(tokens[:-1]):
        if tok in _SYMBOLS or tok[0] == "x" and tok[1:2].isdecimal():
            continue
        if tok[0] == "_" or tok[0].isascii() and tok[0].isalpha():
            return UnknownIdentifier(f"unknown identifier {tok!r}", _start(text, j))
        return ParseError(f"unexpected character {tok!r}", _start(text, j))
    return None


def _start(text: str, at: int) -> int:
    """Where token ``at`` starts; the end of text for the end marker."""
    for j, m in enumerate(_SCAN.finditer(text)):
        if j == at:
            return m.start()
    return len(text)


# ------------------------------------------------------------------ printing

def to_text(t: Term, pretty: bool = False) -> str:
    """Minimal-parenthesis rendering; reparses to an equal tree.

    Walks an explicit stack of literal text and (node, floor) pairs.  The
    floor says where the node stands: 0 the root, 1 and 2 a join's left and
    right operand, 3 and 4 a meet's left and right operand, 4 also a star's
    argument.  A join above floor 1 and a meet above floor 3 are
    parenthesised.  Nodes are told apart by their exact type: Term has no
    subclasses beyond the six below.

    A meet at the root or as a join operand (normal forms share their atoms
    x_T there) is printed in full on its first two visits only.  The first
    notes its id; the second pushes an (id, start) pair under its operands,
    and when that pops, the text written since start becomes one string,
    which later visits write at once.  So a meet that recurs costs its text
    once more, not once per visit, and one that does not costs one lookup.
    """
    meet_sym, join_sym = (" ∧ ", " ∨ ") if pretty else (" & ", " | ")
    out: list[str] = []
    emit = out.append
    stack: list = [(t, 0)]
    pop = stack.pop
    shared: dict[int, str | None] = {}  # id -> None once visited, its text once printed twice
    while stack:
        item = pop()
        if type(item) is str:
            emit(item)
            continue
        node, floor = item
        kind = type(node)
        if kind is Join:
            if floor > 1:
                emit("(")
                stack.append(")")
            stack += ((node.right, 2), join_sym, (node.left, 1))
        elif kind is Meet:
            if floor > 3:
                emit("(")
                stack.append(")")
            elif floor < 3:
                key = id(node)
                if key not in shared:
                    shared[key] = None
                elif shared[key] is None:
                    stack.append((key, len(out)))
                else:
                    emit(shared[key])
                    continue
            stack += ((node.right, 4), meet_sym, (node.left, 3))
        elif kind is Star:  # nothing binds tighter: never wrapped
            stack += ("*", (node.arg, 4))
        elif kind is Var:
            emit(f"x{node.index}")
        elif kind is int:  # a recurring meet's (id, start): its text is done
            text = shared[node] = "".join(out[floor:])
            del out[floor:]
            emit(text)
        else:
            emit("0" if kind is Zero else "1")
    return "".join(out)


def term_to_json(t: Term):
    """The JSON tree of a term, folded from its postfix code, whose
    instruction names are the JSON tags."""
    out: list = []
    for ins in compile_postfix(t):
        op = ins[0]
        if op == "var":
            out.append(["var", ins[1]])
        elif op == "star":
            out[-1] = ["star", out[-1]]
        elif op == "meet" or op == "join":
            right = out.pop()
            out[-1] = [op, out[-1], right]
        else:
            out.append([op])
    return out[0]


def json_kind(value) -> str:
    """What a decoded JSON value is, for error messages."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "a boolean"
    return ("a number" if isinstance(value, (int, float)) else "a string" if isinstance(value, str)
            else "an array" if isinstance(value, (list, tuple)) else "an object")


_ARITY = {"zero": 0, "one": 0, "var": 1, "star": 1, "meet": 2, "join": 2}


def term_from_json(doc) -> Term:
    """The term of a JSON tree: ["zero"], ["one"], ["var", i], ["star", t],
    ["meet", l, r] or ["join", l, r], and no other node (``_ARITY``).  Read
    with an explicit stack, operands left to right, so a malformed document
    fails where a recursive reader would, with a ParseError of no position."""
    out: list[Term] = []
    stack: list = [(doc, 0)]  # a node and how many of its operands are read
    try:
        while stack:
            node, done = stack.pop()
            if not isinstance(node, (list, tuple)):
                raise ParseError('bad term document: a term is an array such as ["var", 1], '
                                 f"got {json_kind(node)}")
            tag = node[0]
            arity = _ARITY.get(tag) if type(tag) is str else None
            if arity is None:
                raise ParseError(f"bad term tag {tag!r}")
            if len(node) != arity + 1:
                raise ParseError(f"bad term document: {tag!r} takes {arity} operand"
                                 f"{'' if arity == 1 else 's'}, got {len(node) - 1}")
            if tag == "zero" or tag == "one":
                out.append(ZERO if tag == "zero" else ONE)
            elif tag == "var":  # a float, bool, string or index below 1 is refused
                if type(node[1]) is not int or node[1] < 1:
                    raise ParseError("variable indices start at x1")
                out.append(Var(node[1]))
            elif done < (1 if tag == "star" else 2):
                stack += ((node, done + 1), (node[done + 1], 0))
            elif tag == "star":
                out[-1] = Star(out[-1])
            else:
                right = out.pop()
                out[-1] = (Meet if tag == "meet" else Join)(out[-1], right)
    except (TypeError, IndexError, ValueError) as exc:
        raise ParseError(f"bad term document: {exc}") from exc
    return out[0]


# ---------------------------------------------------------------- evaluation

def code_vars(*codes: Sequence[tuple]) -> tuple[int, ...]:
    """The variable indices occurring in any of the compiled codes, ascending."""
    return tuple(sorted({ins[1] for code in codes for ins in code if ins[0] == "var"}))


def vars_of(*terms: Term) -> tuple[int, ...]:
    """The variable indices occurring in any of the terms, ascending."""
    return code_vars(*map(compile_postfix, terms))


def max_var(*terms: Term) -> int:
    """The largest variable index in any of the terms; 0 if there is none."""
    return max(vars_of(*terms), default=0)


def compile_postfix(t: Term) -> tuple[tuple, ...]:
    """Flatten to postfix instructions; avoids recursion depth limits on the
    wide joins normal forms produce.  An explicit stack holds nodes and the
    instructions of nodes whose operands come first; nodes are told apart
    by their exact type, as in ``to_text``."""
    out: list[tuple] = []
    emit = out.append
    stack: list = [t]
    pop = stack.pop
    while stack:
        node = pop()
        kind = type(node)
        if kind is tuple:
            emit(node)
        elif kind is Var:
            emit(("var", node.index))
        elif kind is Star:
            stack += (("star",), node.arg)
        elif kind is Meet or kind is Join:
            stack += (("meet",) if kind is Meet else ("join",), node.right, node.left)
        else:
            emit(("zero",) if kind is Zero else ("one",))
    return tuple(out)


def eval_postfix(code: Sequence[tuple], A, valuation) -> int:
    """Run compiled code over algebra A; valuation maps 1-based indices to
    element indices of A."""
    stack: list[int] = []
    push = stack.append
    for ins in code:
        op = ins[0]
        if op == "var":
            try:
                push(valuation[ins[1]])
            except KeyError:
                raise UnboundVariable(f"x{ins[1]} has no value") from None
        elif op == "meet":
            b = stack.pop()
            stack[-1] = A.meet(stack[-1], b)
        elif op == "join":
            b = stack.pop()
            stack[-1] = A.join(stack[-1], b)
        elif op == "star":
            stack[-1] = A.star(stack[-1])
        elif op == "zero":
            push(A.zero)
        else:
            push(A.one)
    return stack[-1]


def evaluate(t: Term, A, valuation) -> int:
    return eval_postfix(compile_postfix(t), A, valuation)


# ------------------------------------------------------------- scheme terms

def meet_all(terms: Sequence[Term]) -> Term:
    """Balanced meet; empty meet is 1."""
    return _balanced(Meet, terms) if terms else ONE


def join_all(terms: Sequence[Term]) -> Term:
    """Balanced join; empty join is 0."""
    return _balanced(Join, terms) if terms else ZERO


def _balanced(op: type, terms: Sequence[Term]) -> Term:
    """op over the nonempty terms as a balanced tree: op(left half, right
    half), the left half the larger, down to single terms.  Built from an
    explicit stack of index ranges, with None marking where two subtrees
    are done.  Many normal forms join a single term, returned as it is."""
    if len(terms) == 1:
        return terms[0]
    out: list[Term] = []
    stack: list = [(0, len(terms))]
    pop = stack.pop
    while stack:
        item = pop()
        if item is None:
            right = out.pop()
            out[-1] = op(out[-1], right)
            continue
        lo, hi = item
        if hi - lo > 2:
            mid = (lo + hi + 1) // 2
            stack += (None, (mid, hi), (lo, mid))
        elif hi - lo == 2:
            out.append(op(terms[lo], terms[lo + 1]))
        else:
            out.append(terms[lo])
    return out[0]


@lru_cache(maxsize=None)
def atom_term(T: int, k: int) -> Term:
    """x_T: meet of x_i for i in T and x_i* outside T; T is a bitmask over
    variables 1..k (bit i-1 stands for x_i)."""
    if T >> k:
        raise BadIndex(f"subset mask {T:#x} exceeds {k} variables")
    return meet_all([_literal(i + 1, 1 - ((T >> i) & 1)) for i in range(k)])


@lru_cache(maxsize=None)
def _literal(i: int, stars: int) -> Term:
    """x_i under 0, 1 or 2 stars, one object per process."""
    t = Var(i)
    for _ in range(stars):
        t = Star(t)
    return t


@lru_cache(maxsize=None)
def _atom_join(fam: tuple[int, ...], k: int) -> Term:
    """``join_all`` of the atoms x_T over the nonempty fam: one half of a
    family head, shared by every family that splits into it."""
    return join_all([atom_term(T, k) for T in fam])


@lru_cache(maxsize=None)
def family_head(fam: tuple[int, ...], k: int) -> Term:
    """(join of x_T over fam)**, for a family of two or more members: one
    object per family, which the index terms of all its L share.  The join
    is ``join_all``'s balanced tree, put together from its two halves (the
    first the larger), each built by ``_balanced`` and memoised in
    ``_atom_join``, so families that split into the same half share it."""
    mid = (len(fam) + 1) // 2
    return Star(Star(Join(_atom_join(fam[:mid], k), _atom_join(fam[mid:], k))))


@lru_cache(maxsize=None)
def _variables_meet(ell: int) -> Term:
    """``meet_all`` of x_i for i in the nonempty mask ell."""
    return meet_all([_literal(i + 1, 0) for i in bit_indices(ell)])


@lru_cache(maxsize=None)
def index_term(fam: tuple[int, ...], ell: int, k: int) -> Term:
    """p^L_T: (join of x_T over the family)** meet the variables of L, for an
    already valid index: fam strictly ascending, nonempty, within k
    variables, and ell inside every member (``free.jirr_term`` checks raw
    index data first).  One object per index; its parts come from memos
    too, so index terms share them: the family head (``family_head``, with
    the atoms x_T it joins), the meet of L's variables and the literals.

    Two families take shorter forms that are equal to p^L_T in every
    p-algebra: the full family of all 2^k subsets gives 1, and a singleton
    {T} gives the meet of x_i for i in L, x_i** for i in T - L and x_i* for
    i outside T.
    """
    if len(fam) == 1 << k:
        return ONE
    if len(fam) == 1:
        T = fam[0]
        # per variable: 0 stars in L, 2 in T - L, 1 outside T
        return meet_all([_literal(i + 1, 0 if (ell >> i) & 1 else 1 + ((T >> i) & 1))
                         for i in range(k)])
    head = family_head(fam, k)
    if not ell:
        return head
    return Meet(head, _variables_meet(ell))


def ib_term(m: int) -> Term:
    """The join of (x_i & the stars of the other variables)* for i = 1..m+1;
    equal to 1 exactly where the variety level is at most m."""
    if m < 1:
        raise ValueError("m must be >= 1")
    parts = []
    for i in range(1, m + 2):
        others = [Star(Var(j)) for j in range(1, m + 2) if j != i]
        parts.append(Star(Meet(Var(i), meet_all(others))))
    return join_all(parts)


def qb_system(n: int) -> tuple[list[tuple[Term, Term]], tuple[Term, Term]]:
    """Premises x_i* = join of the other variables, conclusion join = 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    premises = []
    for i in range(1, n + 1):
        rhs = join_all([Var(j) for j in range(1, n + 1) if j != i])
        premises.append((Star(Var(i)), rhs))
    conclusion = (join_all([Var(i) for i in range(1, n + 1)]), ONE)
    return premises, conclusion
