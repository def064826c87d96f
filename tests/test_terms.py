import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from palgebra import (
    BadIndex,
    Join,
    Meet,
    ONE,
    ParseError,
    Star,
    UnknownIdentifier,
    Var,
    ZERO,
    atom_term,
    build_si,
    evaluate,
    ib_term,
    jirr_term,
    join_all,
    max_var,
    meet_all,
    parse,
    qb_system,
    random_term,
    term_from_json,
    term_to_json,
    to_text,
    vars_of,
)
from palgebra.errors import UnboundVariable
from palgebra.terms import compile_postfix, eval_postfix
from .helpers import ref_max_var, ref_parse, ref_term_to_json, ref_to_text, ref_vars_of


def terms(max_depth=5, k=3):
    leaf = st.sampled_from([ZERO, ONE] + [Var(i) for i in range(1, k + 1)])
    return st.recursive(
        leaf,
        lambda sub: st.one_of(
            sub.map(Star),
            st.tuples(sub, sub).map(lambda p: Meet(*p)),
            st.tuples(sub, sub).map(lambda p: Join(*p)),
        ),
        max_leaves=2 ** max_depth,
    )


class TestParse:
    def test_precedence(self):
        assert parse("x1 | x2 & x3") == Join(Var(1), Meet(Var(2), Var(3)))
        assert parse("x1 & x2 | x3") == Join(Meet(Var(1), Var(2)), Var(3))
        assert parse("x1 & x2*") == Meet(Var(1), Star(Var(2)))
        assert parse("(x1 & x2)*") == Star(Meet(Var(1), Var(2)))
        assert parse("x1**") == Star(Star(Var(1)))

    def test_left_associativity(self):
        assert parse("x1 | x2 | x3") == Join(Join(Var(1), Var(2)), Var(3))
        assert parse("x1 & x2 & x3") == Meet(Meet(Var(1), Var(2)), Var(3))

    def test_constants(self):
        assert parse("0") is ZERO
        assert parse("1") is ONE
        assert parse("0*") == Star(ZERO)

    def test_whitespace(self):
        assert parse("  x1|x2  ") == parse("x1 | x2")

    def test_error_positions(self):
        with pytest.raises(ParseError) as e:
            parse("x1 &")
        assert e.value.pos == 4
        with pytest.raises(ParseError):
            parse("(x1")
        with pytest.raises(ParseError):
            parse("x1 x2")
        with pytest.raises(ParseError):
            parse("")

    def test_unknown_identifier(self):
        with pytest.raises(UnknownIdentifier):
            parse("y1")
        with pytest.raises(UnknownIdentifier):
            parse("x0")

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                        reason="the interpreter reads integers of any length")
    def test_variable_index_too_long_to_read(self):
        digits = "1" * (sys.get_int_max_str_digits() + 700)
        for text, pos in [(f"x{digits}", 0), (f"x1 & x{digits}*", 5)]:
            with pytest.raises(ParseError) as e:
                parse(text)
            assert type(e.value) is ParseError
            assert (str(e.value), e.value.pos) == (f"variable index too long (at position {pos})", pos)
        # an unknown identifier or bad character anywhere still wins
        for text, pos in [(f"foo | x{digits}", 0), (f"x{digits} | foo", len(digits) + 4)]:
            with pytest.raises(UnknownIdentifier) as e:
                parse(text)
            assert (str(e.value), e.value.pos) == (f"unknown identifier 'foo' (at position {pos})", pos)
        with pytest.raises(ParseError, match=r"unexpected character '\$' \(at position 0\)"):
            parse(f"$ x{digits}")
        limit = sys.get_int_max_str_digits()
        assert parse("x" + "9" * limit) == Var(10 ** limit - 1)

    @given(terms())
    @settings(max_examples=200)
    def test_print_parse_round_trip(self, t):
        assert parse(to_text(t)) == t

    @given(terms())
    def test_pretty_print_round_trip(self, t):
        assert parse(to_text(t, pretty=True)) == t


class TestJson:
    @given(terms())
    def test_round_trip(self, t):
        assert term_from_json(term_to_json(t)) == t

    def test_shapes(self):
        assert term_to_json(ZERO) == ["zero"]
        assert term_to_json(Star(Var(2))) == ["star", ["var", 2]]
        assert term_to_json(Meet(ONE, ZERO)) == ["meet", ["one"], ["zero"]]

    def test_bad_json(self):
        with pytest.raises(ParseError):
            term_from_json(["quux"])

    @pytest.mark.parametrize("doc, tag", [
        (["meet", ["var", 1], ["var", 2], ["var", 3]], "meet"),
        (["join", ["var", 1]], "join"),
        (["star", ["var", 1], ["var", 2]], "star"),
        (["star"], "star"),
        (["zero", 5], "zero"),
        (["one", ["var", 1]], "one"),
        (["var", 1, 2], "var"),
        (["var"], "var"),
        (["meet", ["var", 1], ["star", ["one"], ["zero"]]], "star"),  # nested
    ])
    def test_every_node_has_its_tags_operand_count(self, doc, tag):
        with pytest.raises(ParseError, match=f"bad term document: '{tag}' takes"):
            term_from_json(doc)

    def test_round_trip_5000_deep(self):
        # compared as text and code: == on trees this deep recurses
        t = Var(1)
        for i in range(5000):
            t = (Star(t), Meet(t, Var(2)), Join(ONE, t))[i % 3]
        back = term_from_json(term_to_json(t))
        assert to_text(back) == to_text(t)
        assert compile_postfix(back) == compile_postfix(t)


class TestEval:
    def test_on_si(self):
        B = build_si(2)
        val = {1: 1, 2: 2}
        assert evaluate(parse("x1 | x2"), B, val) == 3
        assert evaluate(parse("x1*"), B, val) == 2
        assert evaluate(parse("(x1 & x2)*"), B, val) == B.one
        assert evaluate(ONE, B, {}) == B.one

    def test_unbound(self):
        with pytest.raises(UnboundVariable):
            evaluate(Var(3), build_si(1), {1: 0})

    @given(terms(), st.integers(0, 3), st.data())
    @settings(max_examples=100)
    def test_postfix_matches_recursive_shape(self, t, n, data):
        # the compiled program and a direct recursive evaluation agree
        B = build_si(n)
        val = {i: data.draw(st.integers(0, B.size - 1)) for i in range(1, 4)}

        def rec(u):
            if u is ZERO or isinstance(u, type(ZERO)):
                return B.zero
            if u is ONE or isinstance(u, type(ONE)):
                return B.one
            if isinstance(u, Var):
                return val[u.index]
            if isinstance(u, Star):
                return B.star(rec(u.arg))
            if isinstance(u, Meet):
                return B.meet(rec(u.left), rec(u.right))
            return B.join(rec(u.left), rec(u.right))

        assert eval_postfix(compile_postfix(t), B, val) == rec(t)

    def test_deep_term_no_recursion_error(self):
        t = Var(1)
        for _ in range(5000):
            t = Star(t)
        code = compile_postfix(t)
        B = build_si(1)
        assert eval_postfix(code, B, {1: 1}) in range(B.size)


class TestHelpers:
    def test_vars_and_max(self):
        t = parse("x3 & (x1 | x3)*")
        assert vars_of(t) == (1, 3)
        assert max_var(t) == 3
        assert max_var(ONE) == 0

    def test_meet_join_all(self):
        assert meet_all([]) is ONE
        assert join_all([]) is ZERO
        assert meet_all([Var(1)]) == Var(1)
        B = build_si(2)
        xs = [Var(1), Var(2), Star(Var(1))]
        val = {1: 1, 2: 2}
        assert evaluate(meet_all(xs), B, val) == 0
        assert evaluate(join_all(xs), B, val) == 3


class TestSchemes:
    def test_atom_term(self):
        # T = {1} over k=2: x1 & x2*
        assert atom_term(0b01, 2) == Meet(Var(1), Star(Var(2)))
        assert atom_term(0b00, 1) == Star(Var(1))
        with pytest.raises(BadIndex):
            atom_term(0b100, 2)

    def test_jirr_term_validation(self):
        with pytest.raises(BadIndex):
            jirr_term((), 0, 2)  # empty family
        with pytest.raises(BadIndex):
            jirr_term((0b01,), 0b10, 2)  # L outside the intersection
        t = jirr_term((0b01, 0b11), 0b01, 2)
        assert max_var(t) == 2

    def test_jirr_term_atom_case_evaluates_like_atom(self):
        B = build_si(2)
        for val in ({1: a, 2: b} for a in range(5) for b in range(5)):
            lhs = evaluate(jirr_term((0b10,), 0b10, 2), B, val)
            ref = evaluate(Meet(Star(Star(atom_term(0b10, 2))), Var(2)), B, val)
            assert lhs == ref

    def test_ib_term_vars(self):
        assert max_var(ib_term(1)) == 2
        assert max_var(ib_term(3)) == 4
        with pytest.raises(ValueError):
            ib_term(0)

    def test_qb_system_shape(self):
        premises, conclusion = qb_system(3)
        assert len(premises) == 3
        lhs, rhs = premises[0]
        assert lhs == Star(Var(1))
        assert vars_of(rhs) == (2, 3)
        assert conclusion[1] is ONE
        assert vars_of(conclusion[0]) == (1, 2, 3)

    def test_qb_system_minimum(self):
        premises, conclusion = qb_system(1)
        assert len(premises) == 1
        with pytest.raises(ValueError):
            qb_system(0)


# token soup: well-formed terms, and every kind of parse error
PARSE_TOKENS = ["x1", "x2", "x10", "x0", "0", "1", "&", "|", "*", "(", ")", "∧", "∨",
                " ", "y", "#", "x", "é", "١"]
DEEP = "(" * 5000 + "x1" + ")" * 5000
# a bad character or unknown identifier anywhere wins over any parser error
PARSE_CASES = {"identifier after a variable": "x1y", "bad character last": "x1 & ) $",
               "x0 before an identifier": "x0 & foo", "non-ASCII letter": "é",
               "non-ASCII digit": "x١", "empty": "", "blank": "   ", "deep": DEEP,
               "deep, one ')' short": DEEP[:-1], "deep, bad character after": DEEP + " $",
               "deep, identifier at the end": DEEP.replace("x1", "x1 | x2 & (") + " foo"}


def parse_outcome(fn, text):
    """fn(text) as ("term", its postfix code) or ("error", type, message, pos)."""
    try:
        return ("term", compile_postfix(fn(text)))
    except ParseError as exc:
        return ("error", type(exc), str(exc), exc.pos)


class TestNoRecursion:
    """parse and to_text keep explicit stacks: the same results and errors
    as the recursive versions they replaced, at any depth."""

    @given(st.lists(st.sampled_from(PARSE_TOKENS), max_size=14).map("".join))
    @settings(max_examples=600)
    def test_parse_replays_the_recursive_parser(self, text):
        assert parse_outcome(parse, text) == parse_outcome(ref_parse, text)

    @pytest.mark.parametrize("text", PARSE_CASES.values(), ids=PARSE_CASES.keys())
    def test_parse_replays_the_recursive_parser_on_fixed_texts(self, text):
        # ref_parse takes 4 frames per '(': run it with room for 5,000 of them
        expected = []
        limit, stack = sys.getrecursionlimit(), threading.stack_size(1 << 26)
        sys.setrecursionlimit(max(limit, 25_000))
        try:
            worker = threading.Thread(target=lambda: expected.append(parse_outcome(ref_parse, text)))
            worker.start()
            worker.join(60)
        finally:
            sys.setrecursionlimit(limit)
            threading.stack_size(stack)
        assert not worker.is_alive()
        assert parse_outcome(parse, text) == expected[0]

    @given(terms(max_depth=7, k=4), st.booleans())
    @settings(max_examples=300)
    def test_to_text_replays_the_recursive_printer(self, t, pretty):
        assert to_text(t, pretty=pretty) == ref_to_text(t, pretty=pretty)

    def test_5000_nested_parentheses(self):
        assert parse("(" * 5000 + "x1" + ")" * 5000) == Var(1)
        deep = "(" * 5000 + "x1 | x2" + ") & x3" * 5000
        assert compile_postfix(parse(deep))[-2:] == (("var", 3), ("meet",))
        with pytest.raises(ParseError) as exc:
            parse("(" * 5000 + "x1" + ")" * 4999)
        assert str(exc.value) == "expected ')' (at position 10001)"

    def test_5000_operand_join(self):
        t = Var(1)
        for i in range(2, 5001):
            t = Join(t, Var(i))
        text = to_text(t)
        assert text == " | ".join(f"x{i}" for i in range(1, 5001))
        assert compile_postfix(parse(text)) == compile_postfix(t)
        nested = t
        for _ in range(5000):
            nested = Star(Meet(nested, ONE))
        assert to_text(nested).startswith("(" * 5000)
        assert compile_postfix(parse(to_text(nested))) == compile_postfix(nested)


@st.composite
def shared_terms(draw, k=3, steps=10):
    """A term built bottom-up: each new node takes its operands from the
    nodes made before it, so the same Meet, Join and Star objects recur as
    the root, join and meet operands and star arguments."""
    pool = [ZERO, ONE] + [Var(i) for i in range(1, k + 1)]
    for _ in range(draw(st.integers(1, steps))):
        kind = draw(st.sampled_from((Star, Meet, Join)))
        pick = st.integers(0, len(pool) - 1)
        pool.append(Star(pool[draw(pick)]) if kind is Star
                    else kind(pool[draw(pick)], pool[draw(pick)]))
    return pool[-1]


SHARED = {"meet": Meet(Var(1), Star(Var(2))), "join": Join(Var(1), Var(2)),
          "star": Star(Meet(Var(1), Var(3))), "nested meet": Meet(Join(Meet(Var(1), Var(2)), Var(3)),
                                                             Meet(Var(1), Var(2)))}
PLACES = {"root": lambda s: s, "join left": lambda s: Join(s, Var(3)),
          "join right": lambda s: Join(Var(3), s), "meet left": lambda s: Meet(s, Var(3)),
          "meet right": lambda s: Meet(Var(3), s), "under a star": Star}


class TestSharedSubterms:
    """to_text writes a meet that recurs from the text of its second visit:
    the same text as the recursive printer, which prints every visit."""

    @given(shared_terms(), st.booleans())
    @settings(max_examples=300)
    def test_replays_the_recursive_printer(self, t, pretty):
        assert to_text(t, pretty=pretty) == ref_to_text(t, pretty=pretty)
        assert parse(to_text(t, pretty=pretty)) == t

    @pytest.mark.parametrize("name", SHARED)
    def test_every_place_three_times(self, name):
        s = SHARED[name]
        places = list(PLACES.values())
        for p1 in places:
            for p2 in places:
                for p3 in places:
                    a, b, c = p1(s), p2(s), p3(s)
                    for t in (Join(Join(a, b), c), Join(a, Join(b, c)), Meet(Meet(a, b), c),
                              Star(Join(a, Meet(b, c))), Join(Meet(a, Join(b, s)), Star(c))):
                        for pretty in (False, True):
                            assert to_text(t, pretty) == ref_to_text(t, pretty)

    def test_distinct_meets_over_shared_operands(self):
        # each meet object has a text of its own, whatever its operands share
        x1, s = Var(1), Meet(Var(1), Var(2))
        meets = [Meet(x1, Var(i)) for i in range(2, 6)] + [Meet(Var(i), x1) for i in range(2, 6)]
        meets += [Meet(s, Var(3)), Meet(Var(3), s), Meet(s, s), Meet(Var(1), Var(2))]
        for t in (join_all(meets * 3), join_all([Star(m) for m in meets] + meets * 2)):
            for pretty in (False, True):
                assert to_text(t, pretty) == ref_to_text(t, pretty)

    def test_a_join_of_50000_references_to_one_atom(self):
        atom = atom_term(0b101, 3)
        t = join_all([atom] * 50_000)
        for pretty in (False, True):
            text = to_text(t, pretty)
            assert text == ref_to_text(t, pretty)
            assert text.count(to_text(atom, pretty)) == 50_000

    def test_a_100000_deep_meet_chain_twice_under_a_join(self):
        # compared as text: == and the recursive printer recurse this deep
        text = " & ".join(f"x{i % 7 + 1}" for i in range(100_001))
        chain = parse(text)
        assert to_text(Join(chain, chain)) == f"{text} | {text}"
        pretty = text.replace("&", "∧")
        assert to_text(Join(Star(chain), chain), True) == f"({pretty})* ∨ {pretty}"
        assert to_text(Join(Join(chain, Var(1)), chain)) == f"{text} | x1 | {text}"


def ground_term(rng, depth):
    """Seeded random term without variables."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice((ZERO, ONE))
    kind = rng.choice((Star, Meet, Join))
    if kind is Star:
        return Star(ground_term(rng, depth - 1))
    return kind(ground_term(rng, depth - 1), ground_term(rng, depth - 1))


def flat_json(doc):
    """A JSON tree as a flat list of array lengths and leaves, read with an
    explicit stack: == on trees this deep recurses."""
    out, stack = [], [doc]
    while stack:
        node = stack.pop()
        if type(node) is list:
            out.append(len(node))
            stack += reversed(node)
        else:
            out.append(node)
    return out


class TestOneWalk:
    """vars_of, max_var and term_to_json read compiled code: the same
    results as the tree walks they replaced, at any depth."""

    def test_seeded_random_terms_replay(self):
        rng = random.Random("one walk")
        for _ in range(400):
            t = random_term(rng, rng.randint(0, 7), rng.randint(1, 6))
            g = ground_term(rng, 5)
            for args in ((t,), (g,), (t, g), (g, t), (g, g), ()):
                assert vars_of(*args) == ref_vars_of(*args)
                assert max_var(*args) == ref_max_var(*args)
            assert term_to_json(t) == ref_term_to_json(t)
            assert term_to_json(g) == ref_term_to_json(g)

    def test_100k_node_terms_replay(self):
        # a left-deep join, a right-deep meet and a star tower
        join = Var(1)
        for i in range(50_000):
            join = Join(join, Var(i % 9 + 1))
        meet = ZERO
        for i in range(50_000):
            meet = Meet(Var(i % 5 + 2), meet)
        tower = Var(3)
        for _ in range(100_000):
            tower = Star(tower)
        for t in (join, meet, tower):
            assert vars_of(t) == ref_vars_of(t)
            assert max_var(t, ONE) == ref_max_var(t, ONE)
            assert flat_json(term_to_json(t)) == flat_json(ref_term_to_json(t))
        assert vars_of(join, meet, tower) == tuple(range(1, 10))
