"""``validate``'s row check against the per-law witness scan it replaces.

``algebras._lawful`` decides lawfulness in O(|A|^2) row equalities;
``algebras._law_scan`` is the per-law witness scan, run only when the check
fails.  The oracle for both is ``helpers.ref_law_scan``, the element-by-element
scan from before the row check.
"""

import json
import random
import sys

import pytest

from palgebra import (
    TableAlgebra,
    algebra_loads,
    algebra_to_json_dict,
    build_chain,
    build_free,
    build_si,
    free_distributive,
    product,
    to_upset,
    validate,
)
from palgebra import algebras
from palgebra.algebras import _law_scan, _lawful, to_table
from palgebra.cli import main

from .helpers import ref_law_scan

BASES = {
    "si:1": build_si(1),
    "si:2": build_si(2),
    "si:3": build_si(3),
    "chain:4": build_chain(4),
    "si:2 x chain:3": product(build_si(2), build_chain(3)),
    "si:1 x si:2": product(build_si(1), build_si(2)),
}

# N5 (0 < 1 < 2 < 4 and 0 < 3 < 4): a pseudocomplemented lattice that is
# not distributive
N5 = {"meet": [[0, 0, 0, 0, 0], [0, 1, 1, 0, 1], [0, 1, 2, 0, 2], [0, 0, 0, 3, 3],
               [0, 1, 2, 3, 4]],
      "join": [[0, 1, 2, 3, 4], [1, 1, 2, 4, 4], [2, 2, 2, 4, 4], [3, 4, 4, 3, 4],
               [4, 4, 4, 4, 4]],
      "star": [4, 3, 3, 2, 0], "zero": 0, "one": 4}


def tables(A):
    """Mutable copies of the meet, join and star tables."""
    return ([list(r) for r in A.meet_table], [list(r) for r in A.join_table],
            list(A.star_table))


def relabel(A, perm):
    """A with element i renamed perm[i]."""
    n = A.size
    inv = [0] * n
    for i, p in enumerate(perm):
        inv[p] = i
    return TableAlgebra([[perm[A.meet(inv[i], inv[j])] for j in range(n)] for i in range(n)],
                        [[perm[A.join(inv[i], inv[j])] for j in range(n)] for i in range(n)],
                        [perm[A.star(inv[i])] for i in range(n)],
                        perm[A.zero], perm[A.one])


def mutate(A, rng, count):
    """A with count random edits: one meet or join entry, a symmetric pair
    of meet or join entries, one star entry, zero or one."""
    M, J, S = tables(A)
    bounds = {"zero": A.zero, "one": A.one}
    n = A.size
    for _ in range(count):
        kind = rng.choice(("meet", "meet-pair", "join", "join-pair", "star", "zero", "one"))
        i, j, v = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        if kind in bounds:
            bounds[kind] = v
        elif kind == "star":
            S[i] = v
        else:
            T = M if kind.startswith("meet") else J
            T[i][j] = v
            if kind.endswith("pair"):
                T[j][i] = v
    return TableAlgebra(M, J, S, bounds["zero"], bounds["one"])


def seeded_tables():
    """(trial, base name, table) for 3,000 seeded tables: each a relabelled
    copy of one of BASES with 0-3 random edits."""
    rng = random.Random(20261018)
    for trial in range(3000):
        name = rng.choice(sorted(BASES))
        B = BASES[name]
        perm = list(range(B.size))
        rng.shuffle(perm)
        yield trial, name, mutate(relabel(B, perm), rng, rng.randint(0, 3))


def test_row_check_replays_the_scan_on_3000_seeded_tables():
    lawless = upsets = 0
    for trial, name, A in seeded_tables():
        scan = ref_law_scan(A)
        assert list(_law_scan(A)) == scan, (trial, name)
        assert (_lawful(A) is True) == (scan == []), (trial, name, scan)
        assert validate(A) == scan, (trial, name)
        lawless += scan != []
        if not scan:
            U = to_upset(A)
            T = to_table(U)
            assert _lawful(T) and ref_law_scan(U) == list(_law_scan(T)) == validate(U) == []
            upsets += 1
    # both outcomes are well represented
    assert 1000 < lawless < 2800 and upsets > 200


def test_checks_fail_on_each_condition_of_the_row_check():
    # one hand-made failure per condition, each also caught by the scan
    A = build_si(2)
    M, J, S = tables(A)
    cases = []
    cases.append(TableAlgebra(M, J, S, 1, A.one))  # zero is not the bottom
    cases.append(TableAlgebra(M, J, S, A.zero, 1))  # one is not the top
    S2 = list(S)
    S2[1] = 0
    cases.append(TableAlgebra(M, J, S2, A.zero, A.one))  # 1* is not 1's pseudocomplement
    cases.append(TableAlgebra(N5["meet"], N5["join"], N5["star"], 0, 4))  # not distributive
    # a meet table whose relation is not transitive
    cyc = TableAlgebra([[0, 0, 2], [0, 1, 1], [2, 1, 2]], [[0, 1, 0], [1, 1, 2], [0, 2, 2]],
                       [0, 0, 0], 0, 0)
    cases.append(cyc)
    for C in cases:
        scan = ref_law_scan(C)
        assert not _lawful(C) and scan != [] and list(_law_scan(C)) == validate(C) == scan


def test_single_element_algebra():
    A = TableAlgebra([[0]], [[0]], [0], 0, 0)
    assert _lawful(A) and validate(A) == []


class TestBuiltAlgebrasAreLawful:
    @pytest.mark.parametrize("n", [1, 2, 3, None])
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_free(self, n, k):
        assert validate(build_free(n, k).algebra) == []

    @pytest.mark.parametrize("s", range(5))
    def test_free_distributive(self, s):
        assert validate(free_distributive(s)) == []

    def test_si_and_chains(self):
        for n in range(9):
            assert validate(build_si(n)) == []
        for m in range(2, 65):
            assert validate(build_chain(m)) == []


# ------------------------------------------------------------------- the CLI

def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def big_table_doc():
    """si:4 x si:4 (289 elements) with its elements relabelled."""
    P = product(build_si(4), build_si(4))
    perm = list(range(P.size))
    random.Random(289).shuffle(perm)
    return algebra_to_json_dict(relabel(P, perm))


def test_cli_checks_a_289_element_table_file(tmp_path, capsys):
    doc = big_table_doc()
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "convert", str(path))
    assert code == 0 and err == "" and json.loads(out) == doc


def bad_big_table_file(tmp_path):
    doc = big_table_doc()
    M = doc["meet"]
    a, b = doc["zero"], doc["one"]  # a & b = a; make it b both ways
    M[a][b] = M[b][a] = b
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    return path


def test_cli_refuses_a_289_element_table_file_with_one_meet_pair_changed(tmp_path, capsys):
    path = bad_big_table_file(tmp_path)
    code, out, err = run(capsys, "convert", str(path))
    assert code == 1 and out == ""
    assert err.startswith(f"error: algebra file {str(path)!r} violates the laws: Violation(")


def test_cli_stops_the_scan_at_the_first_failed_law(tmp_path, capsys):
    """The CLI prints only the first violation, so the laws in three
    variables, which follow it, are never scanned: no ``triples`` call in
    ``algebras`` is seen by a profile hook."""
    path = bad_big_table_file(tmp_path)
    first = validate(algebra_loads(path.read_text()))[0]
    assert first.law == "absorption-meet"
    called = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == algebras.__file__:
            called.add(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        code, out, err = run(capsys, "convert", str(path))
    finally:
        sys.setprofile(None)
    assert (code, out) == (1, "")
    assert err == f"error: algebra file {str(path)!r} violates the laws: {first}\n"
    assert {"_lawful", "pairs"} <= called and "triples" not in called


def test_a_lawless_lattice_skips_the_laws_in_three_variables(tmp_path, capsys):
    """si:9's 513-element table with one star entry wrong: the row check
    proves meet and join those of a distributive lattice before it reaches
    the star, so the scan that names the violation runs no ``triples``."""
    doc = algebra_to_json_dict(build_si(9))
    doc["star"][1] = 0
    path = tmp_path / "bad-si9.json"
    path.write_text(json.dumps(doc))
    called = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == algebras.__file__:
            called.add(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        code, out, err = run(capsys, "convert", str(path))
    finally:
        sys.setprofile(None)
    assert (code, out) == (1, "")
    assert err == (f"error: algebra file {str(path)!r} violates the laws: "
                   "Violation(law='star-meet', witness=(2, 1))\n")
    assert {"_lawful", "pairs"} <= called and "triples" not in called


# One table file per law that can fail first, as (base, edits) with edits
# ("meet"/"join", i, j, v) for one entry, ("meet2"/"join2", i, j, v) for the
# pair (i, j) and (j, i), ("star", i, v), ("zero", v) or ("one", v).  The
# expected text after "violates the laws: " is what the cubic scan printed
# before the row check existed.  zero-join, one-join and pseudocomplement
# cannot fail first: once the laws before them hold, they hold too.
LAW_FILES = {
    "meet-idempotent": ("n5", [("meet", 0, 0, 2)], (0,)),
    "join-idempotent": ("si:1", [("join", 2, 2, 0)], (2,)),
    "meet-commutative": ("chain:4", [("meet", 1, 2, 0)], (1, 2)),
    "join-commutative": ("n5", [("join", 2, 3, 2)], (2, 3)),
    "absorption-meet": ("si:1", [("join2", 2, 1, 1)], (2, 1)),
    "absorption-join": ("chain:4", [("join2", 2, 1, 3)], (2, 1)),
    "meet-associative": ("n5", [("meet2", 3, 2, 2), ("join2", 2, 3, 3)], (1, 2, 3)),
    "join-associative": ("si:2", [("join2", 1, 2, 4)], (1, 2, 3)),
    "distributive": ("n5", [], (2, 1, 3)),
    "zero-meet": ("si:2", [("zero", 3)], (0,)),
    "one-meet": ("si:1", [("one", 1)], (2,)),
    "star-one": ("si:1", [("star", 2, 1)], (2,)),
    "star-zero": ("chain:4", [("star", 0, 1)], (0,)),
    "star-meet": ("si:2", [("star", 3, 2)], (2, 3)),
}


def law_file_doc(base, edits):
    doc = {"kind": "table", "size": 5, **N5} if base == "n5" else \
        algebra_to_json_dict(BASES[base])
    doc = json.loads(json.dumps(doc))  # a copy to edit
    for kind, *args in edits:
        if kind in ("zero", "one"):
            doc[kind] = args[0]
        elif kind == "star":
            doc["star"][args[0]] = args[1]
        else:
            i, j, v = args
            table = doc[kind.rstrip("2")]
            table[i][j] = v
            if kind.endswith("2"):
                table[j][i] = v
    return doc


@pytest.mark.parametrize("law", sorted(LAW_FILES))
def test_law_error_text_is_the_scans(law, tmp_path, capsys):
    base, edits, witness = LAW_FILES[law]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(law_file_doc(base, edits)))
    code, out, err = run(capsys, "convert", str(path))
    assert (code, out) == (1, "")
    assert err == (f"error: algebra file {str(path)!r} violates the laws: "
                   f"Violation(law={law!r}, witness={witness!r})\n")
