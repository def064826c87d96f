"""What ``si``, ``convert`` and ``dual`` print from proved index data.

The CLI writes a table's rows straight off the algebra (``meet_row`` and
``join_row`` of either carrier) and a record's congruences as
``algebras.proved_indices``, which ``json_chunks`` prints unchecked.  Each
path is replayed here against the one it replaces: the plain document of
``algebra_to_json_dict``, per-entry ``meet``/``join``, the old
``Congruence`` construction, the old compatibility loop and the old element
order."""

import hashlib
import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from palgebra import (
    Congruence,
    Poset,
    TableAlgebra,
    algebra_from_json_dict,
    algebra_to_json_dict,
    algebras,
    chain_carrier,
    cm_all,
    compatibility_witness,
    product,
    si_carrier,
    to_table,
)
from palgebra.algebras import element_order, json_chunks, proved_algebra_doc, proved_indices
from palgebra.cli import load_algebra, main

from .helpers import ref_build_chain, ref_build_si, ref_compatibility_witness
from .test_json_chunks import as_lists
from .test_table_golden import GOLDEN, PRODUCTS, file_name, table_doc


def printed(argv) -> str:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        assert main(argv) == 0
    return out.getvalue()


def plain_text(A) -> str:
    return "".join(json_chunks(algebra_to_json_dict(A)))


# ------------------------------------------------------------ table rows

def carriers():
    yield from ((f"si:{n}", si_carrier(n)) for n in range(7))
    yield from ((f"chain:{m}", chain_carrier(m)) for m in (2, 3, 5, 17, 40))
    for spec in ("dist:3", "free:1,2", "free:2,1", "free:0,3"):
        yield spec, load_algebra(spec)
    yield "si:2 x chain:3", product(si_carrier(2), chain_carrier(3))
    yield "si:2 x si:1 (table)", to_table(product(si_carrier(2), si_carrier(1)))


CARRIERS = list(carriers())


@pytest.mark.parametrize("A", [A for _, A in CARRIERS], ids=[spec for spec, _ in CARRIERS])
def test_rows_are_the_entries(A):
    """Both row routes of an upset carrier (order rows with lookups of the
    incomparable entries, or a lookup of every entry) and a table's rows
    replay ``meet`` and ``join`` entry by entry; so does the star row."""
    rng = range(A.size)
    for i in rng:
        assert list(A.meet_row(i)) == [A.meet(i, j) for j in rng]
        assert list(A.join_row(i)) == [A.join(i, j) for j in rng]
    assert list(A.star_row()) == [A.star(i) for i in rng]


@pytest.mark.parametrize("n", range(10))
def test_si_documents_are_the_hand_tables(n):
    assert algebra_to_json_dict(si_carrier(n)) == algebra_to_json_dict(ref_build_si(n))


@pytest.mark.parametrize("m", range(2, 65))
def test_chain_documents_are_the_hand_tables(m):
    assert algebra_to_json_dict(chain_carrier(m)) == algebra_to_json_dict(ref_build_chain(m))


def test_plain_documents_are_fresh_lists():
    """``algebra_to_json_dict`` still hands out lists the caller may change."""
    A = si_carrier(2)
    doc = algebra_to_json_dict(A)
    assert all(type(row) is list for row in doc["meet"] + doc["join"])
    doc["meet"][0][0] = doc["star"][1] = 99
    assert algebra_to_json_dict(A) == algebra_to_json_dict(ref_build_si(2))


# ------------------------------------------------------------ CLI stdout

@pytest.mark.parametrize("n", range(10))
def test_si_prints_the_plain_document(n):
    want = plain_text(si_carrier(n))
    assert printed(["si", str(n)]) == want
    assert printed(["convert", f"si:{n}"]) == want


@pytest.mark.parametrize("m", range(2, 65))
def test_convert_chain_prints_the_plain_document(m):
    assert printed(["convert", f"chain:{m}"]) == plain_text(chain_carrier(m))


@pytest.mark.parametrize("factors", PRODUCTS, ids=[file_name(f) for f in PRODUCTS])
def test_convert_file_prints_the_plain_document(factors, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    name = file_name(factors)
    (tmp_path / name).write_text(json.dumps(table_doc(factors)), encoding="utf-8")
    out = printed(["convert", name])
    assert out == plain_text(load_algebra(name))
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[f"convert {name}"]["sha256"]


DUAL_SPECS = ["si:1", "si:3", "chain:4", "dist:3", "free:1,2", "free:2,2"]


@pytest.mark.parametrize("spec", DUAL_SPECS)
def test_dual_records_print_their_plain_lists(spec):
    """The records ``dual`` prints are ``CmRecord.to_json_dict()``'s lists."""
    doc = json.loads(printed(["dual", spec]))
    assert doc["records"] == [r.to_json_dict() for r in cm_all(load_algebra(spec))]


# ------------------------------------------------------------ the writer

@st.composite
def proved(draw):
    """Proved index data: a list, or a table whose rows are made on demand."""
    size = draw(st.integers(1, 1200))
    entries = st.integers(0, size - 1)
    if draw(st.booleans()):
        return proved_indices(size, draw(st.lists(entries, max_size=6) | st.tuples(entries)))
    rows = draw(st.lists(st.lists(entries, min_size=1, max_size=5), max_size=4))
    return algebras._Indices(size, range(len(rows)), rows.__getitem__)


DOCS = st.recursive(
    proved() | st.integers(-5, 2000) | st.lists(st.integers(0, 2000), max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from("abc"), inner,
                                                                max_size=3),
    max_leaves=8)


@settings(max_examples=300, deadline=None)
@given(DOCS)
def test_proved_data_is_written_as_its_lists(doc):
    """The writer prints proved data exactly as ``json.dumps(indent=2)``
    prints the lists it stands for, beside plain data sharing its digits."""
    assert "".join(json_chunks(doc)) == json.dumps(doc, indent=2, default=as_lists) + "\n"


def test_proved_rows_are_made_as_they_are_written():
    made = []

    def row(i):
        made.append(i)
        return [i, 0]

    chunks = json_chunks({"t": algebras._Indices(3, range(3), row)})
    assert next(chunks) == '{\n  "t": ' and made == []
    next(chunks)
    assert made == [0]


def test_proved_data_is_immutable():
    data = proved_indices(3, (0, 2))
    with pytest.raises(AttributeError):
        data.size = 4


def test_proved_documents_reload_as_the_algebra():
    for A in (si_carrier(3), chain_carrier(6), to_table(si_carrier(2))):
        text = "".join(json_chunks(proved_algebra_doc(A)))
        assert algebra_to_json_dict(algebra_from_json_dict(json.loads(text))) == \
            algebra_to_json_dict(A)


# ------------------------------------------------------------ Congruence.rep

def setdefault_rep(labels):
    """The old construction: each label's first index, by setdefault."""
    least = {}
    return tuple(least.setdefault(lab, i) for i, lab in enumerate(labels))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 6) | st.sampled_from([(0, 1), (1, 0), "a", True, 0.0]),
                max_size=40))
def test_rep_is_the_setdefault_construction(labels):
    assert Congruence(labels).rep == setdefault_rep(labels)
    assert Congruence(iter(labels)).rep == setdefault_rep(labels)


# ------------------------------------------------------------ compatibility

def planted(rep, rng):
    """A partition near rep: one element moved to another class, two classes
    merged, or fresh random labels; least members recomputed."""
    labels = list(rep)
    n, how = len(labels), rng.randrange(3)
    if how == 0:
        labels[rng.randrange(n)] = labels[rng.randrange(n)]
    elif how == 1:
        a, b = labels[rng.randrange(n)], labels[rng.randrange(n)]
        labels = [a if x == b else x for x in labels]
    else:
        labels = [rng.randrange(1 + rng.randrange(n)) for _ in range(n)]
    return Congruence(labels).rep


WITNESS_SPECS = ["si:2", "si:3", "chain:5", "dist:3", "free:1,2", "free:2,1"]


def test_witness_replays_the_old_loop():
    """Every record's mu and mu+ (compatible), partitions planted near them
    and one label array that is no list of least members: the same witness,
    and every kind of witness among them."""
    kinds = set()
    for spec in WITNESS_SPECS + ["table si:2 x chain:3"]:
        A = (to_table(product(si_carrier(2), chain_carrier(3))) if spec.startswith("table")
             else load_algebra(spec))
        rng = random.Random(spec)
        reps = [c.rep for r in cm_all(A) for c in (r.mu, r.mu_plus)]
        reps += [planted(reps[rng.randrange(len(reps))], rng) for _ in range(60)]
        reps.append(tuple(rng.randrange(A.size) for _ in range(A.size)))
        found = [ref_compatibility_witness(A, rep) for rep in reps]
        assert [compatibility_witness(A, rep) for rep in reps] == found, spec
        kinds |= {w[0] if w else None for w in found}
    assert kinds == {None, "star", "meet", "join"}


def test_witness_replays_the_old_loop_on_lawless_tables():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randrange(2, 7)
        rows = lambda: [[rng.randrange(n) for _ in range(n)] for _ in range(n)]  # noqa: E731
        A = TableAlgebra(rows(), rows(), [rng.randrange(n) for _ in range(n)], 0, n - 1)
        for _ in range(10):
            rep = Congruence([rng.randrange(3) for _ in range(n)]).rep
            assert compatibility_witness(A, rep) == ref_compatibility_witness(A, rep)


# ------------------------------------------------------------ element order

def old_element_order(T):
    return Poset(list(map(T.up_row, range(T.size))), cap=T.size)


@pytest.mark.parametrize("factors", PRODUCTS, ids=[file_name(f) for f in PRODUCTS])
def test_checked_table_order_is_the_pairwise_build(factors):
    T = algebra_from_json_dict(table_doc(factors))
    unchecked = element_order(T)
    assert algebras.upset_carrier(T) is T._carrier  # checked, and the carrier kept
    checked, old = element_order(T), old_element_order(T)
    assert (checked.up, checked.down) == (old.up, old.down) == (unchecked.up, unchecked.down)
    assert checked.covers() == old.covers()


def test_lawless_table_order_is_refused_by_poset():
    # 0 <= 1 and 1 <= 0 in the meet table's order: not antisymmetric
    T = TableAlgebra([[0, 0], [1, 1]], [[0, 1], [0, 1]], [1, 0], 0, 1)
    with pytest.raises(ValueError, match="antisymmetric") as got:
        element_order(T)
    with pytest.raises(ValueError) as old:
        old_element_order(T)
    assert str(got.value) == str(old.value)
    assert next(algebras.violations(T), None) is not None
    with pytest.raises(ValueError, match="antisymmetric"):
        element_order(T)


# ------------------------------------------------------------ memory

STATUS = Path("/proc/self/status")


@pytest.mark.skipif(not sys.platform.startswith("linux") or not STATUS.exists(),
                    reason="reads the peak RSS from /proc/self/status")
def test_si_11_streams_in_little_memory():
    """``si 11`` (95 MB of JSON) peaks below 40 MiB.  The child reads its own
    high-water mark, VmHWM: a forked child's ``ru_maxrss`` would also count
    the RSS its parent had when it forked."""
    probe = ("import sys\n"
             "from palgebra.cli import main\n"
             "code = main(['si', '11'])\n"
             "sys.stdout.flush()\n"
             "peak = [l for l in open('/proc/self/status') if l.startswith('VmHWM:')]\n"
             "sys.stderr.write(f'{code} {peak[0].split()[1]}')\n")
    src = str(Path(algebras.__file__).parents[1])
    with open(os.devnull, "w") as sink:
        done = subprocess.run([sys.executable, "-c", probe], stdout=sink, stderr=subprocess.PIPE,
                              text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    code, kib = done.stderr.split()
    assert code == "0" and int(kib) < 40 * 1024, done.stderr
