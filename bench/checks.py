"""Checks of every distinct job's output, against the benchmark's own
computations (oracles.py) and against properties the method must have.

check_outputs(jobs, outputs, pa) returns {job id: reason} for
the jobs whose output is wrong.  `pa` is the palgebra package; it is used
only to read an algebra's tables by element index, to reload converted
output and to take a normal form of a normal form.
"""

from __future__ import annotations

import itertools
import json

import inputs
import oracles as O


class Wrong(Exception):
    pass


def need(cond, what: str) -> None:
    if not cond:
        raise Wrong(what)


def _max_var(*terms) -> int:
    return max((max(O.vars_of(t), default=0) for t in terms), default=0)


# ------------------------------------------------------------- identities

def check_eq(job, out, pa):
    lhs, rhs = O.parse(job["lhs"]), O.parse(job["rhs"])
    k = _max_var(lhs, rhs)
    level = job["level"]
    holds = O.decide_identity(lhs, rhs, level, k)
    need(out["holds"] == holds, f"verdict {out['holds']}, own sweep says {holds}")
    expect = job["expect"]  # laws, Stone at level 1, ib_n at level n
    need(expect is None or expect == holds, f"theory says {expect}")
    if job["witness"] and not holds:
        w = out.get("witness")
        need(w is not None, "no witness")
        need(w["algebra"] == f"si:{level}", "witness algebra")
        val = {int(name[1:]): x for name, x in w["valuation"].items()}
        need(sorted(val) == list(range(1, k + 1)), "witness valuation variables")
        T = O.si_tables(level)
        a, b = T.eval1(lhs, val), T.eval1(rhs, val)
        need(a != b, "witness does not separate the sides")
        need((w["lhs"], w["rhs"]) == (a, b), "witness values")


def check_nf(job, out, pa):
    t = O.parse(job["term"])
    nf = O.parse(out)
    k = max(_max_var(t), _max_var(nf))
    space = O.identity_space(job["level"], k)
    need(space.differ(t, nf) == 0, "normal form evaluates unlike its input")
    again = pa.to_text(pa.normal_form(pa.parse(out), job["level"], k=_max_var(t)))
    need(again == out, "normal form is not idempotent")


# ------------------------------------------------------------- structures

class TableSource:
    """Tables of the algebras the jobs name, read once per run."""

    def __init__(self, pa):
        self.pa = pa
        self.cache = {}

    def get(self, spec) -> O.Tables:
        if spec not in self.cache:
            self.cache[spec] = self._load(spec)
        return self.cache[spec]

    def _load(self, spec):
        if spec.endswith(".json"):
            with open(spec, encoding="utf-8") as fh:
                doc = json.load(fh)
            return O.Tables(doc["meet"], doc["join"], doc["star"], doc["zero"], doc["one"])
        T = O.tables_of(self.pa.cli.load_algebra(spec))
        head, _, tail = spec.partition(":")
        own = {"si": O.si_tables, "chain": O.chain_tables}.get(head)
        if own is not None:
            need(own(int(tail)).same_ops(T), f"{spec} tables differ from the definition")
        return T


def _covers(n, leq):
    out = []
    for i in range(n):
        for j in range(n):
            if i != j and leq(i, j) and not any(
                    m not in (i, j) and leq(i, m) and leq(m, j) for m in range(n)):
                out.append([i, j])
    return sorted(out)


def _refines(p, q) -> bool:
    return all(q[i] == q[r] for i, r in enumerate(p))


def check_dual(job, out, tables):
    need(out["exit"] == 0, f"exit {out['exit']}")
    doc = json.loads(out["stdout"])
    T = tables.get(job["spec"])
    recs = doc["records"]
    need(doc["count"] == len(recs) == O.join_irreducible_count(T),
         "record count differs from the join-irreducible count")
    ones = []
    for r in recs:
        mu = r["mu"]
        need(len(mu) == T.size, "mu has the wrong length")
        need(O.compatible(T, mu), "mu is not operation-compatible")
        one_class = [i for i in range(T.size) if mu[i] == mu[T.one]]
        need(r["oneClass"] == one_class, "oneClass is not the class of 1")
        if T.size <= 120:
            need(O.is_prime_filter(T, set(one_class)), "1-class is not a prime filter")
        need(_refines(mu, r["muPlus"]) and r["muPlus"] != mu, "muPlus is not above mu")
        ones.append(frozenset(one_class))
    need(len(set(ones)) == len(ones), "two records share a 1-class")
    need(doc["storeys"] == {s: sum(r["storey"] == s for r in recs) for s in ("I", "II")},
         "storey counts")
    n = len(recs)
    need(doc["byOneClass"]["covers"] == _covers(n, lambda i, j: ones[i] <= ones[j]),
         "1-class order covers")
    need(doc["bySubset"]["covers"] == _covers(
        n, lambda i, j: _refines(recs[i]["mu"], recs[j]["mu"])), "inclusion order covers")


def check_convert(job, out, tables, pa):
    need(out["exit"] == 0, f"exit {out['exit']}")
    doc = json.loads(out["stdout"])
    T = tables.get(job["spec"])
    if doc["kind"] == "table":
        back = O.Tables(doc["meet"], doc["join"], doc["star"], doc["zero"], doc["one"])
    else:
        back = O.tables_of(pa.algebra_loads(out["stdout"]))
    need(back.same_ops(T), "converted output reloads to other operations")


def check_free(job, out):
    need(out["exit"] == 0, f"exit {out['exit']}")
    argv = job["argv"]
    n = None if argv[2] == "omega" else int(argv[2])
    k = int(argv[4])
    doc = json.loads(out["stdout"])
    need(doc["jCount"] == O.count_jirr(n, k), "jCount differs from the double sum")
    need(doc["elements"] == O.free_size(n, k), "element count differs from the upset count")


# ------------------------------------------------------------------ quasi

def _qi_terms(doc):
    prem = [(O.parse(p["lhs"]), O.parse(p["rhs"])) for p in doc["premises"]]
    concl = (O.parse(doc["conclusion"]["lhs"]), O.parse(doc["conclusion"]["rhs"]))
    return prem, concl


def _sweep(T, prem, concl, cols) -> bool:
    """Holds on every valuation of the column lists."""
    memo = {}
    ok = None
    for lhs, rhs in prem:
        same = [a == b for a, b in zip(T.eval_all(lhs, cols, memo), T.eval_all(rhs, cols, memo))]
        ok = same if ok is None else [x and y for x, y in zip(ok, same)]
    a, b = T.eval_all(concl[0], cols, memo), T.eval_all(concl[1], cols, memo)
    if ok is None:
        return a == b
    return all(x == y or not sat for x, y, sat in zip(a, b, ok))


def _columns(T, variables):
    """Every valuation of the variables, column-wise; column 0 only fixes
    the length for terms without variables."""
    tuples = list(itertools.product(range(T.size), repeat=len(variables)))
    cols = {v: [t[i] for t in tuples] for i, v in enumerate(variables)}
    cols[0] = [0] * len(tuples)
    return cols


def own_quasi_verdict(T, prem, concl, variables):
    """Full sweep where |A|^vars is small; otherwise every variable that a
    premise x_j = t(earlier variables) pins is computed, not swept.
    None when neither is small enough."""
    if T.size ** len(variables) <= O.SWEEP_LIMIT:
        return _sweep(T, prem, concl, _columns(T, variables))
    pinned = {}
    for lhs, rhs in prem:
        for side, other in ((lhs, rhs), (rhs, lhs)):
            if side[0] == "v" and side[1] not in pinned and all(
                    w < side[1] for w in O.vars_of(other)):
                pinned[side[1]] = other
    free = [v for v in variables if v not in pinned]
    if T.size ** len(free) > O.SWEEP_LIMIT * 10:
        return None
    cols = _columns(T, free)
    memo = {}
    for v in sorted(pinned):
        cols[v] = T.eval_all(pinned[v], cols, memo)
    return _sweep(T, prem, concl, cols)


def check_quasi(job, verdict, tables, origin_expect=None):
    T = tables.get(job["spec"])
    prem, concl = _qi_terms(job["qi"])
    variables = sorted(set().union(*(O.vars_of(t) for pair in prem + [concl] for t in pair)))
    own = own_quasi_verdict(T, prem, concl, variables)
    if own is None:
        own = origin_expect
    need(own is not None, "no independent verdict")
    need(verdict["holds"] == own, f"verdict {verdict['holds']}, own check says {own}")
    if not own:
        check_quasi_witness(T, prem, concl, verdict["witness"])


def check_quasi_witness(T, prem, concl, w):
    val = {int(name[1:]): x for name, x in w["valuation"].items()}
    for lhs, rhs in prem:
        need(T.eval1(lhs, val) == T.eval1(rhs, val), "witness breaks a premise")
    a, b = T.eval1(concl[0], val), T.eval1(concl[1], val)
    need(a != b, "witness satisfies the conclusion")
    need(w["conclusion"] == {"lhs": a, "rhs": b}, "witness conclusion values")


def qb_expectation(job, tables):
    """qb_n in free:m,k lies in SP(si:m), so it holds there when it holds in
    si:m; qb_3 holds in free:m,1 and free:m,2 for m >= 3 (the paper's
    admissibility result)."""
    origin = job.get("origin", "")
    if not origin.startswith("qb") or not job["spec"].startswith("free:"):
        return None
    n = int(origin[2:])
    m = int(job["spec"].split(":")[1].split(",")[0])
    if n == 3 and m >= 3:
        return True
    prem, concl = _qi_terms(inputs.qb_doc(n))
    if own_quasi_verdict(tables.get(f"si:{m}"), prem, concl, list(range(1, n + 1))):
        return True
    return None


def check_report(job, out, tables):
    need(out["exit"] == 0, f"exit {out['exit']}")
    n = int(job["argv"][1])
    doc = json.loads(out["stdout"])
    if n < 3:
        need(doc["structurallyComplete"] is True and doc["hereditarily"] is True,
             "levels below 3 are structurally complete")
        need(len(doc["subquasivarieties"]) == n + 2, "subquasivariety count")
        need(len(doc["witnesses"]) == n, "witness count")
        for w, size in zip(doc["witnesses"], (3, 5)):
            T = tables.get(w["algebra"])
            sub = set(w["subuniverse"])
            need(len(sub) == size and w["verified"] is True, "witness subuniverse size")
            need(all(T.star[a] in sub and T.meet[a][b] in sub and T.join[a][b] in sub
                     for a in sub for b in sub), "witness subuniverse is not closed")
        return
    need(doc["structurallyComplete"] is False and doc["quasiIdentity"] == "qb_3",
         "levels from 3 on are not structurally complete")
    got = [(a["algebra"], a["size"], a["verdict"]["holds"]) for a in doc["admissibleInFree"]]
    need(got == [(f"free:{n},{k}", O.free_size(n, k), True) for k in (1, 2)],
         "qb_3 must hold in free:n,1 and free:n,2")
    fails = doc["failsIn"]
    need(fails["algebra"] == "si:3" and fails["verdict"]["holds"] is False, "qb_3 in si:3")
    prem, concl = _qi_terms(inputs.qb_doc(3))
    check_quasi_witness(tables.get("si:3"), prem, concl, fails["verdict"]["witness"])


# ------------------------------------------------------------------- all

def check_outputs(jobs, outputs, pa) -> dict[int, str]:
    tables = TableSource(pa)
    wrong = {}
    for job in jobs:
        out = outputs[str(job["id"])]
        try:
            if isinstance(out, dict) and "error" in out:
                raise Wrong(out["error"])
            kind = job["kind"]
            command = job["argv"][0] if kind == "cli" else kind
            if kind == "eq":
                check_eq(job, out, pa)
            elif kind == "nf":
                check_nf(job, out, pa)
            elif command == "dual":
                check_dual(job, out, tables)
            elif command == "convert":
                check_convert(job, out, tables, pa)
            elif command == "free":
                check_free(job, out)
            elif command == "report":
                check_report(job, out, tables)
            elif command == "qi":
                verdict = json.loads(out["stdout"])
                need(out["exit"] == (0 if verdict["holds"] else 1), "exit code")
                check_quasi(job, verdict, tables, qb_expectation(job, tables))
            else:
                check_quasi(job, out, tables, qb_expectation(job, tables))
        except Wrong as exc:
            wrong[job["id"]] = str(exc)
        except (KeyError, TypeError, ValueError) as exc:
            wrong[job["id"]] = f"malformed output: {type(exc).__name__}: {exc}"
    return wrong
