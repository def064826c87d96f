"""Seeded inputs for the three workloads.

make_jobs(workload, seed, work_dir) returns the job list of one round and
writes the files those jobs read (table-kind algebras, quasi-identities)
into work_dir.  The same seed gives the same jobs and the same files.
"""

from __future__ import annotations

import json
import os
import random

import oracles as O

# ------------------------------------------------------------- identities

# Strata (level, variables) of random jobs.  Omega stops at 3 variables:
# with 4 the index set (66,658) passes the poset cap and the fallback sweep
# its budget.
IDENTITY_STRATA = [(1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (2, 4),
                   (3, 2), (3, 3), (None, 2), (None, 3)]

# Per random stratum and round: pairs decided plainly, pairs with a witness
# wanted (finite levels only), law instances, normal forms.
PAIRS, WITNESS_PAIRS, LAWS, NFS = 16, 8, 8, 24
TERM_DEPTH = (3, 4)

# Level 3 with 4 variables (1,161 indices, the largest skeleton) gets a
# small fixed set of jobs instead of a random stratum: a normal form there
# costs 6.7 ms on average, with a coefficient of variation of 1.4, so a
# full stratum would be most of a round.
FIXED_34_ENV = {1: "x1", 2: "x2 | x4*", 3: "x3 & x4"}
FIXED_34_PAIRS = [("x1 & x2 | x3 & x4", "(x1 | x3) & (x2 | x4)"),
                  ("(x1 & x2)* | x3**", "x1* | x2* | x3 & x4"),
                  ("(x1 | x2 | x3 | x4)**", "x1** | x2** | x3** | x4**"),
                  ("x1 & x2* & (x3 | x4*)", "x1 & (x2 & x3)* & x4")]
FIXED_34_TERMS = ["x1 & (x2 | x3* & x4)", "(x1 | x2)* | (x3 & x4)**",
                  "((x1 & x2*) | (x3 & x4*))*", "x1* & x2 | x3* & x4 | x1 & x4**",
                  "(x1 | x2 & x3 | x4*)**", "x4 & (x1* | x2**) & (x3 | x1)",
                  "(x1 & x2 & x3 & x4)* | x1 & x2", "x2** & x3* | (x1 | x4)* & x3"]

# Identities of every p-algebra, over metavariables 1..3.
LAW_TEXTS = [
    ("x1 & (x2 | x3)", "x1 & x2 | x1 & x3"),
    ("x1 | x2 & x3", "(x1 | x2) & (x1 | x3)"),
    ("x1 & (x1 | x2)", "x1"),
    ("x1 & (x1 & x2)*", "x1 & x2*"),
    ("x1***", "x1*"),
    ("(x1 | x2)*", "x1* & x2*"),
    ("x1 & x1*", "0"),
    ("x1 & x1**", "x1"),
    ("(x1 & x2)**", "x1** & x2**"),
]


def _term_with_top_var(rng, depth, k):
    """A random term over x1..xk that mentions xk, so the pair's variable
    count is exactly k."""
    while True:
        t = O.random_term(rng, depth, k)
        if k in O.vars_of(t):
            return t


def ib_text(m: int) -> str:
    """ib_m: the join over i <= m+1 of (x_i & the stars of the others)*."""
    parts = []
    for i in range(1, m + 2):
        others = " & ".join(f"x{j}*" for j in range(1, m + 2) if j != i)
        parts.append(f"(x{i} & {others})*")
    return " | ".join(parts)


def identity_jobs(rng):
    """The random strata's terms come from one fixed corpus; the seed renames
    each job's variables (a permutation of x1..xk) and orders the jobs.
    Renaming is a symmetry of the index set, so the cost of a round, and
    the job sizes around p90, do not depend on the seed."""
    corpus = random.Random("identities-corpus")
    jobs = []

    def eq(lhs, rhs, level, witness, origin, expect=None):
        jobs.append({"kind": "eq", "lhs": lhs, "rhs": rhs, "level": level,
                     "witness": witness, "origin": origin, "expect": expect})

    def renamed(k, *terms):
        env = {i + 1: ("v", j) for i, j in enumerate(rng.sample(range(1, k + 1), k))}
        return [O.text(O.substitute(t, env)) for t in terms]

    for level, k in IDENTITY_STRATA:
        for p in range(PAIRS + WITNESS_PAIRS):
            depth = TERM_DEPTH[p % 2]
            lhs = _term_with_top_var(corpus, depth, k)
            rhs = O.random_term(corpus, depth, k)
            witness = p >= PAIRS and level is not None
            eq(*renamed(k, lhs, rhs), level, witness, "random")
        for _ in range(LAWS):
            lhs, rhs = corpus.choice(LAW_TEXTS)
            env = {i: O.random_term(corpus, 2, k) for i in (1, 2, 3)}
            env[corpus.randint(1, 3)] = ("v", k)
            eq(*renamed(k, O.substitute(O.parse(lhs), env), O.substitute(O.parse(rhs), env)),
               level, False, "law", True)
        for p in range(NFS):
            t = _term_with_top_var(corpus, TERM_DEPTH[p % 2], k)
            jobs.append({"kind": "nf", "term": renamed(k, t)[0], "level": level})
    for lhs, rhs in LAW_TEXTS:
        env = {i: O.parse(t) for i, t in FIXED_34_ENV.items()}
        eq(O.text(O.substitute(O.parse(lhs), env)),
           O.text(O.substitute(O.parse(rhs), env)), 3, False, "law", True)
    for i, (lhs, rhs) in enumerate(FIXED_34_PAIRS):
        eq(lhs, rhs, 3, i % 2 == 0, "fixed")
    for t in FIXED_34_TERMS:
        jobs.append({"kind": "nf", "term": t, "level": 3})
    # The Stone identity holds at level 1 and, as x1* | x1** = 1, fails at
    # level 2; ib_n holds at level n and fails one level up.
    for level in (1, 2):
        a = _term_with_top_var(corpus, 2, 2) if level == 1 else ("v", 1)
        eq(O.text(("|", ("*", a), ("*", ("*", a)))), "1", level, level == 2, "stone",
           level == 1)
    for m in (1, 2, 3):
        eq(ib_text(m), "1", m, False, "ib", True)
        if m < 3:
            eq(ib_text(m), "1", m + 1, True, "ib", False)
    return jobs


# ------------------------------------------------------------- structures

SPECS = ["si:1", "si:2", "si:3", "si:4", "chain:3", "chain:4", "chain:5",
         "dist:2", "dist:3", "free:1,1", "free:2,1", "free:1,2", "free:2,2"]
FREE_RANKS = [("1", 1), ("2", 1), ("1", 2), ("2", 2)]

# Table files: products of si:n and chains, 20 to 102 elements, each with
# its elements renamed by a seeded permutation.  The dual is taken of the
# ones up to DUAL_FILE_LIMIT elements; all are converted.
TABLE_FILES = [(("si", 2), ("chain", 4)), (("si", 2), ("si", 2)),
               (("si", 3), ("chain", 3)), (("si", 3), ("chain", 4)),
               (("si", 3), ("si", 2)), (("si", 3), ("chain", 7)),
               (("si", 3), ("si", 3)), (("si", 4), ("chain", 6))]
DUAL_FILE_LIMIT = 45


def factor_tables(kind, m):
    return O.si_tables(m) if kind == "si" else O.chain_tables(m)


def table_file_tables(rng, factors) -> O.Tables:
    (ka, ma), (kb, mb) = factors
    T = O.product_tables(factor_tables(ka, ma), factor_tables(kb, mb))
    perm = list(range(T.size))
    rng.shuffle(perm)
    return O.relabel(T, perm)


def structure_jobs(rng, work_dir):
    jobs = []
    for spec in SPECS:
        jobs.append({"kind": "cli", "argv": ["dual", spec], "spec": spec})
        jobs.append({"kind": "cli", "argv": ["convert", spec], "spec": spec})
    for n, k in FREE_RANKS:
        jobs.append({"kind": "cli", "argv": ["free", "-n", n, "-k", str(k)]})
    for factors in TABLE_FILES:
        T = table_file_tables(rng, factors)
        name = "x".join(f"{kind}{m}" for kind, m in factors)
        path = os.path.join(work_dir, f"table-{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"kind": "table", "size": T.size, "meet": T.meet,
                       "join": T.join, "star": T.star, "zero": T.zero,
                       "one": T.one}, fh)
        jobs.append({"kind": "cli", "argv": ["convert", path], "spec": path})
        if T.size <= DUAL_FILE_LIMIT:
            jobs.append({"kind": "cli", "argv": ["dual", path], "spec": path})
    return jobs


# ------------------------------------------------------------------ quasi

SMALL = ["si:1", "si:2", "si:3", "si:4", "chain:3", "chain:4", "chain:5", "dist:3"]
TINY = {"si:1", "si:2", "si:3", "chain:3", "chain:4", "chain:5"}  # <= 9 elements
FREE = ["free:1,2", "free:2,2", "free:3,2", "free:4,2"]
FIXED = SMALL + FREE          # built once in set-up
REPORTS = (1, 2, 3, 4, 5, 6)
# Random quasi-identities per round: light ones on SMALL (2 variables, or
# 3 on TINY) and pinned-shape ones on FREE.  With the fixed jobs a round
# holds 50 jobs, 7 of them heavy (~0.5 s: qb_3 on free:2..4,2 and reports
# 3..6), so p90 falls inside that fixed group, not on its edge.
RANDOM_SMALL = 12
RANDOM_FREE = 4


def qb_doc(n: int) -> dict:
    """qb_n: x_i* = join of the other variables for every i => join = 1."""
    prem = [{"lhs": f"x{i}*",
             "rhs": " | ".join(f"x{j}" for j in range(1, n + 1) if j != i)}
            for i in range(1, n + 1)]
    concl = {"lhs": " | ".join(f"x{i}" for i in range(1, n + 1)), "rhs": "1"}
    return {"premises": prem, "conclusion": concl}


def _eq(rng, depth, k):
    return {"lhs": O.text(O.random_term(rng, depth, k)),
            "rhs": O.text(O.random_term(rng, depth, k))}


def random_quasi(rng, k: int) -> dict:
    """1 or 2 random premises and a random conclusion over x1..xk."""
    prem = [_eq(rng, rng.choice((1, 2)), k) for _ in range(rng.choice((1, 2)))]
    return {"premises": prem, "conclusion": _eq(rng, 2, k)}


def pinned_quasi(rng, k: int) -> dict:
    """Premises x_j = t(x_1..x_{j-1}) for j >= 2, one random premise over
    all variables, a random conclusion: the pruned search pins every
    variable but x1, so it visits about |A| nodes."""
    prem = [{"lhs": f"x{j}", "rhs": O.text(O.random_term(rng, 2, j - 1))}
            for j in range(2, k + 1)]
    prem.append(_eq(rng, 2, k))
    return {"premises": prem, "conclusion": _eq(rng, 2, k)}


def quasi_jobs(rng, work_dir):
    jobs = []
    for n in (2, 3):
        path = os.path.join(work_dir, f"qb{n}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(qb_doc(n), fh)
        for i, spec in enumerate(SMALL):
            strategy = ("exhaustive", "pruned")[(i + n) % 2]
            jobs.append({"kind": "cli", "spec": spec, "qi": qb_doc(n), "origin": f"qb{n}",
                         "argv": ["qi", path, "--algebra", spec, "--strategy", strategy]})
    for spec in FREE:
        for n, strategy in ((2, "pruned"), (2, "exhaustive"), (3, "pruned")):
            jobs.append({"kind": "quasi", "spec": spec, "qi": qb_doc(n),
                         "strategy": strategy, "origin": f"qb{n}"})
    for n in REPORTS:
        jobs.append({"kind": "cli", "argv": ["report", str(n)]})
    for r in range(RANDOM_SMALL):
        spec = SMALL[r % len(SMALL)]
        k = 2 + (r // len(SMALL)) % 2 if spec in TINY else 2
        jobs.append({"kind": "quasi", "spec": spec, "qi": random_quasi(rng, k),
                     "strategy": ("exhaustive", "pruned")[(r // 2) % 2],
                     "origin": "random"})
    for r in range(RANDOM_FREE):
        jobs.append({"kind": "quasi", "spec": FREE[r % len(FREE)],
                     "qi": pinned_quasi(rng, 2 + r % 2),
                     "strategy": "pruned", "origin": "pinned"})
    return jobs


def make_jobs(workload: str, seed: int, work_dir: str) -> list[dict]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "identities":
        jobs = identity_jobs(rng)
    elif workload == "structures":
        jobs = structure_jobs(rng, work_dir)
    else:
        jobs = quasi_jobs(rng, work_dir)
    rng.shuffle(jobs)
    for i, job in enumerate(jobs):
        job["id"] = i
    return jobs
