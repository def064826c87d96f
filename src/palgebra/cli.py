"""Command-line interface.

JSON results go to stdout (the nf command prints plain term text),
diagnostics to stderr.  Every JSON document is written in pieces by
``algebras.json_chunks``, byte-identical to ``json.dumps(doc, indent=2)``, so
a large table is never held as one string.  ``main`` builds its argument
parser once per process (``build_parser`` is cached).  Exit codes: 0 success
/ identity or quasi-identity holds; 1 usage errors, parse errors, or a
failing verdict; 2 a size cap or valuation budget was exceeded (with a
machine-readable reason on stderr).
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache, partial

from . import config
from .algebras import (
    TableAlgebra,
    algebra_loads,
    chain_carrier,
    json_chunks,
    proved_algebra_doc,
    proved_indices,
    si_carrier,
    violations,
)
from .congruences import cm_all, cm_posets
from .decide import (
    Equation,
    QuasiIdentity,
    check_identity,
    check_quasi_identity,
    structural_completeness_report,
)
from .errors import BudgetExceeded, CapExceeded, MalformedTables, ParseError, shown
from .free import build_free, count_jirr_or_text, free_distributive, free_skeleton, normal_form
from .posets import export_dot
from .terms import parse, to_text


# json's reader recurses once per nesting level; a quasi-identity file may
# nest its JSON-tree terms this deep (deeper ends as "input nested too deeply")
_JSON_DEPTH = 10_000


def _print_json(doc) -> None:
    sys.stdout.writelines(json_chunks(doc))


def _level(text: str) -> int | None:
    if text in ("omega", "w"):
        return None
    try:
        n = int(text)
        if n >= 0:
            return n
    except ValueError:
        pass
    raise ValueError(f"bad level {text!r}: use a nonnegative integer or omega")


def _variety(text: str) -> int | None:
    if text == "pa":
        return None
    if text.startswith("pa") and text[2:].isdigit():
        try:
            return int(text[2:])
        except ValueError as exc:  # more digits than int() reads
            raise ValueError(f"bad variety {text!r}: {exc}") from exc
    raise ValueError(f"bad variety {text!r}: use pa or pa<N>")


def load_algebra(spec: str):
    """si:n | chain:m | free:n,k | dist:s | path to an algebra JSON file."""
    head, sep, tail = spec.partition(":")
    if sep and head in ("si", "chain", "free", "dist"):
        try:
            if head == "si":
                return si_carrier(int(tail))
            if head == "chain":
                return chain_carrier(int(tail))
            if head == "dist":
                return free_distributive(int(tail))
            n_text, _, k_text = tail.partition(",")
            return build_free(_level(n_text), int(k_text)).algebra
        except ValueError as exc:
            raise ValueError(f"bad algebra spec {spec!r}: {exc}") from exc
    try:
        with open(spec, encoding="utf-8") as fh:
            A = algebra_loads(fh.read())
    except OSError as exc:
        raise ValueError(f"cannot read algebra file {spec!r}: {exc}") from exc
    # hand-written table files get linted; upset algebras are correct by shape
    if isinstance(A, TableAlgebra):
        problem = next(violations(A), None)
        if problem is not None:
            raise ValueError(f"algebra file {spec!r} violates the laws: {problem}")
    return A


def cmd_free(args) -> int:
    n = _level(args.n)
    out = {"n": "omega" if n is None else n, "k": args.k,
           "jCount": shown(count_jirr_or_text(n, args.k))}
    if args.export or not args.count_only:
        skeleton = free_skeleton(n, args.k)
        indices, poset = skeleton.indices, skeleton.poset
        if args.export:
            dot = export_dot(poset, labels=[str(j.to_json_dict()) for j in indices])
            if args.export == "-":
                sys.stdout.write(dot)
            else:
                try:
                    with open(args.export, "w", encoding="utf-8") as fh:
                        fh.write(dot)
                except OSError as exc:
                    raise ValueError(f"cannot write DOT file {args.export!r}: {exc}") from exc
        if not args.count_only:
            out["elements"] = build_free(n, args.k).size
    _print_json(out)
    return 0


def cmd_nf(args) -> int:
    t = parse(args.term)
    sys.stdout.write(to_text(normal_form(t, _level(args.n))) + "\n")
    return 0


def cmd_eq(args) -> int:
    e = Equation(parse(args.lhs), parse(args.rhs))
    verdict = check_identity(e, _variety(args.variety), want_witness=args.witness)
    _print_json(verdict.to_json_dict())
    return 0 if verdict.holds else 1


def cmd_qi(args) -> int:
    try:
        with open(args.file, encoding="utf-8") as fh:
            text = fh.read()
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(limit, _JSON_DEPTH))
        try:
            doc = json.loads(text)
        finally:
            sys.setrecursionlimit(limit)
    except OSError as exc:
        raise ValueError(f"cannot read quasi-identity file {args.file!r}: {exc}")
    except ValueError as exc:  # a JSONDecodeError, or an int of too many digits
        raise ValueError(f"bad JSON in {args.file!r}: {exc}")
    q = QuasiIdentity.from_json_dict(doc)
    A = load_algebra(args.algebra)
    verdict = check_quasi_identity(q, A, args.strategy)
    _print_json(verdict.to_json_dict())
    return 0 if verdict.holds else 1


def cmd_si(args) -> int:
    _print_json(proved_algebra_doc(si_carrier(args.n)))
    return 0


def cmd_dual(args) -> int:
    A = load_algebra(args.algebra)
    records = cm_all(A)
    n = len(records)
    by_subset, by_one = cm_posets(records)
    _print_json({
        "algebra": args.algebra,
        "count": n,
        "records": [r.to_json_dict(partial(proved_indices, A.size)) for r in records],
        "bySubset": {"covers": proved_indices(n, by_subset.covers(), tuple)},
        "byOneClass": {"covers": proved_indices(n, by_one.covers(), tuple)},
        "storeys": {
            "I": sum(1 for r in records if r.storey == "I"),
            "II": sum(1 for r in records if r.storey == "II"),
        },
    })
    return 0


def cmd_report(args) -> int:
    _print_json(structural_completeness_report(args.n))
    return 0


def cmd_convert(args) -> int:
    _print_json(proved_algebra_doc(load_algebra(args.algebra)))
    return 0


class _UsageError(Exception):
    """argparse's usage text and message, for ``main`` to end in exit 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        """argparse's usage error, raised instead of exiting 2 (subparsers
        are made of this class too)."""
        raise _UsageError(f"{self.format_usage()}{self.prog}: error: {message}\n")


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it."""
    ap = _Parser(
        prog="palgebra",
        description="Finite distributive p-algebras: free algebras, normal "
                    "forms, congruence duals, and identity/quasi-identity "
                    "decision procedures.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("free", help="free algebra by level and rank")
    p.add_argument("-n", required=True,
                   help="level: a nonnegative integer, or omega")
    p.add_argument("-k", type=int, required=True, help="number of generators")
    p.add_argument("--export", metavar="FILE",
                   help="write the index poset as DOT (- for stdout)")
    p.add_argument("--count-only", action="store_true",
                   help="skip element materialization")
    p.set_defaults(fn=cmd_free)

    p = sub.add_parser("nf", help="normal form of a term")
    p.add_argument("term")
    p.add_argument("-n", required=True, help="level (integer or omega)")
    p.set_defaults(fn=cmd_nf)

    p = sub.add_parser("eq", help="decide an identity")
    p.add_argument("lhs")
    p.add_argument("rhs")
    p.add_argument("--variety", default="pa",
                   help="pa (default) or pa<N> for a fixed level")
    p.add_argument("--witness", action="store_true",
                   help="produce a counter-valuation on failure")
    p.set_defaults(fn=cmd_eq)

    p = sub.add_parser("qi", help="evaluate a quasi-identity on an algebra")
    p.add_argument("file", help="JSON file: {premises: [{lhs, rhs}...], "
                                "conclusion: {lhs, rhs}}; terms as text or "
                                "JSON trees")
    p.add_argument("--algebra", required=True,
                   help="si:n | chain:m | free:n,k | dist:s | JSON path")
    p.add_argument("--strategy", choices=("exhaustive", "pruned"),
                   default="exhaustive")
    p.set_defaults(fn=cmd_qi)

    p = sub.add_parser("si", help="print the level-n subdirectly irreducible "
                                  "algebra as JSON tables")
    p.add_argument("n", type=int)
    p.set_defaults(fn=cmd_si)

    p = sub.add_parser("dual", help="congruence records of an algebra with "
                                    "both orders")
    p.add_argument("algebra",
                   help="si:n | chain:m | free:n,k | dist:s | JSON path")
    p.set_defaults(fn=cmd_dual)

    p = sub.add_parser("report", help="structural completeness report for a "
                                      "level")
    p.add_argument("n", type=int)
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("convert", help="load an algebra spec and print its "
                                       "JSON tables")
    p.add_argument("algebra",
                   help="si:n | chain:m | free:n,k | dist:s | JSON path")
    p.set_defaults(fn=cmd_convert)

    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except _UsageError as exc:
        sys.stderr.write(str(exc))
        return 1
    try:
        config.DEFAULT  # read PALGEBRA_* up front: a bad value is reported as itself
        return args.fn(args)
    except CapExceeded as exc:
        sys.stderr.write(json.dumps({
            "error": "cap-exceeded", "what": exc.what,
            "count": exc.shown, "cap": exc.cap}) + "\n")
        return 2
    except BudgetExceeded as exc:
        sys.stderr.write(json.dumps({
            "error": "budget-exceeded", "what": exc.what,
            "needed": exc.shown, "budget": exc.budget}) + "\n")
        return 2
    except ParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return 1
    except (ValueError, MalformedTables) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except RecursionError:
        sys.stderr.write("error: input nested too deeply\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
