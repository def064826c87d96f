"""Spans around the public functions of palgebra's layers.

Tracer.install() replaces each traced function in its defining module and
in every palgebra module that imported it by name (cli and decide import
cm_all, normal_form and others that way); uninstall() puts the originals
back.  A span records name, start, end, parent span and job; spans stay in
memory until the benchmark writes them out.  eval_postfix runs once per
valuation in the sweeps, so it only feeds counters and its parent's child
time, without a span record.  Nothing called per element (A.leq, A.meet) is
wrapped.
"""

from __future__ import annotations

import sys
from time import process_time

# (module, attribute, span name).  "Poset.from_leq" names a classmethod.
TARGETS = [
    ("palgebra.terms", "parse", "terms.parse"),
    ("palgebra.terms", "to_text", "terms.to_text"),
    ("palgebra.terms", "eval_postfix", "terms.eval"),
    ("palgebra.posets", "Poset.from_leq", "posets.poset_build"),
    ("palgebra.posets", "Poset.from_covers", "posets.poset_build"),
    ("palgebra.posets", "enumerate_upsets", "posets.upset_enum"),
    ("palgebra.algebras", "validate", "algebras.validate"),
    ("palgebra.algebras", "algebra_loads", "algebras.load"),
    ("palgebra.algebras", "is_isomorphic", "algebras.isomorphism"),
    ("palgebra.free", "free_skeleton", "free.skeleton"),
    ("palgebra.free", "normal_form", "free.normal_form"),
    ("palgebra.free", "build_free", "free.build_free"),
    ("palgebra.congruences", "prime_filters", "congruences.prime_filters"),
    ("palgebra.congruences", "cm_all", "congruences.cm_all"),
    ("palgebra.congruences", "cm_posets", "congruences.cm_posets"),
    ("palgebra.decide", "check_identity", "decide.identity"),
    ("palgebra.decide", "check_quasi_identity", "decide.quasi"),
    ("palgebra.decide", "structural_completeness_report", "decide.report"),
    ("palgebra.cli", "main", "cli.main"),
    ("palgebra.cli", "load_algebra", "cli.load_algebra"),
]
HOT = {"terms.eval"}

# Span names whose *_ms metric is self time; the others are inclusive.
SELF_TIME = {"decide.identity", "congruences.cm_all", "cli.main", "cli.load_algebra"}


def _joinands(t) -> int:
    count, stack = 0, [t]
    while stack:
        node = stack.pop()
        if type(node).__name__ == "Join":
            stack.append(node.left)
            stack.append(node.right)
        else:
            count += 1
    return count


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, job]
        self.stack: list[list] = []   # frames [child_time, span_index]
        self.calls: dict[str, int] = {}
        self.incl: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self.depth: dict[str, int] = {}
        self.job = -1
        self._patches: list[tuple] = []

    def add(self, key: str, amount) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    # ------------------------------------------------------------ wrappers

    def _wrap(self, name: str, fn):
        tracer = self
        hot = name in HOT
        on_result = _ON_RESULT.get(name)

        def traced(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1][1] if stack else -1
            if hot:
                frame = [0.0, parent]
            else:
                frame = [0.0, len(tracer.spans)]
                tracer.spans.append([name, 0.0, 0.0, parent, tracer.job])
            depth = tracer.depth
            depth[name] = depth.get(name, 0) + 1
            builds_before = tracer.counts.get("posets.poset_builds", 0)
            stack.append(frame)
            t0 = process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = process_time()
                stack.pop()
                d = t1 - t0
                if stack:
                    stack[-1][0] += d
                depth[name] -= 1
                tracer.calls[name] = tracer.calls.get(name, 0) + 1
                if not depth[name]:
                    tracer.incl[name] = tracer.incl.get(name, 0.0) + d
                tracer.self_time[name] = tracer.self_time.get(name, 0.0) + d - frame[0]
                if not hot:
                    span = tracer.spans[frame[1]]
                    span[1], span[2] = t0, t1
            if on_result is not None:
                on_result(tracer, args, result, builds_before)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == "palgebra" or key.startswith("palgebra.")]
        for mod_name, attr, name in TARGETS:
            home = sys.modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                wrapped = classmethod(self._wrap(name, original.__func__))
                self._patches.append((cls, meth, original))
                setattr(cls, meth, wrapped)
                continue
            original = getattr(home, attr)
            wrapped = self._wrap(name, original)
            for mod in modules:
                if mod.__dict__.get(attr) is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------- metrics

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Per-round figures over `rounds` traced rounds."""
        def ms(name):
            src = self.self_time if name in SELF_TIME else self.incl
            return src.get(name, 0.0) * 1000 / rounds

        def per(value):
            return value / rounds

        c = self.counts
        calls = self.calls
        pruned = c.get("decide.pruned_verdicts", 0)
        return {
            "terms.parse_ms": ms("terms.parse"),
            "terms.to_text_ms": ms("terms.to_text"),
            "terms.eval_calls": per(calls.get("terms.eval", 0)),
            "terms.eval_ms": ms("terms.eval"),
            "posets.poset_builds": per(calls.get("posets.poset_build", 0)),
            "posets.poset_build_ms": ms("posets.poset_build"),
            "posets.upsets": per(c.get("posets.upsets", 0)),
            "posets.upset_enum_ms": ms("posets.upset_enum"),
            "algebras.validate_calls": per(calls.get("algebras.validate", 0)),
            "algebras.validate_elements": per(c.get("algebras.validate_elements", 0)),
            "algebras.validate_ms": ms("algebras.validate"),
            "algebras.load_ms": ms("algebras.load"),
            "algebras.isomorphism_ms": ms("algebras.isomorphism"),
            "free.skeleton_calls": per(calls.get("free.skeleton", 0)),
            "free.skeleton_builds": per(c.get("free.skeleton_builds", 0)),
            "free.skeleton_indices": per(c.get("free.skeleton_indices", 0)),
            "free.skeleton_ms": ms("free.skeleton"),
            "free.normal_form_calls": per(calls.get("free.normal_form", 0)),
            "free.normal_form_ms": ms("free.normal_form"),
            "free.nf_joinands": per(c.get("free.nf_joinands", 0)),
            "free.build_free_ms": ms("free.build_free"),
            "congruences.prime_filters": per(c.get("congruences.prime_filters", 0)),
            "congruences.prime_filters_ms": ms("congruences.prime_filters"),
            "congruences.cm_records": per(c.get("congruences.cm_records", 0)),
            "congruences.cm_all_ms": ms("congruences.cm_all"),
            "congruences.cm_posets_ms": ms("congruences.cm_posets"),
            "decide.identity_calls": per(calls.get("decide.identity", 0)),
            "decide.identity_ms": ms("decide.identity"),
            "decide.nf_verdicts": per(c.get("decide.nf_verdicts", 0)),
            "decide.sweep_verdicts": per(c.get("decide.sweep_verdicts", 0)),
            "decide.sweep_valuations": per(c.get("decide.sweep_valuations", 0)),
            "decide.quasi_calls": per(calls.get("decide.quasi", 0)),
            "decide.quasi_ms": ms("decide.quasi"),
            "decide.search_nodes": per(c.get("decide.search_nodes", 0)),
            "decide.quasi_valuations": per(c.get("decide.quasi_valuations", 0)),
            "decide.search_nodes_per_verdict":
                c.get("decide.search_nodes", 0) / pruned if pruned else 0.0,
            "decide.report_ms": ms("decide.report"),
            "cli.main_ms": ms("cli.main"),
            "cli.load_algebra_ms": ms("cli.load_algebra"),
        }


# Work counts read off the values the traced functions take and return.

def _skeleton(tracer, args, result, builds_before):
    if tracer.counts.get("posets.poset_builds", 0) > builds_before:
        tracer.add("free.skeleton_builds", 1)
        tracer.add("free.skeleton_indices", len(result[0]))


def _poset_build(tracer, args, result, builds_before):
    tracer.add("posets.poset_builds", 1)


def _identity(tracer, args, verdict, builds_before):
    if verdict.method == "normal-form":
        tracer.add("decide.nf_verdicts", 1)
    elif verdict.method == "exhaustive":
        tracer.add("decide.sweep_verdicts", 1)
        tracer.add("decide.sweep_valuations", verdict.budget_used)


def _quasi(tracer, args, verdict, builds_before):
    if verdict.method == "pruned":
        tracer.add("decide.pruned_verdicts", 1)
        tracer.add("decide.search_nodes", verdict.budget_used)
    else:
        tracer.add("decide.quasi_valuations", verdict.budget_used)


_ON_RESULT = {
    "posets.poset_build": _poset_build,
    "posets.upset_enum": lambda tr, a, r, b: tr.add("posets.upsets", len(r)),
    "algebras.validate": lambda tr, a, r, b: tr.add("algebras.validate_elements", a[0].size),
    "free.skeleton": _skeleton,
    "free.normal_form": lambda tr, a, r, b: tr.add("free.nf_joinands", _joinands(r)),
    "congruences.prime_filters": lambda tr, a, r, b: tr.add("congruences.prime_filters", len(r)),
    "congruences.cm_all": lambda tr, a, r, b: tr.add("congruences.cm_records", len(r)),
    "decide.identity": _identity,
    "decide.quasi": _quasi,
}
