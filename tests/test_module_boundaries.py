"""Modules of the runtime reach each other only through public names."""

import ast
from pathlib import Path

import palgebra

SRC = Path(palgebra.__file__).parent


def test_no_private_name_crosses_a_module():
    private = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and (node.module or "").split(".")[0] != "palgebra":
                continue
            for alias in node.names:
                if alias.name.startswith("_"):
                    private.append(f"{path.name}:{node.lineno}: {alias.name}")
    assert private == []


def test_no_function_in_terms_calls_itself():
    # parse, to_text, compile_postfix and term_from_json take terms of any
    # depth: the term module keeps explicit stacks, never recursion
    calls = []
    path = SRC / "terms.py"
    for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            if isinstance(callee, ast.Name) and callee.id == fn.name or (
                    isinstance(callee, ast.Attribute) and callee.attr == fn.name
                    and isinstance(callee.value, ast.Name) and callee.value.id in ("self", "cls")):
                calls.append(f"{path.name}:{node.lineno}: {fn.name}")
    assert calls == []


# the container types whose values a cache could be kept in
MUTABLE = {"list", "List", "dict", "Dict", "set", "Set", "defaultdict", "OrderedDict"}
MUTATORS = {"append", "extend", "insert", "setdefault", "update", "add", "pop", "popitem",
            "remove", "discard", "clear", "__setitem__"}


def _names(node):
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | {
        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}


def _is_container(value):
    """Whether a module-level value is a mutable container, built or literal."""
    if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
                          ast.SetComp)):
        return True
    return isinstance(value, ast.Call) and bool(_names(value.func) & MUTABLE)


def test_every_cache_has_one_of_two_homes():
    # derived objects are kept in module-level functools.lru_caches and
    # per-algebra answers in the carrier's slots; nothing rides on a
    # NamedTuple's list and no function fills a module-level container
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        containers = {t.id for node in tree.body if isinstance(node, ast.Assign)
                      and _is_container(node.value)
                      for t in node.targets if isinstance(t, ast.Name)}
        containers |= {node.target.id for node in tree.body if isinstance(node, ast.AnnAssign)
                       and node.value is not None and _is_container(node.value)}
        for node in ast.walk(tree):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.ClassDef) and "NamedTuple" in _names(ast.Tuple(node.bases)):
                found += [f"{where}: {node.name}.{f.target.id} is a list"
                          for f in node.body if isinstance(f, ast.AnnAssign)
                          and _names(f.annotation) & {"list", "List"}]
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{where}: {node.name} is memoised by {sorted(_names(d))}"
                          for d in node.decorator_list
                          if _names(d) & {"cache", "cached_property"}]
                for inner in ast.walk(node):
                    if isinstance(inner, ast.Global) and (path.name, inner.names) != (
                            "config.py", ["DEFAULT"]):  # the run's settings, read once
                        found.append(f"{where}: {node.name} rebinds {inner.names}")
                    if (isinstance(inner, ast.Subscript) and isinstance(inner.value, ast.Name)
                            and inner.value.id in containers
                            and not isinstance(inner.ctx, ast.Load)):
                        found.append(f"{where}: {node.name} stores into {inner.value.id}")
                    if (isinstance(inner, ast.Call) and isinstance(inner.func, ast.Attribute)
                            and inner.func.attr in MUTATORS
                            and isinstance(inner.func.value, ast.Name)
                            and inner.func.value.id in containers):
                        found.append(f"{where}: {node.name} fills {inner.func.value.id}")
    assert found == []
