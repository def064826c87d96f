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
