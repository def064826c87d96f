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
