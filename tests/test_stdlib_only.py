"""The runtime imports nothing outside the standard library."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import palgebra

SRC = Path(palgebra.__file__).parent


def test_every_import_is_relative_or_stdlib():
    outside = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                if name.split(".")[0] not in sys.stdlib_module_names:
                    outside.append(f"{path.name}:{node.lineno}: {name}")
    assert outside == []


def test_the_cli_imports_neither_dataclasses_nor_inspect():
    # a fresh interpreter, as the command line starts, without the site
    # hooks of the environment (-S): config.Config is a NamedTuple, and
    # nothing else the CLI imports pulls either module in
    src = str(SRC.parent)
    probe = ("import sys; import palgebra.cli; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"
